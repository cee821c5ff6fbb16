// The gate table: the registry of supervisor entry points callable from the
// user ring. This is the object experiment E1 takes its census over — the
// paper reports that removing the linker eliminated 10% of the gate entry
// points and that the linker and reference-name removals together cut the
// user-available supervisor entries by about one third.

#ifndef SRC_CORE_GATE_H_
#define SRC_CORE_GATE_H_

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/meter/span_census.h"

namespace multics {

enum class GateCategory {
  kAddressSpace,    // Segment-number based initiation/termination.
  kPathAddressing,  // Pathname-based initiation (removed with naming).
  kNaming,          // Reference names, search rules (removed).
  kLinker,          // Dynamic linking (removed).
  kFileSystem,      // Directory/branch manipulation.
  kSegment,         // Length, truncation, status.
  kProcess,         // Process management.
  kIpc,             // Event channels and wakeups.
  kDeviceIo,        // Per-device I/O stacks (removed).
  kNetwork,         // The single network attachment.
  kAdmin,           // Shutdown, metering, authentication.
};

const char* GateCategoryName(GateCategory category);

// Which KernelConfiguration switch keeps a gate in the kernel
// (PresentGates in config.h turns a configuration into a GateSet).
enum class GatePresence {
  kAlways,
  kNamingInKernel,   // naming_in_kernel
  kLinkerInKernel,   // linker_in_kernel
  kPerDeviceIo,      // per_device_io
  kLegacyLogin,      // !login_as_subsystem_entry
};

// The gate census itself, MX_GATE_CENSUS(X) with rows X(enumerator, "name",
// GateCategory, GatePresence), lives in src/meter/span_census.h: the gate
// rows are also the first rows of the span census, so the meter names a
// gate span and the audit log a gate operation by the same row. It
// generates GateId here, so a gate prologue can only name a census gate —
// any other name is a compile error.
enum class GateId : uint8_t {
#define MX_GATE_ENUMERATOR(id, name, category, presence) id,
  MX_GATE_CENSUS(MX_GATE_ENUMERATOR)
#undef MX_GATE_ENUMERATOR
};

#define MX_GATE_ONE(id, name, category, presence) +1
inline constexpr size_t kGateCount = 0 MX_GATE_CENSUS(MX_GATE_ONE);
#undef MX_GATE_ONE

namespace gate_internal {
struct GateRow {
  GateCategory category;
  GatePresence presence;
};
inline constexpr GateRow kGateRows[kGateCount] = {
#define MX_GATE_ROW(id, name, category, presence) \
  {GateCategory::category, GatePresence::presence},
    MX_GATE_CENSUS(MX_GATE_ROW)
#undef MX_GATE_ROW
};
}  // namespace gate_internal

constexpr size_t GateIndex(GateId id) { return static_cast<size_t>(id); }
constexpr GateId GateAt(size_t index) { return static_cast<GateId>(index); }
#define MX_GATE_IS_SPAN(id, name, category, presence) \
  GateIndex(GateId::id) == SpanIndex(SpanId::id) &&
static_assert(MX_GATE_CENSUS(MX_GATE_IS_SPAN) kGateCount == kGateSpanCount,
              "the gate rows must open the span census, in gate order");
#undef MX_GATE_IS_SPAN
// A gate's row in the span census: its span, trace and audit name.
constexpr SpanId SpanOf(GateId id) { return SpanAt(GateIndex(id)); }
constexpr const char* GateName(GateId id) { return SpanName(SpanOf(id)); }
constexpr GateCategory GateCategoryOf(GateId id) {
  return gate_internal::kGateRows[GateIndex(id)].category;
}
constexpr GatePresence GatePresenceOf(GateId id) {
  return gate_internal::kGateRows[GateIndex(id)].presence;
}

// A set of gates, indexed by GateIndex: one configuration's surface.
using GateSet = std::bitset<kGateCount>;

struct GateInfo {
  std::string name;
  GateCategory category;
  uint64_t calls = 0;
};

class GateTable {
 public:
  explicit GateTable(const GateSet& present) : present_(present) {}

  // Adds a gate to this table; kAlreadyExists if it is already there.
  Status Register(GateId id);
  bool Has(GateId id) const { return present_.test(GateIndex(id)); }

  // Counts a call through the gate; kNotAGate if this configuration's kernel
  // does not have it (the mechanism was removed from the kernel).
  Status RecordCall(GateId id) {
    if (!Has(id)) {
      return Status::kNotAGate;
    }
    ++calls_[GateIndex(id)];
    ++total_calls_;
    return Status::kOk;
  }

  uint32_t count() const { return static_cast<uint32_t>(present_.count()); }
  uint32_t CountByCategory(GateCategory category) const;
  uint64_t total_calls() const { return total_calls_; }
  const GateSet& present() const { return present_; }

  // The gates in this table, in census order.
  std::vector<GateInfo> gates() const;

 private:
  GateSet present_;
  std::array<uint64_t, kGateCount> calls_{};
  uint64_t total_calls_ = 0;
};

}  // namespace multics

#endif  // SRC_CORE_GATE_H_
