// The review activity: "A list of all known Multics security flaws is
// maintained. Each flaw reported is analyzed to determine how it happened,
// how it can be fixed, and how similar flaws can be avoided in the security
// kernel being developed."
//
// The registry tracks flaw reports with Linde-style classifications; the
// built-in catalog seeds it with the flaw patterns the paper and its
// references discuss, tied to the modules of this reproduction that embody
// (or repair) them.

#ifndef SRC_CORE_FLAW_REGISTRY_H_
#define SRC_CORE_FLAW_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace multics {

enum class FlawClass {
  kUncheckedArgument,   // Supervisor trusts user-constructed data (the linker!).
  kMissingCheck,        // An access path skips the reference monitor.
  kRaceCondition,       // TOCTOU between check and use.
  kDefaultPermissive,   // Fail-open defaults.
  kStateConfusion,      // Shared mechanism state leaks between computations.
  kResourceExhaustion,  // Denial of use via unbounded allocation.
};

const char* FlawClassName(FlawClass flaw_class);

struct FlawReport {
  uint32_t id = 0;
  std::string title;
  FlawClass flaw_class = FlawClass::kMissingCheck;
  std::string module;        // Where in this codebase the pattern lives.
  std::string how_exploited; // What a malicious user could do.
  std::string repair;        // How the kernelized design removes it.
  bool repaired = false;
};

class FlawRegistry {
 public:
  uint32_t Add(FlawReport report);  // Returns the assigned id.

  uint32_t total() const { return static_cast<uint32_t>(reports_.size()); }
  uint32_t open_count() const;
  uint32_t CountByClass(FlawClass flaw_class) const;
  const std::vector<FlawReport>& reports() const { return reports_; }

 private:
  std::vector<FlawReport> reports_;
  uint32_t next_id_ = 1;
};

// The seed catalog: flaw patterns from the paper's review activity mapped to
// this reproduction.
std::vector<FlawReport> BuiltinFlawCatalog();

}  // namespace multics

#endif  // SRC_CORE_FLAW_REGISTRY_H_
