// The Meter: the kernel-wide metering, tracing, and profiling registry.
//
// One Meter lives on the Machine, so every layer — processor, page control,
// traffic controller, gate layer, network — records into the same place.
// Four kinds of data:
//   * named monotonic counters (Count by MeterId),
//   * named cycle Distributions (AddSample by MeterId) — e.g. one histogram
//     per gate,
//   * structured TraceEvents in the bounded FlightRecorder (Emit), plus a
//     per-kind event total kept in a flat array,
//   * a causal cycle-attribution profile folded from closed spans
//     (OpenSpan/CloseSpan): self vs. total cycles per call path, per
//     process, per ring. The profile is accumulated incrementally at span
//     close, so it stays exact even after the flight-recorder ring wraps.
//
// Causality: the Meter always has a current TraceContext (the per-process
// span stack; see context.h). The traffic controller switches it on
// dispatch, so concurrent processes grow separate span trees, and a span
// left open across a block never adopts another process's children. The
// current Attribution {pid, ring} says who the cycles being recorded belong
// to; GateSpan overrides it to the calling process (running in ring 0)
// without re-rooting the causal stack.
//
// The meter is strictly observational: it never touches the sim clock, never
// charges cycles, and never alters control flow, so enabling or disabling it
// cannot change what any bench measures. When disabled every entry point is
// a single predictable branch; names are compared/stored only when enabled.
//
// Hot-path layout: every counter and distribution name interns to a dense
// MeterId — a name-sorted index maps name -> id, values live in flat
// id-indexed cells — so recording through an id is an array add with no map
// walk and no string construction. The owner of a name holds its id: a
// fixed name ("ipc/receives", "page/fault_service") and a dynamic
// per-object name (each SimLock, each gate) alike are interned once, lazily
// on the first record, and recorded by id forever after, so a world that
// never records never interns. The profile interns call paths the same way:
// each SpanFrame carries the id of its path (parent path + name pointer), so
// a span close is a hash probe and three adds instead of rebuilding a
// ';'-joined string. Everything exported still reads from the name-sorted
// index, so output stays byte-identical with the pre-interning std::map
// implementation. StaticName is only for names the recorder and the span
// stack keep by pointer (Emit, OpenSpan, TraceSpan).
//
// Determinism: everything is stamped with the sim clock and stored in
// deterministic containers, so two same-seed runs export byte-identical
// traces and profiles — a cross-subsystem regression invariant
// (tests/meter_test.cc).

#ifndef SRC_METER_METER_H_
#define SRC_METER_METER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/meter/context.h"
#include "src/meter/trace.h"

namespace multics {

// Dense handle for an interned counter or distribution name. Valid for the
// lifetime of the Meter that issued it (Clear() drops data, not interning).
using MeterId = uint32_t;
inline constexpr MeterId kInvalidMeterId = 0xffffffffu;

// One row of the cycle-attribution profile: a distinct call path within one
// process at one ring. `path` is the ';'-joined span names from the context
// root to the closed span (folded-stack convention).
struct ProfileKey {
  uint64_t pid = 0;
  uint8_t ring = 0;
  std::string path;

  friend bool operator<(const ProfileKey& a, const ProfileKey& b) {
    return std::tie(a.pid, a.ring, a.path) < std::tie(b.pid, b.ring, b.path);
  }
};

struct ProfileEntry {
  uint64_t count = 0;  // Spans closed at this path.
  Cycles self = 0;     // Cycles inside the span minus closed direct children.
  Cycles total = 0;    // Cycles between open and close.
};

class Meter {
 public:
  explicit Meter(const SimClock* clock, size_t recorder_capacity = 65536);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  Cycles now() const { return clock_->now(); }

  // --- Recording (all no-ops while disabled) -------------------------------
  // Interning registers the name (idempotent, allowed any time, even while
  // disabled — a registered-but-never-recorded name is invisible to every
  // export); recording by id is an array add.
  MeterId InternCounter(std::string_view name);
  MeterId InternDistribution(std::string_view name);
  void Count(MeterId id, uint64_t delta = 1) {
    if (!enabled_) {
      return;
    }
    CounterCell& cell = counter_cells_[id];
    cell.value += delta;
    cell.touched = true;
  }
  void AddSample(MeterId id, double sample) {
    if (!enabled_) {
      return;
    }
    dist_cells_[id]->Add(sample);
  }
  // The recorder keeps `name`'s pointer, not a copy.
  void Emit(TraceEventKind kind, StaticName name, uint64_t arg = 0);

  // --- Causal spans --------------------------------------------------------
  // Opens a span on the current context: pushes a frame capturing the
  // current attribution, emits `kind` (a begin-style event) and returns the
  // context the frame was pushed on — pass it back to CloseSpan so the close
  // lands on the right stack even if the current context changed in between.
  // Returns null while disabled (CloseSpan(null) is a no-op).
  TraceContext* OpenSpan(StaticName name, TraceEventKind kind, uint64_t arg = 0);
  // Closes the top span of `ctx`: emits `kind` with arg = elapsed cycles,
  // charges the elapsed total to the parent frame's child_cycles, and folds
  // {count, self, total} into the attribution profile. Returns elapsed.
  Cycles CloseSpan(TraceContext* ctx, TraceEventKind kind);

  // Installs `ctx` as the current context (null reinstalls the kernel root)
  // and sets the attribution to the context's own {pid, ring}. Returns the
  // previous context. Called by the traffic controller around each dispatch.
  TraceContext* SetContext(TraceContext* ctx);
  TraceContext* context() const { return context_; }
  TraceContext& root_context() { return root_context_; }

  // Overrides who cycles are attributed to without touching the span stack.
  // Returns the previous attribution so callers can restore it (GateSpan).
  Attribution SetAttribution(Attribution a);
  Attribution attribution() const { return attribution_; }

  // Which physical CPU subsequent trace events are stamped with (the per-CPU
  // trace lane). The Machine sets this whenever the active CPU changes.
  void SetCpu(uint32_t cpu) { cpu_ = cpu; }
  uint32_t cpu() const { return cpu_; }

  // Registers a human-readable label for a pid (exporters use it for thread
  // names and folded-stack roots). Pid 0 is pre-labeled "kernel".
  void LabelProcess(uint64_t pid, std::string_view label);
  const std::map<uint64_t, std::string>& process_labels() const { return process_labels_; }

  // --- Inspection ----------------------------------------------------------
  uint64_t counter(std::string_view name) const;
  const Distribution* FindDistribution(std::string_view name) const;
  uint64_t events_of(TraceEventKind kind) const {
    return kind_totals_[static_cast<size_t>(kind)];
  }

  // Name-sorted, so output built from these is deterministic. A name that
  // was interned but never recorded does not appear, matching the old
  // record-creates-the-entry std::map behaviour byte for byte.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, const Distribution*>> DistributionSnapshot() const;

  // The attribution profile, key-sorted (pid, ring, path) — deterministic.
  // Rebuilt lazily from the interned cells; entries whose interned paths
  // spell the same string merge, so the view is identical to the old
  // string-keyed accumulation.
  const std::map<ProfileKey, ProfileEntry>& profile() const;
  // Sum of `self` over the whole profile. When one root span encloses an
  // entire measured window (and every nested span closed), this equals that
  // window's elapsed cycles exactly.
  Cycles ProfileSelfTotal() const;

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // Open-span depth of the *current* context (1 = one span open).
  uint32_t span_depth() const { return static_cast<uint32_t>(context_->stack.size()); }

  // Drops all recorded data (events, counters, profile, span ids); keeps the
  // enabled flag, interned names (ids stay valid), context registrations,
  // and process labels. Must not be called while any span is open — open
  // frames would fold into a cleared profile with a stale parent chain.
  void Clear();

  // Everything recorded, saved and restored with the kernel (Kernel::Snapshot).
  // Interning is append-only and survives a restore, so every id an owner
  // holds stays valid: names interned after the save read as registered but
  // never recorded. The current context is the caller's to re-install (the
  // kernel maps it by pid); only a meter with no open span can be saved.
  struct State;
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  // Interned call-path node: `full` is the ';'-joined spelling, kept so the
  // export view can be rebuilt without walking any span stack.
  struct PathNode {
    uint32_t parent = 0;
    const char* name = "";
    std::string full;
  };
  struct PathKey {
    uint32_t parent;
    const char* name;  // Compared by pointer; same text via two pointers
                       // makes two nodes whose exports merge by spelling.
    bool operator==(const PathKey& o) const { return parent == o.parent && name == o.name; }
  };
  struct PathKeyHash {
    size_t operator()(const PathKey& k) const {
      return (reinterpret_cast<uintptr_t>(k.name) >> 3) * 0x9E3779B97F4A7C15ull ^ k.parent;
    }
  };
  struct CellKey {
    uint64_t pid;
    uint32_t path_id;
    uint8_t ring;
    bool operator==(const CellKey& o) const {
      return pid == o.pid && path_id == o.path_id && ring == o.ring;
    }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      // Multiplied last so the low bits (the open-address mask) are mixed.
      uint64_t h = k.pid ^ (static_cast<uint64_t>(k.path_id) * 0x100000001B3ull) ^ k.ring;
      h *= 0x9E3779B97F4A7C15ull;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  struct CounterCell {
    uint64_t value = 0;
    bool touched = false;  // Ever recorded: gates export visibility.
  };
  struct ProfileCell {
    uint64_t pid = 0;
    uint8_t ring = 0;
    uint32_t path_id = 0;
    ProfileEntry entry;
  };

  // Interns the path `parent` extended by span name `name`.
  uint32_t InternPath(uint32_t parent, const char* name);
  // Find-or-create the profile cell for `key` (open-addressed; see
  // cell_slots_).
  uint32_t ProfileCellFor(const CellKey& key);

  const SimClock* clock_;
  bool enabled_ = true;
  FlightRecorder recorder_;
  std::array<uint64_t, kTraceEventKindCount> kind_totals_{};

  // mx:hot-path:begin — id-indexed cells and the path interner; every
  // Count/AddSample/span-close lands here. No std::map, no string rebuild.
  std::vector<std::pair<std::string, MeterId>> counter_names_;  // Name-sorted.
  std::vector<CounterCell> counter_cells_;                      // Id-indexed.
  std::vector<std::pair<std::string, MeterId>> dist_names_;     // Name-sorted.
  std::vector<std::unique_ptr<Distribution>> dist_cells_;       // Stable ptrs.
  std::vector<PathNode> paths_;  // [0] is the empty root path.
  std::unordered_map<PathKey, uint32_t, PathKeyHash> path_ids_;
  // Open-addressed CellKey -> profile cell index: power-of-two, linear
  // probing, grown under 70% load. Runs on every span close, so no
  // node-based map.
  struct CellSlot {
    CellKey key{};
    uint32_t cell = kFreeCell;  // kFreeCell marks an empty slot.
  };
  static constexpr uint32_t kFreeCell = 0xffffffffu;
  std::vector<CellSlot> cell_slots_;
  size_t cell_count_ = 0;
  std::vector<ProfileCell> profile_cells_;
  // mx:hot-path:end

  TraceContext root_context_{0, 0};
  TraceContext* context_ = &root_context_;
  Attribution attribution_{};
  uint32_t cpu_ = 0;
  uint64_t next_span_id_ = 1;
  std::map<uint64_t, std::string> process_labels_{{0, "kernel"}};

  // Export-side view of the profile cells, rebuilt on demand (cold).
  mutable std::map<ProfileKey, ProfileEntry> profile_view_;
  mutable bool profile_view_valid_ = true;

 public:
  struct State {
    bool enabled = true;
    FlightRecorder recorder{0};
    std::array<uint64_t, kTraceEventKindCount> kind_totals{};
    std::vector<CounterCell> counters;      // Id-indexed, ids interned at the save.
    std::vector<Distribution> distributions;  // Likewise.
    std::vector<CellSlot> cell_slots;
    size_t cell_count = 0;
    std::vector<ProfileCell> profile_cells;
    Attribution attribution{};
    uint32_t cpu = 0;
    uint64_t next_span_id = 1;
    std::map<uint64_t, std::string> process_labels;
  };
};

// RAII helper for nested durations: opens a causal span (kSpanBegin) on
// construction and closes it (kSpanEnd, arg = elapsed cycles) on
// destruction, adding the elapsed cycles to the distribution named `name`.
// `dist` is that distribution's id, held by the span's owner: it starts as
// kInvalidMeterId and the first recorded close interns it. The enabled check
// happens once, at construction; a span on a disabled meter costs two null
// checks. The span remembers which context it opened on, so it closes
// correctly even if the dispatcher switched contexts.
class TraceSpan {
 public:
  TraceSpan(Meter* meter, StaticName name, MeterId& dist, uint64_t arg = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Meter* meter_;  // Null when the meter was disabled at construction.
  TraceContext* ctx_ = nullptr;
  StaticName name_;
  MeterId& dist_;
};

}  // namespace multics

#endif  // SRC_METER_METER_H_
