// The kernel's simulated interlocks. On the uniprocessor the Multics
// supervisor needed no locks at all — a process in ring 0 ran until it
// blocked — and this simulation reproduced that: the kernel was serialized by
// construction, so every locking invariant held trivially. The multiprocessor
// refactor makes serialization an explicit, *measured* property instead:
//
//   * `SimLock` is a virtual-time lock. Every completed hold is first-fit
//     placed onto the lock's virtual timeline — the earliest point at or
//     after the holder's local time where the whole hold fits between other
//     CPUs' recorded holds — and any shift is charged to the holder as
//     "lock_wait" with the per-lock contention counter bumped. Holds on one
//     lock therefore never overlap in virtual time: a giant lock's holds
//     chain into one contiguous busy interval and added CPUs just queue
//     behind it, while a partitioned lock's short holds leave gaps that
//     trailing CPUs' holds land in for free. On a 1-CPU machine every
//     operation is free and chargeless, preserving cycle identity with the
//     uniprocessor model.
//   * `LockSet` is the kernel's lock map. In `kPartitioned` mode it hands out
//     the historical hierarchy (per-directory locks, the AST lock, the global
//     page-table lock, the traffic-control lock); in `kGlobalKernelLock`
//     mode every accessor routes to one giant lock that `GateSpan` holds for
//     the whole gate body — the strawman the scaling benchmark compares
//     against.
//   * `LockTrace` observes every acquisition: per-CPU held stacks, the set of
//     observed nesting edges, and any edge that violates the declared level
//     order. The static certifier (src/audit_static/) turns a non-empty
//     violation list into a certification failure, and mx_lint certifies the
//     `kLockHierarchy` table below against the copy in docs/ARCHITECTURE.md.

#ifndef SRC_HW_SIM_LOCK_H_
#define SRC_HW_SIM_LOCK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/meter/meter.h"

namespace multics {

class Machine;
class SimLock;

// How the kernel serializes itself on a multiprocessor.
enum class LockMode {
  kPartitioned,       // The historical hierarchy: dir < ast < page_table < traffic.
  kGlobalKernelLock,  // One giant lock held across each whole gate body.
};

const char* LockModeName(LockMode mode);

// One row of the certified lock hierarchy: a lock may only be acquired when
// its level is strictly greater than the level of every lock already held by
// the acquiring CPU.
struct LockLevelSpec {
  const char* name;
  uint32_t level;
};

// The kernel lock hierarchy, outermost (lowest level) first. "kernel" is the
// giant lock of kGlobalKernelLock mode; in that mode every accessor routes to
// it, so acquisitions are reentrant and never produce an ordering edge.
// mx_lint certifies this table against the one in docs/ARCHITECTURE.md.
inline constexpr LockLevelSpec kLockHierarchy[] = {
    {"kernel", 0},
    {"dir", 1},
    {"ast", 2},
    {"page_table", 3},
    {"traffic", 4},
};

// An observed nesting: `inner` was acquired while `outer` was held.
struct LockOrderEdge {
  std::string outer;
  uint32_t outer_level = 0;
  std::string inner;
  uint32_t inner_level = 0;
};

// An acquisition that broke the level order (potential deadlock/inversion).
struct LockOrderViolation {
  std::string held;
  uint32_t held_level = 0;
  std::string acquired;
  uint32_t acquired_level = 0;
  uint32_t cpu = 0;
  Cycles time = 0;
};

// Passive observer of lock acquisitions. Never advances the clock. The edge
// set and violation list are deterministic (std::map keyed by name pairs),
// so two same-seed runs certify identically.
class LockTrace {
 public:
  void OnAcquire(uint32_t cpu, const SimLock* lock, Cycles at);
  void OnRelease(uint32_t cpu, const SimLock* lock);

  // Observed nesting edges, keyed (outer name, inner name) -> levels.
  const std::map<std::pair<std::string, std::string>, std::pair<uint32_t, uint32_t>>& edges()
      const {
    return edges_;
  }
  const std::vector<LockOrderViolation>& violations() const { return violations_; }
  uint64_t acquisitions_observed() const { return acquisitions_observed_; }

  // Observer called on each detected ordering violation, in addition to (and
  // unbounded by) the recorded list. The model checker (src/modelcheck/)
  // installs one so a violation can be attributed to the exact gate call that
  // produced it; pass an empty function to uninstall. Cleared by Clear().
  void SetViolationObserver(std::function<void(const LockOrderViolation&)> observer) {
    observer_ = std::move(observer);
  }


  size_t held_depth(uint32_t cpu) const {
    return cpu < held_.size() ? held_[cpu].size() : 0;
  }
  void Clear();

  // The recorded history, saved and restored with the kernel. Only a trace
  // with no lock held can be saved or restored; the observer is wiring and
  // stays installed.
  struct State {
    std::map<std::pair<std::string, std::string>, std::pair<uint32_t, uint32_t>> edges;
    std::vector<LockOrderViolation> violations;
    uint64_t acquisitions_observed = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  static constexpr size_t kMaxViolations = 64;  // Enough to diagnose; bounded.

  bool EdgeSeen(const SimLock* outer, const SimLock* inner);

  std::vector<std::vector<const SimLock*>> held_;  // Per-CPU stacks.
  // (outer, inner) lock-object pairs already folded into edges_, so the
  // acquire path consults the string-keyed map once per pair, not once per
  // nesting. Skipping the repeat write is sound because same-named locks
  // share a level by construction (the name is the lock's type label), so a
  // rewrite would store the identical value.
  struct EdgeSlot {
    const SimLock* outer = nullptr;
    const SimLock* inner = nullptr;
  };
  std::vector<EdgeSlot> edge_seen_;
  size_t edge_seen_count_ = 0;
  std::map<std::pair<std::string, std::string>, std::pair<uint32_t, uint32_t>> edges_;
  std::vector<LockOrderViolation> violations_;
  std::function<void(const LockOrderViolation&)> observer_;
  uint64_t acquisitions_observed_ = 0;
};

// A reentrant virtual-time lock. Not a thread primitive: the simulation is
// single-threaded and deterministic; serialization is settled at *release*,
// when the hold's length is known — the hold is first-fit placed into the
// timeline's gaps and the holder's local clock is charged forward by however
// far the hold had to shift. Placement at release rather than grant at
// acquisition is what keeps the model honest in both directions: a long hold
// cannot hide in a short gap, and a short hold is never made to queue behind
// holds it would in fact have slipped between.
class SimLock {
 public:
  SimLock(Machine* machine, const char* name, uint32_t level);

  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;

  // Acquire/Release are void on purpose: a lock acquisition in the simulation
  // cannot fail, and a Status return would read as a discardable result.
  void Acquire();
  void Release();

  // Release around a long synchronous wait (a device transfer) so other CPUs
  // can enter the partition, then re-acquire. When the lock is held
  // reentrantly — the global-lock mode, where the gate span owns the outer
  // hold — the pair is a no-op and the giant lock covers the whole wait,
  // which is exactly what makes that configuration scale flat.
  bool SuspendForWait();
  void ResumeFromWait(bool token);

  const char* name() const { return name_; }
  uint32_t level() const { return level_; }
  bool held() const { return depth_ > 0; }
  uint32_t depth() const { return depth_; }

  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contentions() const { return contentions_; }
  Cycles wait_cycles() const { return wait_cycles_; }
  Cycles hold_cycles() const { return hold_cycles_; }

  // Timeline and counters of an unheld lock (Kernel::Snapshot).
  struct State {
    std::vector<std::pair<Cycles, Cycles>> busy;  // Live intervals, [start, end).
    uint64_t acquisitions = 0;
    uint64_t contentions = 0;
    Cycles wait_cycles = 0;
    Cycles hold_cycles = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  // mx:hot-path:begin — busy-interval timeline and per-lock meter ids;
  // PlaceHold runs once per SMP hold, so no std::map and no string building.
  Machine* machine_;
  const char* name_;
  uint32_t level_;

  // First-fit a completed hold of `len` cycles starting no earlier than
  // `start` onto the timeline; charge any shift to the active CPU.
  void PlaceHold(Cycles start, Cycles len);
  // Interns the four per-lock meter names once (first metered operation).
  void EnsureMeterIds(Meter& meter);

  uint32_t depth_ = 0;
  int32_t holder_cpu_ = -1;
  Cycles hold_start_ = 0;

  // Placed holds as disjoint intervals, sorted by start. Holds arrive in
  // near-monotone time order, so placement is amortised O(1): most holds
  // land at or after the last interval (one back() check, no search).
  // A CPU's own holds always end at or before its local clock, so every
  // collision during placement is with a foreign hold. Intervals ending
  // before every CPU's local clock are pruned — no future hold can collide
  // with them — by advancing busy_head_; the dead prefix is compacted away
  // once it dominates the vector, keeping memory proportional to the live
  // window.
  struct BusyInterval {
    Cycles start;
    Cycles end;
  };
  std::vector<BusyInterval> busy_;
  size_t busy_head_ = 0;  // First live interval; [0, busy_head_) is pruned.

  // Interned ids for this lock's meter names ("lock/acquire/<name>" etc.),
  // filled lazily so locks on a metered machine intern exactly the names
  // the old string path would have created.
  MeterId m_acquire_ = kInvalidMeterId;
  MeterId m_contended_ = kInvalidMeterId;
  MeterId m_hold_ = kInvalidMeterId;
  MeterId m_wait_ = kInvalidMeterId;
  // mx:hot-path:end

  uint64_t acquisitions_ = 0;
  uint64_t contentions_ = 0;
  Cycles wait_cycles_ = 0;
  Cycles hold_cycles_ = 0;
};

// RAII acquisition.
class LockGuard {
 public:
  explicit LockGuard(SimLock& lock) : lock_(lock) { lock_.Acquire(); }
  ~LockGuard() { lock_.Release(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  SimLock& lock_;
};

// RAII suspend-around-wait (see SimLock::SuspendForWait).
class LockWaitRegion {
 public:
  explicit LockWaitRegion(SimLock& lock) : lock_(lock), token_(lock.SuspendForWait()) {}
  ~LockWaitRegion() { lock_.ResumeFromWait(token_); }
  LockWaitRegion(const LockWaitRegion&) = delete;
  LockWaitRegion& operator=(const LockWaitRegion&) = delete;

 private:
  SimLock& lock_;
  bool token_;
};

// The kernel's lock map. Accessors route by mode: partitioned mode hands out
// the real hierarchy; global mode returns the one giant "kernel" lock from
// every accessor, so nested module acquisitions become reentrant holds.
class LockSet {
 public:
  LockSet(Machine* machine, LockMode mode);

  LockMode mode() const { return mode_; }

  SimLock& Global() { return global_; }
  SimLock& PageTable() { return mode_ == LockMode::kPartitioned ? page_table_ : global_; }
  SimLock& Ast() { return mode_ == LockMode::kPartitioned ? ast_ : global_; }
  SimLock& Traffic() { return mode_ == LockMode::kPartitioned ? traffic_ : global_; }
  // Per-directory lock, created on first use. All directory locks share the
  // name "dir" and level 1; no path ever nests two directory locks.
  SimLock& Dir(uint64_t dir_uid);

  size_t dir_lock_count() const { return dir_count_; }

  // Every lock's state; directory locks in creation order, by UID.
  struct State {
    SimLock::State global;
    SimLock::State page_table;
    SimLock::State ast;
    SimLock::State traffic;
    std::vector<std::pair<uint64_t, SimLock::State>> dirs;
  };
  State SaveState() const;
  void RestoreState(const State& state);

  // Deterministic sweep over every lock (fixed locks first, then directory
  // locks in UID order) for reports and benches.
  void ForEach(const std::function<void(const SimLock&)>& fn) const;

 private:
  Machine* machine_;
  LockMode mode_;
  SimLock global_;
  SimLock page_table_;
  SimLock ast_;
  SimLock traffic_;

  // mx:hot-path:begin — per-directory lock directory. Dir() runs on every
  // directory operation of every session; the open-addressing probe table
  // resolves a UID in O(1) with no node allocation or tree walk. Ownership
  // lives in `dir_locks_` (stable addresses, creation order, UID alongside
  // for the sorted ForEach sweep); `dir_slots_` only points into it.
  struct DirSlot {
    uint64_t uid = 0;
    SimLock* lock = nullptr;  // nullptr marks an empty slot.
  };
  SimLock* FindOrCreateDir(uint64_t dir_uid);
  void GrowDirTable();
  std::vector<DirSlot> dir_slots_;  // Power-of-two, linear probing.
  size_t dir_count_ = 0;
  std::vector<std::pair<uint64_t, std::unique_ptr<SimLock>>> dir_locks_;
  // mx:hot-path:end
};

}  // namespace multics

#endif  // SRC_HW_SIM_LOCK_H_
