#include "src/hw/sim_lock.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/hw/machine.h"
#include "src/meter/host_profile.h"

namespace multics {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kPartitioned:
      return "partitioned";
    case LockMode::kGlobalKernelLock:
      return "global";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// LockTrace

void LockTrace::OnAcquire(uint32_t cpu, const SimLock* lock, Cycles at) {
  if (cpu >= held_.size()) {
    held_.resize(cpu + 1);
  }
  ++acquisitions_observed_;
  auto& stack = held_[cpu];
  if (!stack.empty()) {
    const SimLock* outer = stack.back();
    if (!EdgeSeen(outer, lock)) {
      edges_[{outer->name(), lock->name()}] = {outer->level(), lock->level()};
    }
    // The level rule: strictly increasing against *every* held lock, not just
    // the innermost — a same-level re-entry through a different lock object
    // (two directory locks, say) is an inversion waiting for its partner.
    for (const SimLock* held : stack) {
      if (held->level() < lock->level()) continue;
      const LockOrderViolation violation{held->name(), held->level(), lock->name(),
                                         lock->level(), cpu, at};
      if (violations_.size() < kMaxViolations) {
        violations_.push_back(violation);
      }
      if (observer_) {
        observer_(violation);
      }
    }
  }
  stack.push_back(lock);
}

void LockTrace::OnRelease(uint32_t cpu, const SimLock* lock) {
  if (cpu >= held_.size()) return;
  auto& stack = held_[cpu];
  // Releases are LIFO through the RAII guards, but a suspend-around-wait can
  // release from under a later acquisition; search from the top.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == lock) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

void LockTrace::Clear() {
  held_.clear();
  edge_seen_.clear();
  edge_seen_count_ = 0;
  edges_.clear();
  violations_.clear();
  observer_ = nullptr;
  acquisitions_observed_ = 0;
}

LockTrace::State LockTrace::SaveState() const {
  for (const auto& stack : held_) {
    CHECK(stack.empty()) << "lock trace saved while a lock is held";
  }
  return State{edges_, violations_, acquisitions_observed_};
}

void LockTrace::RestoreState(const State& state) {
  for (const auto& stack : held_) {
    CHECK(stack.empty()) << "lock trace restored while a lock is held";
  }
  // The seen-pair memo keys on lock addresses; a restore may drop directory
  // locks, so start it afresh (a miss only re-writes an identical edge).
  edge_seen_.clear();
  edge_seen_count_ = 0;
  edges_ = state.edges;
  violations_ = state.violations;
  acquisitions_observed_ = state.acquisitions_observed;
}

bool LockTrace::EdgeSeen(const SimLock* outer, const SimLock* inner) {
  if ((edge_seen_count_ + 1) * 10 >= edge_seen_.size() * 7) {
    const size_t new_size = edge_seen_.empty() ? 64 : edge_seen_.size() * 2;
    std::vector<EdgeSlot> grown(new_size);
    const size_t mask = new_size - 1;
    for (const EdgeSlot& slot : edge_seen_) {
      if (slot.outer == nullptr) continue;
      size_t i = (reinterpret_cast<uintptr_t>(slot.outer) * 0x9E3779B97F4A7C15ull ^
                  reinterpret_cast<uintptr_t>(slot.inner) * 0x100000001B3ull) &
                 mask;
      while (grown[i].outer != nullptr) {
        i = (i + 1) & mask;
      }
      grown[i] = slot;
    }
    edge_seen_ = std::move(grown);
  }
  const size_t mask = edge_seen_.size() - 1;
  size_t i = (reinterpret_cast<uintptr_t>(outer) * 0x9E3779B97F4A7C15ull ^
              reinterpret_cast<uintptr_t>(inner) * 0x100000001B3ull) &
             mask;
  for (;;) {
    EdgeSlot& slot = edge_seen_[i];
    if (slot.outer == nullptr) {
      slot = EdgeSlot{outer, inner};
      ++edge_seen_count_;
      return false;
    }
    if (slot.outer == outer && slot.inner == inner) {
      return true;
    }
    i = (i + 1) & mask;
  }
}

// ---------------------------------------------------------------------------
// SimLock

SimLock::SimLock(Machine* machine, const char* name, uint32_t level)
    : machine_(machine), name_(name), level_(level) {}

void SimLock::EnsureMeterIds(Meter& meter) {
  if (m_acquire_ != kInvalidMeterId) {
    return;
  }
  const std::string name(name_);
  m_acquire_ = meter.InternCounter("lock/acquire/" + name);
  m_contended_ = meter.InternCounter("lock/contended/" + name);
  m_hold_ = meter.InternDistribution("lock_hold/" + name);
  m_wait_ = meter.InternDistribution("lock_wait/" + name);
}

SimLock::State SimLock::SaveState() const {
  CHECK(depth_ == 0) << "lock " << name_ << " saved while held";
  State state{.busy = {},
              .acquisitions = acquisitions_,
              .contentions = contentions_,
              .wait_cycles = wait_cycles_,
              .hold_cycles = hold_cycles_};
  for (size_t i = busy_head_; i < busy_.size(); ++i) {
    state.busy.emplace_back(busy_[i].start, busy_[i].end);
  }
  return state;
}

void SimLock::RestoreState(const State& state) {
  CHECK(depth_ == 0) << "lock " << name_ << " restored while held";
  busy_.clear();
  busy_head_ = 0;
  for (const auto& [start, end] : state.busy) {
    busy_.push_back(BusyInterval{start, end});
  }
  acquisitions_ = state.acquisitions;
  contentions_ = state.contentions;
  wait_cycles_ = state.wait_cycles;
  hold_cycles_ = state.hold_cycles;
}

void SimLock::Acquire() {
  const uint32_t cpu = machine_->active_cpu();
  if (depth_ > 0 && holder_cpu_ == static_cast<int32_t>(cpu)) {
    ++depth_;  // Reentrant hold: no charge, no trace edge.
    return;
  }
  // The simulation is single-threaded: a CPU's hold is always released in
  // program order before the scheduler runs another CPU, so an acquisition
  // can never observe a *live* foreign hold — only its virtual tail.
  CHECK(depth_ == 0) << "lock " << name_ << " acquired while held by CPU " << holder_cpu_;
  const bool smp = machine_->cpu_count() > 1;
  if (smp) {
    machine_->Charge(machine_->costs().lock_acquire, ChargeKind::kLockOverhead);
    Meter& meter = machine_->meter();
    if (meter.enabled()) {
      EnsureMeterIds(meter);
      meter.Count(m_acquire_);
    }
  }
  ++acquisitions_;
  depth_ = 1;
  holder_cpu_ = static_cast<int32_t>(cpu);
  hold_start_ = machine_->local_now();
  machine_->lock_trace_mutable().OnAcquire(cpu, this, hold_start_);
}

void SimLock::Release() {
  CHECK(depth_ > 0) << "release of unheld lock " << name_;
  if (--depth_ > 0) {
    return;
  }
  const uint32_t cpu = machine_->active_cpu();
  if (machine_->cpu_count() > 1) {
    machine_->Charge(machine_->costs().lock_release, ChargeKind::kLockOverhead);
    const Cycles hold = machine_->local_now() - hold_start_;
    hold_cycles_ += hold;
    Meter& meter = machine_->meter();
    if (meter.enabled()) {
      EnsureMeterIds(meter);
      meter.AddSample(m_hold_, static_cast<double>(hold));
    }
    PlaceHold(hold_start_, hold);
  }
  holder_cpu_ = -1;
  machine_->lock_trace_mutable().OnRelease(cpu, this);
}

void SimLock::PlaceHold(Cycles start, Cycles len) {
  // Busy-interval first-fit placement is a named hot path of the simulator
  // itself (ROADMAP item 3); meter its host cost.
  MX_HOST_SPAN(kLockPlacement);
  // Prune intervals no hold can collide with anymore. A future hold starts
  // at its acquirer's then-local clock, which is at least every CPU's
  // current local clock; the hold being placed right now starts at `start`,
  // which may predate that (the holder's clock ran forward during the hold),
  // so the horizon is capped by `start` too. Pruning only advances the head
  // cursor; the dead prefix is physically dropped once it dominates, so the
  // common case never shifts the vector.
  const Cycles horizon = std::min(machine_->min_local_clock(), start);
  while (busy_head_ < busy_.size() && busy_[busy_head_].end <= horizon) {
    ++busy_head_;
  }
  if (busy_head_ == busy_.size()) {
    busy_.clear();
    busy_head_ = 0;
  } else if (busy_head_ > 32 && busy_head_ * 2 >= busy_.size()) {
    busy_.erase(busy_.begin(), busy_.begin() + static_cast<ptrdiff_t>(busy_head_));
    busy_head_ = 0;
  }
  // First-fit the completed hold [start, start+len) into the gaps between
  // recorded holds. The holder's own past holds all end at or before `start`,
  // so every collision is with another CPU's hold — the shift is the
  // serialization the lock imposes, charged to the holder as wait time.
  // Intervals are disjoint and sorted by start, so ends are sorted too and
  // back().end is the timeline's high-water mark: a hold starting at or past
  // it (the near-monotone common case) places with no search at all.
  Cycles placed = start;
  size_t at = busy_.size();  // Insertion index: first live interval after `placed`.
  const bool past_all = busy_head_ == busy_.size() || busy_.back().end <= placed;
  if (!past_all) {
    const auto live_begin = busy_.begin() + static_cast<ptrdiff_t>(busy_head_);
    for (;;) {
      // First interval starting after `placed`.
      auto it = std::upper_bound(live_begin, busy_.end(), placed,
                                 [](Cycles value, const BusyInterval& b) {
                                   return value < b.start;
                                 });
      if (it != live_begin) {
        auto prev = std::prev(it);
        if (prev->end > placed) {
          placed = prev->end;
          continue;
        }
      }
      if (it == busy_.end() || it->start >= placed + len) {
        at = static_cast<size_t>(it - busy_.begin());
        break;  // [placed, placed+len) fits before the next recorded hold.
      }
      placed = it->end;
    }
  }
  if (placed > start) {
    const Cycles wait = placed - start;
    ++contentions_;
    wait_cycles_ += wait;
    machine_->Charge(wait, ChargeKind::kLockWait);
    Meter& meter = machine_->meter();
    if (meter.enabled()) {
      EnsureMeterIds(meter);
      meter.Count(m_contended_);
      meter.AddSample(m_wait_, static_cast<double>(wait));
    }
  }
  // Record, merging with exactly-adjacent neighbours to keep the vector small.
  Cycles end = placed + len;
  const bool merge_left = at > busy_head_ && busy_[at - 1].end == placed;
  if (at < busy_.size() && busy_[at].start == end) {
    // Absorb the interval starting exactly where this hold ends.
    end = busy_[at].end;
    if (merge_left) {
      busy_[at - 1].end = end;
      busy_.erase(busy_.begin() + static_cast<ptrdiff_t>(at));
    } else {
      busy_[at] = BusyInterval{placed, end};
    }
    return;
  }
  if (merge_left) {
    busy_[at - 1].end = end;
    return;
  }
  busy_.insert(busy_.begin() + static_cast<ptrdiff_t>(at), BusyInterval{placed, end});
}

bool SimLock::SuspendForWait() {
  if (depth_ != 1) {
    // Unheld (caller runs lock-free) or held reentrantly (global-lock mode:
    // the gate span owns the outer hold, which must cover the wait).
    return false;
  }
  Release();
  return true;
}

void SimLock::ResumeFromWait(bool token) {
  if (token) {
    Acquire();
  }
}

// ---------------------------------------------------------------------------
// LockSet

LockSet::LockSet(Machine* machine, LockMode mode)
    : machine_(machine),
      mode_(mode),
      global_(machine, "kernel", 0),
      page_table_(machine, "page_table", 3),
      ast_(machine, "ast", 2),
      traffic_(machine, "traffic", 4) {}

SimLock& LockSet::Dir(uint64_t dir_uid) {
  if (mode_ != LockMode::kPartitioned) {
    return global_;
  }
  return *FindOrCreateDir(dir_uid);
}

SimLock* LockSet::FindOrCreateDir(uint64_t dir_uid) {
  if ((dir_count_ + 1) * 10 >= dir_slots_.size() * 7) {
    GrowDirTable();  // Keeps load under 70%; also builds the initial table.
  }
  const size_t mask = dir_slots_.size() - 1;
  size_t i = static_cast<size_t>(dir_uid * 0x9E3779B97F4A7C15ull) & mask;
  for (;;) {
    DirSlot& slot = dir_slots_[i];
    if (slot.lock == nullptr) {
      dir_locks_.emplace_back(dir_uid, std::make_unique<SimLock>(machine_, "dir", 1));
      slot = DirSlot{dir_uid, dir_locks_.back().second.get()};
      ++dir_count_;
      return slot.lock;
    }
    if (slot.uid == dir_uid) {
      return slot.lock;
    }
    i = (i + 1) & mask;
  }
}

LockSet::State LockSet::SaveState() const {
  State state{.global = global_.SaveState(),
              .page_table = page_table_.SaveState(),
              .ast = ast_.SaveState(),
              .traffic = traffic_.SaveState(),
              .dirs = {}};
  state.dirs.reserve(dir_locks_.size());
  for (const auto& [uid, lock] : dir_locks_) {
    state.dirs.emplace_back(uid, lock->SaveState());
  }
  return state;
}

void LockSet::RestoreState(const State& state) {
  global_.RestoreState(state.global);
  page_table_.RestoreState(state.page_table);
  ast_.RestoreState(state.ast);
  traffic_.RestoreState(state.traffic);
  // Directory locks are recreated in the saved creation order (the lock
  // trace's memo of lock addresses is dropped on restore).
  dir_slots_.clear();
  dir_count_ = 0;
  dir_locks_.clear();
  for (const auto& [uid, lock_state] : state.dirs) {
    FindOrCreateDir(uid)->RestoreState(lock_state);
  }
}

void LockSet::GrowDirTable() {
  const size_t new_size = dir_slots_.empty() ? 16 : dir_slots_.size() * 2;
  std::vector<DirSlot> grown(new_size);
  const size_t mask = new_size - 1;
  for (const DirSlot& slot : dir_slots_) {
    if (slot.lock == nullptr) continue;
    size_t i = static_cast<size_t>(slot.uid * 0x9E3779B97F4A7C15ull) & mask;
    while (grown[i].lock != nullptr) {
      i = (i + 1) & mask;
    }
    grown[i] = slot;
  }
  dir_slots_ = std::move(grown);
}

void LockSet::ForEach(const std::function<void(const SimLock&)>& fn) const {
  fn(global_);
  fn(page_table_);
  fn(ast_);
  fn(traffic_);
  // Directory locks live in creation order; reports want UID order. The sweep
  // is cold (end-of-run summaries), so sort a view at call time.
  std::vector<std::pair<uint64_t, const SimLock*>> dirs;
  dirs.reserve(dir_locks_.size());
  for (const auto& [uid, lock] : dir_locks_) {
    dirs.emplace_back(uid, lock.get());
  }
  std::sort(dirs.begin(), dirs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [uid, lock] : dirs) {
    fn(*lock);
  }
}

}  // namespace multics
