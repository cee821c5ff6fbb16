#include "src/mem/replacement.h"

#include <algorithm>

#include "src/base/log.h"

namespace multics {
namespace {

bool Evictable(const CoreMap& core_map, FrameIndex frame) {
  const FrameInfo& fi = core_map.info(frame);
  return !fi.free && !fi.wired && !fi.evicting && fi.owner != nullptr;
}

}  // namespace

// --- Clock -------------------------------------------------------------------

void ClockPolicy::NotifyLoaded(FrameIndex) {}
void ClockPolicy::NotifyFreed(FrameIndex) {}

FrameIndex ClockPolicy::SelectVictim(CoreMap& core_map) {
  const uint32_t n = core_map.frame_count();
  if (n == 0) {
    return kInvalidFrame;
  }
  // Two full sweeps guarantee termination: the first clears used bits, the
  // second must find one clear unless everything is wired/free.
  for (uint32_t step = 0; step < 2 * n; ++step) {
    FrameIndex frame = hand_;
    hand_ = (hand_ + 1) % n;
    if (!Evictable(core_map, frame)) {
      continue;
    }
    if (core_map.UsedBit(frame)) {
      core_map.ClearUsedBit(frame);  // Second chance.
      continue;
    }
    return frame;
  }
  return kInvalidFrame;
}

// --- FIFO --------------------------------------------------------------------

void FifoPolicy::NotifyLoaded(FrameIndex frame) { queue_.push_back(frame); }

void FifoPolicy::NotifyFreed(FrameIndex frame) {
  auto it = std::find(queue_.begin(), queue_.end(), frame);
  if (it != queue_.end()) {
    queue_.erase(it);
  }
}

FrameIndex FifoPolicy::SelectVictim(CoreMap& core_map) {
  // Oldest evictable frame. Non-destructive: the entry leaves the queue via
  // NotifyFreed when page control actually evicts it.
  for (FrameIndex frame : queue_) {
    if (Evictable(core_map, frame)) {
      return frame;
    }
  }
  return kInvalidFrame;
}

// --- Aging LRU ----------------------------------------------------------------

void AgingLruPolicy::NotifyLoaded(FrameIndex frame) {
  if (frame >= age_.size()) {
    age_.resize(frame + 1, 0);
  }
  age_[frame] = 0x80000000u;  // Freshly loaded counts as recently used.
}

void AgingLruPolicy::NotifyFreed(FrameIndex frame) {
  if (frame < age_.size()) {
    age_[frame] = 0;
  }
}

FrameIndex AgingLruPolicy::SelectVictim(CoreMap& core_map) {
  const uint32_t n = core_map.frame_count();
  if (age_.size() < n) {
    age_.resize(n, 0);
  }
  FrameIndex best = kInvalidFrame;
  uint32_t best_age = UINT32_MAX;
  for (FrameIndex frame = 0; frame < n; ++frame) {
    if (!Evictable(core_map, frame)) {
      continue;
    }
    age_[frame] >>= 1;
    if (core_map.UsedBit(frame)) {
      age_[frame] |= 0x80000000u;
      core_map.ClearUsedBit(frame);
    }
    if (age_[frame] < best_age) {
      best_age = age_[frame];
      best = frame;
    }
  }
  return best;
}

std::vector<uint32_t> ReplacementPolicy::SaveState() const {
  CHECK(false) << "replacement policy " << name() << " cannot be saved";
  return {};
}

void ReplacementPolicy::RestoreState(const std::vector<uint32_t>&) {
  CHECK(false) << "replacement policy " << name() << " cannot be restored";
}

std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name) {
  if (name == "clock") {
    return std::make_unique<ClockPolicy>();
  }
  if (name == "fifo") {
    return std::make_unique<FifoPolicy>();
  }
  if (name == "aging-lru") {
    return std::make_unique<AgingLruPolicy>();
  }
  return nullptr;
}

}  // namespace multics
