#include "src/mem/policy_gate.h"

#include <algorithm>

namespace multics {

PageMechanismGates::PageMechanismGates(Machine* machine, CoreMap* core_map)
    : machine_(machine), core_map_(core_map) {}

void PageMechanismGates::ChargeCrossing() {
  ++gate_crossings_;
  const CostModel& costs = machine_->costs();
  if (machine_->ring_mode() == RingMode::kHardware6180) {
    machine_->Charge(costs.intra_ring_call + costs.hardware_ring_call_extra +
                         costs.intra_ring_return,
                     ChargeKind::kPolicyGate);
  } else {
    machine_->Charge(costs.intra_ring_call + costs.software_ring_trap +
                         costs.software_ring_validate + costs.software_ring_swap +
                         costs.intra_ring_return,
                     ChargeKind::kPolicyGate);
  }
}

PageMechanismGates::FrameUsage PageMechanismGates::GetUsage(FrameIndex frame) {
  ChargeCrossing();
  FrameUsage usage;
  if (frame >= core_map_->frame_count()) {
    ++rejected_arguments_;
    return usage;  // Garbage argument: answered with "invalid", never trusted.
  }
  const FrameInfo& fi = core_map_->info(frame);
  usage.valid = !fi.free;
  usage.evictable = !fi.free && !fi.wired && !fi.evicting && fi.owner != nullptr;
  usage.used = core_map_->UsedBit(frame);
  usage.modified = core_map_->ModifiedBit(frame);
  return usage;
}

void PageMechanismGates::ClearUsedBit(FrameIndex frame) {
  ChargeCrossing();
  if (frame >= core_map_->frame_count()) {
    ++rejected_arguments_;
    return;
  }
  core_map_->ClearUsedBit(frame);
}

uint32_t PageMechanismGates::FrameCount() {
  ChargeCrossing();
  return core_map_->frame_count();
}

// --- GatedClockPolicy ---------------------------------------------------------

void GatedClockPolicy::NotifyLoaded(FrameIndex) {}
void GatedClockPolicy::NotifyFreed(FrameIndex) {}

FrameIndex GatedClockPolicy::SelectVictim(CoreMap& core_map) {
  (void)core_map;  // The policy ring has no direct core-map access.
  const uint32_t n = gates_->FrameCount();
  if (n == 0) {
    return kInvalidFrame;
  }
  for (uint32_t step = 0; step < 2 * n; ++step) {
    FrameIndex frame = hand_;
    hand_ = (hand_ + 1) % n;
    PageMechanismGates::FrameUsage usage = gates_->GetUsage(frame);
    if (!usage.evictable) {
      continue;
    }
    if (usage.used) {
      gates_->ClearUsedBit(frame);
      continue;
    }
    return frame;
  }
  return kInvalidFrame;
}

// --- MaliciousPolicy ------------------------------------------------------------

void MaliciousPolicy::NotifyLoaded(FrameIndex frame) { recently_loaded_.push_back(frame); }

void MaliciousPolicy::NotifyFreed(FrameIndex frame) {
  recently_loaded_.erase(std::remove(recently_loaded_.begin(), recently_loaded_.end(), frame),
                         recently_loaded_.end());
}

FrameIndex MaliciousPolicy::SelectVictim(CoreMap& core_map) {
  (void)core_map;
  // Harass the mechanism with garbage arguments; it must shrug them off.
  for (int i = 0; i < 3; ++i) {
    ++garbage_probes_;
    (void)gates_->GetUsage(static_cast<FrameIndex>(rng_.Next()));
    gates_->ClearUsedBit(static_cast<FrameIndex>(rng_.Next()));
  }
  // Pessimal choice: throw out a frame that is actively in use (used bit
  // set) — the exact opposite of second chance — to maximize thrashing.
  const uint32_t n = gates_->FrameCount();
  FrameIndex fallback = kInvalidFrame;
  for (FrameIndex frame = 0; frame < n; ++frame) {
    PageMechanismGates::FrameUsage usage = gates_->GetUsage(frame);
    if (!usage.evictable) {
      continue;
    }
    if (usage.used) {
      return frame;
    }
    if (fallback == kInvalidFrame) {
      fallback = frame;
    }
  }
  return fallback;
}

}  // namespace multics
