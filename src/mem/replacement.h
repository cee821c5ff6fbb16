// Page-replacement policies. The policy answers exactly one question — which
// frame to free next — and the paper's partitioning discussion (policy /
// mechanism separation via rings) is built on keeping this decision outside
// the most-privileged ring; see src/mem/policy_gate.h.

#ifndef SRC_MEM_REPLACEMENT_H_
#define SRC_MEM_REPLACEMENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/core_map.h"

namespace multics {

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual const char* name() const = 0;

  // Frame lifecycle notifications from page control.
  virtual void NotifyLoaded(FrameIndex frame) = 0;
  virtual void NotifyFreed(FrameIndex frame) = 0;

  // Selects an in-use, unwired frame to evict, or kInvalidFrame if none
  // exists. May read and clear hardware used bits through the core map.
  virtual FrameIndex SelectVictim(CoreMap& core_map) = 0;

  // The policy's bookkeeping as words, saved and restored with the kernel.
  // A policy that does not override these cannot be saved (CHECKed).
  virtual std::vector<uint32_t> SaveState() const;
  virtual void RestoreState(const std::vector<uint32_t>& state);
};

// The classic clock (second-chance) algorithm Multics used: sweep a hand
// around the core map, clearing used bits, evicting the first frame whose
// bit is already clear.
class ClockPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "clock"; }
  void NotifyLoaded(FrameIndex frame) override;
  void NotifyFreed(FrameIndex frame) override;
  FrameIndex SelectVictim(CoreMap& core_map) override;
  std::vector<uint32_t> SaveState() const override { return {hand_}; }
  void RestoreState(const std::vector<uint32_t>& state) override { hand_ = state.at(0); }

 private:
  FrameIndex hand_ = 0;
};

// First-in first-out over load order.
class FifoPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "fifo"; }
  void NotifyLoaded(FrameIndex frame) override;
  void NotifyFreed(FrameIndex frame) override;
  FrameIndex SelectVictim(CoreMap& core_map) override;
  std::vector<uint32_t> SaveState() const override { return {queue_.begin(), queue_.end()}; }
  void RestoreState(const std::vector<uint32_t>& state) override {
    queue_.assign(state.begin(), state.end());
  }

 private:
  std::deque<FrameIndex> queue_;
};

// Aging-approximated LRU: each victim selection right-shifts every frame's
// age register and ORs the (cleared) used bit into the top; the minimum age
// wins.
class AgingLruPolicy : public ReplacementPolicy {
 public:
  const char* name() const override { return "aging-lru"; }
  void NotifyLoaded(FrameIndex frame) override;
  void NotifyFreed(FrameIndex frame) override;
  FrameIndex SelectVictim(CoreMap& core_map) override;
  std::vector<uint32_t> SaveState() const override { return age_; }
  void RestoreState(const std::vector<uint32_t>& state) override { age_ = state; }

 private:
  std::vector<uint32_t> age_;
};

std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name);

}  // namespace multics

#endif  // SRC_MEM_REPLACEMENT_H_
