// The core map: per-frame ownership records for primary memory, plus the
// free list the paper's free-core daemon maintains ahead of demand.

#ifndef SRC_MEM_CORE_MAP_H_
#define SRC_MEM_CORE_MAP_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/hw/core_memory.h"
#include "src/mem/active_segment.h"

namespace multics {

struct FrameInfo {
  bool free = true;
  bool wired = false;
  bool evicting = false;  // Asynchronous eviction in flight; not a victim.
  ActiveSegment* owner = nullptr;
  PageNo page = 0;
};

class CoreMap {
 public:
  explicit CoreMap(uint32_t frames);

  uint32_t frame_count() const { return static_cast<uint32_t>(frames_.size()); }
  uint32_t free_count() const { return static_cast<uint32_t>(free_list_.size()); }

  // Pops a frame from the free list.
  Result<FrameIndex> AllocateFree();

  // Binds an allocated frame to (owner, page).
  void Bind(FrameIndex frame, ActiveSegment* owner, PageNo page, bool wired = false);

  // Unbinds and returns the frame to the free list.
  void Release(FrameIndex frame);

  const FrameInfo& info(FrameIndex frame) const { return frames_[frame]; }
  FrameInfo& info_mutable(FrameIndex frame) { return frames_[frame]; }

  // Reads the hardware used/modified bits for the page occupying `frame`.
  bool UsedBit(FrameIndex frame) const;
  bool ModifiedBit(FrameIndex frame) const;
  void ClearUsedBit(FrameIndex frame);

  // Frame records and free list, saved and restored with the kernel; each
  // owner is held by its segment UID and re-resolved through the AST.
  struct State {
    std::vector<FrameInfo> frames;                          // Owners nulled.
    std::vector<std::pair<FrameIndex, uint64_t>> owners;  // (frame, owner UID).
    std::vector<FrameIndex> free_list;
  };
  State SaveState() const;
  void RestoreState(const State& state, ActiveSegmentTable& ast);

 private:
  std::vector<FrameInfo> frames_;
  std::vector<FrameIndex> free_list_;
};

}  // namespace multics

#endif  // SRC_MEM_CORE_MAP_H_
