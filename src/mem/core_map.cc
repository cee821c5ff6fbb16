#include "src/mem/core_map.h"

#include "src/base/log.h"

namespace multics {

CoreMap::CoreMap(uint32_t frames) : frames_(frames) {
  free_list_.reserve(frames);
  for (uint32_t i = 0; i < frames; ++i) {
    free_list_.push_back(frames - 1 - i);  // Allocate low frames first.
  }
}

Result<FrameIndex> CoreMap::AllocateFree() {
  if (free_list_.empty()) {
    return Status::kResourceExhausted;
  }
  FrameIndex frame = free_list_.back();
  free_list_.pop_back();
  frames_[frame].free = false;
  return frame;
}

void CoreMap::Bind(FrameIndex frame, ActiveSegment* owner, PageNo page, bool wired) {
  CHECK_LT(frame, frames_.size());
  FrameInfo& fi = frames_[frame];
  CHECK(!fi.free);
  fi.owner = owner;
  fi.page = page;
  fi.wired = wired;
}

void CoreMap::Release(FrameIndex frame) {
  CHECK_LT(frame, frames_.size());
  FrameInfo& fi = frames_[frame];
  CHECK(!fi.free);
  fi = FrameInfo{};
  free_list_.push_back(frame);
}

bool CoreMap::UsedBit(FrameIndex frame) const {
  const FrameInfo& fi = frames_[frame];
  if (fi.free || fi.owner == nullptr) {
    return false;
  }
  return fi.owner->page_table.entries[fi.page].used;
}

bool CoreMap::ModifiedBit(FrameIndex frame) const {
  const FrameInfo& fi = frames_[frame];
  if (fi.free || fi.owner == nullptr) {
    return false;
  }
  return fi.owner->page_table.entries[fi.page].modified;
}

void CoreMap::ClearUsedBit(FrameIndex frame) {
  FrameInfo& fi = frames_[frame];
  if (!fi.free && fi.owner != nullptr) {
    fi.owner->page_table.entries[fi.page].used = false;
  }
}

CoreMap::State CoreMap::SaveState() const {
  State state{frames_, {}, free_list_};
  for (FrameIndex frame = 0; frame < state.frames.size(); ++frame) {
    FrameInfo& info = state.frames[frame];
    if (info.owner != nullptr) {
      state.owners.emplace_back(frame, info.owner->uid);
      info.owner = nullptr;
    }
  }
  return state;
}

void CoreMap::RestoreState(const State& state, ActiveSegmentTable& ast) {
  CHECK_EQ(state.frames.size(), frames_.size());
  frames_ = state.frames;
  free_list_ = state.free_list;
  for (const auto& [frame, uid] : state.owners) {
    frames_[frame].owner = ast.Find(uid);
    CHECK(frames_[frame].owner != nullptr) << "frame " << frame << " owner " << uid << " not active";
  }
}

}  // namespace multics
