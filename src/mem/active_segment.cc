#include "src/mem/active_segment.h"

namespace multics {

const char* PageLevelName(PageLevel level) {
  switch (level) {
    case PageLevel::kZero:
      return "zero";
    case PageLevel::kCore:
      return "core";
    case PageLevel::kBulk:
      return "bulk";
    case PageLevel::kDisk:
      return "disk";
    case PageLevel::kInTransit:
      return "in-transit";
  }
  return "?";
}

Result<ActiveSegment*> ActiveSegmentTable::Activate(uint64_t uid, uint32_t pages,
                                                    const std::vector<DevAddr>& disk_home) {
  if (table_.contains(uid)) {
    return Status::kAlreadyExists;
  }
  if (table_.size() >= capacity_) {
    return Status::kResourceExhausted;
  }
  ActiveSegment& seg = table_.try_emplace(uid, uid, pages).first->second;
  for (uint32_t p = 0; p < pages && p < disk_home.size(); ++p) {
    if (disk_home[p] != kInvalidDevAddr) {
      seg.location[p] = PageLoc{PageLevel::kDisk, disk_home[p]};
    }
  }
  return &seg;
}

Status ActiveSegmentTable::Deactivate(uint64_t uid) {
  auto it = table_.find(uid);
  if (it == table_.end()) {
    return Status::kNotFound;
  }
  // Deactivation with pages still in core or on bulk would strand them.
  for (const PageLoc& loc : it->second.location) {
    if (loc.level == PageLevel::kCore || loc.level == PageLevel::kBulk) {
      return Status::kFailedPrecondition;
    }
  }
  table_.erase(it);
  return Status::kOk;
}

ActiveSegment* ActiveSegmentTable::Find(uint64_t uid) {
  auto it = table_.find(uid);
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace multics
