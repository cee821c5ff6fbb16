#include "src/mem/page_control_base.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

PageControlBase::PageControlBase(Machine* machine, CoreMap* core_map, PagingDevice* bulk,
                                 PagingDevice* disk, ReplacementPolicy* policy)
    : machine_(machine), core_map_(core_map), bulk_(bulk), disk_(disk), policy_(policy) {}

void PageControlBase::ChargeStep(ChargeKind category, Cycles cycles) {
  machine_->Charge(cycles, category);
}

Status PageControlBase::ReadSyncUnlocked(PagingDevice* device, DevAddr addr,
                                         std::vector<Word>* out) {
  LockWaitRegion unlock(machine_->locks().PageTable());
  return device->ReadSync(addr, out);
}

Status PageControlBase::WriteSyncUnlocked(PagingDevice* device, DevAddr addr,
                                          std::vector<Word> data) {
  LockWaitRegion unlock(machine_->locks().PageTable());
  return device->WriteSync(addr, std::move(data));
}

PageControlState PageControlBase::SaveState() const {
  PageControlState state{.metrics = metrics_,
                         .bulk_residents = {},
                         .policy = policy_->SaveState(),
                         .core_daemon_wakeups = 0,
                         .bulk_daemon_wakeups = 0};
  for (const auto& [seg, page] : bulk_residents_) {
    state.bulk_residents.emplace_back(seg->uid, page);
  }
  return state;
}

void PageControlBase::RestoreState(const PageControlState& state, ActiveSegmentTable& ast) {
  metrics_ = state.metrics;
  policy_->RestoreState(state.policy);
  bulk_residents_.clear();
  for (const auto& [uid, page] : state.bulk_residents) {
    ActiveSegment* seg = ast.Find(uid);
    CHECK(seg != nullptr) << "bulk-resident page of inactive segment " << uid;
    bulk_residents_.emplace_back(seg, page);
  }
}

void PageControlBase::AddBulkResident(ActiveSegment* seg, PageNo page) {
  bulk_residents_.emplace_back(seg, page);
}

void PageControlBase::RemoveBulkResident(ActiveSegment* seg, PageNo page) {
  auto it = std::find(bulk_residents_.begin(), bulk_residents_.end(), std::make_pair(seg, page));
  if (it != bulk_residents_.end()) {
    bulk_residents_.erase(it);
  }
}

bool PageControlBase::PopBulkResident(ActiveSegment** seg, PageNo* page) {
  while (!bulk_residents_.empty()) {
    auto [s, p] = bulk_residents_.front();
    bulk_residents_.pop_front();
    if (p < s->pages && s->location[p].level == PageLevel::kBulk) {
      *seg = s;
      *page = p;
      return true;
    }
    // Stale entry (page already moved); drop it.
  }
  return false;
}

Status PageControlBase::FetchIntoFrameSync(ActiveSegment* seg, PageNo page, FrameIndex frame) {
  MX_HOST_SPAN(kPageIo);
  PageLoc& loc = seg->location[page];
  switch (loc.level) {
    case PageLevel::kZero: {
      machine_->core().ZeroPage(frame);
      ChargeStep(ChargeKind::kPageControlCpu, 20);
      ++metrics_.zero_fills;
      machine_->meter().Emit(TraceEventKind::kPageFetch, SpanId::kFetchZero, page);
      break;
    }
    case PageLevel::kBulk: {
      std::vector<Word> data;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(bulk_, loc.addr, &data));
      machine_->core().WritePage(frame, data);
      MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
      RemoveBulkResident(seg, page);
      ++metrics_.fetches_from_bulk;
      machine_->meter().Emit(TraceEventKind::kPageFetch, SpanId::kFetchBulk, page);
      break;
    }
    case PageLevel::kDisk: {
      std::vector<Word> data;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(disk_, loc.addr, &data));
      machine_->core().WritePage(frame, data);
      MX_RETURN_IF_ERROR(disk_->Free(loc.addr));
      ++metrics_.fetches_from_disk;
      machine_->meter().Emit(TraceEventKind::kPageFetch, SpanId::kFetchDisk, page);
      break;
    }
    case PageLevel::kCore:
    case PageLevel::kInTransit:
      return Status::kInternal;  // Fault on a resident or in-transit page.
  }

  core_map_->Bind(frame, seg, page, seg->wired);
  loc = PageLoc{PageLevel::kCore, kInvalidDevAddr};
  PageTableEntry& pte = seg->page_table.entries[page];
  pte.present = true;
  pte.frame = frame;
  pte.used = true;
  pte.modified = false;
  policy_->NotifyLoaded(frame);
  return Status::kOk;
}

Status PageControlBase::EvictCorePageSync(FrameIndex frame, bool* cascaded) {
  MX_HOST_SPAN(kPageIo);
  const FrameInfo& fi = core_map_->info(frame);
  CHECK(!fi.free && fi.owner != nullptr);
  ActiveSegment* seg = fi.owner;
  PageNo page = fi.page;

  // Disconnect the PTE before the copy leaves core.
  PageTableEntry& pte = seg->page_table.entries[page];
  pte.present = false;
  machine_->meter().Emit(TraceEventKind::kPageEvictStart, SpanId::kEvictSync, page);

  if (bulk_->Full()) {
    if (cascaded != nullptr) {
      *cascaded = true;
    }
    ++metrics_.cascades;
    machine_->meter().Emit(TraceEventKind::kCascade, SpanId::kCascade, page);
    Status cascade_st = MoveOldestBulkPageToDiskSync();
    if (cascade_st != Status::kOk) {
      pte.present = true;  // The frame still holds the data; undo.
      return cascade_st;
    }
  }

  auto addr_or = bulk_->Allocate();
  if (!addr_or.ok()) {
    pte.present = true;
    return addr_or.status();
  }
  DevAddr addr = addr_or.value();
  std::vector<Word> data;
  machine_->core().ReadPage(pte.frame, data);
  Status write_st = WriteSyncUnlocked(bulk_, addr, std::move(data));
  if (write_st != Status::kOk) {
    // The only durable copy is still the core frame: reconnect the PTE and
    // surface the device error instead of losing the page.
    (void)bulk_->Free(addr);
    pte.present = true;
    return write_st;
  }

  seg->location[page] = PageLoc{PageLevel::kBulk, addr};
  AddBulkResident(seg, page);
  policy_->NotifyFreed(frame);
  core_map_->Release(frame);
  ++metrics_.core_evictions;
  machine_->meter().Emit(TraceEventKind::kPageEvictDone, SpanId::kEvictSync, page);
  return Status::kOk;
}

Status PageControlBase::MoveOldestBulkPageToDiskSync() {
  ActiveSegment* seg = nullptr;
  PageNo page = 0;
  if (!PopBulkResident(&seg, &page)) {
    return Status::kResourceExhausted;
  }
  PageLoc& loc = seg->location[page];
  // The bulk copy stays allocated until the disk copy is durable; freeing it
  // first would make a failed disk write lose the only copy of the page.
  std::vector<Word> data;
  Status read_st = ReadSyncUnlocked(bulk_, loc.addr, &data);
  if (read_st != Status::kOk) {
    AddBulkResident(seg, page);  // Still on bulk; keep it tracked.
    return read_st;
  }
  auto disk_addr = disk_->Allocate();
  if (!disk_addr.ok()) {
    AddBulkResident(seg, page);
    return disk_addr.status();
  }
  Status write_st = WriteSyncUnlocked(disk_, disk_addr.value(), std::move(data));
  if (write_st != Status::kOk) {
    (void)disk_->Free(disk_addr.value());
    AddBulkResident(seg, page);
    return write_st;
  }
  MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
  loc = PageLoc{PageLevel::kDisk, disk_addr.value()};
  ++metrics_.bulk_evictions;
  machine_->meter().Emit(TraceEventKind::kPageEvictDone, SpanId::kBulkToDisk, page);
  return Status::kOk;
}

Status PageControlBase::FlushPageSync(ActiveSegment* seg, PageNo page) {
  PageLoc& loc = seg->location[page];
  switch (loc.level) {
    case PageLevel::kZero:
    case PageLevel::kDisk:
      return Status::kOk;
    case PageLevel::kCore: {
      PageTableEntry& pte = seg->page_table.entries[page];
      std::vector<Word> data;
      machine_->core().ReadPage(pte.frame, data);
      MX_ASSIGN_OR_RETURN(DevAddr addr, disk_->Allocate());
      Status write_st = WriteSyncUnlocked(disk_, addr, std::move(data));
      if (write_st != Status::kOk) {
        (void)disk_->Free(addr);  // Core copy intact; just drop the slot.
        return write_st;
      }
      pte.present = false;
      policy_->NotifyFreed(pte.frame);
      core_map_->Release(pte.frame);
      loc = PageLoc{PageLevel::kDisk, addr};
      return Status::kOk;
    }
    case PageLevel::kBulk: {
      // Bulk copy outlives the transfer: free it only after the disk write
      // commits, so a device fault cannot lose the page.
      std::vector<Word> data;
      MX_RETURN_IF_ERROR(ReadSyncUnlocked(bulk_, loc.addr, &data));
      MX_ASSIGN_OR_RETURN(DevAddr addr, disk_->Allocate());
      Status write_st = WriteSyncUnlocked(disk_, addr, std::move(data));
      if (write_st != Status::kOk) {
        (void)disk_->Free(addr);
        return write_st;
      }
      MX_RETURN_IF_ERROR(bulk_->Free(loc.addr));
      RemoveBulkResident(seg, page);
      loc = PageLoc{PageLevel::kDisk, addr};
      return Status::kOk;
    }
    case PageLevel::kInTransit:
      // Callers (the parallel control) drain in-flight transfers first.
      return Status::kFailedPrecondition;
  }
  return Status::kInternal;
}

Status PageControlBase::FlushSegment(ActiveSegment* seg) {
  LockGuard page_table(machine_->locks().PageTable());
  for (PageNo page = 0; page < seg->pages; ++page) {
    MX_RETURN_IF_ERROR(FlushPageSync(seg, page));
  }
  // Purge any stale residency entries for this segment.
  bulk_residents_.erase(
      std::remove_if(bulk_residents_.begin(), bulk_residents_.end(),
                     [seg](const auto& entry) { return entry.first == seg; }),
      bulk_residents_.end());
  return Status::kOk;
}

}  // namespace multics
