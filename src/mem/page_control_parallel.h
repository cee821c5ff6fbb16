// The paper's redesigned page control: two dedicated kernel processes run
// asynchronously —
//
//   "One process runs in a loop making sure that some small number of free
//    primary memory blocks always exist... Another keeps space free on the
//    bulk store by moving pages to disk when required... The path taken by a
//    user process on a page fault is greatly simplified."
//
// The free-core daemon keeps the free list between a low and high water mark
// by writing eviction victims to the bulk store asynchronously; the free-bulk
// daemon drains the bulk store toward disk the same way. The fault path just
// takes a free frame (waiting only if the daemons have fallen behind) and
// initiates the one transfer it actually needs.

#ifndef SRC_MEM_PAGE_CONTROL_PARALLEL_H_
#define SRC_MEM_PAGE_CONTROL_PARALLEL_H_

#include "src/mem/page_control_base.h"

namespace multics {

struct ParallelPageControlConfig {
  uint32_t core_low_water = 4;    // Wake the free-core daemon below this.
  uint32_t core_high_water = 12;  // Daemon evicts until this many are free.
  uint32_t bulk_low_water = 8;
  uint32_t bulk_high_water = 24;
};

class ParallelPageControl : public PageControlBase {
 public:
  ParallelPageControl(Machine* machine, CoreMap* core_map, PagingDevice* bulk,
                      PagingDevice* disk, ReplacementPolicy* policy,
                      ParallelPageControlConfig config = {});

  const char* name() const override { return "parallel"; }

  Status EnsureResident(ActiveSegment* seg, PageNo page, AccessMode mode) override;
  Status FlushSegment(ActiveSegment* seg) override;
  void PumpIdle() override;
  PageControlState SaveState() const override;
  void RestoreState(const PageControlState& state, ActiveSegmentTable& ast) override;

  // Metrics specific to the daemons.
  uint64_t core_daemon_wakeups() const { return core_daemon_wakeups_; }
  uint64_t bulk_daemon_wakeups() const { return bulk_daemon_wakeups_; }
  uint32_t evictions_in_flight() const { return evictions_in_flight_; }

 private:
  void WakeCoreDaemon();
  void WakeBulkDaemon();
  void CoreDaemonStep();
  void BulkDaemonStep();
  void StartAsyncEviction(FrameIndex victim);

  // Runs events until `done` becomes true; fails if the queue drains first.
  Status WaitFor(const bool& done);

  ParallelPageControlConfig config_;
  bool core_daemon_running_ = false;
  bool bulk_daemon_running_ = false;
  uint32_t evictions_in_flight_ = 0;
  uint32_t bulk_moves_in_flight_ = 0;
  uint64_t core_daemon_wakeups_ = 0;
  uint64_t bulk_daemon_wakeups_ = 0;
};

}  // namespace multics

#endif  // SRC_MEM_PAGE_CONTROL_PARALLEL_H_
