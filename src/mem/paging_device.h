// Secondary-storage devices of the three-level Multics memory hierarchy: the
// bulk store (drum-class, fast) and the disk (large, slow). A device stores
// whole pages addressed by device page number and supports both synchronous
// transfers (the sequential page control runs the whole cascade inline in
// the faulting process) and asynchronous ones (the parallel page control's
// daemons overlap transfers with computation).
//
// The controller is dual-channel: reads and writes each serialize on their
// own channel, so a demand fetch does not queue behind a backlog of
// background eviction writes — the property that makes the paper's
// free-core daemon profitable.
//
// Failure contract: transfers may fail only through injected device faults
// (src/hw/injection.h). Each transfer consults the machine's injector; on a
// transient fault the device retries up to kMaxTransferAttempts times with
// geometric backoff, every retry cycle-accounted under "fault_recovery" on
// the sim clock. A fault that persists past the last retry is returned (or
// delivered to the async `done` callback) as a non-kOk Status — callers in
// page control must treat it as data loss and degrade, never CHECK. The
// only CHECK-worthy conditions here are programmer errors (a caller passing
// a corrupted vector size is reported as kInvalidArgument, not CHECKed,
// because simulated supervisors reach this code). Out-of-range addresses
// return kInvalidArgument.

#ifndef SRC_MEM_PAGING_DEVICE_H_
#define SRC_MEM_PAGING_DEVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/hw/injection.h"
#include "src/hw/interrupt.h"
#include "src/hw/machine.h"

namespace multics {

// Device page number.
using DevAddr = uint32_t;
inline constexpr DevAddr kInvalidDevAddr = UINT32_MAX;

class PagingDevice {
 public:
  PagingDevice(std::string name, uint32_t capacity_pages, Cycles read_latency,
               Cycles write_latency, Machine* machine);

  const std::string& name() const { return name_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t free_pages() const { return static_cast<uint32_t>(free_list_.size()); }
  uint32_t used_pages() const { return capacity_ - free_pages(); }
  bool Full() const { return free_list_.empty(); }

  // Slot management.
  Result<DevAddr> Allocate();
  Status Free(DevAddr addr);

  // Synchronous transfers: advance the simulation clock by queueing delay
  // plus latency before returning.
  Status ReadSync(DevAddr addr, std::vector<Word>* out);
  Status WriteSync(DevAddr addr, std::vector<Word> data);

  // Asynchronous transfers: complete through the machine's event queue.
  // The device serializes transfers per channel; each completion may assert
  // the attached interrupt line (if any) before invoking `done`.
  void ReadAsync(DevAddr addr, std::function<void(Status, std::vector<Word>)> done);
  void WriteAsync(DevAddr addr, std::vector<Word> data, std::function<void(Status)> done);

  // Demand (page-fault) read: serviced on the priority channel, ahead of any
  // backlog of background daemon transfers — demand fetches always preempt
  // migration traffic, as real paging controllers arranged.
  void ReadAsyncUrgent(DevAddr addr, std::function<void(Status, std::vector<Word>)> done);

  void AttachInterrupt(InterruptController* controller, InterruptLine line) {
    interrupts_ = controller;
    line_ = line;
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

  // Fault-injection observability: injected faults seen, retries issued,
  // and transfers that exhausted their retries and surfaced an error.
  uint64_t injected_faults() const { return injected_faults_; }
  uint64_t retries() const { return retries_; }
  uint64_t failed_transfers() const { return failed_transfers_; }

  // Direct slot write without latency, for the image loader / tests.
  Status Poke(DevAddr addr, std::vector<Word> data);

  // A transfer is attempted at most this many times (1 initial + retries).
  static constexpr int kMaxTransferAttempts = 4;

  // Stored pages, slot allocation, channel timelines and counters, saved and
  // restored with the kernel; geometry, latencies and wiring stay.
  struct State {
    std::unordered_map<DevAddr, std::vector<Word>> store;
    std::vector<DevAddr> free_list;
    Cycles read_busy_until = 0;
    Cycles write_busy_until = 0;
    Cycles urgent_busy_until = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t injected_faults = 0;
    uint64_t retries = 0;
    uint64_t failed_transfers = 0;
  };
  State SaveState() const {
    return State{.store = store_,
                 .free_list = free_list_,
                 .read_busy_until = read_busy_until_,
                 .write_busy_until = write_busy_until_,
                 .urgent_busy_until = urgent_busy_until_,
                 .reads = reads_,
                 .writes = writes_,
                 .injected_faults = injected_faults_,
                 .retries = retries_,
                 .failed_transfers = failed_transfers_};
  }
  void RestoreState(const State& state) {
    store_ = state.store;
    free_list_ = state.free_list;
    read_busy_until_ = state.read_busy_until;
    write_busy_until_ = state.write_busy_until;
    urgent_busy_until_ = state.urgent_busy_until;
    reads_ = state.reads;
    writes_ = state.writes;
    injected_faults_ = state.injected_faults;
    retries_ = state.retries;
    failed_transfers_ = state.failed_transfers;
  }

 private:
  // Computes this transfer's completion time on one channel and marks that
  // channel busy.
  Cycles ScheduleTransfer(Cycles latency, Cycles* channel_busy_until);

  // Consults the machine's injector for one transfer attempt; returns the
  // injected fault (kOk when none). Counts injected faults.
  Status ConsultTransfer(InjectSite site, DevAddr addr);

  // Geometric backoff before retry `attempt` (1-based).
  Cycles BackoffFor(int attempt) const;

  // Retry-capable async transfer bodies; `attempt` is 1-based.
  void StartRead(DevAddr addr, std::function<void(Status, std::vector<Word>)> done,
                 bool urgent, int attempt);
  void StartWrite(DevAddr addr, std::vector<Word> data, std::function<void(Status)> done,
                  int attempt);

  std::string name_;
  uint32_t capacity_;
  Cycles read_latency_;
  Cycles write_latency_;
  Machine* machine_;

  std::unordered_map<DevAddr, std::vector<Word>> store_;
  std::vector<DevAddr> free_list_;
  Cycles read_busy_until_ = 0;
  Cycles write_busy_until_ = 0;
  Cycles urgent_busy_until_ = 0;

  InterruptController* interrupts_ = nullptr;
  InterruptLine line_ = 0;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t injected_faults_ = 0;
  uint64_t retries_ = 0;
  uint64_t failed_transfers_ = 0;
};

// Factory helpers with the default cost model's latencies.
PagingDevice MakeBulkStore(uint32_t pages, Machine* machine);
PagingDevice MakeDisk(uint32_t pages, Machine* machine);

}  // namespace multics

#endif  // SRC_MEM_PAGING_DEVICE_H_
