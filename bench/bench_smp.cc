// SMP — Partitioned kernel locks vs one giant lock on the simulated
// multiprocessor.
//
// Paper: the partitioning activity argues the kernel's data can be divided
// into independently-locked pieces. The measurable consequence — the one a
// paper-era benchmark would have shown on a 2-CPU 6180 — is that a
// multiprocessor scales when the locks are partitioned and stalls when one
// kernel-wide lock serializes every gate body.
//
// Workload: a fixed population of worker processes, each cycling through a
// private working set larger than its share of core, so nearly every
// reference is a page fault. The traffic controller interleaves 1/2/4/6
// simulated CPUs on the sim clock; the same workload runs under the
// partitioned hierarchy and under the global kernel lock. Throughput is
// references retired per million simulated cycles; the per-lock contention
// counters say *where* the serialization went.

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "bench/harness.h"
#include "src/mem/page_control_sequential.h"
#include "src/proc/traffic_controller.h"

namespace multics {
namespace {

constexpr uint32_t kWorkers = 6;
constexpr uint32_t kCoreFrames = 48;       // 8 frames per worker's share.
constexpr uint32_t kPagesPerWorker = 24;   // Working set 3x the share: thrash.
// Bulk store large enough for every page, so all paging traffic is uniform
// bulk-latency transfers. (If evictions overflowed to disk, the bulk/disk mix
// would depend on the CPU-count-specific interleaving and the speedup column
// would measure replacement luck, not concurrency.)
constexpr uint32_t kBulkPages = 256;

// One worker: a cyclic walk over its private segment. A working set three
// times the worker's share of core walked cyclically is the classic LRU/CLOCK
// worst case — every reference misses, and (after warmup) every fault evicts
// exactly one modified page. That makes the cost of a reference *uniform and
// interleaving-independent*: the speedup column then measures concurrency,
// not replacement luck under a CPU-count-specific reference order. Workers
// start at staggered offsets so their device transfers interleave.
class PagingWorker : public Task {
 public:
  PagingWorker(PageControl* pc, ActiveSegment* seg, int references, uint32_t start_page)
      : pc_(pc), seg_(seg), references_(references), next_page_(start_page) {}

  TaskState Step(TaskContext& ctx) override {
    if (references_ == 0) {
      return TaskState::kDone;
    }
    --references_;
    Machine& machine = ctx.machine();
    // The gate prologue, replicated: in global-lock mode Kernel::GateSpan
    // holds the giant lock across the whole gate body, so the fault below
    // acquires it reentrantly and SuspendForWait cannot release it around
    // the device transfer. In partitioned mode the gate takes no lock and
    // page control's own lock is suspended for the wait.
    std::optional<LockGuard> gate;
    if (machine.lock_mode() == LockMode::kGlobalKernelLock) {
      gate.emplace(machine.locks().Global());
    }
    const PageNo page = static_cast<PageNo>(next_page_ % kPagesPerWorker);
    ++next_page_;
    CHECK(pc_->EnsureResident(seg_, page, AccessMode::kWrite) == Status::kOk);
    PageTableEntry& pte = seg_->page_table.entries[page];
    pte.used = true;
    pte.modified = true;
    ctx.Charge(400, ChargeKind::kUserCpu);
    return TaskState::kReady;
  }

 private:
  PageControl* pc_;
  ActiveSegment* seg_;
  int references_;
  uint32_t next_page_;
};

struct RunResult {
  Cycles elapsed = 0;
  uint64_t references = 0;
  uint64_t kernel_contentions = 0;      // Giant lock.
  uint64_t page_table_contentions = 0;  // Partitioned page-table lock.
  Cycles kernel_wait = 0;
  Cycles page_table_wait = 0;
  Cycles idle_cycles = 0;
  uint64_t connects = 0;
  uint64_t lock_order_violations = 0;
};

RunResult RunWorkload(uint32_t cpus, LockMode mode, int refs_per_worker) {
  Machine machine(MachineConfig{.core_frames = kCoreFrames, .cpus = cpus, .lock_mode = mode});
  CoreMap core_map(kCoreFrames);
  PagingDevice bulk = MakeBulkStore(kBulkPages, &machine);
  PagingDevice disk = MakeDisk(16384, &machine);
  ActiveSegmentTable ast(16);
  ClockPolicy policy;
  SequentialPageControl pc(&machine, &core_map, &bulk, &disk, &policy);

  TrafficController tc(&machine, /*virtual_processors=*/16);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    auto seg = ast.Activate(w + 1, kPagesPerWorker, {});
    CHECK(seg.ok());
    auto proc = tc.CreateProcess("smp_worker_" + std::to_string(w),
                                 Principal{"Worker" + std::to_string(w), "Bench", "a"},
                                 MlsLabel::SystemLow(), 4,
                                 std::make_unique<PagingWorker>(&pc, seg.value(),
                                                                refs_per_worker, w * 4));
    CHECK(proc.ok());
  }

  const Cycles start = machine.clock().now();
  tc.RunUntilQuiescent();

  RunResult result;
  result.elapsed = machine.clock().now() - start;
  result.references = static_cast<uint64_t>(kWorkers) * static_cast<uint64_t>(refs_per_worker);
  machine.locks().ForEach([&](const SimLock& lock) {
    if (std::string_view(lock.name()) == "kernel") {
      result.kernel_contentions += lock.contentions();
      result.kernel_wait += lock.wait_cycles();
    } else if (std::string_view(lock.name()) == "page_table") {
      result.page_table_contentions += lock.contentions();
      result.page_table_wait += lock.wait_cycles();
    }
  });
  for (uint32_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    result.idle_cycles += machine.idle_cycles(cpu);
  }
  result.connects = machine.connects_posted();
  result.lock_order_violations = machine.lock_trace().violations().size();
  bench::RegisterRunStats(machine);  // Last parameterisation wins.
  return result;
}

double Throughput(const RunResult& r) {
  return r.elapsed == 0 ? 0.0
                        : static_cast<double>(r.references) * 1e6 /
                              static_cast<double>(r.elapsed);
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader(
      "SMP: partitioned kernel locks vs the global kernel lock, 1-6 CPUs",
      "partitioned locks scale a paging-heavy workload; one giant lock stays flat");

  const int refs_per_worker = options.smoke ? 48 : 480;

  Table table({"lock mode", "cpus", "refs/Mcycle", "speedup vs 1cpu", "lock contentions",
               "lock wait cycles", "idle cycles", "connects", "elapsed cycles"});

  double base_throughput[2] = {0.0, 0.0};
  for (LockMode mode : {LockMode::kGlobalKernelLock, LockMode::kPartitioned}) {
    const int mode_idx = mode == LockMode::kPartitioned ? 1 : 0;
    for (uint32_t cpus : {1u, 2u, 4u, 6u}) {
      RunResult r = RunWorkload(cpus, mode, refs_per_worker);
      CHECK(r.lock_order_violations == 0) << "lock hierarchy violated under "
                                          << LockModeName(mode);
      const double throughput = Throughput(r);
      if (cpus == 1) {
        base_throughput[mode_idx] = throughput;
      }
      const double speedup =
          base_throughput[mode_idx] > 0 ? throughput / base_throughput[mode_idx] : 0.0;
      const uint64_t contentions =
          mode == LockMode::kPartitioned ? r.page_table_contentions : r.kernel_contentions;
      const Cycles wait = mode == LockMode::kPartitioned ? r.page_table_wait : r.kernel_wait;
      table.AddRow({LockModeName(mode), Fmt(static_cast<uint64_t>(cpus)), Fmt(throughput),
                    Fmt(speedup), Fmt(contentions), Fmt(static_cast<uint64_t>(wait)),
                    Fmt(static_cast<uint64_t>(r.idle_cycles)), Fmt(r.connects),
                    Fmt(static_cast<uint64_t>(r.elapsed))});
      const std::string prefix = std::string("smp_") +
                                 (mode == LockMode::kPartitioned ? "partitioned_" : "global_") +
                                 std::to_string(cpus) + "cpu_";
      bench::RegisterMetric(prefix + "throughput", throughput, "refs/Mcycle");
      bench::RegisterMetric(prefix + "speedup", speedup, "x");
      bench::RegisterMetric(prefix + "contentions", static_cast<double>(contentions), "count");
      bench::RegisterMetric(prefix + "lock_wait", static_cast<double>(wait), "cycles");
    }
  }
  table.Print();

  std::printf(
      "\nIn global-lock mode the gate body holds the one kernel lock through the\n"
      "whole fault service — SuspendForWait is a reentrant no-op there — so added\n"
      "CPUs only queue behind it and the speedup column stays ~1.0. Partitioned\n"
      "mode suspends the page-table lock across each device transfer, so CPUs\n"
      "overlap their faults and throughput scales until the serial bookkeeping\n"
      "under the lock (and the shared replacement state) caps it.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_smp)
