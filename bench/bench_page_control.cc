// E4 — Page control: the sequential fault-handler cascade vs dedicated
// daemon processes.
//
// Paper: "With the current system design, this complex series of steps
// occurs sequentially with page control executing in the process which took
// the page fault... The new scheme involving multiple dedicated processes is
// much simpler... The path taken by a user process on a page fault is
// greatly simplified."
//
// Workload: processes cycle through working sets with Zipf locality over a
// segment larger than core, at several memory pressures. We report the
// fault-path length (protected steps executed in the faulting process) and
// the fault latency distribution for both designs.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/base/random.h"
#include "src/mem/page_control_parallel.h"
#include "src/mem/page_control_sequential.h"

namespace multics {
namespace {

struct RunResult {
  PageControlMetrics metrics;
  Cycles total_cycles = 0;
};

RunResult RunWorkload(bool parallel, uint32_t core_frames, uint32_t touched_pages,
                      int references) {
  Machine machine(MachineConfig{.core_frames = core_frames});
  CoreMap core_map(core_frames);
  PagingDevice bulk = MakeBulkStore(core_frames, &machine);
  PagingDevice disk = MakeDisk(16384, &machine);
  ActiveSegmentTable ast(16);
  ClockPolicy policy;

  std::unique_ptr<PageControl> pc;
  if (parallel) {
    pc = std::make_unique<ParallelPageControl>(&machine, &core_map, &bulk, &disk, &policy);
  } else {
    pc = std::make_unique<SequentialPageControl>(&machine, &core_map, &bulk, &disk, &policy);
  }

  auto seg = ast.Activate(1, touched_pages, {});
  CHECK(seg.ok());

  Rng rng(42);
  std::vector<PageNo> pages(touched_pages);
  for (PageNo p = 0; p < touched_pages; ++p) {
    pages[p] = p;
  }
  rng.Shuffle(pages);

  const Cycles start = machine.clock().now();
  for (int i = 0; i < references; ++i) {
    PageNo page = pages[rng.NextZipf(touched_pages, 1.3)];
    CHECK(pc->EnsureResident(seg.value(), page, AccessMode::kWrite) == Status::kOk);
    PageTableEntry& pte = seg.value()->page_table.entries[page];
    pte.used = true;
    pte.modified = true;
    // Compute between references; the daemons overlap their transfers with
    // this time, as the paper's asynchronous design intends.
    machine.Charge(2500, ChargeKind::kUserCpu);
    machine.events().RunUntil(machine.clock().now());
  }
  RunResult result;
  result.total_cycles = machine.clock().now() - start;
  result.metrics = pc->metrics();
  bench::RegisterRunStats(machine);  // Last workload (parallel control) wins.
  return result;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("E4: page-fault path, sequential cascade vs dedicated daemon processes",
              "parallel design greatly simplifies the user fault path (1 step vs up to 3)");

  Table table({"design", "core/touched", "faults", "fault-path steps (max)", "latency mean",
               "latency p99", "cascades in fault path", "waits for frame", "total cycles"});

  const int references = options.smoke ? 200 : 2500;
  struct Pressure {
    uint32_t core;
    uint32_t touched;
  };
  // Bulk store = core size; the later rows exceed core+bulk and force the
  // sequential design into the full three-level cascade.
  for (Pressure pressure : {Pressure{64, 48}, Pressure{64, 128}, Pressure{64, 224}}) {
    for (bool parallel : {false, true}) {
      RunResult r = RunWorkload(parallel, pressure.core, pressure.touched, references);
      if (pressure.touched == 224) {
        const std::string prefix = parallel ? "parallel_" : "sequential_";
        bench::RegisterMetric(prefix + "fault_latency_mean",
                              r.metrics.fault_latency.count() > 0
                                  ? r.metrics.fault_latency.mean()
                                  : 0.0,
                              "cycles");
        bench::RegisterMetric(prefix + "fault_path_steps_max",
                              r.metrics.fault_path_steps.count() > 0
                                  ? r.metrics.fault_path_steps.max()
                                  : 0.0,
                              "steps");
        bench::RegisterMetric(prefix + "total_cycles", r.total_cycles, "cycles");
      }
      table.AddRow({parallel ? "parallel (daemons)" : "sequential (in-fault)",
                    Fmt(static_cast<uint64_t>(pressure.core)) + "/" +
                        Fmt(static_cast<uint64_t>(pressure.touched)),
                    Fmt(r.metrics.faults),
                    r.metrics.fault_path_steps.count() > 0
                        ? Fmt(r.metrics.fault_path_steps.max(), 0)
                        : "0",
                    r.metrics.fault_latency.count() > 0 ? Fmt(r.metrics.fault_latency.mean())
                                                        : "0",
                    r.metrics.fault_latency.count() > 0
                        ? Fmt(r.metrics.fault_latency.Percentile(0.99))
                        : "0",
                    Fmt(r.metrics.cascades), Fmt(r.metrics.waits_for_frame),
                    Fmt(r.total_cycles)});
    }
  }
  table.Print();

  std::printf(
      "\nThe sequential design charges the whole eviction cascade (core->bulk, and\n"
      "bulk->disk when the bulk store is full) to the faulting process; the parallel\n"
      "design's fault path is always one step — wait for a free frame (rarely\n"
      "needed, see waits-for-frame) and fetch. Cascade count for the parallel rows\n"
      "counts daemon overflow writes that bypassed the bulk store, none of which\n"
      "run in the faulting process.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_page_control)
