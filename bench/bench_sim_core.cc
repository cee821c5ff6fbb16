// Sim-core microbench: exercises the four flattened hot paths of the speed
// program in isolation — the event-queue slab (schedule / cancel / dispatch),
// the SimLock busy-interval timeline under cross-CPU contention, the meter's
// interned-id counter cells, and the processor's cached descriptor walk.
//
// bench_sessions measures the integrated effect; this bench pins each
// subsystem alone so a regression in one cannot hide behind an improvement
// in another. All registered metrics are pure simulation values (counts,
// sim cycles, frame checksums) — deterministic run to run; the host-side
// cost shows up in the harness's wall/ns-per-ref columns.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/hw/core_memory.h"
#include "src/hw/machine.h"
#include "src/hw/processor.h"
#include "src/hw/ring.h"
#include "src/hw/sdw.h"
#include "src/hw/sim_lock.h"

namespace multics {
namespace {

// Deterministic mixer for delays/offsets (no std::rand: reproducibility oath).
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

struct EventQueueRun {
  uint64_t dispatched = 0;
  uint64_t cancelled = 0;
  Cycles final_clock = 0;
  uint64_t slab_slots = 0;
};

// Schedule `n` events with scattered delays, cancel every third id, drain.
// The cancel set forces the tombstone path; the scattered delays force real
// heap churn rather than FIFO append.
EventQueueRun RunEventQueue(uint64_t n) {
  Machine machine(MachineConfig{});
  EventQueueRun run;
  std::vector<uint64_t> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const Cycles delay = 1 + (Mix(i * 2654435761u) % 50'000);
    ids.push_back(machine.events().ScheduleAfter(delay, [&run] { ++run.dispatched; }));
  }
  for (uint64_t i = 0; i < ids.size(); i += 3) {
    if (machine.events().Cancel(ids[i])) ++run.cancelled;
  }
  machine.events().RunUntilIdle();
  run.final_clock = machine.clock().now();
  run.slab_slots = machine.events().slab_slots();
  return run;
}

struct LockRun {
  uint64_t acquisitions = 0;
  Cycles wait_cycles = 0;
  Cycles final_clock = 0;
};

// Four CPUs round-robin through a level-1 lock with varying hold lengths.
// Every hold lands on the shared busy-interval timeline, so first-fit
// placement, pruning, and compaction all run; the charged wait cycles are a
// pure function of the hold sequence and are registered as the check value.
LockRun RunLockTimeline(uint64_t holds) {
  MachineConfig config;
  config.cpus = 4;
  Machine machine(config);
  SimLock lock(&machine, "bench_core", 1);
  for (uint64_t i = 0; i < holds; ++i) {
    machine.SetActiveCpu(static_cast<uint32_t>(i % 4));
    lock.Acquire();
    machine.Charge(10 + (Mix(i) % 90), ChargeKind::kBenchHold);
    lock.Release();
  }
  machine.SetActiveCpu(0);
  LockRun run;
  run.acquisitions = lock.acquisitions();
  run.wait_cycles = lock.wait_cycles();
  run.final_clock = machine.clock().now();
  return run;
}

struct MeterRun {
  uint64_t counter_total = 0;
  uint64_t sample_count = 0;
};

// Hammer the meter fast paths: two interned MeterId counters and an
// interned distribution.
MeterRun RunMeter(uint64_t ops) {
  Machine machine(MachineConfig{});
  Meter& meter = machine.meter();
  const MeterId site = meter.InternCounter("bench/site_cached");
  const MeterId hot = meter.InternCounter("bench/interned_hot");
  const MeterId latency = meter.InternDistribution("bench/latency");
  for (uint64_t i = 0; i < ops; ++i) {
    meter.Count(site);
    meter.Count(hot, 2);
    if ((i & 7) == 0) {
      meter.AddSample(latency, static_cast<double>(Mix(i) % 1000));
    }
  }
  MeterRun run;
  for (const auto& [name, value] : meter.CounterSnapshot()) {
    if (name.rfind("bench/", 0) == 0) run.counter_total += value;
  }
  for (const auto& [name, dist] : meter.DistributionSnapshot()) {
    if (name.rfind("bench/", 0) == 0) run.sample_count += dist->count();
  }
  return run;
}

struct WalkRun {
  uint64_t resolves = 0;
  uint64_t word_checksum = 0;
};

// Resolve storms across a small working set of segments — the pattern the
// per-mode walk cache serves — punctuated by descriptor epoch bumps
// (re-Set of an SDW) that force full re-walks.
WalkRun RunWalkCache(uint64_t refs) {
  Machine machine(MachineConfig{});
  DescriptorSegment dseg(&machine.dseg_epochs());
  Processor cpu(&machine);
  cpu.AttachAddressSpace(&dseg);
  cpu.SetRing(kRingUser);

  constexpr SegNo kSegs = 8;
  constexpr uint32_t kPages = 4;
  std::vector<std::unique_ptr<PageTable>> tables;
  FrameIndex next_frame = 0;
  auto install = [&](SegNo segno) {
    auto table = std::make_unique<PageTable>(kPages);
    for (uint32_t p = 0; p < kPages; ++p) {
      table->entries[p].present = true;
      table->entries[p].frame = next_frame++;
    }
    SegmentDescriptor sdw;
    sdw.valid = true;
    sdw.page_table = table.get();
    sdw.length_pages = kPages;
    sdw.brackets = UserBrackets();
    sdw.read = true;
    sdw.write = true;
    sdw.execute = false;
    dseg.Set(segno, sdw);
    tables.push_back(std::move(table));
  };
  for (SegNo s = 0; s < kSegs; ++s) install(s);

  WalkRun run;
  for (uint64_t i = 0; i < refs; ++i) {
    const SegNo segno = static_cast<SegNo>(Mix(i >> 6) % kSegs);
    const WordOffset offset = static_cast<WordOffset>(Mix(i) % (kPages * kPageWords));
    if (i & 1) {
      auto word = cpu.Read(segno, offset);
      CHECK(word.ok());
      run.word_checksum = run.word_checksum * 31 + word.value();
    } else {
      CHECK(cpu.Write(segno, offset, static_cast<Word>(i)) == Status::kOk);
    }
    ++run.resolves;
    if ((i & 0xFFFF) == 0xFFFF) install(segno);  // Epoch bump: cache must miss.
  }
  return run;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("Sim-core hot paths in isolation",
              "event slab, lock timeline, interned meter, cached walk — one lane each");

  const uint64_t events = options.smoke ? 5'000 : 400'000;
  const uint64_t holds = options.smoke ? 5'000 : 400'000;
  const uint64_t meter_ops = options.smoke ? 10'000 : 1'000'000;
  const uint64_t refs = options.smoke ? 20'000 : 2'000'000;

  Table table({"lane", "ops", "check value"});

  EventQueueRun eq = RunEventQueue(events);
  table.AddRow({"event queue", Fmt(events),
                "dispatched " + Fmt(eq.dispatched) + ", clock " + Fmt(eq.final_clock)});
  bench::RegisterMetric("eventq_dispatched", eq.dispatched, "events");
  bench::RegisterMetric("eventq_cancelled", eq.cancelled, "events");
  bench::RegisterMetric("eventq_final_clock", eq.final_clock, "cycles");
  bench::RegisterMetric("eventq_slab_slots", eq.slab_slots, "slots");

  LockRun lk = RunLockTimeline(holds);
  table.AddRow({"lock timeline", Fmt(holds),
                "wait " + Fmt(lk.wait_cycles) + ", clock " + Fmt(lk.final_clock)});
  bench::RegisterMetric("lock_acquisitions", lk.acquisitions, "holds");
  bench::RegisterMetric("lock_wait_cycles", lk.wait_cycles, "cycles");
  bench::RegisterMetric("lock_final_clock", lk.final_clock, "cycles");

  MeterRun mt = RunMeter(meter_ops);
  table.AddRow({"meter", Fmt(meter_ops), "counter total " + Fmt(mt.counter_total)});
  bench::RegisterMetric("meter_counter_total", mt.counter_total, "counts");
  bench::RegisterMetric("meter_sample_count", mt.sample_count, "samples");

  WalkRun wk = RunWalkCache(refs);
  table.AddRow({"walk cache", Fmt(refs), "word checksum " + Fmt(wk.word_checksum)});
  bench::RegisterMetric("walk_resolves", wk.resolves, "refs");
  bench::RegisterMetric("walk_word_checksum", wk.word_checksum, "hash");

  table.Print();
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_sim_core)
