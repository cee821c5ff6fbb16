// Tests for the simulated multiprocessor: CPU-count resolution, per-CPU
// clock accounting, the connect interrupt, lock-mode behavior, and — the
// properties everything else rests on — bit-reproducible determinism at any
// CPU count and exact cycle identity with the uniprocessor model at 1 CPU.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/mem/page_control_sequential.h"
#include "src/proc/traffic_controller.h"

namespace multics {
namespace {

Principal TestUser() { return Principal{"Tester", "Proj", "a"}; }

// --- CPU count resolution ---------------------------------------------------

TEST(SmpConfigTest, ExplicitCpuCount) {
  Machine machine(MachineConfig{.cpus = 3});
  EXPECT_EQ(machine.cpu_count(), 3u);
}

TEST(SmpConfigTest, CpuCountClampedToMax) {
  Machine machine(MachineConfig{.cpus = 99});
  EXPECT_EQ(machine.cpu_count(), kMaxCpus);
}

TEST(SmpConfigTest, ZeroResolvesFromEnvironment) {
  ::setenv("MULTICS_CPUS", "4", 1);
  Machine machine(MachineConfig{.cpus = 0});
  EXPECT_EQ(machine.cpu_count(), 4u);
  ::unsetenv("MULTICS_CPUS");
  Machine fallback(MachineConfig{.cpus = 0});
  EXPECT_EQ(fallback.cpu_count(), 1u);
}

TEST(SmpConfigTest, GarbageEnvironmentFallsBackToOneCpu) {
  ::setenv("MULTICS_CPUS", "lots", 1);
  Machine machine(MachineConfig{.cpus = 0});
  EXPECT_EQ(machine.cpu_count(), 1u);
  ::unsetenv("MULTICS_CPUS");
}

// --- A small paging workload, reused across the behavioral tests ------------

struct WorkloadResult {
  Cycles elapsed = 0;
  Cycles idle = 0;
  uint64_t connects = 0;
  uint64_t contentions = 0;
  size_t lock_order_violations = 0;
  std::vector<std::pair<std::string, uint64_t>> charges;
};

// The bench_smp workload in miniature: workers cycling private working sets
// bigger than their share of core, faulting through the sequential page
// control, with the gate prologue's giant-lock hold replicated in global
// mode.
WorkloadResult RunPagingWorkload(uint32_t cpus, LockMode mode, int refs_per_worker = 48) {
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kFrames = 16;
  constexpr uint32_t kPages = 8;

  Machine machine(MachineConfig{.core_frames = kFrames, .cpus = cpus, .lock_mode = mode});
  CoreMap core_map(kFrames);
  PagingDevice bulk = MakeBulkStore(64, &machine);
  PagingDevice disk = MakeDisk(1024, &machine);
  ActiveSegmentTable ast(8);
  ClockPolicy policy;
  SequentialPageControl pc(&machine, &core_map, &bulk, &disk, &policy);
  TrafficController tc(&machine, /*virtual_processors=*/8);

  for (uint32_t w = 0; w < kWorkers; ++w) {
    auto seg = ast.Activate(w + 1, kPages, {});
    EXPECT_TRUE(seg.ok());
    ActiveSegment* segment = seg.value();
    auto counter = std::make_shared<int>(0);
    auto task = std::make_unique<FnTask>([&pc, segment, refs_per_worker,
                                          counter](TaskContext& ctx) {
      if (*counter >= refs_per_worker) {
        return TaskState::kDone;
      }
      Machine& m = ctx.machine();
      std::optional<LockGuard> gate;
      if (m.lock_mode() == LockMode::kGlobalKernelLock) {
        gate.emplace(m.locks().Global());
      }
      const PageNo page = static_cast<PageNo>((*counter)++ % kPages);
      EXPECT_EQ(pc.EnsureResident(segment, page, AccessMode::kWrite), Status::kOk);
      segment->page_table.entries[page].used = true;
      segment->page_table.entries[page].modified = true;
      ctx.Charge(200, ChargeKind::kUserCpu);
      return TaskState::kReady;
    });
    auto proc = tc.CreateProcess("smp_w" + std::to_string(w), TestUser(),
                                 MlsLabel::SystemLow(), 4, std::move(task));
    EXPECT_TRUE(proc.ok());
  }
  tc.RunUntilQuiescent();

  WorkloadResult result;
  result.elapsed = machine.clock().now();
  for (uint32_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    result.idle += machine.idle_cycles(cpu);
  }
  result.connects = machine.connects_posted();
  machine.locks().ForEach(
      [&](const SimLock& lock) { result.contentions += lock.contentions(); });
  result.lock_order_violations = machine.lock_trace().violations().size();
  result.charges = machine.charges().Snapshot();
  return result;
}

// --- 1-CPU cycle identity ---------------------------------------------------

// On one CPU the multiprocessor machinery must vanish: no lock charges, no
// IPIs, and the same elapsed cycle count in every lock mode — the refactor
// did not perturb the uniprocessor model it grew out of.
TEST(SmpIdentityTest, OneCpuElapsedIdenticalAcrossLockModes) {
  WorkloadResult partitioned = RunPagingWorkload(1, LockMode::kPartitioned);
  WorkloadResult global = RunPagingWorkload(1, LockMode::kGlobalKernelLock);
  EXPECT_EQ(partitioned.elapsed, global.elapsed);
  EXPECT_EQ(partitioned.charges, global.charges);
  EXPECT_EQ(partitioned.contentions, 0u);
  EXPECT_EQ(global.contentions, 0u);
  for (const auto& [category, cycles] : partitioned.charges) {
    EXPECT_NE(category, "lock_overhead") << "1-CPU run charged lock overhead";
    EXPECT_NE(category, "lock_wait") << "1-CPU run charged lock wait";
    EXPECT_NE(category, "smp_ipi") << "1-CPU run charged connect IPIs";
  }
}

// --- Determinism ------------------------------------------------------------

// Two runs with the same configuration must agree cycle-for-cycle, counter
// for counter: the simulated multiprocessor is a deterministic interleaving
// on the sim clock, not a race.
TEST(SmpDeterminismTest, SameConfigurationIsByteIdentical) {
  for (uint32_t cpus : {2u, 4u, 6u}) {
    WorkloadResult a = RunPagingWorkload(cpus, LockMode::kPartitioned);
    WorkloadResult b = RunPagingWorkload(cpus, LockMode::kPartitioned);
    EXPECT_EQ(a.elapsed, b.elapsed) << cpus << " cpus";
    EXPECT_EQ(a.charges, b.charges) << cpus << " cpus";
    EXPECT_EQ(a.contentions, b.contentions) << cpus << " cpus";
    EXPECT_EQ(a.idle, b.idle) << cpus << " cpus";
    EXPECT_EQ(a.connects, b.connects) << cpus << " cpus";
  }
}

// --- Scaling ----------------------------------------------------------------

// The headline property, in miniature: with the hierarchy partitioned the
// workload finishes sooner on 4 CPUs than under the one giant lock, and the
// giant lock is where the serialization shows up.
TEST(SmpScalingTest, PartitionedBeatsGlobalLockOnFourCpus) {
  WorkloadResult partitioned = RunPagingWorkload(4, LockMode::kPartitioned);
  WorkloadResult global = RunPagingWorkload(4, LockMode::kGlobalKernelLock);
  EXPECT_LT(partitioned.elapsed, global.elapsed);
  EXPECT_GT(global.contentions, partitioned.contentions);
}

// Adding CPUs must never produce more total work than it parallelizes away:
// 4 CPUs finish the fixed workload no later than 1 CPU does.
TEST(SmpScalingTest, MoreCpusNeverSlower) {
  WorkloadResult one = RunPagingWorkload(1, LockMode::kPartitioned);
  WorkloadResult four = RunPagingWorkload(4, LockMode::kPartitioned);
  EXPECT_LE(four.elapsed, one.elapsed);
}

// --- Lock discipline --------------------------------------------------------

// The paging workload must run lock-order clean at every CPU count — this is
// the dynamic half of what mx_audit's LOCK_ORDER claim certifies.
TEST(SmpLockOrderTest, WorkloadIsViolationFree) {
  for (uint32_t cpus : {1u, 2u, 4u, 6u}) {
    for (LockMode mode : {LockMode::kPartitioned, LockMode::kGlobalKernelLock}) {
      WorkloadResult r = RunPagingWorkload(cpus, mode, /*refs_per_worker=*/16);
      EXPECT_EQ(r.lock_order_violations, 0u)
          << cpus << " cpus, " << LockModeName(mode);
    }
  }
}

// A deliberate inversion — acquiring a lower-level lock while holding a
// higher one — must be observed and reported by the trace.
TEST(SmpLockOrderTest, InversionIsDetected) {
  Machine machine(MachineConfig{.cpus = 2});
  SimLock& page_table = machine.locks().PageTable();  // Level 3.
  SimLock& ast = machine.locks().Ast();               // Level 2: wrong order.
  page_table.Acquire();
  ast.Acquire();
  ast.Release();
  page_table.Release();
  ASSERT_EQ(machine.lock_trace().violations().size(), 1u);
  const LockOrderViolation& v = machine.lock_trace().violations()[0];
  EXPECT_EQ(v.held, "page_table");
  EXPECT_EQ(v.acquired, "ast");
}

// The legal nesting order produces edges but no violations.
TEST(SmpLockOrderTest, HierarchyOrderIsClean) {
  Machine machine(MachineConfig{.cpus = 2});
  SimLock& ast = machine.locks().Ast();
  SimLock& page_table = machine.locks().PageTable();
  ast.Acquire();
  page_table.Acquire();
  page_table.Release();
  ast.Release();
  EXPECT_TRUE(machine.lock_trace().violations().empty());
  EXPECT_EQ(machine.lock_trace().edges().count({"ast", "page_table"}), 1u);
}

// --- The connect interrupt --------------------------------------------------

// A wakeup aimed at a process whose last home is another CPU posts a connect
// there, as the 6180's CIOC did.
TEST(SmpConnectTest, CrossCpuWakeupPostsConnect) {
  Machine machine(MachineConfig{.cpus = 2});
  TrafficController tc(&machine, /*virtual_processors=*/4);
  ChannelId chan = tc.channels().Create(/*owner=*/1);

  auto sleeper = std::make_unique<FnTask>([chan](TaskContext& ctx) {
    ctx.Charge(100);
    if (ctx.Await(chan)) {
      return TaskState::kDone;
    }
    return TaskState::kBlocked;
  });
  auto waker = std::make_unique<FnTask>([chan, fired = false](TaskContext& ctx) mutable {
    ctx.Charge(2000);  // Let the sleeper block first.
    if (!fired) {
      fired = true;
      EXPECT_EQ(ctx.Wakeup(chan, 1), Status::kOk);
      return TaskState::kReady;
    }
    return TaskState::kDone;
  });
  ASSERT_TRUE(tc.CreateProcess("sleeper", TestUser(), MlsLabel::SystemLow(), 4,
                               std::move(sleeper))
                  .ok());
  ASSERT_TRUE(
      tc.CreateProcess("waker", TestUser(), MlsLabel::SystemLow(), 4, std::move(waker))
          .ok());
  tc.RunUntilQuiescent();
  EXPECT_GT(machine.connects_posted(), 0u);
}

// On one CPU there is nobody to connect to.
TEST(SmpConnectTest, NoConnectsOnUniprocessor) {
  WorkloadResult r = RunPagingWorkload(1, LockMode::kPartitioned);
  EXPECT_EQ(r.connects, 0u);
}

}  // namespace
}  // namespace multics
