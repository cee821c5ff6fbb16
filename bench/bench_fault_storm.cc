// Fault storm — resilience of the kernelized system under injected faults.
//
// The paper's review activity demands that "undesired" events (crashes, lost
// interrupts, device errors) never become "unauthorized" ones. This bench
// quantifies the recovery machinery of src/inject/: a seeded storm
// (InjectionPlan storm mode) rains device, interrupt, memory, gate, and
// hierarchy faults on a gate workload at a swept rate, and we report how
// each fault was absorbed:
//
//   recovered — transient device faults absorbed by retry-with-backoff
//               (PagingDevice retries), invisible to the caller;
//   degraded  — persistent device faults that exhausted the retry budget and
//               surfaced as an error Status (data loss, not corruption);
//   denied    — gate crashes converted into audited denials by the reference
//               monitor's gate layer;
//   salvaged  — torn hierarchy updates repaired by the post-storm
//               crash-restart + salvager pass.
//
// The r0 row doubles as the no-op baseline: a registered plan whose rates
// are all zero must change nothing.
//
// `--faults` additionally prints the per-site injection breakdown. It never
// changes which metrics are registered (determinism contract).

#include "bench/common.h"
#include "bench/harness.h"
#include "src/base/random.h"
#include "src/inject/plan.h"
#include "src/inject/recovery.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

struct StormOutcome {
  uint64_t injected = 0;
  uint64_t recovered = 0;        // Device retries that masked a transient fault.
  uint64_t degraded = 0;         // Transfers that exhausted retries.
  uint64_t denied = 0;           // Gate crashes audited as denials.
  uint64_t salvage_repairs = 0;  // Hierarchy damage the salvager fixed.
  uint64_t dropped_interrupts = 0;
  uint64_t completed = 0;  // Workload operations that succeeded.
  uint64_t refused = 0;    // Workload operations that surfaced an error.
  bool recovery_clean = false;
  Cycles elapsed = 0;
  InjectionReport report;
};

// One storm run at `rate`: rate applies to device transfers; the other sites
// run at fixed fractions of it so a single knob sweeps the whole storm.
StormOutcome RunStorm(double rate, int steps) {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  // Tight core and AST so the workload actually pages: device-site faults
  // only fire on real transfers.
  params.machine.core_frames = 40;
  params.ast_capacity = 20;
  params.bulk_pages = 64;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  CHECK(Bootstrap::Run(kernel, options).ok());

  struct Actor {
    Process* process = nullptr;
    SegNo home = kInvalidSegNo;
    std::vector<std::string> created;
  };
  std::vector<Actor> actors;
  for (const UserSpec& user : DefaultUsers()) {
    auto process = kernel.BootstrapProcess(user.person + "_p",
                                           Principal{user.person, user.project, "a"},
                                           user.max_clearance);
    CHECK(process.ok());
    Actor actor;
    actor.process = process.value();
    UserInitiator initiator(&kernel, actor.process);
    auto home = initiator.InitiateDirPath(">udd>" + user.project + ">" + user.person);
    CHECK(home.ok());
    actor.home = home.value();
    actors.push_back(actor);
  }

  const SegmentStore::State before = kernel.store().SaveState();

  InjectionPlan plan;
  StormConfig storm;
  storm.seed = 0xFA17;
  storm.device_rate = rate;
  storm.interrupt_rate = rate / 2;
  storm.memory_rate = rate / 2;
  storm.gate_rate = rate / 4;
  storm.hierarchy_rate = rate / 16;
  plan.EnableStorm(storm);
  kernel.machine().SetInjector(&plan);

  StormOutcome out;
  Rng rng(20260806);
  for (int step = 0; step < steps; ++step) {
    Actor& actor = actors[rng.NextBelow(actors.size())];
    Process& process = *actor.process;
    switch (rng.NextBelow(5)) {
      case 0: {
        std::string name = std::string("s").append(std::to_string(rng.NextBelow(32)));
        SegmentAttributes attrs;
        attrs.acl.Set(AclEntry{process.principal().person, process.principal().project, "*",
                               kModeRead | kModeWrite});
        auto uid = kernel.FsCreateSegment(process, actor.home, name, attrs);
        if (uid.ok()) {
          actor.created.push_back(name);
          ++out.completed;
        } else {
          ++out.refused;
        }
        break;
      }
      case 1: {
        if (actor.created.empty()) {
          break;
        }
        const std::string& name = actor.created[rng.NextBelow(actor.created.size())];
        auto init = kernel.Initiate(process, actor.home, name);
        if (!init.ok()) {
          ++out.refused;
          break;
        }
        const uint32_t pages = 2 + static_cast<uint32_t>(rng.NextBelow(3));
        if (kernel.SegSetLength(process, init->segno, pages) == Status::kOk) {
          CHECK(kernel.RunAs(process) == Status::kOk);
          Status st = kernel.cpu().Write(
              init->segno, static_cast<WordOffset>(rng.NextBelow(pages * kPageWords)),
              rng.Next());
          st == Status::kOk ? ++out.completed : ++out.refused;
        }
        break;
      }
      case 2: {
        if (actor.created.empty()) {
          break;
        }
        auto init = kernel.Initiate(process, actor.home, actor.created[0]);
        if (init.ok()) {
          CHECK(kernel.RunAs(process) == Status::kOk);
          auto word = kernel.cpu().Read(init->segno, 0);
          word.ok() ? ++out.completed : ++out.refused;
        }
        break;
      }
      case 3: {
        if (actor.created.empty()) {
          break;
        }
        size_t index = rng.NextBelow(actor.created.size());
        Status st = kernel.FsDelete(process, actor.home, actor.created[index]);
        if (st == Status::kOk || st == Status::kProcessCrashed) {
          actor.created.erase(actor.created.begin() + static_cast<long>(index));
          st == Status::kOk ? ++out.completed : ++out.refused;
        }
        break;
      }
      case 4: {
        auto names = kernel.FsList(process, actor.home);
        names.ok() ? ++out.completed : ++out.refused;
        break;
      }
    }
  }

  // Post-storm crash-restart: salvage the torn hierarchy and verify the
  // security invariants held.
  auto recovery = CrashRestart(kernel.hierarchy(), before);
  CHECK(recovery.ok()) << StatusName(recovery.status());
  kernel.machine().SetInjector(nullptr);

  out.injected = plan.injected();
  out.report = plan.report();
  out.recovered = kernel.disk().retries() + kernel.bulk_store().retries();
  out.degraded = kernel.disk().failed_transfers() + kernel.bulk_store().failed_transfers();
  out.denied = kernel.audit().denials_with(Status::kProcessCrashed);
  out.salvage_repairs = recovery->salvage.total_repairs();
  out.dropped_interrupts = kernel.machine().interrupts().total_dropped();
  out.recovery_clean = recovery->clean();
  out.elapsed = kernel.machine().clock().now();
  bench::RegisterRunStats(kernel.machine());  // Last fault rate wins.
  return out;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("Fault storm: recovered / degraded / denied under injected faults",
              "crashes and device errors must surface as denials or data loss, "
              "never as unauthorized access");

  const int steps = options.smoke ? 600 : 6000;
  // Device-fault probability per transfer attempt; other sites scale off it.
  // r0 (no faults) and r16 (1/16) run in both modes and carry the metrics.
  const std::vector<double> rates = options.smoke
                                        ? std::vector<double>{0.0, 1.0 / 16}
                                        : std::vector<double>{0.0, 1.0 / 128, 1.0 / 16, 1.0 / 4};

  Table table({"fault rate", "injected", "recovered", "degraded", "denied",
               "dropped irq", "salvaged", "completed", "refused", "clean", "cycles"});
  std::vector<std::pair<double, StormOutcome>> outcomes;
  for (double rate : rates) {
    StormOutcome out = RunStorm(rate, steps);
    outcomes.emplace_back(rate, out);
    table.AddRow({rate == 0.0 ? "0" : "1/" + Fmt(static_cast<uint64_t>(1.0 / rate)),
                  Fmt(out.injected), Fmt(out.recovered), Fmt(out.degraded), Fmt(out.denied),
                  Fmt(out.dropped_interrupts), Fmt(out.salvage_repairs), Fmt(out.completed),
                  Fmt(out.refused), out.recovery_clean ? "yes" : "NO", Fmt(out.elapsed)});

    const std::string prefix = rate == 0.0 ? "r0_" : rate == 1.0 / 16 ? "r16_" : "";
    if (!prefix.empty()) {
      bench::RegisterMetric(prefix + "injected", static_cast<double>(out.injected), "faults");
      bench::RegisterMetric(prefix + "recovered", static_cast<double>(out.recovered),
                            "retries");
      bench::RegisterMetric(prefix + "degraded", static_cast<double>(out.degraded),
                            "transfers");
      bench::RegisterMetric(prefix + "denied", static_cast<double>(out.denied), "denials");
      bench::RegisterMetric(prefix + "salvage_repairs",
                            static_cast<double>(out.salvage_repairs), "repairs");
      bench::RegisterMetric(prefix + "recovery_clean", out.recovery_clean ? 1 : 0, "bool");
      bench::RegisterMetric(prefix + "completed", static_cast<double>(out.completed), "ops");
    }
    CHECK(out.recovery_clean) << "security invariant violated at rate " << rate;
  }
  table.Print();

  if (options.faults) {
    Table sites({"fault rate", "site", "injections"});
    for (const auto& [rate, out] : outcomes) {
      for (int s = 0; s < static_cast<int>(kInjectSiteCount); ++s) {
        sites.AddRow({rate == 0.0 ? "0" : "1/" + Fmt(static_cast<uint64_t>(1.0 / rate)),
                      InjectSiteName(static_cast<InjectSite>(s)), Fmt(out.report.by_site[s])});
      }
    }
    std::printf("\nPer-site injection breakdown (--faults):\n");
    sites.Print();
  }

  std::printf(
      "\nEvery injected fault lands in one of four buckets: absorbed by device\n"
      "retry-with-backoff (recovered), surfaced as an error Status after the retry\n"
      "budget (degraded), converted to an audited denial at the gate (denied), or\n"
      "repaired by the crash-restart salvage pass (salvaged). The 'clean' column\n"
      "asserts the security invariants after recovery: no orphan branches, no ACL\n"
      "drift, no MLS label widened. The r0 row is the registered-but-silent plan:\n"
      "it must match an uninstrumented run cycle-for-cycle.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_fault_storm)
