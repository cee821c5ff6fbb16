// E11 — The two-layer process implementation.
//
// Paper: "The first level multiplexes the processors into a larger fixed
// number of virtual processors. Because the number of virtual processes is
// fixed, this first layer need not depend on the facilities for managing the
// virtual memory. Several of the virtual processors are permanently assigned
// to implement processes for the dedicated use of other kernel mechanisms."
//
// Workload: kernel daemons with a standing queue of work while a crowd of
// user processes grinds. With the two-layer structure the daemons hold
// dedicated virtual processors and stay responsive; collapsing to a single
// layer makes them queue behind every user process.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/proc/traffic_controller.h"

namespace multics {
namespace {

struct LayerRun {
  uint64_t daemon_steps = 0;
  uint64_t user_steps = 0;
  double daemon_service_mean = 0;  // Cycles from work-queued to work-done.
  double daemon_service_p99 = 0;
};

LayerRun RunLayers(bool two_layer, int user_count, Cycles horizon) {
  Machine machine(MachineConfig{});
  TrafficController tc(&machine, 16);
  tc.set_two_layer(two_layer);

  ChannelId chan = tc.channels().Create(0);
  uint64_t daemon_steps = 0;
  Distribution service;
  auto daemon = std::make_unique<FnTask>([&, chan](TaskContext& ctx) {
    if (!ctx.Await(chan)) {
      return TaskState::kBlocked;
    }
    ctx.Charge(50, ChargeKind::kDaemonCpu);
    service.Add(static_cast<double>(ctx.machine().clock().now() - ctx.last_message().data));
    ++daemon_steps;
    return TaskState::kReady;
  });
  CHECK(tc.CreateProcess("pagectl_daemon", Principal{"PC", "SysDaemon", "z"}, {}, kRingKernel,
                         std::move(daemon), /*dedicated=*/true)
            .ok());

  uint64_t user_steps = 0;
  for (int i = 0; i < user_count; ++i) {
    auto user = tc.CreateProcess(
        "user" + std::to_string(i), Principal{"U", "Proj", "a"}, {}, kRingUser,
        std::make_unique<FnTask>([&, chan](TaskContext& ctx) {
          ctx.Charge(300, ChargeKind::kUserCpu);
          ++user_steps;
          // Every user step generates daemon work (as page faults would).
          (void)ctx.Wakeup(chan, ctx.machine().clock().now());
          return TaskState::kReady;
        }));
    CHECK(user.ok());
  }

  tc.RunUntil(horizon);
  LayerRun run;
  run.daemon_steps = daemon_steps;
  run.user_steps = user_steps;
  if (service.count() > 0) {
    run.daemon_service_mean = service.mean();
    run.daemon_service_p99 = service.Percentile(0.99);
  }
  bench::RegisterRunStats(machine);  // Last layering configuration wins.
  return run;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("E11: two-layer processes — dedicated virtual processors for kernel daemons",
              "fixed level-1 VPs keep kernel daemons runnable regardless of user load");

  const Cycles horizon = options.smoke ? 50'000 : 400'000;
  const std::vector<int> populations = options.smoke ? std::vector<int>{24}
                                                     : std::vector<int>{2, 8, 24};
  Table table({"structure", "user processes", "daemon steps", "user steps",
               "daemon service mean (cycles)", "p99"});
  for (int users : populations) {
    for (bool two_layer : {true, false}) {
      LayerRun run = RunLayers(two_layer, users, horizon);
      table.AddRow({two_layer ? "two-layer (dedicated VPs)" : "single-layer (one queue)",
                    Fmt(static_cast<uint64_t>(users)), Fmt(run.daemon_steps),
                    Fmt(run.user_steps), Fmt(run.daemon_service_mean),
                    Fmt(run.daemon_service_p99)});
      if (users == 24) {
        const std::string prefix = two_layer ? "two_layer_" : "single_layer_";
        bench::RegisterMetric(prefix + "daemon_steps", run.daemon_steps, "steps");
        bench::RegisterMetric(prefix + "daemon_service_mean", run.daemon_service_mean,
                              "cycles");
        bench::RegisterMetric(prefix + "daemon_service_p99", run.daemon_service_p99,
                              "cycles");
      }
    }
  }
  table.Print();

  std::printf(
      "\nWith dedicated level-1 virtual processors the daemon's service time is\n"
      "flat no matter how many user processes compete; in the single-layer\n"
      "structure it queues behind the whole crowd and its service time scales\n"
      "with the user population — the structural reason the paper pins page\n"
      "control, interrupt handling, and the like to permanently assigned VPs.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_process_layers)
