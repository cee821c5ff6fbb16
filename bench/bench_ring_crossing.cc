// E2 — Cross-ring call cost: software-simulated rings (645) vs hardware
// rings (6180).
//
// Paper: on the 645 "a call that went from a user ring in a process to the
// supervisor ring cost much more than a call which did not change protection
// environments"; on the 6180 "calls from one ring to another now cost no
// more than calls inside a ring."
//
// We measure, on the simulated processor, the cycle cost of an intra-ring
// call/return pair and a gate (cross-ring) call/return pair under both ring
// implementations, sweeping the argument count (the 645's software crossing
// copied and validated arguments).

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "bench/harness.h"
#include "src/hw/processor.h"

namespace multics {
namespace {

struct CallCosts {
  Cycles intra = 0;
  Cycles cross = 0;
};

CallCosts Measure(RingMode mode, uint32_t arg_words) {
  MachineConfig config;
  config.ring_mode = mode;
  Machine machine(config);
  Processor cpu(&machine);
  DescriptorSegment dseg(&machine.dseg_epochs());
  cpu.AttachAddressSpace(&dseg);
  cpu.SetRing(kRingUser);

  PageTable table(1);
  table.entries[0].present = true;
  table.entries[0].frame = 0;

  SegmentDescriptor plain;
  plain.valid = true;
  plain.page_table = &table;
  plain.length_pages = 1;
  plain.brackets = UserBrackets();
  plain.read = plain.execute = true;
  dseg.Set(10, plain);

  SegmentDescriptor gate = plain;
  gate.brackets = KernelGateBrackets(kRingUser);
  gate.gate = true;
  gate.gate_entries = 8;
  dseg.Set(11, gate);

  CallCosts costs;
  Cycles start = machine.clock().now();
  CHECK(cpu.Call(10, 0, arg_words) == Status::kOk);
  CHECK(cpu.Return() == Status::kOk);
  costs.intra = machine.clock().now() - start;

  start = machine.clock().now();
  CHECK(cpu.Call(11, 0, arg_words) == Status::kOk);
  CHECK(cpu.Return() == Status::kOk);
  costs.cross = machine.clock().now() - start;
  return costs;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("E2: ring-crossing cost, 645 software rings vs 6180 hardware rings",
              "645: cross-ring >> intra-ring; 6180: cross-ring == intra-ring");

  Table table({"machine", "args", "intra-ring call+return", "cross-ring call+return", "ratio"});
  for (RingMode mode : {RingMode::kSoftware645, RingMode::kHardware6180}) {
    for (uint32_t args : {0u, 4u, 16u, 64u}) {
      CallCosts costs = Measure(mode, args);
      table.AddRow({RingModeName(mode), Fmt(static_cast<uint64_t>(args)), Fmt(costs.intra),
                    Fmt(costs.cross),
                    Fmt(static_cast<double>(costs.cross) / static_cast<double>(costs.intra))});
      if (args == 4) {
        const std::string prefix =
            mode == RingMode::kSoftware645 ? "software645_" : "hardware6180_";
        bench::RegisterMetric(prefix + "intra_ring_cycles", costs.intra, "cycles");
        bench::RegisterMetric(prefix + "cross_ring_cycles", costs.cross, "cycles");
      }
    }
  }
  table.Print();

  // The downstream effect on a kernel gate's full round trip.
  std::printf("\nSupervisor gate round-trip (get_root_dir), cycles charged to crossing:\n");
  Table gate_table({"configuration", "gate_crossing cycles per call"});
  for (auto config : {KernelConfiguration::Legacy645(), KernelConfiguration::Legacy6180()}) {
    KernelParams params;
    params.config = config;
    params.machine.core_frames = 32;
    Kernel kernel(params);
    auto user = kernel.BootstrapProcess("u", Principal{"Jones", "Faculty", "a"}, {});
    CHECK(user.ok());
    const int calls = options.smoke ? 10 : 100;
    for (int i = 0; i < calls; ++i) {
      CHECK(kernel.RootDir(*user.value()).ok());
    }
    const Cycles per_call = kernel.machine().charges().Get(ChargeKind::kGateCrossing) / calls;
    gate_table.AddRow({config.Name(), Fmt(per_call)});
    bench::RegisterMetric(std::string(config.Name()) + "_gate_crossing_cycles_per_call",
                          per_call, "cycles");
    bench::RegisterRunStats(kernel.machine());  // Last configuration (legacy-6180) wins.
  }
  gate_table.Print();

  if (options.wallclock) {
    // Wall-clock microbenches are nondeterministic by nature: standalone,
    // opt-in only, and never registered as metrics.
    int argc = 1;
    char arg0[] = "bench_ring_crossing";
    char* argv[] = {arg0, nullptr};
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
}

// Wall-clock microbenchmarks of the simulated call machinery itself.
void BM_IntraRingCall(benchmark::State& state) {
  MachineConfig config;
  Machine machine(config);
  Processor cpu(&machine);
  DescriptorSegment dseg(&machine.dseg_epochs());
  cpu.AttachAddressSpace(&dseg);
  cpu.SetRing(kRingUser);
  PageTable table(1);
  table.entries[0].present = true;
  SegmentDescriptor plain;
  plain.valid = true;
  plain.page_table = &table;
  plain.length_pages = 1;
  plain.brackets = UserBrackets();
  plain.read = plain.execute = true;
  dseg.Set(10, plain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.Call(10, 0));
    benchmark::DoNotOptimize(cpu.Return());
  }
}
BENCHMARK(BM_IntraRingCall);

void BM_GateCall(benchmark::State& state) {
  MachineConfig config;
  Machine machine(config);
  Processor cpu(&machine);
  DescriptorSegment dseg(&machine.dseg_epochs());
  cpu.AttachAddressSpace(&dseg);
  cpu.SetRing(kRingUser);
  PageTable table(1);
  table.entries[0].present = true;
  SegmentDescriptor gate;
  gate.valid = true;
  gate.page_table = &table;
  gate.length_pages = 1;
  gate.brackets = KernelGateBrackets(kRingUser);
  gate.gate = true;
  gate.gate_entries = 1;
  gate.execute = true;
  dseg.Set(11, gate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.Call(11, 0));
    benchmark::DoNotOptimize(cpu.Return());
  }
}
BENCHMARK(BM_GateCall);

}  // namespace
}  // namespace multics

MX_BENCH(bench_ring_crossing)
