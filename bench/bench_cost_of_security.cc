// Footnote 7 — the performance cost of security.
//
// Paper: "There may still exist other performance penalties associated with
// removing functions from the supervisor that will inhibit production of the
// smallest possible kernel. One goal of the research is to understand better
// the performance cost of security."
//
// We run the same end-to-end user workload (a shell session's worth of
// naming, creation, linking, reading, and writing) on the legacy supervisor
// and on the kernelized system. The breakdown now comes from the kernel-wide
// metering subsystem (src/meter/): per-gate call counts and cycle histograms,
// per-subsystem event totals, and — with `--trace=PATH` — the whole session
// as a Chrome trace_event JSON file for Perfetto/chrome://tracing, plus the
// same data folded flamegraph-style next to it (PATH.folded):
//
//   ./build/bench/bench_cost_of_security --trace=kernelized_trace.json

#include <array>

#include "bench/common.h"
#include "bench/harness.h"
#include "src/meter/export.h"
#include "src/userring/user_linker.h"

namespace multics {
namespace {

struct CostBreakdown {
  Cycles total = 0;
  uint64_t gate_calls = 0;
  Cycles gate_crossing = 0;
  Cycles kernel_naming = 0;   // ring-0 pathname walking
  Cycles user_naming = 0;     // user-ring pathname walking
  Cycles kernel_linker = 0;
  Cycles page_io = 0;

  // Meter-derived views of the same session.
  std::vector<std::pair<std::string, Distribution>> gate_histograms;  // name-sorted
  std::array<uint64_t, kTraceEventKindCount> event_totals{};
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
  Cycles profile_self = 0;  // Sum of self-cycles over the attribution profile.
  std::string folded;       // Folded-stack text of the same profile.
};

CostBreakdown RunWorkload(const KernelConfiguration& config, const std::string& trace_path,
                          const bench::BenchOptions& options) {
  BootedSystem system = BootedSystem::Make(config, /*core_frames=*/48);  // Forces paging.
  Kernel& kernel = *system.kernel;
  Process* user = system.AddUser("Jones", "Faculty",
                                 MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});

  const bool legacy = config.naming_in_kernel;
  UserInitiator initiator(&kernel, user);
  ReferenceNameManager rnm;
  SearchRules rules;
  CHECK(rules.Set({">system_library"}) == Status::kOk);
  if (legacy) {
    CHECK(kernel.SetSearchRules(*user, {">system_library"}) == Status::kOk);
  }

  auto resolve = [&](const std::string& path) -> SegNo {
    if (legacy) {
      auto segno = kernel.InitiatePath(*user, path);
      CHECK(segno.ok());
      return segno.value();
    }
    auto segno = initiator.InitiatePath(path);
    CHECK(segno.ok());
    return segno.value();
  };

  Meter& meter = kernel.machine().meter();
  meter.Clear();  // Boot and setup noise out; meter the session alone.
  const Cycles start = kernel.machine().clock().now();
  const uint64_t calls_before = kernel.gates().total_calls();

  const int rounds = options.smoke ? 2 : 5;
  const int segments_per_round = options.smoke ? 3 : 6;

  // The session: make a working directory of programs and data, resolve and
  // link against the library, and push data through the paging system. The
  // whole measured window lives under one root span, so the attribution
  // profile's self-cycles sum to exactly the session's charged cycles.
  {
  MeterId session_dist = kInvalidMeterId;
  MeterId round_dist = kInvalidMeterId;
  TraceSpan session_span(&meter, "session", session_dist);
  SegNo home = resolve(">udd>Faculty>Jones");
  for (int round = 0; round < rounds; ++round) {  // 60 pages: inside the project quota.
    TraceSpan round_span(&meter, "session_round", round_dist, static_cast<uint64_t>(round));
    for (int i = 0; i < segments_per_round; ++i) {
      std::string name = std::string("w").append(std::to_string(round)) + "_" + std::to_string(i);
      SegmentAttributes attrs;
      attrs.acl.Set(AclEntry{"Jones", "Faculty", "*",
                             kModeRead | kModeWrite | kModeExecute});
      CHECK(kernel.FsCreateSegment(*user, home, name, attrs).ok());
      auto init = kernel.Initiate(*user, home, name);
      CHECK(init.ok());
      CHECK(kernel.SegSetLength(*user, init->segno, 2) == Status::kOk);
      CHECK(kernel.RunAs(*user) == Status::kOk);
      for (WordOffset offset = 0; offset < 2 * kPageWords; offset += 97) {
        CHECK(kernel.cpu().Write(init->segno, offset, offset) == Status::kOk);
      }
    }
    // Resolve the library by name, both worlds' way, and look a symbol up.
    SegNo math = legacy ? kernel.SearchInitiate(*user, "math_").value()
                        : rules.Search("math_", initiator, rnm).value();
    if (legacy) {
      CHECK(kernel.LinkLookupSymbol(*user, math, "sqrt").ok());
    } else {
      UserLinker linker(&kernel, user, &initiator, &rules, &rnm);
      CHECK(linker.LookupSymbol(math, "sqrt").ok());
    }
  }
  }  // session_span closes: profile now covers the full measured window.

  CostBreakdown cost;
  cost.total = kernel.machine().clock().now() - start;
  cost.gate_calls = kernel.gates().total_calls() - calls_before;
  const CounterSet& charges = kernel.machine().charges();
  cost.gate_crossing = charges.Get(ChargeKind::kGateCrossing);
  cost.kernel_naming = charges.Get(ChargeKind::kKernelPathWalk);
  cost.user_naming = charges.Get(ChargeKind::kUserRingPathWalk);
  cost.kernel_linker = charges.Get(ChargeKind::kKernelLinker);
  cost.page_io = charges.Get(ChargeKind::kPageIo);

  for (const auto& [name, dist] : meter.DistributionSnapshot()) {
    if (name.starts_with("gate/")) {
      cost.gate_histograms.emplace_back(name.substr(5), *dist);
    }
  }
  for (size_t k = 0; k < kTraceEventKindCount; ++k) {
    cost.event_totals[k] = meter.events_of(static_cast<TraceEventKind>(k));
  }
  cost.events_recorded = meter.recorder().total_recorded();
  cost.events_dropped = meter.recorder().dropped();
  cost.profile_self = meter.ProfileSelfTotal();
  cost.folded = FoldedStackProfile(meter);

  if (!trace_path.empty()) {
    CHECK(WriteChromeTraceFile(meter, trace_path) == Status::kOk);
    CHECK(WriteTextFile(cost.folded, trace_path + ".folded") == Status::kOk);
    std::printf("[wrote Chrome trace of the %s session to %s, folded stacks to %s.folded]\n",
                legacy ? "legacy" : "kernelized", trace_path.c_str(), trace_path.c_str());
  }
  if (!legacy) {
    bench::RegisterRunStats(kernel.machine());
  }
  return cost;
}

void PrintGateBreakdown(const char* world, const CostBreakdown& cost) {
  std::printf("\nPer-gate breakdown (%s), from the meter's gate histograms:\n", world);
  Table table({"gate", "calls", "cycles inside the gate"});
  uint64_t metered_calls = 0;
  for (const auto& [name, dist] : cost.gate_histograms) {
    table.AddRow({name, Fmt(static_cast<uint64_t>(dist.count())), dist.Summary()});
    metered_calls += dist.count();
  }
  table.AddRow({"(all gates)", Fmt(metered_calls), "--"});
  table.Print();
}

void PrintEventTotals(const CostBreakdown& legacy, const CostBreakdown& kernelized) {
  std::printf("\nPer-subsystem event totals (flight recorder, same session):\n");
  Table table({"event kind", "legacy-6180", "kernelized-6180"});
  for (size_t k = 0; k < kTraceEventKindCount; ++k) {
    if (legacy.event_totals[k] == 0 && kernelized.event_totals[k] == 0) {
      continue;
    }
    table.AddRow({TraceEventKindName(static_cast<TraceEventKind>(k)),
                  Fmt(legacy.event_totals[k]), Fmt(kernelized.event_totals[k])});
  }
  table.AddRow({"(events recorded)", Fmt(legacy.events_recorded),
                Fmt(kernelized.events_recorded)});
  table.AddRow({"(dropped by ring wrap)", Fmt(legacy.events_dropped),
                Fmt(kernelized.events_dropped)});
  table.Print();
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("Footnote 7: the performance cost of security",
              "kernelization trades a few percent of gate traffic for a much smaller "
              "kernel; paging dominates either way");

  CostBreakdown legacy = RunWorkload(KernelConfiguration::Legacy6180(), "", options);
  CostBreakdown kernelized =
      RunWorkload(KernelConfiguration::Kernelized6180(), options.trace_path, options);

  Table table({"metric (same session)", "legacy-6180", "kernelized-6180", "delta"});
  auto delta = [](Cycles a, Cycles b) {
    double diff = (static_cast<double>(b) - static_cast<double>(a)) /
                  std::max<double>(static_cast<double>(a), 1.0);
    return std::string(diff >= 0 ? "+" : "").append(Pct(diff));
  };
  table.AddRow({"total session cycles", Fmt(legacy.total), Fmt(kernelized.total),
                delta(legacy.total, kernelized.total)});
  table.AddRow({"gate calls", Fmt(legacy.gate_calls), Fmt(kernelized.gate_calls),
                delta(legacy.gate_calls, kernelized.gate_calls)});
  table.AddRow({"gate-crossing cycles", Fmt(legacy.gate_crossing),
                Fmt(kernelized.gate_crossing),
                delta(legacy.gate_crossing, kernelized.gate_crossing)});
  table.AddRow({"ring-0 naming cycles", Fmt(legacy.kernel_naming),
                Fmt(kernelized.kernel_naming), "(eliminated)"});
  table.AddRow({"user-ring naming cycles", Fmt(legacy.user_naming),
                Fmt(kernelized.user_naming), "(moved here)"});
  table.AddRow({"ring-0 linker cycles", Fmt(legacy.kernel_linker),
                Fmt(kernelized.kernel_linker), "(eliminated)"});
  table.AddRow({"page I/O cycles", Fmt(legacy.page_io), Fmt(kernelized.page_io),
                delta(legacy.page_io, kernelized.page_io)});
  table.Print();

  PrintGateBreakdown("legacy-6180", legacy);
  PrintGateBreakdown("kernelized-6180", kernelized);
  PrintEventTotals(legacy, kernelized);

  // The causal profile: per-process, per-stack self-cycles for the
  // kernelized session, in folded (flamegraph) form. Every charged cycle in
  // the session window is attributed exactly once, so the self-cycles sum
  // back to the session total.
  std::printf("\nFolded attribution profile (kernelized session): `process;stack self`\n%s",
              kernelized.folded.c_str());
  CHECK(kernelized.profile_self == kernelized.total)
      << "profile self-cycles " << kernelized.profile_self
      << " != session cycles " << kernelized.total;
  CHECK(legacy.profile_self == legacy.total);
  std::printf("[attribution check: folded self-cycles sum to the session total, "
              "%llu cycles]\n",
              static_cast<unsigned long long>(kernelized.profile_self));

  std::printf(
      "\nThe kernelized session makes more (cheap, hardware-ring) gate calls because\n"
      "the user-ring initiator asks per directory level, but the mechanism cycles\n"
      "leave ring 0 and the total is dominated by paging in both worlds — the\n"
      "paper's bet that the 6180's cheap crossings make the small kernel\n"
      "affordable, measured. The breakdown above is the meter's: the same\n"
      "flight-recorder/histogram data any subsystem can query, exportable as a\n"
      "Chrome trace by passing --trace=PATH.\n");

  bench::RegisterMetric("legacy_total_cycles", legacy.total, "cycles");
  bench::RegisterMetric("kernelized_total_cycles", kernelized.total, "cycles");
  bench::RegisterMetric("legacy_gate_calls", legacy.gate_calls, "calls");
  bench::RegisterMetric("kernelized_gate_calls", kernelized.gate_calls, "calls");
  bench::RegisterMetric("kernelized_gate_crossing_cycles", kernelized.gate_crossing,
                        "cycles");
  bench::RegisterMetric("kernelized_page_io_cycles", kernelized.page_io, "cycles");
  bench::RegisterMetric("kernelized_profile_self_cycles", kernelized.profile_self,
                        "cycles");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_cost_of_security)
