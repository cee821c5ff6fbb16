// Ablation — active segment table sizing.
//
// The AST is kernel-resident common mechanism, so the certification pressure
// is to keep it small; but every shortfall turns into segment faults
// (deactivation + SDW reconnection through the reference monitor). This
// harness sweeps AST capacity against a working set of initiated segments
// and reports the reconnect traffic — the paper's performance-cost-of-
// security question ("One goal of the research is to understand better the
// performance cost of security") in miniature.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/base/random.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

struct SizingResult {
  uint64_t segment_faults = 0;
  uint64_t monitor_checks = 0;
  Cycles cycles = 0;
};

SizingResult RunWithAst(uint32_t ast_capacity, uint32_t working_set, int touches) {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  params.machine.core_frames = 192;
  params.ast_capacity = ast_capacity;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  CHECK(Bootstrap::Run(kernel, options).ok());

  auto user = kernel.BootstrapProcess("jones", Principal{"Jones", "Faculty", "a"},
                                      MlsLabel{SensitivityLevel::kSecret,
                                               CategorySet::Of({1})});
  CHECK(user.ok());
  Process& p = *user.value();
  UserInitiator initiator(&kernel, &p);
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  CHECK(home.ok());

  // Initiate a working set of segments, all with a page of data.
  std::vector<SegNo> segnos;
  for (uint32_t i = 0; i < working_set; ++i) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
    const std::string name = std::string("w").append(std::to_string(i));
    CHECK(kernel.FsCreateSegment(p, home.value(), name, attrs).ok());
    auto init = kernel.Initiate(p, home.value(), name);
    CHECK(init.ok());
    CHECK(kernel.SegSetLength(p, init->segno, 1) == Status::kOk);
    segnos.push_back(init->segno);
  }

  CHECK(kernel.RunAs(p) == Status::kOk);
  Rng rng(99);
  const Cycles start = kernel.machine().clock().now();
  const uint64_t checks_before = kernel.monitor().checks();
  for (int i = 0; i < touches; ++i) {
    SegNo segno = segnos[rng.NextZipf(segnos.size(), 1.1)];
    auto word = kernel.cpu().Read(segno, 0);
    CHECK(word.ok()) << StatusName(word.status());
  }
  SizingResult result;
  result.segment_faults = kernel.cpu().segment_faults();
  result.monitor_checks = kernel.monitor().checks() - checks_before;
  result.cycles = kernel.machine().clock().now() - start;
  bench::RegisterRunStats(kernel.machine());  // Last parameterisation wins.
  return result;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("Ablation: active-segment-table capacity vs segment-fault traffic",
              "a smaller (easier to certify) AST trades into reconnect work");

  Table table({"AST capacity", "working set", "segment faults", "monitor re-checks",
               "workload cycles"});
  const int touches = options.smoke ? 400 : 4000;
  const std::vector<uint32_t> working_sets = options.smoke ? std::vector<uint32_t>{24u}
                                                           : std::vector<uint32_t>{24u, 48u};
  const std::vector<uint32_t> capacities =
      options.smoke ? std::vector<uint32_t>{16u, 64u}
                    : std::vector<uint32_t>{16u, 32u, 64u, 128u};
  for (uint32_t working_set : working_sets) {
    for (uint32_t capacity : capacities) {
      SizingResult r = RunWithAst(capacity, working_set, touches);
      table.AddRow({Fmt(capacity), Fmt(working_set), Fmt(r.segment_faults),
                    Fmt(r.monitor_checks), Fmt(r.cycles)});
      if (working_set == 24 && (capacity == 16 || capacity == 64)) {
        const std::string prefix = "ast" + std::to_string(capacity) + "_ws24_";
        bench::RegisterMetric(prefix + "segment_faults", r.segment_faults, "faults");
        bench::RegisterMetric(prefix + "cycles", r.cycles, "cycles");
      }
    }
  }
  table.Print();

  std::printf(
      "\nEvery segment fault is a full trip through the reference monitor (access is\n"
      "recomputed at reconnection — that is a security feature, not an accident),\n"
      "so undersizing this piece of common mechanism has a visible, bounded price.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_ast_sizing)
