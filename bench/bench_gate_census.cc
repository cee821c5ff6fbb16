// E1 — Gate census across supervisor configurations.
//
// Paper: "the linker's removal eliminated 10% of the gate entry points into
// the supervisor" and "the linker and reference name removal projects
// together reduce the number of user-available supervisor entries by
// approximately one third."
//
// We build the supervisor in four configurations and count the registered
// gate entry points per category, then report the reductions.

#include "bench/common.h"
#include "bench/harness.h"

namespace multics {
namespace {

struct CensusRow {
  std::string name;
  KernelConfiguration config;
};

void RunBench(const bench::BenchOptions& options) {
  (void)options;  // The census is already tiny; smoke == full.
  PrintHeader("E1: gate-entry census over supervisor configurations",
              "linker removal ~= -10% of gates; linker + reference-name removal ~= -1/3");

  KernelConfiguration legacy = KernelConfiguration::Legacy6180();

  KernelConfiguration no_linker = legacy;
  no_linker.linker_in_kernel = false;

  KernelConfiguration no_linker_no_naming = no_linker;
  no_linker_no_naming.naming_in_kernel = false;

  std::vector<CensusRow> rows = {
      {"legacy-6180 (full supervisor)", legacy},
      {"  - linker removed [12,13]", no_linker},
      {"  - + reference names removed [14]", no_linker_no_naming},
      {"kernelized (all projects done)", KernelConfiguration::Kernelized6180()},
  };

  const std::vector<GateCategory> categories = {
      GateCategory::kAddressSpace, GateCategory::kPathAddressing, GateCategory::kNaming,
      GateCategory::kLinker,       GateCategory::kFileSystem,     GateCategory::kSegment,
      GateCategory::kProcess,      GateCategory::kIpc,            GateCategory::kDeviceIo,
      GateCategory::kNetwork,      GateCategory::kAdmin,
  };

  std::vector<std::string> header = {"configuration"};
  for (GateCategory category : categories) {
    header.push_back(GateCategoryName(category));
  }
  header.push_back("total");
  header.push_back("vs legacy");
  Table table(header);

  uint32_t legacy_total = 0;
  uint32_t last_total = 0;
  for (const CensusRow& row : rows) {
    KernelParams params;
    params.config = row.config;
    params.machine.core_frames = 32;
    Kernel kernel(params);
    std::vector<std::string> cells = {row.name};
    for (GateCategory category : categories) {
      cells.push_back(Fmt(kernel.gates().CountByCategory(category)));
    }
    uint32_t total = kernel.gates().count();
    if (legacy_total == 0) {
      legacy_total = total;
    }
    last_total = total;
    cells.push_back(Fmt(total));
    double change = (static_cast<double>(legacy_total) - total) / legacy_total;
    cells.push_back(total == legacy_total ? "--" : std::string("-").append(Pct(change)));
    table.AddRow(std::move(cells));
  }
  table.Print();

  KernelParams params;
  params.config = legacy;
  params.machine.core_frames = 32;
  Kernel kernel(params);
  uint32_t linker = kernel.gates().CountByCategory(GateCategory::kLinker);
  uint32_t naming = kernel.gates().CountByCategory(GateCategory::kNaming);
  uint32_t paths = kernel.gates().CountByCategory(GateCategory::kPathAddressing);
  std::printf("\nlinker gates / legacy total          = %u/%u = %s  (paper: 10%%)\n", linker,
              legacy_total, Pct(static_cast<double>(linker) / legacy_total).c_str());
  std::printf("linker+naming+path gates / legacy    = %u/%u = %s  (paper: ~one third)\n",
              linker + naming + paths, legacy_total,
              Pct(static_cast<double>(linker + naming + paths) / legacy_total).c_str());

  bench::RegisterMetric("legacy_gates", legacy_total, "gates");
  bench::RegisterMetric("kernelized_gates", last_total, "gates");
  bench::RegisterMetric("linker_gate_fraction", static_cast<double>(linker) / legacy_total,
                        "fraction");
  bench::RegisterMetric("naming_projects_gate_fraction",
                        static_cast<double>(linker + naming + paths) / legacy_total, "fraction");
  bench::RegisterRunStats(kernel.machine());
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_gate_census)
