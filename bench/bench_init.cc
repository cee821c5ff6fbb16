// E8 — System initialization: stepwise bootstrap vs loading a pre-generated
// memory image.
//
// Paper: "The idea is to produce on a system tape a bit pattern which, when
// loaded into memory, manifests a fully initialized system, rather than
// letting the system bootstrap itself in a complex way each time it is
// loaded... One pattern of operation may be much simpler to certify than the
// other."

#include "bench/common.h"
#include "bench/harness.h"

namespace multics {
namespace {

void RunBench(const bench::BenchOptions& options) {
  (void)options;  // Two boots; already cheap enough for smoke.
  PrintHeader("E8: stepwise bootstrap vs memory-image initialization",
              "image loading exercises far less privileged mechanism per start");

  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  params.machine.core_frames = 128;

  // The donor system bootstraps the slow way, once.
  Kernel donor(params);
  BootstrapOptions boot_options;
  boot_options.users = DefaultUsers();
  auto bootstrap_report = Bootstrap::Run(donor, boot_options);
  CHECK(bootstrap_report.ok());

  // Generate the image offline ("in a user environment of a previous
  // system") and load it into a fresh machine.
  auto image = MemoryImage::Generate(donor);
  CHECK(image.ok());
  Kernel fresh(params);
  auto load_report = MemoryImage::Load(fresh, image.value());
  CHECK(load_report.ok());

  Table table({"metric", "bootstrap (every start)", "image load (every start)", "ratio"});
  table.AddRow({"distinct privileged steps", Fmt(bootstrap_report->privileged_steps),
                Fmt(load_report->privileged_steps),
                Fmt(static_cast<double>(bootstrap_report->privileged_steps) /
                        load_report->privileged_steps,
                    1) +
                    "x"});
  table.AddRow({"ring-0 mechanism cycles", Fmt(bootstrap_report->ring0_cycles),
                Fmt(load_report->ring0_cycles),
                Fmt(static_cast<double>(bootstrap_report->ring0_cycles) /
                        std::max<Cycles>(load_report->ring0_cycles, 1),
                    1) +
                    "x"});
  table.AddRow({"data copied (cycles, trivial loop)", "0",
                Fmt(fresh.machine().charges().Get(ChargeKind::kImageCopy)), "--"});
  table.Print();

  std::printf("\nBootstrap step sequence (%u steps):\n", bootstrap_report->privileged_steps);
  for (const std::string& step : bootstrap_report->step_names) {
    std::printf("  %s\n", step.c_str());
  }
  std::printf("\nImage-load step sequence (%u steps):\n", load_report->privileged_steps);
  for (const std::string& step : load_report->step_names) {
    std::printf("  %s\n", step.c_str());
  }
  std::printf("\nImage: %u directories, %u segments, ~%zu bytes.\n",
              image->directory_count(), image->segment_count(), image->ApproxBytes());

  // Functional equivalence spot check.
  bool equivalent = fresh.hierarchy()
                        .ResolvePath(Path::Parse(">system_library>math_").value())
                        .ok() &&
                    fresh.CheckPassword("Jones", "Faculty", "j0nespw").ok();
  std::printf("Loaded system functionally equivalent: %s\n", equivalent ? "yes" : "NO");

  bench::RegisterMetric("bootstrap_privileged_steps", bootstrap_report->privileged_steps,
                        "steps");
  bench::RegisterMetric("image_load_privileged_steps", load_report->privileged_steps, "steps");
  bench::RegisterMetric("bootstrap_ring0_cycles", bootstrap_report->ring0_cycles, "cycles");
  bench::RegisterMetric("image_load_ring0_cycles", load_report->ring0_cycles, "cycles");
  bench::RegisterRunStats(fresh.machine());
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_init)
