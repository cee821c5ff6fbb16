// E3 — Protected address-space management: legacy (names + paths in ring 0)
// vs kernelized (segment-number interface, naming in the user ring).
//
// Paper: "The result of the removal is a reduction by a factor of ten in the
// size of the protected code needed to manage the address space of a
// process. Another result is a new, simpler interface to the file system
// portion of the supervisor."
//
// Both configurations run the same workload: resolve and initiate a working
// set of library/program segments by name (with reference-name binding and
// search rules), then terminate them. We compare what ends up *protected*:
// ring-0 state bytes per process, ring-0 address-space operations, ring-0
// pathname-walk cycles, and the gate surface involved.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/userring/rnm.h"
#include "src/userring/user_linker.h"

namespace multics {
namespace {

int kSegments = 24;
int kRounds = 4;

struct Outcome {
  size_t kernel_state_bytes = 0;
  size_t user_ring_state_bytes = 0;
  uint64_t kernel_addr_ops = 0;
  uint64_t kernel_walk_cycles = 0;
  uint64_t user_walk_cycles = 0;
  uint32_t addr_gates = 0;
};

// Creates the program segments the workload resolves.
void PopulateLibrary(BootedSystem& system, Process* user) {
  SegNo home;
  {
    UserInitiator initiator(system.kernel.get(), user);
    auto result = initiator.InitiateDirPath(">udd>Faculty>Jones");
    CHECK(result.ok());
    home = result.value();
  }
  for (int i = 0; i < kSegments; ++i) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeExecute});
    attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite | kModeExecute});
    CHECK(system.kernel->FsCreateSegment(*user, home, "prog" + std::to_string(i), attrs).ok());
  }
}

Outcome RunLegacy() {
  BootedSystem system = BootedSystem::Make(KernelConfiguration::Legacy6180());
  Kernel& kernel = *system.kernel;
  Process* user = system.AddUser("Jones", "Faculty", {SensitivityLevel::kSecret,
                                                      CategorySet::Of({1})});
  PopulateLibrary(system, user);
  uint64_t ops_before = kernel.address_space_ops();

  CHECK(kernel.SetSearchRules(*user, {">system_library", ">udd>Faculty>Jones"}) == Status::kOk);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSegments; ++i) {
      // Everything happens in ring 0: path walk, initiation, name binding.
      auto segno = kernel.SearchInitiate(*user, "prog" + std::to_string(i));
      CHECK(segno.ok());
    }
    auto math = kernel.InitiatePath(*user, ">system_library>math_");
    CHECK(math.ok());
    CHECK(kernel.TerminatePath(*user, ">system_library>math_") == Status::kOk);
  }

  Outcome outcome;
  outcome.kernel_state_bytes = kernel.KernelAddressSpaceStateBytes(*user);
  outcome.user_ring_state_bytes = 0;
  outcome.kernel_addr_ops = kernel.address_space_ops() - ops_before;
  outcome.kernel_walk_cycles = kernel.machine().charges().Get(ChargeKind::kKernelPathWalk);
  outcome.user_walk_cycles = kernel.machine().charges().Get(ChargeKind::kUserRingPathWalk);
  outcome.addr_gates = kernel.gates().CountByCategory(GateCategory::kPathAddressing) +
                       kernel.gates().CountByCategory(GateCategory::kNaming) +
                       kernel.gates().CountByCategory(GateCategory::kAddressSpace);
  return outcome;
}

Outcome RunKernelized() {
  BootedSystem system = BootedSystem::Make(KernelConfiguration::Kernelized6180());
  Kernel& kernel = *system.kernel;
  Process* user = system.AddUser("Jones", "Faculty", {SensitivityLevel::kSecret,
                                                      CategorySet::Of({1})});
  PopulateLibrary(system, user);
  uint64_t ops_before = kernel.address_space_ops();

  // The same resolution work, but names and search rules live in the user
  // ring; the kernel sees only per-directory segment-number initiations.
  UserInitiator initiator(&kernel, user);
  ReferenceNameManager rnm;
  SearchRules rules;
  CHECK(rules.Set({">system_library", ">udd>Faculty>Jones"}) == Status::kOk);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSegments; ++i) {
      auto segno = rules.Search("prog" + std::to_string(i), initiator, rnm);
      CHECK(segno.ok());
    }
    auto math = initiator.InitiatePath(">system_library>math_");
    CHECK(math.ok());
    CHECK(kernel.Terminate(*user, math.value()) == Status::kOk);
  }

  Outcome outcome;
  outcome.kernel_state_bytes = kernel.KernelAddressSpaceStateBytes(*user);
  outcome.user_ring_state_bytes = rnm.UserRingStateBytes() + rules.UserRingStateBytes();
  outcome.kernel_addr_ops = kernel.address_space_ops() - ops_before;
  bench::RegisterRunStats(kernel.machine());  // The kernelized run is the primary system.
  outcome.kernel_walk_cycles = kernel.machine().charges().Get(ChargeKind::kKernelPathWalk);
  outcome.user_walk_cycles = kernel.machine().charges().Get(ChargeKind::kUserRingPathWalk);
  outcome.addr_gates = kernel.gates().CountByCategory(GateCategory::kPathAddressing) +
                       kernel.gates().CountByCategory(GateCategory::kNaming) +
                       kernel.gates().CountByCategory(GateCategory::kAddressSpace);
  return outcome;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader(
      "E3: protected address-space management, legacy vs kernelized",
      "factor of ten reduction in protected code/state; simpler seg-number interface");

  kSegments = options.smoke ? 6 : 24;
  kRounds = options.smoke ? 1 : 4;

  Outcome legacy = RunLegacy();
  Outcome kernelized = RunKernelized();

  Table table({"metric (same name-resolution workload)", "legacy (ring 0 naming)",
               "kernelized (user-ring naming)", "reduction"});
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("inf") : Fmt(static_cast<double>(a) / b, 1) + "x";
  };
  table.AddRow({"ring-0 addr-space state (bytes/process)", Fmt(legacy.kernel_state_bytes),
                Fmt(kernelized.kernel_state_bytes),
                ratio(legacy.kernel_state_bytes, kernelized.kernel_state_bytes)});
  table.AddRow({"ring-0 pathname-walk cycles", Fmt(legacy.kernel_walk_cycles),
                Fmt(kernelized.kernel_walk_cycles),
                ratio(legacy.kernel_walk_cycles, kernelized.kernel_walk_cycles)});
  table.AddRow({"user-ring pathname-walk cycles", Fmt(legacy.user_walk_cycles),
                Fmt(kernelized.user_walk_cycles), "(moved out of the kernel)"});
  table.AddRow({"ring-0 gate calls (simple segno ops)", Fmt(legacy.kernel_addr_ops),
                Fmt(kernelized.kernel_addr_ops), "(more calls, each trivial)"});
  table.AddRow({"addressing+naming gates in kernel", Fmt(legacy.addr_gates),
                Fmt(kernelized.addr_gates), ratio(legacy.addr_gates, kernelized.addr_gates)});
  table.Print();

  std::printf(
      "\nThe naming work did not disappear — it moved: the kernelized run spends the\n"
      "walk cycles in the user ring (breakproof per-process state, not common\n"
      "mechanism), and ring-0 keeps only the uid<->segno half of the old KST.\n");

  bench::RegisterMetric("legacy_kernel_state_bytes", legacy.kernel_state_bytes, "bytes");
  bench::RegisterMetric("kernelized_kernel_state_bytes", kernelized.kernel_state_bytes, "bytes");
  bench::RegisterMetric("legacy_kernel_walk_cycles", legacy.kernel_walk_cycles, "cycles");
  bench::RegisterMetric("kernelized_kernel_walk_cycles", kernelized.kernel_walk_cycles,
                        "cycles");
  bench::RegisterMetric("kernelized_user_walk_cycles", kernelized.user_walk_cycles, "cycles");
  bench::RegisterMetric("legacy_addr_gates", legacy.addr_gates, "gates");
  bench::RegisterMetric("kernelized_addr_gates", kernelized.addr_gates, "gates");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_address_space)
