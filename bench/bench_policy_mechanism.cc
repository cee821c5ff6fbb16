// E6 — Policy/mechanism separation for page replacement.
//
// Paper: "The policy algorithm, however, could never read or write the
// contents of pages, learn the segment to which each page belonged, or cause
// one page to overwrite another... It could only cause denial of use. ...
// the policy algorithm need not be as carefully certified as the rest of the
// kernel."
//
// We measure (a) the cost of the separation — gate crossings per eviction
// decision, under hardware and software rings — and (b) the fault-injection
// result: a malicious ring-1 policy maximizes faults (denial) but the audit
// and data-integrity checks show zero unauthorized reads or writes.

#include "bench/common.h"
#include "bench/harness.h"
#include "src/mem/page_control_sequential.h"
#include "src/mem/policy_gate.h"

namespace multics {
namespace {

struct PolicyRun {
  uint64_t faults = 0;
  uint64_t gate_crossings = 0;
  uint64_t crossing_cycles = 0;
  uint64_t garbage_rejected = 0;
  bool data_intact = true;
  uint64_t ring_violations = 0;
};

PolicyRun RunWith(const std::string& policy_name, RingMode ring_mode, int touches) {
  MachineConfig machine_config;
  machine_config.core_frames = 32;
  machine_config.ring_mode = ring_mode;
  Machine machine(machine_config);
  CoreMap core_map(32);
  PagingDevice bulk = MakeBulkStore(64, &machine);
  PagingDevice disk = MakeDisk(4096, &machine);
  ActiveSegmentTable ast(8);

  PageMechanismGates gates(&machine, &core_map);
  ClockPolicy direct_clock;
  GatedClockPolicy gated_clock(&gates);
  MaliciousPolicy malicious(&gates, 1234);
  ReplacementPolicy* policy = &direct_clock;
  if (policy_name == "gated-clock") {
    policy = &gated_clock;
  } else if (policy_name == "malicious") {
    policy = &malicious;
  }

  SequentialPageControl pc(&machine, &core_map, &bulk, &disk, policy);
  auto seg = ast.Activate(1, 64, {});
  CHECK(seg.ok());

  // Deterministic locality workload with page-content checksums.
  Rng rng(99);
  std::vector<Word> shadow(64, 0);
  for (int i = 0; i < touches; ++i) {
    PageNo page = static_cast<PageNo>(rng.NextZipf(64, 1.2));
    CHECK(pc.EnsureResident(seg.value(), page, AccessMode::kWrite) == Status::kOk);
    PageTableEntry& pte = seg.value()->page_table.entries[page];
    pte.used = true;
    pte.modified = true;
    Word value = rng.Next();
    machine.core().WriteWord(pte.frame, 11, value);
    shadow[page] = value;
  }

  PolicyRun run;
  run.faults = pc.metrics().faults;
  run.gate_crossings = gates.gate_crossings();
  run.crossing_cycles = machine.charges().Get(ChargeKind::kPolicyGate);
  run.garbage_rejected = gates.rejected_arguments();

  // Integrity audit: every page's last write must still be there.
  for (PageNo page = 0; page < 64; ++page) {
    if (shadow[page] == 0) {
      continue;
    }
    CHECK(pc.EnsureResident(seg.value(), page, AccessMode::kRead) == Status::kOk);
    if (machine.core().ReadWord(seg.value()->page_table.entries[page].frame, 11) !=
        shadow[page]) {
      run.data_intact = false;
    }
  }

  // Confidentiality probe: a processor in the policy's ring (1) attempting
  // to touch a ring-0 segment is stopped by the ring hardware.
  Processor cpu(&machine);
  DescriptorSegment dseg(&machine.dseg_epochs());
  cpu.AttachAddressSpace(&dseg);
  PageTable kernel_table(1);
  kernel_table.entries[0].present = true;
  SegmentDescriptor kernel_sdw;
  kernel_sdw.valid = true;
  kernel_sdw.page_table = &kernel_table;
  kernel_sdw.length_pages = 1;
  kernel_sdw.brackets = KernelPrivateBrackets();
  kernel_sdw.read = kernel_sdw.write = true;
  dseg.Set(5, kernel_sdw);
  cpu.SetRing(kRingSupervisor);
  if (cpu.Read(5, 0).status() == Status::kRingViolation) {
    ++run.ring_violations;
  }
  if (cpu.Write(5, 0, 1) == Status::kRingViolation) {
    ++run.ring_violations;
  }
  bench::RegisterRunStats(machine);  // Last policy parameterisation wins.
  return run;
}

void RunBench(const bench::BenchOptions& options) {
  PrintHeader("E6: page-replacement policy outside the most-privileged ring",
              "hostile policy can cause only denial of use; separation costs gate crossings");

  const int touches = options.smoke ? 200 : 1200;
  Table table({"policy", "rings", "faults (denial)", "gate crossings", "crossing cycles",
               "garbage args rejected", "data intact", "ring probes stopped"});
  for (RingMode mode : {RingMode::kHardware6180, RingMode::kSoftware645}) {
    for (const char* policy : {"direct-clock", "gated-clock", "malicious"}) {
      PolicyRun run = RunWith(policy, mode, touches);
      table.AddRow({policy, RingModeName(mode), Fmt(run.faults), Fmt(run.gate_crossings),
                    Fmt(run.crossing_cycles), Fmt(run.garbage_rejected),
                    run.data_intact ? "yes" : "NO - VIOLATION",
                    Fmt(run.ring_violations) + "/2"});
      if (mode == RingMode::kHardware6180) {
        bench::RegisterMetric(std::string(policy) + "_faults", run.faults, "faults");
        bench::RegisterMetric(std::string(policy) + "_crossing_cycles", run.crossing_cycles,
                              "cycles");
      }
    }
  }
  table.Print();

  std::printf(
      "\nReading the table: the malicious ring-1 policy multiplies page faults\n"
      "(denial of use) and hammers the gates with garbage, but the mechanism\n"
      "validates every argument, page contents survive bit-for-bit, and the ring\n"
      "hardware stops its direct probes. The cost of the separation is the gate\n"
      "crossings column — cheap with 6180 hardware rings, painful with the 645's\n"
      "software rings, which is exactly why this structure became attractive only\n"
      "on the new machine.\n");
}

}  // namespace
}  // namespace multics

MX_BENCH(bench_policy_mechanism)
