#include "src/core/flaw_registry.h"

namespace multics {

const char* FlawClassName(FlawClass flaw_class) {
  switch (flaw_class) {
    case FlawClass::kUncheckedArgument:
      return "unchecked-argument";
    case FlawClass::kMissingCheck:
      return "missing-check";
    case FlawClass::kRaceCondition:
      return "race-condition";
    case FlawClass::kDefaultPermissive:
      return "default-permissive";
    case FlawClass::kStateConfusion:
      return "state-confusion";
    case FlawClass::kResourceExhaustion:
      return "resource-exhaustion";
  }
  return "?";
}

uint32_t FlawRegistry::Add(FlawReport report) {
  report.id = next_id_++;
  reports_.push_back(std::move(report));
  return reports_.back().id;
}

uint32_t FlawRegistry::open_count() const {
  uint32_t n = 0;
  for (const FlawReport& report : reports_) {
    if (!report.repaired) {
      ++n;
    }
  }
  return n;
}

uint32_t FlawRegistry::CountByClass(FlawClass flaw_class) const {
  uint32_t n = 0;
  for (const FlawReport& report : reports_) {
    if (report.flaw_class == flaw_class) {
      ++n;
    }
  }
  return n;
}

std::vector<FlawReport> BuiltinFlawCatalog() {
  return {
      {0, "In-kernel linker trusts user-constructed object segments",
       FlawClass::kUncheckedArgument, "src/link/linker.cc",
       "A maliciously malstructured code segment makes the linker malfunction while executing "
       "in the supervisor; numerous accidents demonstrated the chances were very high.",
       "Remove the linker from the kernel (kernelized configuration): faults land in the "
       "user ring.",
       false},
      {0, "Pathname resolution in ring 0 walks user-supplied strings",
       FlawClass::kUncheckedArgument, "src/core/kernel_path.cc",
       "Long or cyclic paths and crafted names exercise complex ring-0 string code.",
       "Segment-number directory interface; resolution moves to the user ring.", false},
      {0, "Reference-name table shared between supervisor and user state",
       FlawClass::kStateConfusion, "src/core/kernel_naming.cc",
       "The old KST mixed per-user naming state with protected address-space state.",
       "Split the KST: names to the user ring, uid<->segno stays in the kernel.", false},
      {0, "Circular network buffer overwrites unconsumed input",
       FlawClass::kResourceExhaustion, "src/net/buffers.cc",
       "A burst of input silently destroys earlier messages (integrity loss by design).",
       "VM-backed infinite buffer; the standard storage system absorbs bursts.", false},
      {0, "Interrupt handlers inhabit arbitrary user processes",
       FlawClass::kStateConfusion, "src/proc/traffic_controller.cc",
       "Handler state and timing leak into whichever process was running.",
       "Dedicated handler processes; the interceptor only posts wakeups.", false},
      {0, "Replacement policy runs with full ring-0 authority",
       FlawClass::kMissingCheck, "src/mem/policy_gate.cc",
       "A policy bug (or trojan) can read or clobber any page in core.",
       "Policy/mechanism split: the policy ring sees usage bits only.", false},
      {0, "Login authenticator is a large privileged program",
       FlawClass::kMissingCheck, "src/userring/answering_service.cc",
       "The entire answering service is inside the security perimeter.",
       "Make login the ordinary protected-subsystem entry mechanism.", false},
      {0, "Per-device I/O stacks multiply kernel attack surface",
       FlawClass::kUncheckedArgument, "src/net/device_io.cc",
       "Each device discipline parses user-controlled orders in ring 0.",
       "Single network attachment as the only external I/O path.", false},
      {0, "Stepwise bootstrap executes ad-hoc privileged code each start",
       FlawClass::kStateConfusion, "src/init/bootstrap.cc",
       "Every boot re-runs complex one-shot initialization in ring 0.",
       "Generate a memory image once, in user state; loading is trivial.", false},
      {0, "Directory quota enforcement after-the-fact",
       FlawClass::kRaceCondition, "src/fs/segment_store.cc",
       "Grow-then-check patterns allow overshoot under concurrency.",
       "Quota charged atomically with the length change, before any allocation.", true},
  };
}

}  // namespace multics
