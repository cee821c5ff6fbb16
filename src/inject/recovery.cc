#include "src/inject/recovery.h"

namespace multics {

Result<RecoveryReport> CrashRestart(Hierarchy& hierarchy, const SegmentStore::State& before) {
  RecoveryReport report;
  SegmentStore& store = *hierarchy.store();
  Machine* machine = store.machine();

  // Recovery runs with injection suspended: a fault planner must not be able
  // to tear the salvager's own repairs (on real hardware the salvager ran
  // before any user workload could touch the devices again).
  FaultInjector* suspended = machine != nullptr ? machine->injector() : nullptr;
  if (machine != nullptr) {
    machine->SetInjector(nullptr);
  }

  auto restore_injector = [&] {
    if (machine != nullptr) {
      machine->SetInjector(suspended);
    }
  };

  // "Crash": every segment loses its activation, exactly as a power-fail
  // restart would find them. This also satisfies the salvager's quiescence
  // precondition.
  Status st = store.DeactivateAll();
  if (st != Status::kOk) {
    restore_injector();
    return st;
  }

  auto repaired = Salvager::Run(hierarchy, /*repair=*/true);
  if (!repaired.ok()) {
    restore_injector();
    return repaired.status();
  }
  report.salvage = repaired.value();

  // A second, scan-only pass must find nothing left to fix.
  auto rescan = Salvager::Run(hierarchy, /*repair=*/false);
  if (!rescan.ok()) {
    restore_injector();
    return rescan.status();
  }
  report.residual_defects = rescan.value().total_repairs();
  report.orphan_branches = rescan.value().orphans_reattached;

  // Security diff: every surviving branch must carry exactly the ACL, MLS
  // label and directory-ness it had before the faults. (Branches legitimately deleted by a torn
  // DeleteEntry are absent from the store and simply not compared; the
  // salvager never resurrects them.)
  store.ForEachBranch([&](Branch& branch) {
    auto it = before.branches.find(branch.uid);
    if (it == before.branches.end()) {
      return;  // Created after the snapshot (e.g. >lost_found itself).
    }
    const Branch& prior = it->second;
    if (!(branch.acl.entries() == prior.acl.entries())) {
      ++report.acl_changes;
    }
    if (!(branch.label == prior.label)) {
      ++report.labels_changed;
    }
    if (branch.is_directory != prior.is_directory) {
      ++report.kind_changes;
    }
  });

  restore_injector();
  return report;
}

}  // namespace multics
