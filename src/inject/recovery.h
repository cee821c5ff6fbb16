// The crash-restart driver: the recovery half of fault injection.
//
// A torn-hierarchy fault (FaultKind::kHierarchyTear) leaves the file system
// mid-update, exactly as a real system crash would. This module verifies
// that the Multics answer — shut down, run the salvager, come back up —
// restores a state the reference monitor's assumptions hold in:
//
//   1. SegmentStore::SaveState records every branch — the store's part of a
//      kernel snapshot (Kernel::Snapshot) — *before* faults are injected.
//   2. CrashRestart simulates the restart: it disables injection for the
//      duration, deactivates every segment (the quiescence the salvager's
//      failure contract demands), runs Salvager in repair mode, then runs a
//      scan-only pass and diffs each surviving branch's security-relevant
//      attributes (ACL, MLS label, directory-ness) against the saved one.
//
// Failure contract: CrashRestart returns the salvager's Status unchanged if
// salvage itself fails (missing root, unusable >lost_found); it never
// CHECKs on damage. A RecoveryReport with clean() == true certifies the
// post-salvage invariants: no residual structural defects, no orphan
// branches, no ACL drift, and no MLS label ever replaced — the salvager may
// delete or reattach, but must never *widen* authority.

#ifndef SRC_INJECT_RECOVERY_H_
#define SRC_INJECT_RECOVERY_H_

#include "src/fs/hierarchy.h"
#include "src/fs/salvager.h"

namespace multics {

struct RecoveryReport {
  SalvageReport salvage;          // What the repair pass fixed.
  uint32_t residual_defects = 0;  // Scan-only repairs still reported after repair.
  uint32_t orphan_branches = 0;   // Branches unreachable after salvage.
  uint32_t acl_changes = 0;       // Branches whose ACL differs from the snapshot.
  uint32_t labels_changed = 0;    // Branches whose MLS label differs (any change
                                  // is treated as a potential widening).
  uint32_t kind_changes = 0;      // Branches that became or stopped being directories.

  bool clean() const {
    return residual_defects == 0 && orphan_branches == 0 && acl_changes == 0 &&
           labels_changed == 0 && kind_changes == 0;
  }
};

// Simulates crash + restart + salvage, then verifies the invariants against
// `before`. The machine's registered injector (if any) is suspended for the
// duration and restored before returning, so recovery itself cannot be torn.
Result<RecoveryReport> CrashRestart(Hierarchy& hierarchy, const SegmentStore::State& before);

}  // namespace multics

#endif  // SRC_INJECT_RECOVERY_H_
