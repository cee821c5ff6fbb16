#include "src/audit_static/certifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace multics::audit_static {

namespace {

// Deterministic process sweep order (the traffic controller's map is
// unordered).
std::vector<Process*> ProcessesSorted(Kernel* kernel) {
  std::vector<Process*> processes;
  kernel->traffic().ForEachProcess([&](Process& p) { processes.push_back(&p); });
  std::sort(processes.begin(), processes.end(),
            [](const Process* a, const Process* b) { return a->pid() < b->pid(); });
  return processes;
}

std::vector<Uid> BranchUidsSorted(Kernel* kernel) {
  std::vector<Uid> uids;
  kernel->store().ForEachBranch([&](const Branch& b) { uids.push_back(b.uid); });
  std::sort(uids.begin(), uids.end());
  return uids;
}

std::string PidSegno(const Process& p, SegNo segno) {
  return "pid " + std::to_string(p.pid()) + " segno " + std::to_string(segno);
}

}  // namespace

// --- Claim 1: ring brackets well-formed -------------------------------------

void StaticCertifier::CheckRingBrackets(AuditReport* report) {
  for (Uid uid : BranchUidsSorted(kernel_)) {
    const Branch& branch = **kernel_->store().Get(uid);
    ++report->branches_examined;
    if (!branch.brackets.Valid()) {
      report->findings.push_back(
          {AuditClaim::kRingBracketWellFormed, "branch", uid, 0, 0,
           "ring brackets " + branch.brackets.ToString() +
               " are not monotonic (need r1 <= r2 <= r3)"});
    }
  }
  for (Process* p : ProcessesSorted(kernel_)) {
    ++report->processes_examined;
    p->dseg().ForEachValid([&](SegNo segno, const SegmentDescriptor& sdw) {
      ++report->sdws_examined;
      if (!sdw.brackets.Valid()) {
        report->findings.push_back(
            {AuditClaim::kRingBracketWellFormed, PidSegno(*p, segno), sdw.uid, p->pid(),
             segno,
             "SDW ring brackets " + sdw.brackets.ToString() + " are not monotonic"});
        return;
      }
      // Consistency with the owning branch (directories deliberately carry
      // kernel-private brackets in the SDW; skip them).
      if (sdw.uid == kInvalidUid || !kernel_->store().Exists(sdw.uid)) {
        return;  // Claim 4 reports the dangling descriptor.
      }
      const Branch& branch = **kernel_->store().Get(sdw.uid);
      if (!branch.is_directory && !(sdw.brackets == branch.brackets)) {
        report->findings.push_back(
            {AuditClaim::kSdwBracketConsistency, PidSegno(*p, segno), sdw.uid, p->pid(),
             segno,
             "SDW brackets " + sdw.brackets.ToString() + " differ from branch brackets " +
                 branch.brackets.ToString()});
      }
    });
  }
}

// --- Claim 2: gate discipline and gate registry -----------------------------

void StaticCertifier::CheckGates(AuditReport* report) {
  // (a) Storage-level gates: the gate bit is meaningful only with a nonzero
  // entry bound and a real ring boundary to cross (r3 > r2); anything else
  // is an entry point no gate list accounts for.
  for (Uid uid : BranchUidsSorted(kernel_)) {
    const Branch& branch = **kernel_->store().Get(uid);
    if (!branch.gate) continue;
    if (branch.gate_entries == 0) {
      report->findings.push_back(
          {AuditClaim::kGateDiscipline, "branch", uid, 0, 0,
           "gate bit set with a zero entry bound: unauditable entry surface"});
    } else if (branch.brackets.gate_limit <= branch.brackets.read_limit) {
      report->findings.push_back(
          {AuditClaim::kGateDiscipline, "branch", uid, 0, 0,
           "gate bit set but brackets " + branch.brackets.ToString() +
               " admit no inward call (r3 <= r2): gate at a non-boundary"});
    }
  }

  // (b) The kernel's own gate surface must be exactly the configuration's
  // census — no phantom entry points, no missing registrations.
  const GateSet expected = PresentGates(kernel_->config());
  const GateSet& registered = kernel_->gates().present();
  report->gates_examined += registered.count();
  for (size_t i = 0; i < kGateCount; ++i) {
    if (registered.test(i) == expected.test(i)) continue;
    report->findings.push_back(
        {AuditClaim::kGateRegistry, GateName(GateAt(i)), kInvalidUid, 0, 0,
         registered.test(i)
             ? "gate registered in the live table but absent from the configuration's census"
             : "gate in the configuration's census but missing from the live table"});
  }
}

// --- Claim 3: every SDW mode derivable from ACL ∧ MLS -----------------------

void StaticCertifier::CheckAccessDerivation(AuditReport* report) {
  ReferenceMonitor& monitor = kernel_->monitor();
  for (Process* p : ProcessesSorted(kernel_)) {
    const bool trusted = Kernel::Trusted(*p);
    p->dseg().ForEachValid([&](SegNo segno, const SegmentDescriptor& sdw) {
      if (sdw.uid == kInvalidUid || !kernel_->store().Exists(sdw.uid)) {
        return;
      }
      const Branch& branch = **kernel_->store().Get(sdw.uid);
      if (branch.is_directory) {
        // Directories are opaque handles in the user ring: a descriptor that
        // grants direct modes on one bypasses the per-directory gate.
        if (sdw.read || sdw.write || sdw.execute) {
          report->findings.push_back(
              {AuditClaim::kAccessDerivable, PidSegno(*p, segno), sdw.uid, p->pid(), segno,
               "descriptor grants direct modes on a directory"});
        }
        return;
      }
      const uint8_t derived =
          monitor.SegmentModes(branch, p->principal(), p->clearance(), trusted);
      uint8_t held = 0;
      if (sdw.read) held |= kModeRead;
      if (sdw.write) held |= kModeWrite;
      if (sdw.execute) held |= kModeExecute;
      const uint8_t excess = held & static_cast<uint8_t>(~derived);
      if (excess == 0) return;
      // Classify: a bit the lattice alone would strip is a reachable
      // read-up / write-down; anything else is an ACL mismatch.
      bool mls = false;
      if (monitor.mls_enforced() && !trusted) {
        if ((excess & (kModeRead | kModeExecute)) != 0 &&
            !MlsCanRead(p->clearance(), branch.label)) {
          mls = true;
        }
        if ((excess & kModeWrite) != 0 && !MlsCanWrite(p->clearance(), branch.label)) {
          mls = true;
        }
      }
      const AccessWitness witness{p->pid(),  p->principal().ToString(), segno, sdw.uid,
                                  held,      derived,                   mls};
      report->findings.push_back(
          {mls ? AuditClaim::kMlsWidening : AuditClaim::kAccessDerivable,
           PidSegno(*p, segno), sdw.uid, p->pid(), segno, FormatAccessWitness(witness)});
    });
  }
}

// --- Claim 4: descriptor segment ↔ KST ↔ segment store ----------------------

void StaticCertifier::CheckDsegConsistency(AuditReport* report) {
  for (Process* p : ProcessesSorted(kernel_)) {
    p->dseg().ForEachValid([&](SegNo segno, const SegmentDescriptor& sdw) {
      if (sdw.uid == kInvalidUid) {
        report->findings.push_back(
            {AuditClaim::kDsegStoreConsistency, PidSegno(*p, segno), kInvalidUid, p->pid(),
             segno, "valid SDW with no owning segment UID"});
        return;
      }
      if (!kernel_->store().Exists(sdw.uid)) {
        report->findings.push_back(
            {AuditClaim::kDsegStoreConsistency, PidSegno(*p, segno), sdw.uid, p->pid(),
             segno, "valid SDW names a segment the store no longer holds"});
        return;
      }
      auto kst_uid = p->kst().UidOf(segno);
      if (!kst_uid.ok()) {
        report->findings.push_back(
            {AuditClaim::kDsegStoreConsistency, PidSegno(*p, segno), sdw.uid, p->pid(),
             segno, "valid SDW for a segment number the KST does not know"});
      } else if (kst_uid.value() != sdw.uid) {
        report->findings.push_back(
            {AuditClaim::kDsegStoreConsistency, PidSegno(*p, segno), sdw.uid, p->pid(),
             segno,
             "SDW uid and KST uid disagree (KST says " + std::to_string(kst_uid.value()) +
                 ")"});
      }
    });
    // Reverse direction: everything the KST claims known must still exist.
    std::vector<std::pair<SegNo, Uid>> known;
    p->kst().ForEach([&](SegNo segno, Uid uid) { known.emplace_back(segno, uid); });
    std::sort(known.begin(), known.end());
    for (const auto& [segno, uid] : known) {
      if (!kernel_->store().Exists(uid)) {
        report->findings.push_back(
            {AuditClaim::kDsegStoreConsistency, PidSegno(*p, segno), uid, p->pid(), segno,
             "KST entry names a segment the store no longer holds"});
      }
    }
  }
}

// --- Claim 5: reachability — no orphans, no double catalogue entries --------

void StaticCertifier::CheckHierarchyReachability(AuditReport* report) {
  Hierarchy& hierarchy = kernel_->hierarchy();
  // Walk the catalogue from the root; record, per uid, the set of directories
  // holding an entry for it (several names in ONE directory are legal
  // additional names; entries in TWO directories are a double mapping).
  std::map<Uid, std::set<Uid>> parents;
  std::set<Uid> visited;
  std::vector<Uid> frontier{hierarchy.root()};
  while (!frontier.empty()) {
    const Uid dir = frontier.back();
    frontier.pop_back();
    if (!visited.insert(dir).second) continue;
    auto entries = hierarchy.List(dir);
    if (!entries.ok()) continue;
    for (const DirEntry& entry : entries.value()) {
      if (entry.is_link) continue;  // Links hold a pathname, not a UID.
      parents[entry.uid].insert(dir);
      auto branch = kernel_->store().Get(entry.uid);
      if (branch.ok() && (*branch)->is_directory) {
        frontier.push_back(entry.uid);
      }
    }
  }

  for (Uid uid : BranchUidsSorted(kernel_)) {
    if (uid == hierarchy.root()) continue;
    const Branch& branch = **kernel_->store().Get(uid);
    auto it = parents.find(uid);
    if (it == parents.end() || it->second.empty()) {
      report->findings.push_back(
          {AuditClaim::kOrphanSegment, "branch", uid, 0, 0,
           "branch is catalogued in no directory reachable from the root"});
      continue;
    }
    if (it->second.size() > 1) {
      report->findings.push_back(
          {AuditClaim::kMultiParentSegment, "branch", uid, 0, 0,
           "branch is catalogued in " + std::to_string(it->second.size()) +
               " distinct directories"});
      continue;  // The parent link can match at most one of them.
    }
    const Uid catalogued_in = *it->second.begin();
    if (branch.parent != catalogued_in) {
      report->findings.push_back(
          {AuditClaim::kMultiParentSegment, "branch", uid, 0, 0,
           "branch parent link (" + std::to_string(branch.parent) +
               ") disagrees with the directory holding its entry (" +
               std::to_string(catalogued_in) + ")"});
    }
  }
}

void StaticCertifier::CheckLockOrder(AuditReport* report) {
  const LockTrace& trace = kernel_->machine().lock_trace();
  // Every observed nesting must be strictly level-increasing. The trace
  // already records outright violations as they happen; re-deriving the rule
  // over the edge set catches any edge the runtime check would have missed
  // (and keeps the certifier's verdict independent of the recorder's).
  for (const auto& [names, levels] : trace.edges()) {
    if (levels.second > levels.first) continue;
    report->findings.push_back(
        {AuditClaim::kLockOrder, names.first + " -> " + names.second, kInvalidUid, 0, 0,
         "observed acquisition of `" + names.second + "` (level " +
             std::to_string(levels.second) + ") while holding `" + names.first +
             "` (level " + std::to_string(levels.first) +
             "): the lock hierarchy requires strictly increasing levels"});
  }
  for (const LockOrderViolation& v : trace.violations()) {
    report->findings.push_back(
        {AuditClaim::kLockOrder, v.held + " -> " + v.acquired, kInvalidUid, 0, 0,
         "cpu " + std::to_string(v.cpu) + " at cycle " + std::to_string(v.time) +
             " acquired `" + v.acquired + "` (level " + std::to_string(v.acquired_level) +
             ") while holding `" + v.held + "` (level " + std::to_string(v.held_level) + ")"});
  }
}

// --- Claim 7: scheduler state is isolated from protection state -------------

void StaticCertifier::CheckSchedulerIsolation(AuditReport* report) {
  TrafficController& traffic = kernel_->traffic();
  ReferenceMonitor& monitor = kernel_->monitor();
  const uint32_t classes = traffic.work_class_count();
  for (Process* p : ProcessesSorted(kernel_)) {
    // (a) Well-formedness: the queue invariants index by these fields.
    if (p->sched_level() >= TrafficController::kSchedLevels) {
      report->findings.push_back(
          {AuditClaim::kSchedulerIsolation, "pid " + std::to_string(p->pid()), kInvalidUid,
           p->pid(), 0,
           "feedback level " + std::to_string(p->sched_level()) + " out of range (max " +
               std::to_string(TrafficController::kSchedLevels - 1) + ")"});
    }
    if (p->work_class() >= classes) {
      report->findings.push_back(
          {AuditClaim::kSchedulerIsolation, "pid " + std::to_string(p->pid()), kInvalidUid,
           p->pid(), 0,
           "work class " + std::to_string(p->work_class()) + " out of range (" +
               std::to_string(classes) + " classes defined)"});
      continue;  // Don't permute through an already-bogus class id.
    }

    // (b) Isolation: snapshot the modes every SDW derives, permute the
    // process through every (work class, feedback level) pair, and demand
    // the derivation is unchanged — scheduling may reorder, never widen.
    const bool trusted = Kernel::Trusted(*p);
    const uint32_t saved_class = p->work_class();
    const uint32_t saved_level = p->sched_level();
    auto derive = [&](const SegmentDescriptor& sdw) -> int {
      if (sdw.uid == kInvalidUid || !kernel_->store().Exists(sdw.uid)) {
        return -1;
      }
      const Branch& branch = **kernel_->store().Get(sdw.uid);
      if (branch.is_directory) return -1;
      return monitor.SegmentModes(branch, p->principal(), p->clearance(), trusted);
    };
    p->dseg().ForEachValid([&](SegNo segno, const SegmentDescriptor& sdw) {
      const int baseline = derive(sdw);
      if (baseline < 0) return;
      for (uint32_t work_class = 0; work_class < classes; ++work_class) {
        for (uint32_t level = 0; level < TrafficController::kSchedLevels; ++level) {
          p->set_work_class(work_class);
          p->set_sched_level(level);
          const int permuted = derive(sdw);
          if (permuted != baseline) {
            report->findings.push_back(
                {AuditClaim::kSchedulerIsolation, PidSegno(*p, segno), sdw.uid, p->pid(), segno,
                 "derived modes changed from " +
                     SegmentModeString(static_cast<uint8_t>(baseline)) + " to " +
                     SegmentModeString(static_cast<uint8_t>(permuted)) + " at work class " +
                     std::to_string(work_class) + " level " + std::to_string(level) +
                     ": scheduler state is leaking into access derivation"});
          }
        }
      }
      p->set_work_class(saved_class);
      p->set_sched_level(saved_level);
    });
    p->set_work_class(saved_class);
    p->set_sched_level(saved_level);
  }
}

AuditReport StaticCertifier::Certify() {
  AuditReport report;
  CheckRingBrackets(&report);
  CheckGates(&report);
  CheckAccessDerivation(&report);
  CheckDsegConsistency(&report);
  CheckHierarchyReachability(&report);
  CheckLockOrder(&report);
  CheckSchedulerIsolation(&report);
  return report;
}

}  // namespace multics::audit_static
