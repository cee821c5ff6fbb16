// Kernel::Snapshot / Kernel::Restore. A restored kernel must be
// indistinguishable from one that reached the saved state by running: the
// same gate sequence from a restore, from a restore after unrelated work, and
// from a fresh kernel replaying the whole history all leave the same
// fingerprint — store branches, every process's KST and descriptor segment,
// the audit log, gate counters, charges, the clock and the meter's export.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/core/kernel.h"
#include "src/meter/export.h"

namespace multics {
namespace {

SegmentAttributes Attrs(uint8_t modes) {
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"*", "*", "*", modes});
  return attrs;
}

// A small machine: sequence A leaves pages resident in core at the save, and
// sequence B pages enough in to run the parallel page-control daemons and
// evict to the bulk store.
KernelParams SmallParams() {
  KernelParams params;
  params.machine.core_frames = 32;
  params.machine.cpus = 1;
  params.bulk_pages = 32;
  params.disk_pages = 128;
  params.ast_capacity = 8;
  return params;
}

struct World {
  std::unique_ptr<Kernel> kernel = std::make_unique<Kernel>(SmallParams());
  Process* admin = nullptr;
  Process* user = nullptr;
  SegNo user_root = kInvalidSegNo;
  SegNo admin_root = kInvalidSegNo;
  SegNo data = kInvalidSegNo;  // "data", initiated by the user in sequence A.
  std::vector<std::string> observed;  // Results the gate sequences read back.

  void Drain() { kernel->machine().events().RunUntilIdle(); }
  void Note(std::string_view what) { observed.emplace_back(what); }
};

// Touches `pages` pages of `segno` as `process`, writing `seed + page`.
void WritePages(World& w, Process& process, SegNo segno, uint32_t pages, Word seed) {
  ASSERT_EQ(w.kernel->RunAs(process), Status::kOk);
  for (uint32_t page = 0; page < pages; ++page) {
    ASSERT_EQ(w.kernel->cpu().Write(segno, page * kPageWords + 3, seed + page), Status::kOk);
  }
}

void ReadPages(World& w, Process& process, SegNo segno, uint32_t pages) {
  ASSERT_EQ(w.kernel->RunAs(process), Status::kOk);
  for (uint32_t page = 0; page < pages; ++page) {
    auto word = w.kernel->cpu().Read(segno, page * kPageWords + 3);
    w.Note(word.ok() ? std::to_string(word.value()) : std::string(StatusName(word.status())));
  }
}

// Sequence A: boot two processes, build a directory with two segments, and
// page data into core.
void RunA(World& w) {
  Kernel& k = *w.kernel;
  w.admin = k.BootstrapProcess("admin", Principal{"Admin", "SysDaemon", "z"},
                               MlsLabel::SystemHigh())
                .value();
  w.admin->set_ring(kRingSupervisor);
  w.user = k.BootstrapProcess("user", Principal{"Jones", "Faculty", "a"}, MlsLabel{}).value();
  w.admin_root = k.RootDir(*w.admin).value();
  w.user_root = k.RootDir(*w.user).value();
  ASSERT_TRUE(k.FsCreateSegment(*w.user, w.user_root, "data", Attrs(kModeRead | kModeWrite)).ok());
  ASSERT_TRUE(k.FsCreateSegment(*w.user, w.user_root, "notes", Attrs(kModeRead | kModeWrite)).ok());
  w.data = k.Initiate(*w.user, w.user_root, "data").value().segno;
  ASSERT_EQ(k.SegSetLength(*w.user, w.data, 6), Status::kOk);
  WritePages(w, *w.user, w.data, 6, 100);
  w.Drain();
}

// Sequence B: reads A's data back, pages more in (evicting), narrows an ACL
// under a live connection, grows and shrinks segments, and terminates.
void RunB(World& w) {
  Kernel& k = *w.kernel;
  ReadPages(w, *w.user, w.data, 6);
  auto notes = k.Initiate(*w.admin, w.admin_root, "notes");
  ASSERT_TRUE(notes.ok());
  w.Note("notes segno " + std::to_string(notes->segno) + " modes " +
         std::to_string(notes->granted_modes));
  ASSERT_EQ(k.SegSetLength(*w.admin, notes->segno, 24), Status::kOk);
  WritePages(w, *w.admin, notes->segno, 24, 500);
  ASSERT_EQ(k.FsSetAcl(*w.user, w.user_root, "data", AclEntry{"*", "*", "*", kModeRead}),
            Status::kOk);
  w.Note(StatusName(k.RunAs(*w.user)));
  w.Note(StatusName(k.cpu().Write(w.data, 3, 1)));  // Revoked: denied.
  ReadPages(w, *w.user, w.data, 2);
  ASSERT_EQ(k.SegSetLength(*w.user, w.data, 3), Status::kAccessDenied);
  ASSERT_TRUE(k.FsCreateSegment(*w.user, w.user_root, "late", Attrs(kModeRead)).ok());
  ASSERT_EQ(k.Terminate(*w.admin, notes->segno), Status::kOk);
  w.Note(k.MeteringInfo(*w.admin).value());
  w.Drain();
}

// Sequence C: unrelated work a restore must erase — activations and a forced
// deactivation, a new directory, ACL rewrites, and more paging.
void RunC(World& w) {
  Kernel& k = *w.kernel;
  auto notes = k.Initiate(*w.user, w.user_root, "notes");
  ASSERT_TRUE(notes.ok());
  ReadPages(w, *w.user, w.data, 6);
  ASSERT_EQ(k.store().Deactivate(w.user->kst().UidOf(w.data).value()), Status::kOk);
  ASSERT_TRUE(k.FsCreateDirectory(*w.admin, w.admin_root, "tmp", Attrs(kDirStatus | kDirModify))
                  .ok());
  ASSERT_EQ(k.FsSetAcl(*w.user, w.user_root, "notes", AclEntry{"*", "*", "*", kModeNull}),
            Status::kOk);
  ASSERT_EQ(k.FsSetAcl(*w.user, w.user_root, "data", AclEntry{"Jones", "*", "*", kModeRead | kModeWrite}),
            Status::kOk);
  WritePages(w, *w.user, w.data, 6, 900);
  w.Drain();
}

std::string Fingerprint(World& w) {
  Kernel& k = *w.kernel;
  std::ostringstream out;
  out << "clock " << k.machine().clock().now() << "\n";

  std::map<Uid, const Branch*> branches;
  k.store().ForEachBranch([&](Branch& b) { branches[b.uid] = &b; });
  for (const auto& [uid, b] : branches) {
    out << "branch " << uid << " parent " << b->parent << " dir " << b->is_directory << " pages "
        << b->pages << " label " << b->label.ToString() << " brackets " << b->brackets.ToString()
        << " created " << b->date_created << " modified " << b->date_modified << " quota "
        << b->quota_pages << "/" << b->quota_used << " acl";
    for (const AclEntry& e : b->acl.entries()) {
      out << " " << e.NamePart() << "=" << static_cast<int>(e.modes);
    }
    out << " home";
    for (DevAddr addr : b->disk_home) out << " " << addr;
    out << "\n";
  }

  std::map<ProcessId, Process*> processes;
  k.traffic().ForEachProcess([&](Process& p) { processes[p.pid()] = &p; });
  for (const auto& [pid, p] : processes) {
    out << "process " << pid << " ring " << static_cast<int>(p->ring()) << "\n";
    std::map<SegNo, Uid> known;
    p->kst().ForEach([&](SegNo segno, Uid uid) { known[segno] = uid; });
    for (const auto& [segno, uid] : known) {
      out << "  kst " << segno << " uid " << uid << " usage " << p->kst().UsageCount(segno)
          << "\n";
    }
    p->dseg().ForEachValid([&](SegNo segno, const SegmentDescriptor& sdw) {
      out << "  sdw " << segno << " uid " << sdw.uid << " len " << sdw.length_pages << " rwe "
          << sdw.read << sdw.write << sdw.execute << " brackets " << sdw.brackets.ToString()
          << " pt " << (sdw.page_table != nullptr) << "\n";
    });
  }

  for (const AuditRecord& r : k.audit().recent()) {
    out << "audit " << r.time << " " << r.principal << " " << r.operation << " " << r.uid << " "
        << StatusName(r.outcome) << "\n";
  }
  out << "audit grants " << k.audit().grants() << " denials " << k.audit().denials() << "\n";
  for (const GateInfo& gate : k.gates().gates()) {
    if (gate.calls > 0) out << "gate " << gate.name << " " << gate.calls << "\n";
  }
  for (const auto& [name, cycles] : k.machine().charges().Snapshot()) {
    out << "charge " << name << " " << cycles << "\n";
  }
  out << "faults " << k.page_control().metrics().faults << " bulk " << k.bulk_store().used_pages()
      << " disk " << k.disk().used_pages() << "\n";
  out << MeterReport(k.machine().meter()) << ChromeTraceJson(k.machine().meter())
      << FoldedStackProfile(k.machine().meter());
  for (const std::string& line : w.observed) out << "observed " << line << "\n";
  return out.str();
}

TEST(KernelSnapshotTest, RestoreIsIndistinguishableFromRunning) {
  // (1) A, save S, B.
  World w;
  RunA(w);
  const KernelSnapshot s = w.kernel->Snapshot();
  const std::vector<std::string> observed_at_s = w.observed;
  RunB(w);
  const std::string ran = Fingerprint(w);

  // (2) Restore S on the same kernel, B again.
  w.kernel->Restore(s);
  w.observed = observed_at_s;
  RunB(w);
  EXPECT_EQ(Fingerprint(w), ran);

  // (3) Unrelated work C, then restore S, then B.
  RunC(w);
  EXPECT_NE(Fingerprint(w), ran);
  w.kernel->Restore(s);
  w.observed = observed_at_s;
  RunB(w);
  EXPECT_EQ(Fingerprint(w), ran);

  // (4) A fresh kernel replaying A+B.
  World fresh;
  RunA(fresh);
  RunB(fresh);
  EXPECT_EQ(Fingerprint(fresh), ran);
}

TEST(KernelSnapshotTest, SnapshotIsAReusableValue) {
  World w;
  RunA(w);
  const KernelSnapshot s = w.kernel->Snapshot();
  const KernelSnapshot copy = s;
  const std::string at_s = Fingerprint(w);
  const std::vector<std::string> observed_at_s = w.observed;
  RunC(w);
  w.kernel->Restore(copy);
  w.observed = observed_at_s;
  EXPECT_EQ(Fingerprint(w), at_s);
  RunB(w);
  w.kernel->Restore(s);
  w.observed = observed_at_s;
  EXPECT_EQ(Fingerprint(w), at_s);
}

TEST(KernelSnapshotTest, RestoreAcrossProcessCreationFails) {
  World w;
  RunA(w);
  const KernelSnapshot s = w.kernel->Snapshot();
  ASSERT_TRUE(w.kernel->BootstrapProcess("late", Principal{"Late", "X", "a"}, MlsLabel{}).ok());
  EXPECT_DEATH(w.kernel->Restore(s), "across process creation");
}

TEST(KernelSnapshotTest, SnapshotWithPendingEventFails) {
  World w;
  RunA(w);
  w.kernel->machine().events().ScheduleAfter(10, [] {});
  EXPECT_DEATH((void)w.kernel->Snapshot(), "pending event");
}

}  // namespace
}  // namespace multics
