// Fixture tests for the static certifier (docs/AUDIT.md).
//
// Each test boots the standard kernelized configuration, seeds exactly one
// violation of one certified claim by mutating kernel state behind the
// reference monitor's back, and asserts the certifier reports exactly that
// one finding — no more, no less. A clean boot must certify clean: the
// audit's value is zero false positives on the system as built.

#include <gtest/gtest.h>

#include "src/audit_static/certifier.h"
#include "src/init/bootstrap.h"

namespace multics {
namespace {

using audit_static::AuditClaim;
using audit_static::AuditReport;
using audit_static::StaticCertifier;

class AuditStaticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KernelParams params;
    params.config = KernelConfiguration::Kernelized6180();
    kernel_ = std::make_unique<Kernel>(params);
    auto boot = Bootstrap::Run(*kernel_, {.users = DefaultUsers()});
    ASSERT_TRUE(boot.ok());
    init_ = boot->init_process;
    auto root = kernel_->RootDir(*init_);
    ASSERT_TRUE(root.ok());
    root_segno_ = root.value();
  }

  // Creates a world-readable segment in the root directory; returns its UID.
  Uid CreateRootSegment(const std::string& name, uint8_t world_modes = kModeRead) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", world_modes});
    auto uid = kernel_->FsCreateSegment(*init_, root_segno_, name, attrs);
    EXPECT_TRUE(uid.ok());
    return uid.ok() ? uid.value() : kInvalidUid;
  }

  Branch* MutableBranch(Uid uid) {
    auto branch = kernel_->store().Get(uid);
    EXPECT_TRUE(branch.ok());
    return branch.ok() ? branch.value() : nullptr;
  }

  // Logs Doe in: unclassified clearance, user ring, untrusted.
  Process* LoginDoe() {
    auto clearance = kernel_->CheckPassword("Doe", "Students", "d0epw");
    EXPECT_TRUE(clearance.ok());
    auto doe = kernel_->BootstrapProcess("doe_process", Principal{"Doe", "Students", "a"},
                                         clearance.value());
    EXPECT_TRUE(doe.ok());
    return doe.ok() ? doe.value() : nullptr;
  }

  // Initiates `name` from the root in `p`'s own address space (segment
  // numbers are per-process: init's root segno means nothing to Doe).
  Result<InitiateResult> InitiateFromRoot(Process* p, const std::string& name) {
    auto root = kernel_->RootDir(*p);
    EXPECT_TRUE(root.ok());
    if (!root.ok()) return root.status();
    return kernel_->Initiate(*p, root.value(), name);
  }

  AuditReport Certify() {
    StaticCertifier certifier(kernel_.get());
    return certifier.Certify();
  }

  // The one-finding assertion all seeded fixtures share.
  void ExpectSingleFinding(const AuditReport& report, AuditClaim claim) {
    EXPECT_EQ(report.findings.size(), 1u) << report.ToString();
    EXPECT_EQ(report.CountForClaim(claim), 1u) << report.ToString();
  }

  std::unique_ptr<Kernel> kernel_;
  Process* init_ = nullptr;
  SegNo root_segno_ = 0;
};

// --- The zero-findings baseline ---------------------------------------------

TEST_F(AuditStaticTest, CleanBootCertifiesClean) {
  const AuditReport report = Certify();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.branches_examined, 0u);
  EXPECT_GT(report.gates_examined, 0u);
  EXPECT_GT(report.processes_examined, 0u);
}

TEST_F(AuditStaticTest, CleanSessionCertifiesClean) {
  const Uid uid = CreateRootSegment("notebook", kModeRead | kModeWrite);
  ASSERT_NE(uid, kInvalidUid);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "notebook");
  ASSERT_TRUE(seg.ok());
  ASSERT_EQ(kernel_->SegSetLength(*doe, seg->segno, 2), Status::kOk);

  const AuditReport report = Certify();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GE(report.sdws_examined, 2u);  // Doe's root handle + notebook.
}

// --- Claim 1: ring brackets -------------------------------------------------

TEST_F(AuditStaticTest, NonMonotonicBranchBracketsYieldOneFinding) {
  const Uid uid = CreateRootSegment("bad_brackets");
  ASSERT_NE(uid, kInvalidUid);
  Branch* branch = MutableBranch(uid);
  ASSERT_NE(branch, nullptr);
  branch->brackets = RingBrackets{5, 3, 1};  // w > r > g: not monotonic.

  ExpectSingleFinding(Certify(), AuditClaim::kRingBracketWellFormed);
}

TEST_F(AuditStaticTest, SdwBranchBracketDisagreementYieldsOneFinding) {
  const Uid uid = CreateRootSegment("drifted");
  ASSERT_NE(uid, kInvalidUid);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "drifted");
  ASSERT_TRUE(seg.ok());
  // Branch brackets change behind the kernel's revocation path: the SDW
  // still carries the old ones.
  Branch* branch = MutableBranch(uid);
  ASSERT_NE(branch, nullptr);
  branch->brackets = RingBrackets{1, 2, 3};

  ExpectSingleFinding(Certify(), AuditClaim::kSdwBracketConsistency);
}

// --- Claim 2: gates ---------------------------------------------------------

TEST_F(AuditStaticTest, UnregisteredGateYieldsOneFinding) {
  // A gate in the live table the configuration's census never named (the
  // linker was removed from this kernel): an entry point the certification
  // would not have reviewed.
  ASSERT_EQ(kernel_->gates().Register(GateId::kLinkSnapAll), Status::kOk);

  ExpectSingleFinding(Certify(), AuditClaim::kGateRegistry);
}

TEST_F(AuditStaticTest, GateBitWithZeroEntryBoundYieldsOneFinding) {
  const Uid uid = CreateRootSegment("fake_gate");
  ASSERT_NE(uid, kInvalidUid);
  Branch* branch = MutableBranch(uid);
  ASSERT_NE(branch, nullptr);
  branch->gate = true;
  branch->gate_entries = 0;

  ExpectSingleFinding(Certify(), AuditClaim::kGateDiscipline);
}

// --- Claim 3: access derivable from ACL ∧ MLS -------------------------------

TEST_F(AuditStaticTest, SdwModeBeyondAclYieldsOneFinding) {
  const Uid uid = CreateRootSegment("read_only", kModeRead);
  ASSERT_NE(uid, kInvalidUid);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "read_only");
  ASSERT_TRUE(seg.ok());
  // Flip the write bit directly in the hardware descriptor: the ACL derives
  // read only, so the held write is not derivable from policy.
  SegmentDescriptor* sdw = doe->dseg().GetMutable(seg->segno);
  ASSERT_NE(sdw, nullptr);
  sdw->write = true;

  ExpectSingleFinding(Certify(), AuditClaim::kAccessDerivable);
}

TEST_F(AuditStaticTest, MlsLabelWideningYieldsOneFinding) {
  const Uid uid = CreateRootSegment("memo", kModeRead);
  ASSERT_NE(uid, kInvalidUid);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "memo");
  ASSERT_TRUE(seg.ok());
  // Re-classify the branch upward without revoking descriptors: Doe's held
  // read is now a reachable read-up the lattice forbids.
  Branch* branch = MutableBranch(uid);
  ASSERT_NE(branch, nullptr);
  branch->label = MlsLabel{SensitivityLevel::kSecret, {}};

  ExpectSingleFinding(Certify(), AuditClaim::kMlsWidening);
}

// --- Claim 4: descriptor segment ↔ KST ↔ store ------------------------------

TEST_F(AuditStaticTest, DanglingSdwUidYieldsOneFinding) {
  const Uid uid = CreateRootSegment("vanishing");
  ASSERT_NE(uid, kInvalidUid);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "vanishing");
  ASSERT_TRUE(seg.ok());
  SegmentDescriptor* sdw = doe->dseg().GetMutable(seg->segno);
  ASSERT_NE(sdw, nullptr);
  sdw->uid = 0xdead0000dead;  // No branch by this UID.

  ExpectSingleFinding(Certify(), AuditClaim::kDsegStoreConsistency);
}

// --- Claim 5: hierarchy reachability ----------------------------------------

TEST_F(AuditStaticTest, OrphanSegmentYieldsOneFinding) {
  // A branch created directly in the store, bypassing the directory write:
  // storage no catalogue entry reaches.
  SegmentAttributes attrs;
  auto root_uid = kernel_->hierarchy().root();
  auto uid = kernel_->store().Create(attrs, /*is_directory=*/false, root_uid);
  ASSERT_TRUE(uid.ok());

  ExpectSingleFinding(Certify(), AuditClaim::kOrphanSegment);
}

TEST_F(AuditStaticTest, DoublyMappedSegmentYieldsOneFinding) {
  SegmentAttributes dir_attrs;
  dir_attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
  auto dir_uid = kernel_->FsCreateDirectory(*init_, root_segno_, "annex", dir_attrs);
  ASSERT_TRUE(dir_uid.ok());
  const Uid uid = CreateRootSegment("shared");
  ASSERT_NE(uid, kInvalidUid);
  // A second catalogue entry for the same branch, in a different directory.
  auto annex = kernel_->hierarchy().RawDirectory(dir_uid.value());
  ASSERT_TRUE(annex.ok());
  ASSERT_EQ(annex.value()->Add(DirEntry{"alias", uid, false, ""}), Status::kOk);

  ExpectSingleFinding(Certify(), AuditClaim::kMultiParentSegment);
}

// --- Lock order -------------------------------------------------------------

TEST_F(AuditStaticTest, LockOrderInversionYieldsFindings) {
  // Acquire against the hierarchy on the booted kernel's own machine. The
  // inversion surfaces twice: once from the violation the trace recorded as
  // it happened, and once re-derived independently from the edge set.
  SimLock& page_table = kernel_->machine().locks().PageTable();
  SimLock& ast = kernel_->machine().locks().Ast();
  page_table.Acquire();
  ast.Acquire();
  ast.Release();
  page_table.Release();
  const AuditReport report = Certify();
  EXPECT_EQ(report.findings.size(), 2u) << report.ToString();
  EXPECT_EQ(report.CountForClaim(AuditClaim::kLockOrder), 2u) << report.ToString();
}

// --- Claim 7: scheduler isolation -------------------------------------------

TEST_F(AuditStaticTest, OutOfRangeFeedbackLevelYieldsOneFinding) {
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  doe->set_sched_level(TrafficController::kSchedLevels);  // One past the last.
  const AuditReport report = Certify();
  ExpectSingleFinding(report, AuditClaim::kSchedulerIsolation);
  doe->set_sched_level(0);
}

TEST_F(AuditStaticTest, OutOfRangeWorkClassYieldsOneFinding) {
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  doe->set_work_class(kernel_->traffic().work_class_count());
  const AuditReport report = Certify();
  ExpectSingleFinding(report, AuditClaim::kSchedulerIsolation);
  doe->set_work_class(0);
}

TEST_F(AuditStaticTest, SchedulerPermutationLeavesAccessFixed) {
  // The positive half of the isolation claim on a live session: with work
  // classes defined and a user holding segments, permuting scheduler state
  // must change no derivable mode — the sweep runs and stays clean.
  const Uid uid = CreateRootSegment("notebook", kModeRead | kModeWrite);
  ASSERT_NE(uid, kInvalidUid);
  (void)kernel_->traffic().DefineWorkClass("interactive", 4);
  Process* doe = LoginDoe();
  ASSERT_NE(doe, nullptr);
  auto seg = InitiateFromRoot(doe, "notebook");
  ASSERT_TRUE(seg.ok());
  const AuditReport report = Certify();
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Report formats ---------------------------------------------------------

TEST_F(AuditStaticTest, JsonReportCarriesFindings) {
  ASSERT_EQ(kernel_->gates().Register(GateId::kLinkSnapAll), Status::kOk);
  const AuditReport report = Certify();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"mx-audit-v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("GATE_REGISTRY"), std::string::npos) << json;
  EXPECT_NE(json.find("link_snap_all"), std::string::npos) << json;
}

}  // namespace
}  // namespace multics
