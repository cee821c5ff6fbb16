// Tests for the user-ring runtime of the kernelized configuration: pathname
// resolution over the segment-number interface, reference names, search
// rules, the user-ring linker, protected subsystems, and the de-privileged
// answering service.

#include <gtest/gtest.h>

#include "src/init/bootstrap.h"
#include "src/userring/answering_service.h"
#include "src/userring/initiator.h"
#include "src/userring/subsystem.h"
#include "src/userring/user_linker.h"

namespace multics {
namespace {

class UserRingTest : public ::testing::Test {
 protected:
  UserRingTest() {
    KernelParams params;
    params.config = KernelConfiguration::Kernelized6180();
    params.machine.core_frames = 128;
    kernel_ = std::make_unique<Kernel>(params);
    BootstrapOptions options;
    options.users = DefaultUsers();
    auto report = Bootstrap::Run(*kernel_, options);
    CHECK(report.ok()) << StatusName(report.status());
    init_ = report->init_process;

    auto user = kernel_->BootstrapProcess(
        "jones", Principal{"Jones", "Faculty", "a"},
        MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
    CHECK(user.ok());
    user_ = user.value();
  }

  std::unique_ptr<Kernel> kernel_;
  Process* init_ = nullptr;
  Process* user_ = nullptr;
};

TEST_F(UserRingTest, BootstrapBuiltTheSkeleton) {
  UserInitiator initiator(kernel_.get(), user_);
  EXPECT_TRUE(initiator.InitiateDirPath(">udd").ok());
  EXPECT_TRUE(initiator.InitiateDirPath(">udd>Faculty").ok());
  EXPECT_TRUE(initiator.InitiatePath(">system_library>math_").ok());
}

TEST_F(UserRingTest, UserRingPathResolution) {
  UserInitiator initiator(kernel_.get(), user_);
  auto segno = initiator.InitiatePath(">system_library>math_");
  ASSERT_TRUE(segno.ok());
  EXPECT_GT(initiator.components_walked(), 1u);
  // The object header is readable through the user's own access.
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  auto magic = kernel_->cpu().Read(segno.value(), 0);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(magic.value(), kObjectMagic);
}

TEST_F(UserRingTest, MissingComponentsReported) {
  UserInitiator initiator(kernel_.get(), user_);
  EXPECT_EQ(initiator.InitiatePath(">udd>NoSuchProject>x").status(), Status::kNotFound);
  EXPECT_EQ(initiator.InitiatePath(">system_library>math_>inside").status(),
            Status::kNotADirectory);
}

TEST_F(UserRingTest, LinksChasedInUserRing) {
  // init_ creates a link in the root; the user's resolution chases it.
  auto root = kernel_->RootDir(*init_);
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(kernel_->FsCreateLink(*init_, root.value(), "lib", ">system_library"),
            Status::kOk);
  UserInitiator initiator(kernel_.get(), user_);
  auto segno = initiator.InitiatePath(">lib>math_");
  ASSERT_TRUE(segno.ok());
  EXPECT_EQ(initiator.links_chased(), 1u);
}

TEST_F(UserRingTest, ReferenceNamesArePrivateUserState) {
  ReferenceNameManager rnm;
  ASSERT_EQ(rnm.Bind("math_", 123), Status::kOk);
  EXPECT_EQ(rnm.Lookup("math_").value(), 123u);
  EXPECT_EQ(rnm.Bind("math_", 99), Status::kReferenceNameBound);
  EXPECT_GT(rnm.UserRingStateBytes(), 0u);
  // None of that state is in ring 0:
  EXPECT_EQ(kernel_->KernelAddressSpaceStateBytes(*user_), user_->kst().KernelStateBytes());
  ASSERT_EQ(rnm.Unbind("math_"), Status::kOk);
  EXPECT_EQ(rnm.Lookup("math_").status(), Status::kNoSuchReferenceName);
}

TEST_F(UserRingTest, SearchRulesResolveAndCache) {
  UserInitiator initiator(kernel_.get(), user_);
  ReferenceNameManager rnm;
  SearchRules rules;
  ASSERT_EQ(rules.Set({">udd", ">system_library"}), Status::kOk);
  auto segno = rules.Search("math_", initiator, rnm);
  ASSERT_TRUE(segno.ok());
  // Cached as a reference name now.
  EXPECT_EQ(rnm.Lookup("math_").value(), segno.value());
  EXPECT_EQ(rules.Search("math_", initiator, rnm).value(), segno.value());
}

TEST_F(UserRingTest, UserLinkerSnapsAgainstLibrary) {
  UserInitiator initiator(kernel_.get(), user_);
  ReferenceNameManager rnm;
  SearchRules rules;
  ASSERT_EQ(rules.Set({">system_library"}), Status::kOk);

  auto fmt = initiator.InitiatePath(">system_library>fmt_");
  ASSERT_TRUE(fmt.ok());

  UserLinker linker(kernel_.get(), user_, &initiator, &rules, &rnm);
  auto result = linker.SnapAll(fmt.value());
  // fmt_ links to math_$sqrt and math_$exp; but fmt_ is a library segment the
  // user cannot write. Snapping therefore fails at the write.
  EXPECT_FALSE(result.ok());

  // Make the user a private copy (as binders did), then snapping works.
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  UserInitiator init2(kernel_.get(), user_);
  auto home = init2.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(home.ok());
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite | kModeExecute});
  ASSERT_TRUE(kernel_->FsCreateSegment(*user_, home.value(), "fmt_copy", attrs).ok());
  auto copy = kernel_->Initiate(*user_, home.value(), "fmt_copy");
  ASSERT_TRUE(copy.ok());
  auto pages = kernel_->SegGetLength(*user_, fmt.value());
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(kernel_->SegSetLength(*user_, copy->segno, pages.value()), Status::kOk);
  for (WordOffset offset = 0; offset < pages.value() * kPageWords; ++offset) {
    auto word = kernel_->cpu().Read(fmt.value(), offset);
    ASSERT_TRUE(word.ok());
    if (word.value() != 0) {
      ASSERT_EQ(kernel_->cpu().Write(copy->segno, offset, word.value()), Status::kOk);
    }
  }
  auto snapped = linker.SnapAll(copy->segno);
  ASSERT_TRUE(snapped.ok()) << StatusName(snapped.status());
  EXPECT_EQ(snapped->snapped, 2u);
  EXPECT_EQ(linker.confined_faults(), 0u);
}

TEST_F(UserRingTest, MalformedObjectConfinedToUserRing) {
  // Build a corrupt object in the user's own directory and link it: the
  // failure must be a clean user-ring error with zero ring-0 faults.
  UserInitiator initiator(kernel_.get(), user_);
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(home.ok());
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite | kModeExecute});
  ASSERT_TRUE(kernel_->FsCreateSegment(*user_, home.value(), "evil", attrs).ok());
  auto evil = kernel_->Initiate(*user_, home.value(), "evil");
  ASSERT_TRUE(evil.ok());
  ASSERT_EQ(kernel_->SegSetLength(*user_, evil->segno, 1), Status::kOk);

  std::vector<Word> image = ObjectBuilder().SetText({1}).AddLink("math_", "sqrt").Build();
  image[5] = 400'000;  // Wild links offset.
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  for (WordOffset i = 0; i < image.size(); ++i) {
    ASSERT_EQ(kernel_->cpu().Write(evil->segno, i, image[i]), Status::kOk);
  }

  ReferenceNameManager rnm;
  SearchRules rules;
  ASSERT_EQ(rules.Set({">system_library"}), Status::kOk);
  UserLinker linker(kernel_.get(), user_, &initiator, &rules, &rnm);
  EXPECT_EQ(linker.SnapAll(evil->segno).status(), Status::kBadObjectFormat);
  EXPECT_EQ(kernel_->kernel_faults(), 0u);  // Ring 0 never touched the garbage.
}

// --- Protected subsystems -----------------------------------------------------------

TEST_F(UserRingTest, SubsystemConfinesOuterRingCode) {
  UserInitiator initiator(kernel_.get(), user_);
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  ASSERT_TRUE(home.ok());

  SubsystemBuilder builder(kernel_.get(), user_);
  auto subsystem = builder.Create(home.value(), "vault", /*inner=*/4, /*callers=*/5,
                                  /*entries=*/2);
  ASSERT_TRUE(subsystem.ok()) << StatusName(subsystem.status());

  // The owner, at ring 4, stores a secret in the data segment.
  ASSERT_EQ(kernel_->RunAs(*user_), Status::kOk);
  ASSERT_EQ(kernel_->cpu().Write(subsystem->data_segno, 0, 0x5EC12E7), Status::kOk);

  // Borrowed (untrusted) code runs at ring 5: direct access is cut off by
  // the ring brackets even though the ACL would allow the owner...
  kernel_->cpu().SetRing(5);
  EXPECT_EQ(kernel_->cpu().Read(subsystem->data_segno, 0).status(), Status::kRingViolation);
  EXPECT_EQ(kernel_->cpu().Write(subsystem->data_segno, 0, 0), Status::kRingViolation);

  // ...but the gate lets it in through sanctioned entry points only.
  auto ring = builder.Enter(subsystem.value(), 1);
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring.value(), 4);
  // Inside the subsystem the data is reachable again.
  EXPECT_TRUE(kernel_->cpu().Read(subsystem->data_segno, 0).ok());
  ASSERT_EQ(builder.Exit(), Status::kOk);
  EXPECT_EQ(kernel_->cpu().ring(), 5);

  // Entry beyond the gate bound is refused by the hardware.
  EXPECT_EQ(builder.Enter(subsystem.value(), 2).status(), Status::kNotAGate);
}

// --- Answering service ---------------------------------------------------------------

TEST_F(UserRingTest, AnsweringServiceLoginWithoutKernelGate) {
  auto service = AnsweringService::Create(kernel_.get());
  ASSERT_TRUE(service.ok()) << StatusName(service.status());
  ASSERT_EQ((*service)->RegisterUser("Jones", "Faculty", "sekret",
                                     MlsLabel{SensitivityLevel::kSecret, {}}),
            Status::kOk);

  // There is no login gate in the kernelized kernel at all.
  EXPECT_FALSE(kernel_->gates().Has(GateId::kLogin));

  auto bad = (*service)->Login("Jones", "Faculty", "wrong", {});
  EXPECT_EQ(bad.status(), Status::kAuthenticationFailed);
  auto too_high = (*service)->Login("Jones", "Faculty", "sekret", MlsLabel::SystemHigh());
  EXPECT_EQ(too_high.status(), Status::kAuthenticationFailed);
  auto ok = (*service)->Login("Jones", "Faculty", "sekret",
                              MlsLabel{SensitivityLevel::kSecret, {}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->principal().person, "Jones");
  EXPECT_EQ((*service)->successful_logins(), 1u);
  EXPECT_EQ((*service)->failed_logins(), 2u);
}

TEST_F(UserRingTest, PasswordSegmentShieldedByAcl) {
  auto service = AnsweringService::Create(kernel_.get());
  ASSERT_TRUE(service.ok());
  ASSERT_EQ((*service)->RegisterUser("Jones", "Faculty", "sekret", MlsLabel::SystemHigh()),
            Status::kOk);

  // A user initiating the password segment gets nothing: the ACL names only
  // the answering service.
  auto root = kernel_->RootDir(*user_);
  ASSERT_TRUE(root.ok());
  auto attempt = kernel_->Initiate(*user_, root.value(), "pwd");
  EXPECT_EQ(attempt.status(), Status::kAccessDenied);
}

}  // namespace
}  // namespace multics
