// Fixture tests for mx_lint (tools/mx_lint).
//
// Each test lays out a small synthetic repository under TempDir and asserts
// each pass finds exactly the seeded violation — and nothing in the clean
// variants. The real repository is linted by the `mx_lint_repo` ctest.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "tools/mx_lint/lint.h"

namespace multics::lint {
namespace {

namespace fs = std::filesystem;

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) / (std::string("mx_lint_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << content;
  }

  std::string Root() const { return root_.string(); }

  fs::path root_;
};

// --- StripCommentsAndStrings ------------------------------------------------

TEST(StripTest, BlanksCommentsButKeepsLines) {
  const std::string in = "int a; // #include \"src/fs/x.h\"\nint b; /* two\nlines */ int c;\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("#include"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int c;"), std::string::npos);
}

TEST(StripTest, BlanksStringAndCharContents) {
  const std::string out =
      StripCommentsAndStrings("call(\"Status Ignored(\", '\\n');");
  EXPECT_EQ(out.find("Status"), std::string::npos);
  // The delimiters stay so downstream regexes see balanced quotes.
  EXPECT_NE(out.find('"'), std::string::npos);
  EXPECT_NE(out.find("call("), std::string::npos);
}

// --- Layering ---------------------------------------------------------------

TEST_F(LintTest, UpwardIncludeYieldsOneFinding) {
  WriteFile("src/hw/cpu.h", "#include \"src/base/status.h\"\n");
  WriteFile("src/hw/bad.cc",
            "#include \"src/hw/cpu.h\"\n#include \"src/fs/branch.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].rule, "layering");
  EXPECT_EQ(report.findings[0].file, "src/hw/bad.cc");
  EXPECT_EQ(report.findings[0].line, 2);
}

TEST_F(LintTest, UserringMustNotReachKernelInternals) {
  WriteFile("src/userring/shell.cc", "#include \"src/mem/page_control.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.CountForRule("layering"), 1) << report.ToString();
}

TEST_F(LintTest, InjectIsNeverIncludedByKernelCode) {
  WriteFile("src/core/kernel.cc", "#include \"src/inject/faults.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.CountForRule("layering"), 1) << report.ToString();
}

TEST_F(LintTest, SessionIsConfinedToTheGateSurface) {
  // The session engine may use the gate interface and the answering service…
  WriteFile("src/session/engine.cc",
            "#include \"src/core/kernel.h\"\n"
            "#include \"src/userring/answering_service.h\"\n"
            "#include \"src/base/random.h\"\n");
  // …but reaching kernel internals (scheduler queues, page control) is a
  // layering violation: the workload must go through the certified surface.
  WriteFile("src/session/bad.cc",
            "#include \"src/proc/traffic_controller.h\"\n"
            "#include \"src/mem/page_control.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.CountForRule("layering"), 2) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/session/bad.cc");
}

TEST_F(LintTest, HostProfileHeaderIsExemptFromTheDag) {
  // The std-only profiler header may be included from any layer — even
  // src/base, which otherwise includes nothing — but the rest of src/meter
  // stays off limits from below.
  WriteFile("src/base/event_queue.cc",
            "#include \"src/meter/host_profile.h\"\n"
            "#include \"src/meter/meter.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.CountForRule("layering"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].line, 2);
}

TEST_F(LintTest, DownwardIncludesAreClean) {
  WriteFile("src/core/kernel.cc",
            "#include \"src/core/kernel.h\"\n#include \"src/fs/branch.h\"\n"
            "#include \"src/hw/sdw.h\"\n#include \"src/base/status.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(LintTest, UnknownModuleYieldsFinding) {
  WriteFile("src/rogue/thing.h", "int x;\n");
  Report report;
  CheckLayering(Root(), &report);
  ASSERT_EQ(report.CountForRule("layering"), 1) << report.ToString();
}

TEST_F(LintTest, MissingSrcTreeCannotPassVacuously) {
  Report report = RunLint((root_ / "no_such_dir").string());
  EXPECT_FALSE(report.clean());
}

// --- Gate prologues ---------------------------------------------------------
// A prologue naming a gate outside the census no longer compiles
// (tests/compile_fail/phantom_gate.cc); the rule checks coverage only.

TEST_F(LintTest, CensusGateWithoutPrologueYieldsOneFinding) {
  WriteFile("src/meter/span_census.h",
            "#define MX_GATE_CENSUS(X) \\\n"
            "  X(kAlpha, \"alpha\", kProcess, kAlways) \\\n"
            "  X(kBeta, \"beta\", kProcess, kAlways)\n");
  WriteFile("src/core/kernel.cc",
            "Status Kernel::Alpha(Process& caller) {\n"
            "  MX_ENTER_GATE(caller, GateId::kAlpha, 0);\n"
            "  return Status::kOk;\n}\n"
            "// A comment naming GateId::kBeta does not count.\n");
  Report report;
  CheckGatePrologues(Root(), &report);
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].rule, "gate-prologue");
  EXPECT_EQ(report.findings[0].file, "src/meter/span_census.h");
  EXPECT_NE(report.findings[0].message.find("beta"), std::string::npos);
}

TEST_F(LintTest, GateIdChosenByTernaryOrAssignmentCounts) {
  // The seg_set_length / seg_truncate pattern: one body, two gates.
  WriteFile("src/meter/span_census.h",
            "#define MX_GATE_CENSUS(X) \\\n"
            "  X(kSegSetLength, \"seg_set_length\", kSegment, kAlways) \\\n"
            "  X(kSegTruncate, \"seg_truncate\", kSegment, kAlways) \\\n"
            "  X(kSegGetLength, \"seg_get_length\", kSegment, kAlways)\n");
  WriteFile("src/core/kernel.cc",
            "  GateId gate = truncate ? GateId::kSegTruncate : GateId::kSegSetLength;\n"
            "  MX_ENTER_GATE(caller, gate, pages);\n"
            "  GateId other = GateId::kSegSetLength;\n"
            "  other = GateId::kSegGetLength;\n"
            "  MX_ENTER_GATE(caller, other);\n");
  Report report;
  CheckGatePrologues(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(LintTest, MissingGateCensusCannotPassVacuously) {
  WriteFile("src/core/kernel.cc", "  MX_ENTER_GATE(caller, GateId::kAlpha);\n");
  Report report;
  CheckGatePrologues(Root(), &report);
  ASSERT_EQ(report.CountForRule("gate-prologue"), 1) << report.ToString();
}

// --- Mutable counters -------------------------------------------------------

TEST_F(LintTest, MutableArithmeticMemberInCoreYieldsOneFinding) {
  WriteFile("src/core/monitor.h",
            "class Monitor {\n"
            " public:\n"
            "  uint64_t Checks() const;\n"
            " private:\n"
            "  mutable uint64_t checks_ = 0;\n"
            "  mutable std::string scratch_;\n"  // Class types are left alone.
            "  uint64_t total_ = 0;\n"
            "};\n");
  Report report;
  CheckMutableCounters(Root(), &report);
  ASSERT_EQ(report.findings.size(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].rule, "mutable-counter");
  EXPECT_EQ(report.findings[0].file, "src/core/monitor.h");
  EXPECT_EQ(report.findings[0].line, 5);
  EXPECT_NE(report.findings[0].message.find("checks_"), std::string::npos);
}

TEST_F(LintTest, MutableCounterInCommentOrOutsideCoreIsClean) {
  // The rule is scoped to src/core (kernel state); a cache counter in the
  // memory layer and a mention inside a comment are both out of bounds.
  WriteFile("src/mem/cache.h", "class C { mutable uint64_t hits_ = 0; };\n");
  WriteFile("src/core/notes.cc", "// A `mutable uint64_t checks_` would be bad.\nint x;\n");
  Report report;
  CheckMutableCounters(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Lock-order documentation -----------------------------------------------

constexpr char kLockHeaderFixture[] =
    "struct LockLevel { const char* name; int level; };\n"
    "inline constexpr LockLevel kLockHierarchy[] = {\n"
    "    {\"kernel\", 0},\n"
    "    {\"dir\", 1},\n"
    "};\n";

constexpr char kLockDocFixture[] =
    "# Locks\n\n"
    "<!-- mx:lock-hierarchy:begin -->\n"
    "| `kernel` | 0 | the giant lock |\n"
    "| `dir` | 1 | directory locks |\n"
    "<!-- mx:lock-hierarchy:end -->\n";

TEST_F(LintTest, MatchingLockTablesAreClean) {
  WriteFile("src/hw/sim_lock.h", kLockHeaderFixture);
  WriteFile("docs/ARCHITECTURE.md", kLockDocFixture);
  Report report;
  CheckLockOrder(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(LintTest, LockLevelMismatchYieldsOneFinding) {
  WriteFile("src/hw/sim_lock.h", kLockHeaderFixture);
  WriteFile("docs/ARCHITECTURE.md",
            "<!-- mx:lock-hierarchy:begin -->\n"
            "| `kernel` | 0 | the giant lock |\n"
            "| `dir` | 2 | wrong level |\n"
            "<!-- mx:lock-hierarchy:end -->\n");
  Report report;
  CheckLockOrder(Root(), &report);
  ASSERT_EQ(report.CountForRule("lock-order"), 1) << report.ToString();
  EXPECT_NE(report.findings[0].message.find("`dir`"), std::string::npos);
}

TEST_F(LintTest, UndocumentedLockYieldsOneFinding) {
  WriteFile("src/hw/sim_lock.h", kLockHeaderFixture);
  WriteFile("docs/ARCHITECTURE.md",
            "<!-- mx:lock-hierarchy:begin -->\n"
            "| `kernel` | 0 | the giant lock |\n"
            "<!-- mx:lock-hierarchy:end -->\n");
  Report report;
  CheckLockOrder(Root(), &report);
  ASSERT_EQ(report.CountForRule("lock-order"), 1) << report.ToString();
  EXPECT_NE(report.findings[0].message.find("missing from the documented"),
            std::string::npos);
}

TEST_F(LintTest, DocumentedHierarchyWithoutCodeTableYieldsOneFinding) {
  WriteFile("docs/ARCHITECTURE.md", kLockDocFixture);
  Report report;
  CheckLockOrder(Root(), &report);
  ASSERT_EQ(report.CountForRule("lock-order"), 1) << report.ToString();
}

TEST_F(LintTest, TreesWithoutLockTablesHaveNothingToCertify) {
  WriteFile("src/hw/cpu.h", "int x;\n");
  Report report;
  CheckLockOrder(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Host spans in the reference monitor -------------------------------------

TEST_F(LintTest, HostSpanInReferenceMonitorYieldsFindings) {
  WriteFile("src/fs/acl.cc",
            "#include \"src/meter/host_profile.h\"\n"
            "bool Check() {\n"
            "  MX_HOST_SPAN(kPageTableWalk);\n"
            "  return true;\n}\n");
  WriteFile("src/mls/label.cc", "HostSpan span(HostSubsystem::kGateCall);\n");
  Report report;
  CheckHostSpans(Root(), &report);
  // acl.cc: the include plus the macro; label.cc: the raw RAII type.
  ASSERT_EQ(report.CountForRule("host-span"), 3) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/fs/acl.cc");
  EXPECT_EQ(report.findings[2].file, "src/mls/label.cc");
}

TEST_F(LintTest, HostSpansOutsideTheMonitorAndInCommentsAreClean) {
  // Instrumentation in the paging layer is the intended use…
  WriteFile("src/mem/page_control.cc",
            "#include \"src/meter/host_profile.h\"\n"
            "void F() { MX_HOST_SPAN(kPageIo); }\n");
  // …and a comment in src/fs merely *mentioning* the macro is not a probe.
  WriteFile("src/fs/branch.cc", "// Never add MX_HOST_SPAN here.\nint y;\n");
  Report report;
  CheckHostSpans(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Oracle confinement ------------------------------------------------------

TEST_F(LintTest, OracleIncludingKernelHeaderYieldsFinding) {
  WriteFile("src/modelcheck/oracle.h", "#include <vector>\nstruct O {};\n");
  WriteFile("src/modelcheck/oracle.cc",
            "#include \"src/modelcheck/oracle.h\"\n"
            "#include \"src/core/kernel.h\"\n"
            "int Derive() { return 0; }\n");
  Report report;
  CheckOracleConfinement(Root(), &report);
  ASSERT_EQ(report.CountForRule("oracle-confinement"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/modelcheck/oracle.cc");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_NE(report.findings[0].message.find("src/core/kernel.h"),
            std::string::npos);
}

TEST_F(LintTest, OracleAngleIncludeOfTreeHeaderYieldsFinding) {
  // <src/...> is the same breach spelled differently.
  WriteFile("src/modelcheck/oracle.h",
            "#include <src/fs/acl.h>\n#include <string>\n");
  WriteFile("src/modelcheck/oracle.cc",
            "#include \"src/modelcheck/oracle.h\"\n");
  Report report;
  CheckOracleConfinement(Root(), &report);
  ASSERT_EQ(report.CountForRule("oracle-confinement"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/modelcheck/oracle.h");
}

TEST_F(LintTest, StdOnlyOracleIsClean) {
  WriteFile("src/modelcheck/oracle.h",
            "#include <cstdint>\n#include <map>\n#include <vector>\n");
  WriteFile("src/modelcheck/oracle.cc",
            "#include \"src/modelcheck/oracle.h\"\n#include <algorithm>\n");
  // The checker half of the module may include kernel headers freely.
  WriteFile("src/modelcheck/checker.cc",
            "#include \"src/core/kernel.h\"\n"
            "#include \"src/modelcheck/oracle.h\"\n");
  Report report;
  CheckOracleConfinement(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(LintTest, ModelcheckWithoutOracleYieldsFinding) {
  // The rule must not pass vacuously after a rename deletes the oracle.
  WriteFile("src/modelcheck/checker.h", "struct C {};\n");
  Report report;
  CheckOracleConfinement(Root(), &report);
  ASSERT_EQ(report.CountForRule("oracle-confinement"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/modelcheck");
}

TEST_F(LintTest, TreesWithoutModelcheckHaveNoOracleToConfine) {
  WriteFile("src/fs/acl.cc", "int x;\n");
  Report report;
  CheckOracleConfinement(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Hot-path containers -----------------------------------------------------

TEST_F(LintTest, HotPathMapMemberYieldsFinding) {
  WriteFile("src/base/event_queue.h",
            "#include <map>\n"
            "// mx:hot-path:begin\n"
            "std::map<int, int> by_time_;\n"
            "// mx:hot-path:end\n");
  WriteFile("src/hw/sim_lock.h",
            "// mx:hot-path:begin\nint busy_head_ = 0;\n// mx:hot-path:end\n");
  WriteFile("src/meter/meter.h",
            "// mx:hot-path:begin\nint cells_[4];\n// mx:hot-path:end\n");
  Report report;
  CheckHotPathContainers(Root(), &report);
  ASSERT_EQ(report.CountForRule("hot-path-containers"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/base/event_queue.h");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_NE(report.findings[0].message.find("std::map"), std::string::npos);
}

TEST_F(LintTest, HotPathFunctionMemberYieldsFinding) {
  WriteFile("src/base/event_queue.h",
            "// mx:hot-path:begin\nint slab_;\n// mx:hot-path:end\n");
  WriteFile("src/hw/sim_lock.h",
            "// mx:hot-path:begin\n"
            "std::function<void(int)> observer_;\n"
            "// mx:hot-path:end\n");
  WriteFile("src/meter/meter.h",
            "// mx:hot-path:begin\nint cells_[4];\n// mx:hot-path:end\n");
  Report report;
  CheckHotPathContainers(Root(), &report);
  ASSERT_EQ(report.CountForRule("hot-path-containers"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/hw/sim_lock.h");
  EXPECT_NE(report.findings[0].message.find("std::function"), std::string::npos);
}

TEST_F(LintTest, HotPathContainerOutsideRegionIsClean) {
  // std::map is fine outside the marked region (cold-path members), and a
  // comment *mentioning* std::map inside the region is fine too.
  WriteFile("src/base/event_queue.h",
            "std::map<int, int> cold_index_;\n"
            "// mx:hot-path:begin\n"
            "// replaced the old std::map<Cycles, Event> with a slab\n"
            "int slab_;\n"
            "// mx:hot-path:end\n"
            "std::multimap<int, int> also_cold_;\n");
  WriteFile("src/hw/sim_lock.h",
            "// mx:hot-path:begin\nint busy_head_;\n// mx:hot-path:end\n");
  WriteFile("src/meter/meter.h",
            "// mx:hot-path:begin\nint cells_[4];\n// mx:hot-path:end\n");
  Report report;
  CheckHotPathContainers(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(LintTest, HotPathMissingRegionYieldsFinding) {
  // A guarded file whose markers were deleted must fail, not pass vacuously.
  WriteFile("src/base/event_queue.h", "int slab_;\n");
  WriteFile("src/hw/sim_lock.h",
            "// mx:hot-path:begin\nint busy_head_;\n// mx:hot-path:end\n");
  WriteFile("src/meter/meter.h",
            "// mx:hot-path:begin\nint cells_[4];\n// mx:hot-path:end\n");
  Report report;
  CheckHotPathContainers(Root(), &report);
  ASSERT_EQ(report.CountForRule("hot-path-containers"), 1) << report.ToString();
  EXPECT_EQ(report.findings[0].file, "src/base/event_queue.h");
  EXPECT_NE(report.findings[0].message.find("vacuously"), std::string::npos);
}

TEST_F(LintTest, HotPathFixtureTreeWithoutGuardedFilesIsClean) {
  // Trees with none of the guarded files (every other fixture in this suite)
  // have nothing to check.
  WriteFile("src/hw/cpu.h", "int x;\n");
  Report report;
  CheckHotPathContainers(Root(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// --- Report formats ---------------------------------------------------------

TEST_F(LintTest, JsonReportIsWellFormedEnough) {
  WriteFile("src/hw/bad.cc", "#include \"src/core/kernel.h\"\n");
  Report report;
  CheckLayering(Root(), &report);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"mx-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"layering\""), std::string::npos);
  EXPECT_NE(json.find("src/hw/bad.cc"), std::string::npos);
}

}  // namespace
}  // namespace multics::lint
