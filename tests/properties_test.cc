// Property-style sweeps over the protection substrate's invariants:
// ring-bracket monotonicity, ACL match determinism, replacement-policy
// victim validity under random histories, page single-copy invariants under
// random fault/evict/flush sequences, and event-queue ordering under load.

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/fs/acl.h"
#include "src/hw/ring.h"
#include "src/mem/page_control_parallel.h"
#include "src/mem/page_control_sequential.h"

namespace multics {
namespace {

// --- Ring brackets: access is monotone in privilege ---------------------------------

// For any valid bracket triple and any mode: if ring r is allowed, every ring
// r' < r is allowed-or-stronger (never flatly denied when r was allowed)...
// with the one deliberate exception of calls, where dropping below the write
// bracket turns an ordinary transfer into an outward call.
class RingMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RingMonotonicity, ReadWriteNeverImproveWithLessPrivilege) {
  auto [r1, r2, r3] = GetParam();
  if (!(r1 <= r2 && r2 <= r3)) {
    GTEST_SKIP();
  }
  RingBrackets brackets{static_cast<RingNumber>(r1), static_cast<RingNumber>(r2),
                        static_cast<RingNumber>(r3)};
  for (AccessMode mode : {AccessMode::kRead, AccessMode::kWrite}) {
    bool previously_allowed = true;
    for (int ring = 0; ring < kRingCount; ++ring) {
      bool allowed =
          CheckRingBrackets(static_cast<RingNumber>(ring), brackets, mode) ==
          RingCheck::kAllowed;
      // Once denied at some ring, every higher (less privileged) ring is
      // denied too: the allowed set is a downward-closed prefix.
      if (!previously_allowed) {
        EXPECT_FALSE(allowed) << "mode " << AccessModeName(mode) << " ring " << ring;
      }
      previously_allowed = allowed;
    }
  }
}

TEST_P(RingMonotonicity, CallRegionsPartitionTheRings) {
  auto [r1, r2, r3] = GetParam();
  if (!(r1 <= r2 && r2 <= r3)) {
    GTEST_SKIP();
  }
  RingBrackets brackets{static_cast<RingNumber>(r1), static_cast<RingNumber>(r2),
                        static_cast<RingNumber>(r3)};
  // The rings split into exactly: [0,r1) outward, [r1,r2] allowed,
  // (r2,r3] gate, (r3,7] denied.
  for (int ring = 0; ring < kRingCount; ++ring) {
    RingCheck check = CheckRingBrackets(static_cast<RingNumber>(ring), brackets,
                                        AccessMode::kCall);
    RingCheck expected = ring < r1 ? RingCheck::kOutwardCall
                         : ring <= r2 ? RingCheck::kAllowed
                         : ring <= r3 ? RingCheck::kGateRequired
                                      : RingCheck::kDenied;
    EXPECT_EQ(check, expected) << "ring " << ring << " brackets "
                               << brackets.ToString();
    if (check == RingCheck::kGateRequired) {
      // Inward calls never land below the write bracket or above r2.
      RingNumber target = TargetRingForCall(static_cast<RingNumber>(ring), brackets);
      EXPECT_EQ(target, r2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBrackets, RingMonotonicity,
                         ::testing::Combine(::testing::Range(0, 8, 2),
                                            ::testing::Range(0, 8, 2),
                                            ::testing::Range(0, 8, 2)));

// --- ACLs: first-match determinism and specificity ------------------------------------

class AclProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AclProperty, EffectiveModesAreOrderInsensitive) {
  // Whatever order entries are Set in, the most specific match decides.
  Rng rng(GetParam());
  const std::vector<std::string> people = {"Jones", "Smith", "*"};
  const std::vector<std::string> projects = {"Faculty", "Students", "*"};
  const std::vector<std::string> tags = {"a", "z", "*"};

  std::vector<AclEntry> entries;
  for (const auto& person : people) {
    for (const auto& project : projects) {
      for (const auto& tag : tags) {
        if (rng.NextBool(0.5)) {
          entries.push_back(
              AclEntry{person, project, tag, static_cast<uint8_t>(rng.NextBelow(8))});
        }
      }
    }
  }
  Acl forward;
  for (const AclEntry& entry : entries) {
    forward.Set(entry);
  }
  Acl backward;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    backward.Set(*it);
  }
  for (const auto& person : {"Jones", "Smith", "Doe"}) {
    for (const auto& project : {"Faculty", "Students", "Other"}) {
      for (const auto& tag : {"a", "z"}) {
        Principal principal{person, project, tag};
        EXPECT_EQ(forward.EffectiveModes(principal), backward.EffectiveModes(principal))
            << principal.ToString();
      }
    }
  }
}

TEST_P(AclProperty, ExactEntryAlwaysBeatsWildcards) {
  Rng rng(GetParam());
  Acl acl;
  uint8_t exact_modes = static_cast<uint8_t>(rng.NextBelow(8));
  acl.Set(AclEntry{"*", "*", "*", static_cast<uint8_t>(rng.NextBelow(8))});
  acl.Set(AclEntry{"Jones", "*", "*", static_cast<uint8_t>(rng.NextBelow(8))});
  acl.Set(AclEntry{"Jones", "Faculty", "a", exact_modes});
  acl.Set(AclEntry{"*", "Faculty", "*", static_cast<uint8_t>(rng.NextBelow(8))});
  EXPECT_EQ(acl.EffectiveModes({"Jones", "Faculty", "a"}), exact_modes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AclProperty, ::testing::Range<uint64_t>(0, 12));

// --- Page control: the single-copy invariant under random histories --------------------

class PageControlProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageControlProperty, SingleCopyInvariantHoldsUnderRandomOps) {
  for (bool parallel : {false, true}) {
    Machine machine(MachineConfig{.core_frames = 16});
    CoreMap core_map(16);
    PagingDevice bulk = MakeBulkStore(24, &machine);
    PagingDevice disk = MakeDisk(2048, &machine);
    ActiveSegmentTable ast(8);
    ClockPolicy policy;
    std::unique_ptr<PageControl> pc;
    if (parallel) {
      pc = std::make_unique<ParallelPageControl>(&machine, &core_map, &bulk, &disk, &policy);
    } else {
      pc = std::make_unique<SequentialPageControl>(&machine, &core_map, &bulk, &disk, &policy);
    }

    std::vector<ActiveSegment*> segments;
    for (uint64_t uid = 1; uid <= 3; ++uid) {
      auto seg = ast.Activate(uid, 20, {});
      ASSERT_TRUE(seg.ok());
      segments.push_back(seg.value());
    }

    Rng rng(GetParam());
    std::vector<std::vector<Word>> shadow(3, std::vector<Word>(20, 0));
    for (int op = 0; op < 400; ++op) {
      size_t si = rng.NextBelow(3);
      ActiveSegment* seg = segments[si];
      PageNo page = static_cast<PageNo>(rng.NextBelow(20));
      switch (rng.NextBelow(4)) {
        case 0:
        case 1: {  // Touch + write.
          ASSERT_EQ(pc->EnsureResident(seg, page, AccessMode::kWrite), Status::kOk);
          PageTableEntry& pte = seg->page_table.entries[page];
          Word value = rng.Next();
          machine.core().WriteWord(pte.frame, 1, value);
          pte.used = true;
          pte.modified = true;
          shadow[si][page] = value;
          break;
        }
        case 2: {  // Let the machinery breathe.
          machine.Charge(rng.NextBelow(4000), ChargeKind::kCompute);
          machine.events().RunUntil(machine.clock().now());
          break;
        }
        case 3: {  // Flush a whole segment home.
          ASSERT_EQ(pc->FlushSegment(seg), Status::kOk);
          break;
        }
      }
    }
    machine.events().RunUntilIdle();

    // Invariant A: every previously written word reads back.
    for (size_t si = 0; si < 3; ++si) {
      for (PageNo page = 0; page < 20; ++page) {
        if (shadow[si][page] == 0) {
          continue;
        }
        ASSERT_EQ(pc->EnsureResident(segments[si], page, AccessMode::kRead), Status::kOk);
        EXPECT_EQ(machine.core().ReadWord(segments[si]->page_table.entries[page].frame, 1),
                  shadow[si][page])
            << (parallel ? "parallel" : "sequential") << " seg " << si << " page " << page;
      }
    }

    // Invariant B: core-map accounting is exact — every present PTE maps a
    // bound frame that points back at it, and free counts add up.
    uint32_t bound = 0;
    for (ActiveSegment* seg : segments) {
      for (PageNo page = 0; page < seg->pages; ++page) {
        const PageTableEntry& pte = seg->page_table.entries[page];
        if (pte.present) {
          ++bound;
          const FrameInfo& fi = core_map.info(pte.frame);
          EXPECT_FALSE(fi.free);
          EXPECT_EQ(fi.owner, seg);
          EXPECT_EQ(fi.page, page);
          EXPECT_EQ(seg->location[page].level, PageLevel::kCore);
        }
      }
    }
    EXPECT_EQ(bound + core_map.free_count(), core_map.frame_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageControlProperty,
                         ::testing::Values(3, 17, 99, 123456, 987654321));

// --- Event queue: dispatch order is a total order by (time, insertion) ------------------

class EventOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventOrderProperty, RandomSchedulesDispatchInOrder) {
  SimClock clock;
  EventQueue queue(&clock);
  Rng rng(GetParam());
  std::vector<std::pair<Cycles, int>> dispatched;
  int sequence = 0;
  for (int i = 0; i < 200; ++i) {
    Cycles when = rng.NextBelow(1000);
    int id = sequence++;
    queue.ScheduleAt(when, [&dispatched, when, id] { dispatched.emplace_back(when, id); });
  }
  queue.RunUntilIdle();
  ASSERT_EQ(dispatched.size(), 200u);
  for (size_t i = 1; i < dispatched.size(); ++i) {
    // Time never decreases; ties dispatch in insertion order.
    EXPECT_LE(dispatched[i - 1].first, dispatched[i].first);
    if (dispatched[i - 1].first == dispatched[i].first) {
      EXPECT_LT(dispatched[i - 1].second, dispatched[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace multics
