// Unit tests for the simulated hardware: ring-bracket rules, SDW access
// checks, fault resolution, gate calls in both ring modes, interrupts.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/hw/charge.h"
#include "src/hw/core_memory.h"
#include "src/hw/machine.h"
#include "src/hw/processor.h"
#include "src/hw/ring.h"
#include "src/hw/sdw.h"

namespace multics {
namespace {

// --- Ring-bracket rule tests -------------------------------------------------

// --- Charge census -----------------------------------------------------------

bool IsSnakeCase(std::string_view name) {
  if (name.empty() || name.front() == '_' || name.back() == '_') return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok || (c == '_' && name[i + 1] == '_')) return false;
  }
  return true;
}

TEST(ChargeCensusTest, NamesAreUniqueSnakeCase) {
  std::set<std::string_view> seen;
  for (size_t i = 0; i < kChargeKindCount; ++i) {
    const std::string_view name = ChargeName(ChargeAt(i));
    EXPECT_TRUE(IsSnakeCase(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  EXPECT_EQ(seen.size(), kChargeKindCount);
}

TEST(ChargeCensusTest, GetByNameMatchesGetByKind) {
  CounterSet charges;
  for (size_t i = 0; i < kChargeKindCount; ++i) {
    charges.Increment(ChargeAt(i), 100 + i);
  }
  charges.Increment(ChargeKind::kPageIo, 7);
  for (size_t i = 0; i < kChargeKindCount; ++i) {
    const ChargeKind kind = ChargeAt(i);
    EXPECT_EQ(charges.Get(std::string(ChargeName(kind))), charges.Get(kind)) << ChargeName(kind);
  }
  EXPECT_EQ(charges.Get(ChargeKind::kPageIo), 100u + ChargeIndex(ChargeKind::kPageIo) + 7);
  EXPECT_EQ(charges.Get("page_i0"), 0u);  // Unknown names read 0.
  EXPECT_EQ(charges.Get(""), 0u);
  EXPECT_EQ(charges.Get("zzz"), 0u);
}

TEST(ChargeCensusTest, SnapshotIsNameSortedAndListsOnlyTouchedRows) {
  CounterSet charges;
  EXPECT_TRUE(charges.Snapshot().empty());
  charges.Increment(ChargeKind::kVictimCpu, 3);
  charges.Increment(ChargeKind::kBackupIo, 5);
  charges.Increment(ChargeKind::kGateCrossing, 2);
  charges.Increment(ChargeKind::kGateCrossing, 4);
  charges.Increment(ChargeKind::kSmpIpi, 0);  // A 0-cycle charge is still listed.
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"backup_io", 5}, {"gate_crossing", 6}, {"smp_ipi", 0}, {"victim_cpu", 3}};
  EXPECT_EQ(charges.Snapshot(), expected);
  EXPECT_EQ(charges.Get(ChargeKind::kPageIo), 0u);  // Untouched: 0 and unlisted.
}

TEST(RingBracketsTest, ValidityRequiresMonotoneTriple) {
  EXPECT_TRUE((RingBrackets{0, 0, 5}).Valid());
  EXPECT_TRUE((RingBrackets{1, 4, 5}).Valid());
  EXPECT_FALSE((RingBrackets{4, 1, 5}).Valid());
  EXPECT_FALSE((RingBrackets{1, 5, 4}).Valid());
}

TEST(RingBracketsTest, WriteRequiresRingAtMostR1) {
  RingBrackets b{2, 4, 6};
  EXPECT_EQ(CheckRingBrackets(0, b, AccessMode::kWrite), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(2, b, AccessMode::kWrite), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(3, b, AccessMode::kWrite), RingCheck::kDenied);
  EXPECT_EQ(CheckRingBrackets(7, b, AccessMode::kWrite), RingCheck::kDenied);
}

TEST(RingBracketsTest, ReadRequiresRingAtMostR2) {
  RingBrackets b{2, 4, 6};
  EXPECT_EQ(CheckRingBrackets(4, b, AccessMode::kRead), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(5, b, AccessMode::kRead), RingCheck::kDenied);
}

TEST(RingBracketsTest, CallAboveR2UpToR3NeedsGate) {
  RingBrackets b{0, 0, 5};
  EXPECT_EQ(CheckRingBrackets(0, b, AccessMode::kCall), RingCheck::kAllowed);
  EXPECT_EQ(CheckRingBrackets(1, b, AccessMode::kCall), RingCheck::kGateRequired);
  EXPECT_EQ(CheckRingBrackets(5, b, AccessMode::kCall), RingCheck::kGateRequired);
  EXPECT_EQ(CheckRingBrackets(6, b, AccessMode::kCall), RingCheck::kDenied);
}

TEST(RingBracketsTest, CallBelowWriteBracketIsOutward) {
  RingBrackets b{4, 4, 4};
  EXPECT_EQ(CheckRingBrackets(1, b, AccessMode::kCall), RingCheck::kOutwardCall);
}

TEST(RingBracketsTest, InwardCallLandsAtTopOfExecuteBracket) {
  RingBrackets b{0, 1, 5};
  EXPECT_EQ(TargetRingForCall(4, b), 1);
  EXPECT_EQ(TargetRingForCall(1, b), 1);
  EXPECT_EQ(TargetRingForCall(0, b), 0);
}

// --- Processor fixtures ------------------------------------------------------

class ProcessorTest : public ::testing::Test {
 public:
  ProcessorTest()
      : machine_(MachineConfig{}), dseg_(&machine_.dseg_epochs()), cpu_(&machine_) {
    cpu_.AttachAddressSpace(&dseg_);
    cpu_.SetRing(kRingUser);
  }

  // Installs a fully-present segment backed by consecutive core frames.
  void InstallSegment(SegNo segno, uint32_t pages, RingBrackets brackets, bool r, bool w,
                      bool e, bool gate = false, uint32_t gate_entries = 0) {
    auto table = std::make_unique<PageTable>(pages);
    for (uint32_t p = 0; p < pages; ++p) {
      table->entries[p].present = true;
      table->entries[p].frame = next_frame_++;
    }
    SegmentDescriptor sdw;
    sdw.valid = true;
    sdw.page_table = table.get();
    sdw.length_pages = pages;
    sdw.brackets = brackets;
    sdw.read = r;
    sdw.write = w;
    sdw.execute = e;
    sdw.gate = gate;
    sdw.gate_entries = gate_entries;
    dseg_.Set(segno, sdw);
    tables_.push_back(std::move(table));
  }

  Machine machine_;
  DescriptorSegment dseg_;
  Processor cpu_;
  std::vector<std::unique_ptr<PageTable>> tables_;
  FrameIndex next_frame_ = 0;
};

TEST_F(ProcessorTest, ReadWriteRoundTrip) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  ASSERT_EQ(cpu_.Write(10, 1500, 0xDEADBEEF), Status::kOk);
  auto r = cpu_.Read(10, 1500);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0xDEADBEEFu);
}

TEST_F(ProcessorTest, WriteDeniedWithoutWBit) {
  InstallSegment(10, 1, UserBrackets(), true, false, false);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kAccessDenied);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
}

TEST_F(ProcessorTest, ReadDeniedWithoutRBit) {
  InstallSegment(10, 1, UserBrackets(), false, true, false);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kAccessDenied);
}

TEST_F(ProcessorTest, RingBracketsOverridePermissionBits) {
  // Writable segment, but write bracket is ring 0 and we run in ring 4.
  InstallSegment(10, 1, RingBrackets{0, 4, 4}, true, true, false);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kRingViolation);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
}

TEST_F(ProcessorTest, OutOfBoundsReference) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  EXPECT_EQ(cpu_.Read(10, 2 * kPageWords).status(), Status::kOutOfRange);
  EXPECT_EQ(cpu_.Read(kMaxSegments + 5, 0).status(), Status::kNoSuchSegment);
}

TEST_F(ProcessorTest, InvalidSdwFaultsToSink) {
  class Activator : public FaultSink {
   public:
    explicit Activator(ProcessorTest* t) : test_(t) {}
    Status HandleSegmentFault(SegNo segno) override {
      ++count;
      test_->InstallSegment(segno, 1, UserBrackets(), true, true, false);
      return Status::kOk;
    }
    Status HandlePageFault(SegNo, PageNo, AccessMode) override { return Status::kInternal; }
    ProcessorTest* test_;
    int count = 0;
  };
  Activator sink(this);
  cpu_.SetFaultSink(&sink);
  EXPECT_EQ(cpu_.Write(33, 5, 7), Status::kOk);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.segment_faults(), 1u);
  // Second reference takes no fault.
  EXPECT_TRUE(cpu_.Read(33, 5).ok());
  EXPECT_EQ(sink.count, 1);
}

TEST_F(ProcessorTest, MissingPageFaultsToSink) {
  InstallSegment(10, 1, UserBrackets(), true, true, false);
  tables_.back()->entries[0].present = false;
  class Pager : public FaultSink {
   public:
    explicit Pager(PageTable* table, FrameIndex frame) : table_(table), frame_(frame) {}
    Status HandleSegmentFault(SegNo) override { return Status::kNoSuchSegment; }
    Status HandlePageFault(SegNo, PageNo page, AccessMode) override {
      ++count;
      table_->entries[page].present = true;
      table_->entries[page].frame = frame_;
      return Status::kOk;
    }
    PageTable* table_;
    FrameIndex frame_;
    int count = 0;
  };
  Pager sink(tables_.back().get(), 99);
  cpu_.SetFaultSink(&sink);
  EXPECT_EQ(cpu_.Write(10, 3, 11), Status::kOk);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.page_faults(), 1u);
  EXPECT_EQ(machine_.core().ReadWord(99, 3), 11u);
}

TEST_F(ProcessorTest, UsedAndModifiedBitsMaintained) {
  InstallSegment(10, 1, UserBrackets(), true, true, false);
  PageTable* table = tables_.back().get();
  EXPECT_FALSE(table->entries[0].used);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  EXPECT_TRUE(table->entries[0].used);
  EXPECT_FALSE(table->entries[0].modified);
  EXPECT_EQ(cpu_.Write(10, 0, 1), Status::kOk);
  EXPECT_TRUE(table->entries[0].modified);
}

TEST_F(ProcessorTest, WalkCacheSeesPermissionRevocation) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  // Warm the per-mode walk caches with a successful write and read.
  ASSERT_EQ(cpu_.Write(10, 0, 1), Status::kOk);
  ASSERT_TRUE(cpu_.Read(10, 0).ok());
  // Narrow the SDW in place (the revocation path): the epoch bump must evict
  // the cached walk immediately — a cached translation may never outlive the
  // permissions it was validated under.
  dseg_.GetMutable(10)->write = false;
  EXPECT_EQ(cpu_.Write(10, 0, 2), Status::kAccessDenied);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());  // Read stays legal.
  // Full revocation: the cached read walk must not survive Clear() either.
  dseg_.Clear(10);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kNoSuchSegment);
}

TEST_F(ProcessorTest, WalkCacheSeesPageEviction) {
  InstallSegment(10, 2, UserBrackets(), true, true, false);
  PageTable* table = tables_.back().get();
  ASSERT_TRUE(cpu_.Read(10, 0).ok());  // Warm the cache.
  // Evict the page underneath the cached walk. PTE state is re-read on every
  // reference, so the next read takes the page-fault path, not a stale frame.
  table->entries[0].present = false;
  class Pager : public FaultSink {
   public:
    explicit Pager(PageTable* table) : table_(table) {}
    Status HandleSegmentFault(SegNo) override { return Status::kNoSuchSegment; }
    Status HandlePageFault(SegNo, PageNo page, AccessMode) override {
      ++count;
      table_->entries[page].present = true;
      return Status::kOk;
    }
    PageTable* table_;
    int count = 0;
  };
  Pager sink(table);
  cpu_.SetFaultSink(&sink);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(cpu_.page_faults(), 1u);
}

TEST_F(ProcessorTest, WalkCacheIsPerRing) {
  // Readable only from ring 1 and below; the cached ring-4 denial state must
  // not leak a ring-1 success into ring 4 or vice versa.
  InstallSegment(10, 1, RingBrackets{0, 1, 1}, true, false, false);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kRingViolation);
  cpu_.SetRing(1);
  EXPECT_TRUE(cpu_.Read(10, 0).ok());
  cpu_.SetRing(kRingUser);
  EXPECT_EQ(cpu_.Read(10, 0).status(), Status::kRingViolation);
}

TEST_F(ProcessorTest, IntraRingCallKeepsRing) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
  EXPECT_EQ(cpu_.intra_ring_calls(), 1u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, GateCallSwitchesRingAndReturnRestores) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, /*gate=*/true,
                 /*gate_entries=*/4);
  ASSERT_EQ(cpu_.Call(20, 2), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  EXPECT_EQ(cpu_.cross_ring_calls(), 1u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, CallAboveGateEntriesRejected) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);
  EXPECT_EQ(cpu_.Call(20, 4), Status::kNotAGate);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, CallToNonGateInnerSegmentRejected) {
  // Brackets admit ring-4 callers, but the segment is not flagged as a gate.
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, /*gate=*/false);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kNotAGate);
}

TEST_F(ProcessorTest, CallCompletelyOutsideBracketsIsRingViolation) {
  InstallSegment(20, 1, KernelPrivateBrackets(), false, false, true);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
}

TEST_F(ProcessorTest, CallBeyondGateLimitRejected) {
  InstallSegment(20, 1, KernelGateBrackets(/*callers=*/2), false, false, true, true, 4);
  cpu_.SetRing(4);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
}

TEST_F(ProcessorTest, ReturnWithoutCallFails) {
  EXPECT_EQ(cpu_.Return(), Status::kFailedPrecondition);
}

TEST_F(ProcessorTest, CallDepthIsBounded) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  for (uint32_t i = 0; i < Processor::kMaxCallDepth; ++i) {
    ASSERT_EQ(cpu_.Call(20, 0), Status::kOk) << i;
  }
  EXPECT_EQ(cpu_.Call(20, 0), Status::kResourceExhausted);
  // Unwinding restores service.
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kOk);
}

TEST_F(ProcessorTest, NestedCallsUnwindCorrectly) {
  InstallSegment(20, 1, KernelGateBrackets(kRingUser), false, false, true, true, 8);
  InstallSegment(21, 1, KernelPrivateBrackets(), true, false, true);
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);  // 4 -> 0 through gate.
  ASSERT_EQ(cpu_.Call(21, 0), Status::kOk);  // 0 -> 0 intra-ring.
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  EXPECT_EQ(cpu_.call_depth(), 2u);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingKernel);
  ASSERT_EQ(cpu_.Return(), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

TEST_F(ProcessorTest, HardwareCrossRingCallCostsSameAsIntraRing) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  InstallSegment(21, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);

  Cycles before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  Cycles intra = machine_.clock().now() - before;
  ASSERT_EQ(cpu_.Return(), Status::kOk);

  before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(21, 0), Status::kOk);
  Cycles cross = machine_.clock().now() - before;
  EXPECT_EQ(cross, intra);  // The paper's 6180 claim, literally.
}

TEST_F(ProcessorTest, SoftwareCrossRingCallCostsMuchMore) {
  machine_.set_ring_mode(RingMode::kSoftware645);
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  InstallSegment(21, 1, KernelGateBrackets(kRingUser), false, false, true, true, 4);

  Cycles before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(20, 0), Status::kOk);
  Cycles intra = machine_.clock().now() - before;
  ASSERT_EQ(cpu_.Return(), Status::kOk);

  before = machine_.clock().now();
  ASSERT_EQ(cpu_.Call(21, 0, /*arg_words=*/8), Status::kOk);
  Cycles cross = machine_.clock().now() - before;
  EXPECT_GT(cross, 10 * intra);  // The 645 penalty that shaped the old supervisor.
}

TEST_F(ProcessorTest, OutwardCallFaultsByDefault) {
  InstallSegment(20, 1, UserBrackets(), true, false, true);
  cpu_.SetRing(1);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kRingViolation);
  cpu_.set_allow_outward_calls(true);
  EXPECT_EQ(cpu_.Call(20, 0), Status::kOk);
  EXPECT_EQ(cpu_.ring(), kRingUser);
}

// --- Core memory -------------------------------------------------------------

// --- Two-level descriptor segment ---------------------------------------------

SegmentDescriptor ReadableSdw(uint64_t uid) {
  SegmentDescriptor sdw;
  sdw.valid = true;
  sdw.brackets = UserBrackets();
  sdw.read = true;
  sdw.uid = uid;
  return sdw;
}

TEST(DescriptorSegmentTest, AbsentPageReadsInvalid) {
  DsegEpochs epochs;
  DescriptorSegment dseg(&epochs);
  EXPECT_EQ(dseg.pages_allocated(), 0u);
  for (SegNo segno : {SegNo{0}, SegNo{63}, SegNo{64}, SegNo{kMaxSegments - 1}}) {
    EXPECT_FALSE(dseg.Get(segno).valid);
  }
  dseg.Set(70, ReadableSdw(7));
  EXPECT_EQ(dseg.pages_allocated(), 1u);
  EXPECT_TRUE(dseg.Get(70).valid);
  EXPECT_FALSE(dseg.Get(71).valid);   // Same page, never set.
  EXPECT_FALSE(dseg.Get(200).valid);  // Page still absent.
  EXPECT_FALSE(dseg.Get(kMaxSegments).valid);
  EXPECT_EQ(dseg.GetMutable(kMaxSegments), nullptr);
}

TEST(DescriptorSegmentTest, ClearOnAbsentPageAllocatesNothing) {
  DsegEpochs epochs;
  DescriptorSegment dseg(&epochs);
  dseg.Clear(5);
  dseg.Clear(4000);
  EXPECT_EQ(dseg.pages_allocated(), 0u);
  EXPECT_EQ(dseg.CountValid(), 0u);
}

TEST(DescriptorSegmentTest, CopyIsDeepAndIndependent) {
  DsegEpochs epochs;
  DescriptorSegment source(&epochs);
  source.Set(10, ReadableSdw(1));
  source.Set(3000, ReadableSdw(2));
  DescriptorSegment copy(source);
  EXPECT_NE(copy.epoch(), source.epoch());
  EXPECT_EQ(copy.CountValid(), 2u);
  EXPECT_EQ(copy.Get(3000).uid, 2u);

  copy.GetMutable(10)->read = false;
  copy.Clear(3000);
  copy.Set(500, ReadableSdw(3));
  EXPECT_TRUE(source.Get(10).read);
  EXPECT_TRUE(source.Get(3000).valid);
  EXPECT_FALSE(source.Get(500).valid);
  EXPECT_EQ(source.pages_allocated(), 2u);

  source.Set(11, ReadableSdw(4));
  EXPECT_FALSE(copy.Get(11).valid);
}

TEST(DescriptorSegmentTest, EveryMutatorBumpsTheEpoch) {
  DsegEpochs epochs;
  DescriptorSegment dseg(&epochs);
  uint64_t last = dseg.epoch();
  auto bumped = [&] {
    const bool newer = dseg.epoch() > last;
    last = dseg.epoch();
    return newer;
  };
  dseg.Set(9, ReadableSdw(1));
  EXPECT_TRUE(bumped());
  ASSERT_NE(dseg.GetMutable(9), nullptr);
  EXPECT_TRUE(bumped());
  ASSERT_NE(dseg.GetMutable(1000), nullptr);  // Allocates its page.
  EXPECT_TRUE(bumped());
  dseg.Clear(9);
  EXPECT_TRUE(bumped());
  dseg.Clear(2000);  // Absent page: nothing to clear, still a new epoch.
  EXPECT_TRUE(bumped());
}

TEST(DescriptorSegmentTest, ForEachValidMatchesDenseScan) {
  DsegEpochs epochs;
  DescriptorSegment dseg(&epochs);
  // Out of order, spanning first/last pages, with an invalid SDW set on an
  // allocated page and a cleared entry.
  for (SegNo segno : {SegNo{4095}, SegNo{0}, SegNo{130}, SegNo{64}, SegNo{63}, SegNo{2048}}) {
    dseg.Set(segno, ReadableSdw(segno + 1));
  }
  SegmentDescriptor invalid = ReadableSdw(99);
  invalid.valid = false;
  dseg.Set(131, invalid);
  dseg.Clear(2048);

  std::vector<std::pair<SegNo, uint64_t>> dense;
  for (SegNo segno = 0; segno < kMaxSegments; ++segno) {
    if (dseg.Get(segno).valid) dense.emplace_back(segno, dseg.Get(segno).uid);
  }
  std::vector<std::pair<SegNo, uint64_t>> visited;
  dseg.ForEachValid(
      [&](SegNo segno, const SegmentDescriptor& sdw) { visited.emplace_back(segno, sdw.uid); });
  EXPECT_EQ(visited, dense);
  EXPECT_EQ(dseg.CountValid(), dense.size());
  EXPECT_EQ(dense.size(), 5u);
}

TEST(DescriptorSegmentTest, CachedWalkIsNeverServedToANewDsegAtTheSameAddress) {
  Machine machine(MachineConfig{});
  Processor cpu(&machine);
  cpu.SetRing(kRingUser);
  PageTable table(1);
  table.entries[0].present = true;
  SegmentDescriptor sdw = ReadableSdw(1);
  sdw.page_table = &table;
  sdw.length_pages = 1;

  std::optional<DescriptorSegment> slot;
  slot.emplace(&machine.dseg_epochs());
  const DescriptorSegment* first = &*slot;
  slot->Set(10, sdw);
  cpu.AttachAddressSpace(&*slot);
  ASSERT_TRUE(cpu.Read(10, 0).ok());  // Warms the read walk cache.

  // Destroy it and build a fresh, empty one in the same storage. Its epoch
  // comes from the same machine counter, so it can never equal the cached one.
  slot.reset();
  slot.emplace(&machine.dseg_epochs());
  ASSERT_EQ(&*slot, first);
  cpu.AttachAddressSpace(&*slot);
  EXPECT_EQ(cpu.Read(10, 0).status(), Status::kNoSuchSegment);
  EXPECT_EQ(cpu.segment_faults(), 1u);
}

TEST(DescriptorSegmentTest, MachinesHaveIndependentEpochStreams) {
  Machine a(MachineConfig{});
  Machine b(MachineConfig{});
  DescriptorSegment on_b(&b.dseg_epochs());
  const uint64_t b_start = on_b.epoch();
  DescriptorSegment on_a(&a.dseg_epochs());
  EXPECT_EQ(on_a.epoch(), b_start);  // Both are the first stamp of their own stream.
  for (SegNo segno = 0; segno < 100; ++segno) {
    on_a.Set(segno, ReadableSdw(segno));
  }
  // a's hundred mutations drew nothing from b's stream.
  on_b.Set(1, ReadableSdw(1));
  EXPECT_EQ(on_b.epoch(), b_start + 1);
  EXPECT_EQ(b.dseg_epochs().Next(), b_start + 2);
}

TEST(DescriptorSegmentDeathTest, ProcessorRefusesAForeignMachinesDseg) {
  Machine a(MachineConfig{});
  Machine b(MachineConfig{});
  Processor cpu(&a);
  DescriptorSegment foreign(&b.dseg_epochs());
  EXPECT_DEATH(cpu.AttachAddressSpace(&foreign), "another machine");
}

TEST(CoreMemoryTest, PageTransferRoundTrip) {
  CoreMemory core(4);
  std::vector<Word> page(kPageWords);
  for (uint32_t i = 0; i < kPageWords; ++i) {
    page[i] = i * 3;
  }
  core.WritePage(2, page);
  std::vector<Word> out;
  core.ReadPage(2, out);
  EXPECT_EQ(out, page);
  core.ZeroPage(2);
  EXPECT_EQ(core.ReadWord(2, 100), 0u);
}

// --- Interrupt controller ----------------------------------------------------

TEST(InterruptTest, FifoDispatch) {
  InterruptController ic(8);
  ASSERT_EQ(ic.Assert(3, 111), Status::kOk);
  ASSERT_EQ(ic.Assert(5, 222), Status::kOk);
  InterruptEvent ev;
  ASSERT_TRUE(ic.TakePending(&ev));
  EXPECT_EQ(ev.line, 3u);
  EXPECT_EQ(ev.payload, 111u);
  ASSERT_TRUE(ic.TakePending(&ev));
  EXPECT_EQ(ev.line, 5u);
  EXPECT_FALSE(ic.TakePending(&ev));
}

TEST(InterruptTest, MaskingDefersDispatch) {
  InterruptController ic(8);
  ic.SetMasked(true);
  ASSERT_EQ(ic.Assert(1), Status::kOk);
  InterruptEvent ev;
  EXPECT_FALSE(ic.TakePending(&ev));
  ic.SetMasked(false);
  EXPECT_TRUE(ic.TakePending(&ev));
}

TEST(InterruptTest, BadLineRejected) {
  InterruptController ic(4);
  EXPECT_EQ(ic.Assert(4), Status::kInvalidArgument);
}

TEST(InterruptTest, AssertHookFires) {
  InterruptController ic(4);
  int hooks = 0;
  ic.SetAssertHook([&] { ++hooks; });
  ASSERT_EQ(ic.Assert(0), Status::kOk);
  EXPECT_EQ(hooks, 1);
  ic.SetMasked(true);
  ASSERT_EQ(ic.Assert(0), Status::kOk);
  EXPECT_EQ(hooks, 1);  // Masked asserts do not hook.
}

}  // namespace
}  // namespace multics
