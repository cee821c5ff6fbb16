// Unit tests for src/base: Status/Result, RNG determinism, event queue
// ordering and cancellation, statistics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_queue.h"
#include "src/base/random.h"
#include "src/base/result.h"
#include "src/base/stats.h"
#include "src/base/status.h"

namespace multics {
namespace {

TEST(StatusTest, NamesAreStable) {
  EXPECT_EQ(StatusName(Status::kOk), "OK");
  EXPECT_EQ(StatusName(Status::kAccessDenied), "ACCESS_DENIED");
  EXPECT_EQ(StatusName(Status::kRingViolation), "RING_VIOLATION");
  EXPECT_EQ(StatusName(Status::kMlsWriteViolation), "MLS_WRITE_VIOLATION");
  EXPECT_EQ(StatusName(Status::kBadObjectFormat), "BAD_OBJECT_FORMAT");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.status(), Status::kOk);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::kNotFound;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  MX_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(Status::kOutOfRange).status(), Status::kOutOfRange);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  uint64_t low = 0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.NextZipf(100, 1.2) < 10) {
      ++low;
    }
  }
  // The first 10 of 100 ranks should receive well over half the mass.
  EXPECT_GT(low, kSamples / 2);
}

TEST(RngTest, BoolProbabilityEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(EventQueueTest, DispatchesInTimeOrder) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAfter(30, [&] { order.push_back(3); });
  q.ScheduleAfter(10, [&] { order.push_back(1); });
  q.ScheduleAfter(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(EventQueueTest, SameTimeIsFifo) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAfter(10, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsDispatch) {
  SimClock clock;
  EventQueue q(&clock);
  bool ran = false;
  uint64_t id = q.ScheduleAfter(5, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  q.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelOfDispatchedOrCancelledIdReturnsFalse) {
  SimClock clock;
  EventQueue q(&clock);
  uint64_t ran_id = q.ScheduleAfter(5, [] {});
  uint64_t cancelled_id = q.ScheduleAfter(6, [] {});
  EXPECT_TRUE(q.Cancel(cancelled_id));
  EXPECT_FALSE(q.Cancel(cancelled_id));  // Second cancel: already cancelled.
  q.RunUntilIdle();
  EXPECT_FALSE(q.Cancel(ran_id));  // Already dispatched.
  EXPECT_FALSE(q.Cancel(0));       // Never a valid id.
  EXPECT_TRUE(q.empty());
}

// Regression for the unbounded-`cancelled_` design this queue replaced: a
// schedule/cancel storm of 100k events must leave pending()==0, dispatch
// nothing, and hold memory bounded — slots recycle through the freelist and
// heap tombstones are pruned, so neither the slab nor the heap grows with
// the number of cancellations.
TEST(EventQueueTest, HundredThousandCancelsStayBounded) {
  SimClock clock;
  EventQueue q(&clock);
  int ran = 0;

  // Interleaved: each cancel recycles the slot the next schedule reuses.
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(q.Cancel(q.ScheduleAfter(10, [&] { ++ran; })));
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_LE(q.slab_slots(), 64u);  // One block, recycled 100k times.
  EXPECT_LE(q.heap_slots(), 64u);  // Tombstones pruned as they accumulate.

  // Bulk: 100k live at once, then all cancelled. The slab must not exceed
  // the peak live population and a fresh wave must reuse it, not extend it.
  std::vector<uint64_t> ids;
  ids.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    ids.push_back(q.ScheduleAfter(10 + i, [&] { ++ran; }));
  }
  const size_t peak_slab = q.slab_slots();
  for (uint64_t id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_LE(q.heap_slots(), 100000u);
  EXPECT_EQ(q.RunUntilIdle(), 0u);
  EXPECT_EQ(ran, 0);

  ids.clear();
  for (int i = 0; i < 100000; ++i) {
    ids.push_back(q.ScheduleAfter(10 + i, [&] { ++ran; }));
  }
  EXPECT_EQ(q.slab_slots(), peak_slab);  // Recycled, not regrown.
  for (uint64_t id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, BatchScopeKeepsDispatchOrder) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  {
    EventQueue::BatchScope batch(&q);
    q.ScheduleAfter(30, [&] { order.push_back(3); });
    q.ScheduleAfter(10, [&] { order.push_back(1); });
    q.ScheduleAfter(10, [&] { order.push_back(2); });  // FIFO at equal time.
    q.ScheduleAfter(40, [&] { order.push_back(4); });
  }
  q.ScheduleAfter(20, [&] { order.push_back(0); });  // Post-batch insert mixes in.
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4}));
  EXPECT_EQ(clock.now(), 40u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  SimClock clock;
  EventQueue q(&clock);
  int count = 0;
  q.ScheduleAfter(10, [&] { ++count; });
  q.ScheduleAfter(20, [&] { ++count; });
  q.ScheduleAfter(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(clock.now(), 20u);
  q.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  SimClock clock;
  EventQueue q(&clock);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(10, chain);
    }
  };
  q.ScheduleAfter(10, chain);
  q.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(clock.now(), 50u);
}

TEST(DistributionTest, BasicMoments) {
  Distribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    d.Add(x);
  }
  EXPECT_EQ(d.count(), 5u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);
  EXPECT_NEAR(d.stddev(), 1.5811, 1e-3);
}

TEST(DistributionTest, Percentiles) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.Add(i);
  }
  EXPECT_DOUBLE_EQ(d.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(d.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(d.Percentile(0.0), 1.0);
}

}  // namespace
}  // namespace multics
