// The metering subsystem: flight-recorder ring semantics, span nesting,
// the disabled fast path, export well-formedness, and the two invariants
// the rest of the repo leans on — same-seed runs produce byte-identical
// traces, and turning the meter off cannot change any measured cycle count.

#include <gtest/gtest.h>

#include <string>

#include "src/init/bootstrap.h"
#include "src/meter/export.h"
#include "src/meter/meter.h"
#include "src/userring/initiator.h"

namespace multics {
namespace {

TEST(FlightRecorderTest, KeepsEverythingBeforeWrap) {
  SimClock clock;
  FlightRecorder recorder(/*capacity=*/8);
  for (uint64_t i = 0; i < 5; ++i) {
    clock.Advance(10);
    recorder.Push(TraceEvent{clock.now(), TraceEventKind::kDispatch, 0, "d", i});
  }
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.size(), 5u);
  EXPECT_EQ(recorder.total_recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);
  for (size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(recorder.at(i).arg, i);
    EXPECT_EQ(recorder.at(i).time, (i + 1) * 10);
  }
}

TEST(FlightRecorderTest, WrapDropsOldestKeepsOrder) {
  SimClock clock;
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    clock.Advance(1);
    recorder.Push(TraceEvent{clock.now(), TraceEventKind::kDispatch, 0, "d", i});
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The survivors are the newest four, oldest-first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recorder.at(i).arg, 6 + i);
  }
  auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().arg, 6u);
  EXPECT_EQ(snapshot.back().arg, 9u);
}

TEST(FlightRecorderTest, CapacityIsTheConstructorArgument) {
  FlightRecorder recorder(/*capacity=*/65536);
  EXPECT_EQ(recorder.capacity(), 65536u);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, WrapOrderAndDroppedAcrossSeveralLaps) {
  FlightRecorder recorder(/*capacity=*/3);
  for (uint64_t i = 0; i < 11; ++i) {
    recorder.Push(TraceEvent{i, TraceEventKind::kDispatch, 0, "d", i});
    // Every prefix reads back as its newest min(i + 1, 3) events, oldest first.
    const size_t kept = i + 1 < 3 ? i + 1 : 3;
    ASSERT_EQ(recorder.size(), kept);
    EXPECT_EQ(recorder.dropped(), i + 1 - kept);
    auto snapshot = recorder.Snapshot();
    ASSERT_EQ(snapshot.size(), kept);
    for (size_t j = 0; j < kept; ++j) {
      EXPECT_EQ(recorder.at(j).arg, i + 1 - kept + j);
      EXPECT_EQ(snapshot[j].arg, recorder.at(j).arg);
    }
  }
  EXPECT_EQ(recorder.capacity(), 3u);
  EXPECT_EQ(recorder.total_recorded(), 11u);
  EXPECT_EQ(recorder.dropped(), 8u);
}

TEST(FlightRecorderTest, ClearThenRefill) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Push(TraceEvent{i, TraceEventKind::kDispatch, 0, "d", i});
  }
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.capacity(), 4u);
  for (uint64_t i = 100; i < 102; ++i) {
    recorder.Push(TraceEvent{i, TraceEventKind::kDispatch, 0, "d", i});
  }
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.at(0).arg, 100u);
  EXPECT_EQ(recorder.at(1).arg, 101u);
  for (uint64_t i = 102; i < 107; ++i) {
    recorder.Push(TraceEvent{i, TraceEventKind::kDispatch, 0, "d", i});
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 3u);
  auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(snapshot[j].arg, 103u + j);
  }
}

TEST(MeterTest, SpansNestAndPairUp) {
  SimClock clock;
  Meter meter(&clock, /*recorder_capacity=*/64);
  MeterId outer_dist = kInvalidMeterId;
  MeterId inner_dist = kInvalidMeterId;
  {
    TraceSpan outer(&meter, "outer", outer_dist);
    EXPECT_EQ(meter.span_depth(), 1u);
    clock.Advance(100);
    {
      TraceSpan inner(&meter, "inner", inner_dist);
      EXPECT_EQ(meter.span_depth(), 2u);
      clock.Advance(7);
    }
    EXPECT_EQ(meter.span_depth(), 1u);
  }
  EXPECT_EQ(meter.span_depth(), 0u);
  EXPECT_EQ(meter.events_of(TraceEventKind::kSpanBegin), 2u);
  EXPECT_EQ(meter.events_of(TraceEventKind::kSpanEnd), 2u);

  // outer begin (depth 1), inner begin (depth 2), inner end, outer end.
  ASSERT_EQ(meter.recorder().size(), 4u);
  EXPECT_EQ(meter.recorder().at(0).depth, 1u);
  EXPECT_EQ(meter.recorder().at(1).depth, 2u);
  EXPECT_EQ(meter.recorder().at(2).arg, 7u);    // inner elapsed
  EXPECT_EQ(meter.recorder().at(3).arg, 107u);  // outer elapsed

  const Distribution* inner_hist = meter.FindDistribution("inner");
  ASSERT_NE(inner_hist, nullptr);
  EXPECT_EQ(inner_hist->count(), 1u);
  EXPECT_EQ(inner_hist->max(), 7.0);
  // Each span interned its owner-held distribution id on its first close.
  EXPECT_EQ(outer_dist, meter.InternDistribution("outer"));
  EXPECT_EQ(inner_dist, meter.InternDistribution("inner"));
}

TEST(MeterTest, DisabledMeterRecordsNothing) {
  SimClock clock;
  Meter meter(&clock, /*recorder_capacity=*/64);
  meter.set_enabled(false);
  const MeterId c = meter.InternCounter("c");
  const MeterId d = meter.InternDistribution("d");
  MeterId s = kInvalidMeterId;
  meter.Count(c);
  meter.AddSample(d, 3.0);
  meter.Emit(TraceEventKind::kFaultTaken, "f");
  {
    TraceSpan span(&meter, "s", s);
    clock.Advance(5);
    EXPECT_EQ(meter.span_depth(), 0u);
  }
  EXPECT_EQ(s, kInvalidMeterId);  // A span that recorded nothing interns nothing.
  EXPECT_EQ(meter.recorder().total_recorded(), 0u);
  EXPECT_EQ(meter.counter("c"), 0u);
  EXPECT_EQ(meter.FindDistribution("d"), nullptr);
  EXPECT_EQ(meter.events_of(TraceEventKind::kFaultTaken), 0u);

  // Re-enabling resumes recording; nothing from the disabled window appears.
  meter.set_enabled(true);
  meter.Count(c, 2);
  EXPECT_EQ(meter.counter("c"), 2u);
  EXPECT_EQ(meter.CounterSnapshot().size(), 1u);
}

// Boots a kernel and runs a small but layered workload: gate calls, user-ring
// name resolution, paging traffic. Returns the machine so callers can read
// the meter/clock.
std::unique_ptr<Kernel> RunWorkload(bool meter_enabled) {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  params.machine.core_frames = 48;  // Small enough to force evictions.
  auto kernel = std::make_unique<Kernel>(params);
  kernel->machine().meter().set_enabled(meter_enabled);
  BootstrapOptions options;
  options.users = DefaultUsers();
  auto report = Bootstrap::Run(*kernel, options);
  CHECK(report.ok());
  auto user = kernel->BootstrapProcess(
      "jones", Principal{"Jones", "Faculty", "a"},
      MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  CHECK(user.ok());
  UserInitiator initiator(kernel.get(), user.value());
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  CHECK(home.ok());
  for (int i = 0; i < 8; ++i) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite | kModeExecute});
    const std::string name = std::string("w").append(std::to_string(i));
    auto uid = kernel->FsCreateSegment(*user.value(), home.value(), name, attrs);
    CHECK(uid.ok());
    auto init = kernel->Initiate(*user.value(), home.value(), name);
    CHECK(init.ok());
    CHECK(kernel->SegSetLength(*user.value(), init->segno, 2) == Status::kOk);
    CHECK(kernel->RunAs(*user.value()) == Status::kOk);
    for (WordOffset offset = 0; offset < 2 * kPageWords; offset += 211) {
      CHECK(kernel->cpu().Write(init->segno, offset, offset) == Status::kOk);
    }
  }
  return kernel;
}

TEST(MeterSystemTest, SameSeedRunsProduceIdenticalTraces) {
  auto a = RunWorkload(/*meter_enabled=*/true);
  auto b = RunWorkload(/*meter_enabled=*/true);
  const std::string trace_a = ChromeTraceJson(a->machine().meter());
  const std::string trace_b = ChromeTraceJson(b->machine().meter());
  EXPECT_GT(a->machine().meter().recorder().total_recorded(), 0u);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(MeterReport(a->machine().meter()), MeterReport(b->machine().meter()));
}

TEST(MeterSystemTest, DisablingTheMeterLeavesCycleCountsUnchanged) {
  auto metered = RunWorkload(/*meter_enabled=*/true);
  auto dark = RunWorkload(/*meter_enabled=*/false);
  // The meter is observational: the same workload lands on the exact same
  // cycle with it on or off, and all cycle-charge counters agree.
  EXPECT_EQ(metered->machine().clock().now(), dark->machine().clock().now());
  EXPECT_EQ(metered->machine().charges().Snapshot(), dark->machine().charges().Snapshot());
  EXPECT_GT(metered->machine().meter().recorder().total_recorded(), 0u);
  EXPECT_EQ(dark->machine().meter().recorder().total_recorded(), 0u);
}

TEST(MeterSystemTest, ChromeTraceJsonIsWellFormed) {
  auto kernel = RunWorkload(/*meter_enabled=*/true);
  const std::string json = ChromeTraceJson(kernel->machine().meter());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);

  // Braces and brackets balance and never go negative (no parser available,
  // but the exporter emits no strings containing braces).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);

  // Every gate enter has a matching exit in the trace.
  const Meter& meter = kernel->machine().meter();
  EXPECT_EQ(meter.events_of(TraceEventKind::kGateEnter),
            meter.events_of(TraceEventKind::kGateExit));
}

TEST(MeterTest, SpanDoesNotAdoptAnotherProcessesChildren) {
  SimClock clock;
  Meter meter(&clock, /*recorder_capacity=*/64);
  meter.LabelProcess(1, "proc_a");
  meter.LabelProcess(2, "proc_b");
  TraceContext a(1, 4);
  TraceContext b(2, 4);

  // Process A opens a span, then the dispatcher switches to B, which runs a
  // complete span of its own, then A resumes and runs a child of its own.
  TraceContext* before = meter.SetContext(&a);
  TraceContext* a_span = meter.OpenSpan("a_span", TraceEventKind::kSpanBegin);
  clock.Advance(10);
  meter.SetContext(&b);
  TraceContext* b_work = meter.OpenSpan("b_work", TraceEventKind::kSpanBegin);
  clock.Advance(7);
  meter.CloseSpan(b_work, TraceEventKind::kSpanEnd);
  meter.SetContext(&a);
  TraceContext* a_child = meter.OpenSpan("a_child", TraceEventKind::kSpanBegin);
  clock.Advance(5);
  meter.CloseSpan(a_child, TraceEventKind::kSpanEnd);
  meter.CloseSpan(a_span, TraceEventKind::kSpanEnd);
  meter.SetContext(before);

  const auto& profile = meter.profile();
  // B's span is a root of B's own tree: path has no a_span prefix, pid is B's.
  auto b_it = profile.find(ProfileKey{2, 4, "b_work"});
  ASSERT_NE(b_it, profile.end());
  EXPECT_EQ(b_it->second.total, 7u);
  EXPECT_EQ(b_it->second.self, 7u);
  // A's child folded under A's path.
  auto child_it = profile.find(ProfileKey{1, 4, "a_span;a_child"});
  ASSERT_NE(child_it, profile.end());
  EXPECT_EQ(child_it->second.total, 5u);
  // a_span spans 22 elapsed cycles, but only a_child (5) is its child —
  // B's 7 cycles were not adopted even though they fell inside A's window.
  auto a_it = profile.find(ProfileKey{1, 4, "a_span"});
  ASSERT_NE(a_it, profile.end());
  EXPECT_EQ(a_it->second.total, 22u);
  EXPECT_EQ(a_it->second.self, 17u);

  // The trace agrees: b_work's begin event has no parent span and B's pid.
  bool saw_b_begin = false;
  for (const TraceEvent& ev : meter.recorder().Snapshot()) {
    if (ev.kind == TraceEventKind::kSpanBegin && std::string(ev.name) == "b_work") {
      saw_b_begin = true;
      EXPECT_EQ(ev.parent, 0u);
      EXPECT_EQ(ev.pid, 2u);
    }
  }
  EXPECT_TRUE(saw_b_begin);
}

TEST(MeterSystemTest, FoldedProfileIsDeterministicAcrossSameSeedRuns) {
  auto a = RunWorkload(/*meter_enabled=*/true);
  auto b = RunWorkload(/*meter_enabled=*/true);
  const std::string folded_a = FoldedStackProfile(a->machine().meter());
  EXPECT_FALSE(folded_a.empty());
  EXPECT_GT(a->machine().meter().ProfileSelfTotal(), 0u);
  EXPECT_EQ(folded_a, FoldedStackProfile(b->machine().meter()));
}

TEST(MeterSystemTest, ProfileSelfPlusChildrenEqualsTotal) {
  auto kernel = RunWorkload(/*meter_enabled=*/true);
  const auto& profile = kernel->machine().meter().profile();
  ASSERT_FALSE(profile.empty());

  // Aggregate by path (across pids/rings: a gate span's frames carry the
  // caller's pid while its parent carries the kernel's).
  std::map<std::string, std::pair<Cycles, Cycles>> by_path;  // path -> {self, total}
  for (const auto& [key, entry] : profile) {
    EXPECT_LE(entry.self, entry.total);
    by_path[key.path].first += entry.self;
    by_path[key.path].second += entry.total;
  }
  Cycles self_sum = 0;
  Cycles root_total = 0;
  for (const auto& [path, st] : by_path) {
    // Each node's total is its own self plus its direct children's totals.
    Cycles child_total = 0;
    for (const auto& [other, other_st] : by_path) {
      if (other.size() > path.size() && other.compare(0, path.size(), path) == 0 &&
          other[path.size()] == ';' &&
          other.find(';', path.size() + 1) == std::string::npos) {
        child_total += other_st.second;
      }
    }
    EXPECT_EQ(st.second, st.first + child_total) << "at path " << path;
    self_sum += st.first;
    if (path.find(';') == std::string::npos) {
      root_total += st.second;
    }
  }
  // Every charged cycle inside any span is attributed to exactly one frame.
  EXPECT_EQ(self_sum, root_total);
}

TEST(MeterTest, ControlCharactersInNamesAreEscapedInChromeTrace) {
  SimClock clock;
  Meter meter(&clock, /*recorder_capacity=*/16);
  meter.LabelProcess(3, "bad\nlabel\x02");
  static const char kHostile[] = "evil\x01\x1fname\twith\"quote\\";
  meter.Emit(TraceEventKind::kDispatch, kHostile, 1);

  const std::string json = ChromeTraceJson(meter);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u0009"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  EXPECT_NE(json.find("\\\"quote\\\\"), std::string::npos);
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte in JSON";
  }
}

}  // namespace
}  // namespace multics
