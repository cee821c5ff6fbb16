// The flight recorder: a bounded ring buffer of structured trace events.
//
// Historical Multics shipped a pervasive metering facility so the "review"
// activity could see what the supervisor actually did; the separation-kernel
// literature treats a complete, auditable record of kernel events as the
// evidence base for any security argument. This is that record for the
// simulation: every interesting kernel event (gate call, ring crossing,
// fault, page move, daemon wakeup, IPC notify, packet) lands here, stamped
// with the deterministic sim clock, so two same-seed runs produce
// byte-identical traces.
//
// Events carry a SpanId, a row of the name census (span_census.h), so
// recording an event is a handful of stores and the recorder never allocates
// after construction (the ring's storage is reserved up front and filled on
// demand); the name is spelt only when a trace is exported.

#ifndef SRC_METER_TRACE_H_
#define SRC_METER_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/clock.h"
#include "src/meter/span_census.h"

namespace multics {

enum class TraceEventKind : uint8_t {
  kGateEnter,       // Supervisor gate call entered (name = gate name).
  kGateExit,        // ... and returned (arg = cycles spent inside).
  kRingCrossing,    // Processor changed rings (arg = destination ring).
  kFaultTaken,      // Segment or page fault delivered to the supervisor.
  kPageFetch,       // Page brought into core (zero-fill / bulk / disk).
  kPageEvictStart,  // Eviction of a core frame initiated.
  kPageEvictDone,   // ... and committed (frame back on the free list).
  kPageReclaim,     // Fault cancelled an in-flight eviction and kept the frame.
  kCascade,         // Fault path had to touch all three hierarchy levels.
  kDaemonWakeup,    // Free-core / free-bulk daemon scheduled.
  kIpcWakeup,       // Event-channel wakeup delivered.
  kIpcBlock,        // Process blocked on an event channel.
  kDispatch,        // Traffic controller dispatched a process (arg = pid).
  kInterrupt,       // Interrupt taken by the dispatcher (arg = line).
  kPacketIn,        // Network message arrived from the remote end.
  kPacketOut,       // Network message sent by the local end.
  kSpanBegin,       // TraceSpan opened (nested durations).
  kSpanEnd,         // TraceSpan closed (arg = cycles spanned).
};

inline constexpr size_t kTraceEventKindCount = static_cast<size_t>(TraceEventKind::kSpanEnd) + 1;

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  Cycles time = 0;
  TraceEventKind kind = TraceEventKind::kSpanBegin;
  uint32_t depth = 0;   // Causal span depth of the current context when recorded.
  SpanId name{};        // Spelt by SpanName() on export.
  uint64_t arg = 0;     // Event-specific payload (segno, pid, cycles, ...).
  // Causal attribution, filled in by the Meter at record time:
  uint64_t pid = 0;     // Process the cycles are attributed to (0 = kernel).
  uint64_t span = 0;    // Begin/end: this span's id. Instants: enclosing span id.
  uint64_t parent = 0;  // Begin/end: enclosing span's id (0 = context root).
  uint32_t cpu = 0;     // Physical CPU lane the event was recorded on.
};

class FlightRecorder {
 public:
  // Reserves room for `capacity` events without touching it: the ring costs
  // host memory only as events arrive, so a kernel that records a handful of
  // events never pays for the whole ring.
  explicit FlightRecorder(size_t capacity);

  // Inline: every span open/close and event lands here — a couple million
  // times per benchmark run — so the ring write must not cost a call. Until
  // the ring is full it appends; from then on it overwrites the oldest event
  // in place.
  void Push(const TraceEvent& event) {
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[oldest_] = event;
      if (++oldest_ == capacity_) {
        oldest_ = 0;
      }
    }
    ++total_;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  // Lifetime totals: events ever recorded, and how many the wrap discarded.
  uint64_t total_recorded() const { return total_; }
  uint64_t dropped() const { return total_ - ring_.size(); }

  // i-th oldest retained event, 0 <= i < size().
  const TraceEvent& at(size_t i) const;

  // The retained events in chronological order.
  std::vector<TraceEvent> Snapshot() const;

  void Clear();

 private:
  size_t capacity_;
  std::vector<TraceEvent> ring_;  // Grows to capacity_, then wraps.
  size_t oldest_ = 0;             // Oldest retained event once full (0 before).
  uint64_t total_ = 0;
};

}  // namespace multics

#endif  // SRC_METER_TRACE_H_
