#include "src/meter/trace.h"

#include "src/base/log.h"

namespace multics {

namespace {

const char* kKindNames[kTraceEventKindCount] = {
    "gate_enter",     "gate_exit",   "ring_crossing", "fault_taken", "page_fetch",
    "page_evict_start", "page_evict_done", "page_reclaim", "cascade",     "daemon_wakeup",
    "ipc_wakeup",     "ipc_block",   "dispatch",      "interrupt",   "packet_in",
    "packet_out",     "span_begin",  "span_end",
};

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

const TraceEvent& FlightRecorder::at(size_t i) const {
  CHECK(i < ring_.size());
  // Before the first wrap oldest_ is 0; after it, the oldest event sits at
  // the next overwrite position.
  const size_t slot = oldest_ + i;
  return ring_[slot < ring_.size() ? slot : slot - ring_.size()];
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  events.insert(events.end(), ring_.begin() + static_cast<std::ptrdiff_t>(oldest_), ring_.end());
  events.insert(events.end(), ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(oldest_));
  return events;
}

void FlightRecorder::Clear() {
  ring_.clear();  // Keeps the reservation.
  oldest_ = 0;
  total_ = 0;
}

}  // namespace multics
