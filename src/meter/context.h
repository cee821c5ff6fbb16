// Causal trace contexts: the per-process half of the span profiler.
//
// A TraceContext is a process's open-span stack. The Meter always has one
// current context (the kernel root until someone installs another); the
// traffic controller switches it on dispatch, so a span a task leaves open
// across a block/wakeup keeps accumulating children only from its own
// process — a span opened in process A never adopts process B's children.
//
// Orthogonal to the context tree is the *attribution* (pid, ring): which
// process and ring the cycles recorded right now should be charged to. A
// gate call made directly by a user process switches attribution to the
// caller (and to ring 0, where the gate body runs) without re-rooting the
// causal stack, so the gate span still nests under whatever span the caller
// was in while its cycles are charged to the calling process.

#ifndef SRC_METER_CONTEXT_H_
#define SRC_METER_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "src/base/clock.h"
#include "src/meter/span_census.h"

namespace multics {

// Who the cycles being recorded right now belong to.
struct Attribution {
  uint64_t pid = 0;  // 0 = the kernel itself (boot, daemons, bench mains).
  uint8_t ring = 0;
};

// One open span on a context's stack.
struct SpanFrame {
  uint64_t id = 0;
  uint64_t parent = 0;      // Enclosing span's id at open time (0 = root).
  SpanId name{};
  Cycles start = 0;
  Cycles child_cycles = 0;  // Total cycles of already-closed direct children.
  uint64_t pid = 0;         // Attribution captured at open.
  uint8_t ring = 0;
  uint32_t path_id = 0;     // Interned call path (Meter), captured at open;
                            // valid at close because the frames below this
                            // one cannot change while it is on the stack.
};

// A process's causal span stack. Owned by the Process (or by the Meter for
// the kernel root); the Meter only ever holds a pointer to the current one.
struct TraceContext {
  TraceContext() = default;
  TraceContext(uint64_t pid_in, uint8_t ring_in) : pid(pid_in), ring(ring_in) {}

  uint64_t pid = 0;
  uint8_t ring = 0;
  std::vector<SpanFrame> stack;
};

}  // namespace multics

#endif  // SRC_METER_CONTEXT_H_
