// Interrupt controller. Devices assert numbered lines; the kernel's interrupt
// interceptor decides what a dispatch means (the paper contrasts running the
// handler inline in whatever process happened to be executing with turning
// each interrupt into a wakeup of a dedicated handler process — both
// strategies are built in src/proc/interrupt_strategy.h on top of this).

#ifndef SRC_HW_INTERRUPT_H_
#define SRC_HW_INTERRUPT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/hw/injection.h"

namespace multics {

using InterruptLine = uint32_t;

struct InterruptEvent {
  InterruptLine line = 0;
  uint64_t payload = 0;      // Device-specific (e.g. channel status word).
  uint64_t asserted_at = 0;  // Clock time of the Assert, for latency metrics.
};

class InterruptController {
 public:
  explicit InterruptController(uint32_t lines) : line_count_(lines) {}

  // Clock source for stamping asserted_at; optional.
  void AttachClock(const SimClock* clock) { clock_ = clock; }

  uint32_t line_count() const { return line_count_; }

  // Device side: raise an interrupt. Queued FIFO until dispatched.
  Status Assert(InterruptLine line, uint64_t payload = 0);

  // CPU side: take the oldest pending interrupt, if any.
  bool Pending() const { return !pending_.empty(); }
  bool TakePending(InterruptEvent* out);

  // Masking: asserted-while-masked interrupts stay queued.
  void SetMasked(bool masked) { masked_ = masked; }
  bool masked() const { return masked_; }

  // Notification hook: invoked on every Assert while unmasked, so the
  // simulation loop can react promptly. May be empty.
  void SetAssertHook(std::function<void()> hook) { assert_hook_ = std::move(hook); }

  // Fault injection (wired by Machine::SetInjector): a kInterruptAssert
  // fault swallows the Assert — the event is never queued, modelling a lost
  // interrupt. Dropped asserts are counted but otherwise silent, exactly as
  // real hardware loses them; recovery is the device driver's business.
  void SetInjector(FaultInjector* injector) { injector_ = injector; }

  uint64_t total_asserted() const { return total_asserted_; }
  uint64_t total_dispatched() const { return total_dispatched_; }
  uint64_t total_dropped() const { return total_dropped_; }

  // Queue, mask and totals, saved and restored with the kernel; the clock,
  // hook and injector are wiring.
  struct State {
    bool masked = false;
    std::deque<InterruptEvent> pending;
    uint64_t total_asserted = 0;
    uint64_t total_dispatched = 0;
    uint64_t total_dropped = 0;
  };
  State SaveState() const {
    return State{.masked = masked_,
                 .pending = pending_,
                 .total_asserted = total_asserted_,
                 .total_dispatched = total_dispatched_,
                 .total_dropped = total_dropped_};
  }
  void RestoreState(const State& state) {
    masked_ = state.masked;
    pending_ = state.pending;
    total_asserted_ = state.total_asserted;
    total_dispatched_ = state.total_dispatched;
    total_dropped_ = state.total_dropped;
  }

 private:
  uint32_t line_count_;
  const SimClock* clock_ = nullptr;
  bool masked_ = false;
  std::deque<InterruptEvent> pending_;
  std::function<void()> assert_hook_;
  FaultInjector* injector_ = nullptr;
  uint64_t total_asserted_ = 0;
  uint64_t total_dispatched_ = 0;
  uint64_t total_dropped_ = 0;
};

}  // namespace multics

#endif  // SRC_HW_INTERRUPT_H_
