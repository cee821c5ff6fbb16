// The simulated machine: clock, event queue, cost model, core memory,
// interrupt controller, the ring-implementation mode (hardware 6180 versus
// software-simulated 645), and — since the multiprocessor refactor — one to
// six Processors sharing the core.
//
// Time on the multiprocessor is modeled with per-CPU *local* clocks layered
// over the single global sim clock. Charging cycles advances the active
// CPU's local clock; the global clock is the monotone maximum of every local
// clock and every dispatched event time. On a 1-CPU machine `Charge` reduces
// to exactly the uniprocessor `clock().Advance(n)`, so the 1-CPU
// configuration is cycle-identical to the pre-refactor machine — a property
// pinned by tests/smp_test.cc. No real threads anywhere: CPUs are
// round-robin interleaved by the traffic controller on the one sim clock,
// so runs are bit-reproducible per seed + CPU count.

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <memory>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_queue.h"
#include "src/base/stats.h"
#include "src/hw/core_memory.h"
#include "src/hw/cost_model.h"
#include "src/hw/injection.h"
#include "src/hw/interrupt.h"
#include "src/hw/sdw.h"
#include "src/hw/sim_lock.h"
#include "src/meter/meter.h"

namespace multics {

class Processor;

// Which machine generation implements the protection rings.
enum class RingMode {
  kHardware6180,  // Rings in hardware: cross-ring call costs an ordinary call.
  kSoftware645,   // Rings simulated by supervisor software: cross-ring traps.
};

const char* RingModeName(RingMode mode);

// The 6180 shipped with up to six CPUs; the simulation honors the same limit.
inline constexpr uint32_t kMaxCpus = 6;

struct MachineConfig {
  uint32_t core_frames = 1024;        // Primary memory size in pages.
  uint32_t interrupt_lines = 32;
  RingMode ring_mode = RingMode::kHardware6180;
  CostModel costs = DefaultCostModel();
  // Physical CPU count. 0 means "resolve from the MULTICS_CPUS environment
  // variable, default 1"; any value is clamped to [1, kMaxCpus].
  uint32_t cpus = 0;
  LockMode lock_mode = LockMode::kPartitioned;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  EventQueue& events() { return events_; }
  CoreMemory& core() { return core_; }
  const CoreMemory& core() const { return core_; }
  InterruptController& interrupts() { return interrupts_; }
  const CostModel& costs() const { return config_.costs; }
  RingMode ring_mode() const { return config_.ring_mode; }
  void set_ring_mode(RingMode mode) { config_.ring_mode = mode; }

  // --- CPUs -----------------------------------------------------------------

  uint32_t cpu_count() const { return cpu_count_; }
  uint32_t active_cpu() const { return active_cpu_; }
  // Select which CPU subsequent charges, faults, and trace events attribute
  // to. The traffic controller calls this once per dispatch decision.
  void SetActiveCpu(uint32_t cpu);

  Processor& processor(uint32_t cpu);
  Processor& active_processor() { return processor(active_cpu_); }

  // The active CPU's local clock (== the global clock on a 1-CPU machine).
  Cycles local_now() const {
    return cpu_count_ == 1 ? clock_.now() : local_[active_cpu_];
  }
  Cycles local_clock(uint32_t cpu) const { return cpu_count_ == 1 ? clock_.now() : local_[cpu]; }
  // The trailing CPU's local clock: no future charge or lock request can
  // attribute to an earlier instant. SimLock prunes its busy history here.
  Cycles min_local_clock() const {
    if (cpu_count_ == 1) return clock_.now();
    Cycles m = local_[0];
    for (uint32_t cpu = 1; cpu < cpu_count_; ++cpu) {
      if (local_[cpu] < m) m = local_[cpu];
    }
    return m;
  }
  Cycles busy_cycles(uint32_t cpu) const { return busy_[cpu]; }
  Cycles idle_cycles(uint32_t cpu) const { return idle_[cpu]; }

  // Pull a CPU's local clock forward to `t` without charging anyone — idle
  // time (the CPU had nothing to run) or a wakeup that arrived while the CPU
  // was behind. Accounted under idle_cycles(), never under charges().
  void FastForwardCpu(uint32_t cpu, Cycles t) {
    if (cpu_count_ > 1 && t > local_[cpu]) {
      idle_[cpu] += t - local_[cpu];
      local_[cpu] = t;
    }
  }
  void FastForwardActiveCpu(Cycles t) { FastForwardCpu(active_cpu_, t); }
  void FastForwardAllCpus(Cycles t) {
    for (uint32_t cpu = 0; cpu < cpu_count_; ++cpu) FastForwardCpu(cpu, t);
  }

  // --- Interprocessor connect (the 6180's "connect" instruction / IPI) ------

  void PostConnect(uint32_t cpu);
  bool TakeConnect(uint32_t cpu);
  bool ConnectPending(uint32_t cpu) const { return connect_pending_[cpu] != 0; }
  uint64_t connects_posted() const { return connects_posted_; }
  uint64_t connects_taken() const { return connects_taken_; }

  // --- Descriptor segments -------------------------------------------------

  // The epoch counter every descriptor segment on this machine draws from
  // (see DsegEpochs in sdw.h).
  DsegEpochs& dseg_epochs() { return dseg_epochs_; }

  // --- Kernel locks ---------------------------------------------------------

  LockSet& locks() { return locks_; }
  LockMode lock_mode() const { return config_.lock_mode; }
  LockTrace& lock_trace_mutable() { return lock_trace_; }
  const LockTrace& lock_trace() const { return lock_trace_; }

  // --- Time accounting ------------------------------------------------------

  // Charge `n` cycles under a named category to the active CPU. The
  // categories feed the experiment harnesses (e.g. "ring_crossing",
  // "page_io", "fault_path"). On a 1-CPU machine this is exactly the
  // uniprocessor `clock().Advance(n)`.
  void Charge(Cycles n, StaticName category) {
    if (cpu_count_ == 1) {
      clock_.Advance(n);
    } else {
      local_[active_cpu_] += n;
      clock_.AdvanceTo(local_[active_cpu_]);
    }
    busy_[active_cpu_] += n;
    charges_.Increment(category, n);
  }

  // Occupy a device channel for `latency` cycles and stall the active CPU on
  // the transfer. On the uniprocessor this reproduces the original shared
  // channel-busy model (start = max(now, channel busy), global clock jumps
  // to completion). On the multiprocessor each CPU's synchronous transfer
  // runs against its own local timeline — cross-CPU interference on the
  // paging path is modeled by the page-table lock, which is the object of
  // study, not by an incidental channel queue.
  Cycles SyncTransfer(Cycles latency, Cycles* channel_busy_until);

  const CounterSet& charges() const { return charges_; }
  CounterSet& charges_mutable() { return charges_; }

  // The machine-wide metering/tracing registry. Observational only: it never
  // advances the clock, so enabling it cannot perturb any measurement.
  Meter& meter() { return meter_; }
  const Meter& meter() const { return meter_; }

  // Fault injection. Registering an injector (src/inject/plan.h) makes every
  // instrumented site consult it; passing nullptr unregisters. With no
  // injector the consult below is one null check — no clock or counter
  // traffic — so uninstrumented runs are unperturbed.
  void SetInjector(FaultInjector* injector) {
    injector_ = injector;
    interrupts_.SetInjector(injector);
  }
  FaultInjector* injector() const { return injector_; }

  InjectionDecision ConsultInjector(InjectSite site, const char* name,
                                    uint64_t detail = 0) {
    if (injector_ == nullptr) return InjectionDecision{};
    return injector_->Consult(InjectionPoint{site, name, detail});
  }

 private:
  MachineConfig config_;
  uint32_t cpu_count_;
  SimClock clock_;
  EventQueue events_;
  CoreMemory core_;
  InterruptController interrupts_;
  CounterSet charges_;
  Meter meter_{&clock_};
  FaultInjector* injector_ = nullptr;
  DsegEpochs dseg_epochs_;

  uint32_t active_cpu_ = 0;
  std::vector<Cycles> local_;  // Per-CPU local clocks (cpus > 1 only).
  std::vector<Cycles> busy_;   // Per-CPU charged cycles.
  std::vector<Cycles> idle_;   // Per-CPU fast-forwarded (uncharged) cycles.
  std::vector<uint8_t> connect_pending_;
  uint64_t connects_posted_ = 0;
  uint64_t connects_taken_ = 0;
  std::vector<std::unique_ptr<Processor>> processors_;
  LockSet locks_;
  LockTrace lock_trace_;
};

}  // namespace multics

#endif  // SRC_HW_MACHINE_H_
