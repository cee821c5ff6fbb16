#include "src/hw/machine.h"

#include <algorithm>
#include <cstdlib>

#include "src/base/log.h"
#include "src/hw/processor.h"

namespace multics {

namespace {

uint32_t ResolveCpuCount(uint32_t configured) {
  uint32_t cpus = configured;
  if (cpus == 0) {
    // MULTICS_CPUS lets the whole test suite re-run on a wider machine
    // (scripts/check.sh --smp sets it to 4) without touching every
    // constructor. Resolution happens once, here, so a run is deterministic
    // for a given environment + config.
    if (const char* env = std::getenv("MULTICS_CPUS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) cpus = static_cast<uint32_t>(parsed);
    }
    if (cpus == 0) cpus = 1;
  }
  return std::clamp<uint32_t>(cpus, 1, kMaxCpus);
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      cpu_count_(ResolveCpuCount(config.cpus)),
      events_(&clock_),
      core_(config.core_frames),
      interrupts_(config.interrupt_lines),
      local_(cpu_count_, 0),
      busy_(cpu_count_, 0),
      idle_(cpu_count_, 0),
      connect_pending_(cpu_count_, 0),
      locks_(this, config.lock_mode) {
  interrupts_.AttachClock(&clock_);
  processors_.reserve(cpu_count_);
  for (uint32_t cpu = 0; cpu < cpu_count_; ++cpu) {
    processors_.push_back(std::make_unique<Processor>(this));
  }
}

Machine::~Machine() = default;

void Machine::SetActiveCpu(uint32_t cpu) {
  CHECK(cpu < cpu_count_) << "CPU " << cpu << " out of range (machine has " << cpu_count_ << ")";
  active_cpu_ = cpu;
  meter_.SetCpu(cpu);
}

Processor& Machine::processor(uint32_t cpu) {
  CHECK(cpu < cpu_count_) << "CPU " << cpu << " out of range (machine has " << cpu_count_ << ")";
  return *processors_[cpu];
}

const Processor& Machine::processor(uint32_t cpu) const {
  CHECK(cpu < cpu_count_) << "CPU " << cpu << " out of range (machine has " << cpu_count_ << ")";
  return *processors_[cpu];
}

void Machine::PostConnect(uint32_t cpu) {
  CHECK(cpu < cpu_count_);
  ++connects_posted_;
  connect_pending_[cpu] = 1;
  if (cpu_count_ > 1) {
    Charge(config_.costs.connect_ipi, ChargeKind::kSmpIpi);
    if (meter_.enabled()) {
      if (connect_ipis_id_ == kInvalidMeterId) {
        connect_ipis_id_ = meter_.InternCounter("smp/connect_ipis");
      }
      meter_.Count(connect_ipis_id_);
    }
  }
}

bool Machine::TakeConnect(uint32_t cpu) {
  CHECK(cpu < cpu_count_);
  if (connect_pending_[cpu] == 0) return false;
  connect_pending_[cpu] = 0;
  ++connects_taken_;
  return true;
}

Machine::State Machine::SaveState() const {
  CHECK(events_.empty()) << "machine saved with " << events_.pending() << " pending event(s)";
  State state{.clock = clock_,
              .charges = charges_,
              .active_cpu = active_cpu_,
              .local = local_,
              .busy = busy_,
              .idle = idle_,
              .connect_pending = connect_pending_,
              .connects_posted = connects_posted_,
              .connects_taken = connects_taken_,
              .processors = {},
              .interrupts = interrupts_.SaveState(),
              .meter = meter_.SaveState(),
              .locks = locks_.SaveState(),
              .lock_trace = lock_trace_.SaveState()};
  state.processors.reserve(processors_.size());
  for (const std::unique_ptr<Processor>& cpu : processors_) {
    state.processors.push_back(cpu->SaveState());
  }
  return state;
}

void Machine::RestoreState(const State& state) {
  CHECK(events_.empty()) << "machine restored with " << events_.pending() << " pending event(s)";
  CHECK(state.processors.size() == processors_.size()) << "machine state from another machine";
  clock_ = state.clock;
  charges_ = state.charges;
  active_cpu_ = state.active_cpu;
  local_ = state.local;
  busy_ = state.busy;
  idle_ = state.idle;
  connect_pending_ = state.connect_pending;
  connects_posted_ = state.connects_posted;
  connects_taken_ = state.connects_taken;
  for (size_t cpu = 0; cpu < processors_.size(); ++cpu) {
    processors_[cpu]->RestoreState(state.processors[cpu]);
  }
  interrupts_.RestoreState(state.interrupts);
  meter_.RestoreState(state.meter);
  locks_.RestoreState(state.locks);
  lock_trace_.RestoreState(state.lock_trace);
}

Cycles Machine::SyncTransfer(Cycles latency, Cycles* channel_busy_until) {
  if (cpu_count_ == 1) {
    const Cycles start = std::max(clock_.now(), *channel_busy_until);
    const Cycles done = start + latency;
    *channel_busy_until = done;
    clock_.AdvanceTo(done);
    busy_[0] += latency;
    return done;
  }
  const Cycles start = local_[active_cpu_];
  const Cycles done = start + latency;
  *channel_busy_until = std::max(*channel_busy_until, done);
  local_[active_cpu_] = done;
  busy_[active_cpu_] += latency;
  clock_.AdvanceTo(done);
  return done;
}

}  // namespace multics
