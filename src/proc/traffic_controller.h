// The two-layer process implementation and its scheduler.
//
// Layer 1 multiplexes the machine's physical processors (one to six simulated
// CPUs) into a fixed number of virtual processors. "Because the number of
// virtual processors is fixed, this first layer need not depend on the
// facilities for managing the virtual memory. Several of the virtual
// processors are permanently assigned to implement processes for the
// dedicated use of other kernel mechanisms." Layer 2 multiplexes the
// remaining virtual processors among any number of full Multics processes.
//
// Layer-2 dispatch runs one of two policies:
//
//   * kFifo — the original strict-FIFO shared ready queue, kept as the
//     baseline the scheduler benches compare against;
//   * kMultilevelFeedback (default) — a Multics-style work-class /
//     multilevel-feedback scheduler. Each process belongs to a work class
//     holding a weighted share of the machine; classes with ready work are
//     served lowest-virtual-time first (virtual time = cycles charged divided
//     by weight). Within a class each CPU keeps its own run queue of
//     kSchedLevels feedback levels: a process that exhausts its level's
//     quantum is demoted to a deeper level with a doubled quantum, and a
//     blocked process that a wakeup readies is promoted back to level 0 —
//     the interactive response path. Every kFairnessPeriod-th dispatch on a
//     CPU serves the deepest non-empty level instead of the shallowest,
//     bounding starvation. A CPU whose queues are empty steals the deeper
//     half of the most-loaded CPU's queue (lowest index on ties). All of it
//     runs on the simulated clock, so dispatch is byte-identical across runs
//     at a fixed seed and CPU count.
//
// On a multiprocessor the dispatcher always runs the CPU whose local clock is
// furthest behind, giving a deterministic round-robin interleaving on the sim
// clock. Shared processes have soft affinity for the CPU they last ran on;
// dedicated kernel processes keep their virtual processors and are polled
// from every CPU. A wakeup that readies a process last run on another CPU
// posts an interprocessor "connect" interrupt at it. A CPU with nothing to
// run fast-forwards to the next event without charging cycles.
//
// The controller also implements the paper's two interrupt-handling designs:
// inline (the handler inhabits whatever process was running — stealing its
// time) and dedicated processes (the interceptor "will simply turn each
// interrupt into a wakeup of the corresponding process").

#ifndef SRC_PROC_TRAFFIC_CONTROLLER_H_
#define SRC_PROC_TRAFFIC_CONTROLLER_H_

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/stats.h"
#include "src/hw/machine.h"
#include "src/proc/process.h"

namespace multics {

class TrafficController;

// Execution context handed to a Task::Step. Charging, blocking, and wakeups
// go through here so the scheduler can do the accounting.
class TaskContext {
 public:
  TaskContext(TrafficController* controller, Process* self)
      : controller_(controller), self_(self) {}

  Machine& machine();
  Process& self() { return *self_; }
  TrafficController& controller() { return *controller_; }

  // CPU time consumed by this step.
  void Charge(Cycles n, ChargeKind category = ChargeKind::kTaskCpu);

  // Attempts to receive from `channel`. On success the message is available
  // via last_message() and the task continues. On failure the task is
  // registered as the channel's waiter and must return TaskState::kBlocked.
  bool Await(ChannelId channel);
  const EventMessage& last_message() const { return last_message_; }

  // Sends a wakeup (readying any waiter).
  Status Wakeup(ChannelId channel, uint64_t data);

 private:
  TrafficController* controller_;
  Process* self_;
  EventMessage last_message_;
};

enum class InterruptStrategy {
  kInlineInCurrentProcess,  // Pre-6180-redesign: handler steals the VP.
  kDedicatedProcesses,      // Paper's design: interrupt becomes a wakeup.
};

enum class SchedulerPolicy {
  kFifo,                // One shared strict-FIFO ready queue (the old design).
  kMultilevelFeedback,  // Work classes + per-CPU multilevel-feedback queues.
};

// A weighted share of the machine. Processes are members of exactly one work
// class; among classes with ready work the scheduler serves the one with the
// lowest virtual time (charged cycles scaled down by weight).
struct WorkClass {
  std::string name;
  uint32_t weight = 1;
  Cycles charged = 0;       // Total cycles charged by member dispatches.
  uint64_t dispatches = 0;  // Member dispatch count.
};

// One dispatch decision, for determinism tests and trace hashing.
struct DispatchRecord {
  Cycles at = 0;       // Global clock when the dispatch was chosen.
  uint32_t cpu = 0;    // Physical CPU that ran the slice.
  ProcessId pid = 0;   // Process dispatched.
  uint32_t level = 0;  // Feedback level it was taken from.
  uint32_t work_class = 0;
};

class TrafficController {
 public:
  // `virtual_processors` is the fixed level-1 pool; dedicated processes each
  // occupy one permanently.
  TrafficController(Machine* machine, uint32_t virtual_processors);

  // Creates a process. Dedicated processes get their own level-1 virtual
  // processor and scheduling priority over the shared pool.
  Result<Process*> CreateProcess(const std::string& name, const Principal& principal,
                                 const MlsLabel& clearance, RingNumber ring,
                                 std::unique_ptr<Task> program, bool dedicated = false);

  Process* Find(ProcessId pid);
  // Whole-population sweep, for the static certifier and shutdown paths.
  template <typename Fn>
  void ForEachProcess(Fn&& fn) {
    for (auto& [pid, process] : processes_) {
      fn(*process);
    }
  }
  template <typename Fn>
  void ForEachProcess(Fn&& fn) const {
    for (const auto& [pid, process] : processes_) {
      fn(static_cast<const Process&>(*process));
    }
  }
  uint32_t process_count() const { return static_cast<uint32_t>(processes_.size()); }
  uint32_t dedicated_count() const { return static_cast<uint32_t>(dedicated_.size()); }
  uint32_t vp_count() const { return vp_count_; }

  // When disabled, dedicated processes lose their reserved virtual
  // processors and compete FIFO with everyone else — the single-layer
  // structure experiment E11 compares against.
  void set_two_layer(bool enabled);
  bool two_layer() const { return two_layer_; }

  EventChannelTable& channels() { return channels_; }

  // IPC entry: queue an event and ready the waiter, charging wakeup cost.
  Status Wakeup(ChannelId channel, EventMessage message);

  // Interrupt handling.
  void SetInterruptStrategy(InterruptStrategy strategy) { interrupt_strategy_ = strategy; }
  InterruptStrategy interrupt_strategy() const { return interrupt_strategy_; }
  // Inline mode: handler body runs on the interrupted VP for `work` cycles,
  // then optionally wakes `completion_channel` (0 = none).
  Status RegisterInlineHandler(InterruptLine line, Cycles work, ChannelId completion_channel = 0);
  // Dedicated mode: the interceptor wakes `channel`; the handler process
  // (blocked on it) does the work itself.
  Status RegisterInterruptProcess(InterruptLine line, ChannelId channel);

  // Scheduling. RunSlice executes one dispatch (or one idle event) and
  // returns false only when nothing can ever run again.
  bool RunSlice();
  uint64_t RunUntil(Cycles deadline);
  // Runs until every non-dedicated process is done (or `max_slices` hit).
  uint64_t RunUntilQuiescent(uint64_t max_slices = 10'000'000);

  Machine* machine() const { return machine_; }

  // --- Scheduler policy and work classes ------------------------------------
  static constexpr uint32_t kSchedLevels = 4;
  static constexpr uint32_t kFairnessPeriod = 8;

  // Switching policy migrates any queued processes deterministically, so it
  // is legal between slices (benches flip it right after boot).
  void SetSchedulerPolicy(SchedulerPolicy policy);
  SchedulerPolicy scheduler_policy() const { return policy_; }

  // Level-0 quantum; level L gets base << L. Must be positive.
  void set_base_quantum(Cycles q) { base_quantum_ = q; }
  Cycles quantum_for_level(uint32_t level) const { return base_quantum_ << level; }

  // Defines a new work class and returns its id. Class 0 ("system", weight 4)
  // always exists and is every process's default.
  uint32_t DefineWorkClass(const std::string& name, uint32_t weight);
  uint32_t work_class_count() const { return static_cast<uint32_t>(classes_.size()); }
  const WorkClass& work_class_info(uint32_t id) const { return classes_.at(id); }
  // Moves a process to `work_class`, re-queueing it if it is currently ready.
  Status AssignWorkClass(Process* process, uint32_t work_class);

  // Dispatch trace for determinism tests: records the first `limit` dispatch
  // decisions. Passing 0 disables tracing.
  void EnableDispatchTrace(size_t limit);
  const std::vector<DispatchRecord>& dispatch_trace() const { return dispatch_trace_; }

  // Metrics.
  // Ready processes queued at `cpu` across all work classes and feedback
  // levels (kFifo keeps one shared queue, so per-CPU depths are zero there).
  // mx_top renders these as the per-CPU run-queue depth column.
  size_t CpuQueued(uint32_t cpu) const;
  // Depth of the shared kFifo ready queue (unused by the MLF policy).
  size_t SharedReadyQueued() const { return ready_queue_.size(); }
  Distribution& interrupt_latency() { return interrupt_latency_; }
  uint64_t context_switches() const { return context_switches_; }
  uint64_t idle_jumps() const { return idle_jumps_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  uint64_t steals() const { return steals_; }

  // Used by TaskContext.
  void RecordInterruptLatency(Cycles asserted_at);

 private:
  friend class TaskContext;

  struct HandlerSpec {
    bool inline_mode = false;
    Cycles work = 0;
    ChannelId channel = 0;  // Completion (inline) or handler (dedicated) channel.
  };

  void DispatchPendingInterrupts();
  // The physical CPU to dispatch on: the one whose local clock is furthest
  // behind (lowest index wins ties), so CPUs interleave deterministically.
  uint32_t PickCpu() const;
  Process* PickNextFor(uint32_t cpu);
  void MakeReady(Process* process);
  bool IsDedicated(const Process* process) const;
  Process* LastOn(uint32_t cpu);
  void SetLastOn(uint32_t cpu, Process* process);

  // Per-CPU per-class multilevel run queue.
  struct RunQueue {
    std::array<std::deque<Process*>, kSchedLevels> level;
    size_t count = 0;  // Total queued across levels.
  };

  // Shared enqueue path for both policies; CHECKs !in_run_queue().
  void Enqueue(Process* process);
  // The CPU a not-yet-placed process should queue on: its last CPU when
  // valid, else round-robin over the machine.
  uint32_t HomeCpu(Process* process);
  // Moves the deeper half of the most-loaded other CPU's queue to `cpu`.
  void StealWork(uint32_t cpu);
  // Removes a process from whatever MLF queue holds it (linear; rare).
  void RemoveFromQueues(Process* process);
  Process* PickMlf(uint32_t cpu);
  void RecordDispatch(uint32_t cpu, const Process* process);

  Machine* machine_;
  uint32_t vp_count_;
  bool two_layer_ = true;

  EventChannelTable channels_;
  std::unordered_map<ProcessId, std::unique_ptr<Process>> processes_;
  std::vector<Process*> dedicated_;
  std::deque<Process*> ready_queue_;  // Shared (level-2) ready processes (kFifo).
  size_t dedicated_cursor_ = 0;

  SchedulerPolicy policy_ = SchedulerPolicy::kMultilevelFeedback;
  Cycles base_quantum_ = 4000;
  std::vector<WorkClass> classes_;
  std::vector<std::vector<RunQueue>> run_queues_;  // [cpu][work_class].
  uint32_t next_home_cpu_ = 0;
  uint64_t dispatch_seq_ = 0;

  size_t trace_limit_ = 0;
  std::vector<DispatchRecord> dispatch_trace_;

  InterruptStrategy interrupt_strategy_ = InterruptStrategy::kDedicatedProcesses;
  std::unordered_map<InterruptLine, HandlerSpec> handlers_;

  Process* last_running_ = nullptr;             // Most recent dispatch on any CPU.
  std::vector<Process*> last_on_cpu_;           // Per-CPU, for switch accounting.
  ProcessId next_pid_ = 1;

  Distribution interrupt_latency_;
  uint64_t context_switches_ = 0;
  uint64_t idle_jumps_ = 0;
  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t steals_ = 0;

 public:
  // Scheduler, channels and every process's State, with processes named by
  // pid (Kernel::Snapshot). Restoring requires the same process set: the
  // Process objects, and every pointer to them, survive.
  struct State {
    EventChannelTable::State channels;
    std::vector<std::pair<ProcessId, Process::State>> processes;  // Table order.
    bool two_layer = true;
    std::vector<ProcessId> dedicated;
    std::vector<ProcessId> ready_queue;
    size_t dedicated_cursor = 0;
    SchedulerPolicy policy = SchedulerPolicy::kMultilevelFeedback;
    Cycles base_quantum = 0;
    std::vector<WorkClass> classes;
    // [cpu][work class][level], front first.
    std::vector<std::vector<std::array<std::vector<ProcessId>, kSchedLevels>>> run_queues;
    uint32_t next_home_cpu = 0;
    uint64_t dispatch_seq = 0;
    size_t trace_limit = 0;
    std::vector<DispatchRecord> dispatch_trace;
    InterruptStrategy interrupt_strategy = InterruptStrategy::kDedicatedProcesses;
    std::unordered_map<InterruptLine, HandlerSpec> handlers;
    ProcessId last_running = kNoProcess;
    std::vector<ProcessId> last_on_cpu;
    ProcessId next_pid = 1;
    Distribution interrupt_latency;
    uint64_t context_switches = 0;
    uint64_t idle_jumps = 0;
    uint64_t promotions = 0;
    uint64_t demotions = 0;
    uint64_t steals = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);
};

}  // namespace multics

#endif  // SRC_PROC_TRAFFIC_CONTROLLER_H_
