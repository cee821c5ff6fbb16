// Level-2 processes: full Multics processes with an address space (descriptor
// segment), a known segment table, a principal and MLS clearance, and a
// program. Kernel daemons are processes too — the paper's simplification is
// precisely that page control, interrupt handlers, etc. become ordinary
// asynchronous processes — they just run on dedicated level-1 virtual
// processors.

#ifndef SRC_PROC_PROCESS_H_
#define SRC_PROC_PROCESS_H_

#include <functional>
#include <memory>
#include <string>

#include "src/base/clock.h"
#include "src/fs/acl.h"
#include "src/fs/kst.h"
#include "src/hw/sdw.h"
#include "src/meter/context.h"
#include "src/mls/label.h"
#include "src/proc/ipc.h"

namespace multics {

class TaskContext;

enum class TaskState { kReady, kBlocked, kDone };

// One schedulable program: a cooperative state machine. Step() runs a bounded
// amount of work, charging cycles through the context, and reports whether
// the process is still runnable, blocked on a channel, or finished.
class Task {
 public:
  virtual ~Task() = default;
  virtual TaskState Step(TaskContext& ctx) = 0;
};

// Adapter for simple tasks written as a lambda.
class FnTask : public Task {
 public:
  using Fn = std::function<TaskState(TaskContext&)>;
  explicit FnTask(Fn fn) : fn_(std::move(fn)) {}
  TaskState Step(TaskContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};

struct ProcessAccounting {
  Cycles cpu_used = 0;          // Charged by the process's own work.
  Cycles stolen_by_interrupts = 0;  // Inline interrupt handling on our VP.
  uint64_t dispatches = 0;
};

class Process {
 public:
  Process(ProcessId pid, std::string name, Principal principal, MlsLabel clearance,
          RingNumber ring, std::unique_ptr<Task> program, DsegEpochs* dseg_epochs)
      : pid_(pid),
        name_(std::move(name)),
        principal_(std::move(principal)),
        principal_string_(principal_.ToString()),
        clearance_(clearance),
        ring_(ring),
        program_(std::move(program)),
        dseg_(dseg_epochs),
        trace_context_(pid, ring) {}

  ProcessId pid() const { return pid_; }
  const std::string& name() const { return name_; }
  const Principal& principal() const { return principal_; }
  // The principal's "person.project.tag" spelling, built once. The audit log
  // records it on every monitored operation; per-call ToString() was one of
  // the hottest allocation sites in the simulator. (The principal itself is
  // immutable after construction, so the cache cannot go stale.)
  const std::string& principal_string() const { return principal_string_; }
  const MlsLabel& clearance() const { return clearance_; }
  RingNumber ring() const { return ring_; }
  void set_ring(RingNumber ring) {
    ring_ = ring;
    trace_context_.ring = ring;
  }

  // The process's causal span stack; the traffic controller installs it on
  // the meter while this process runs (see src/meter/context.h).
  TraceContext& trace_context() { return trace_context_; }

  DescriptorSegment& dseg() { return dseg_; }
  const DescriptorSegment& dseg() const { return dseg_; }
  KnownSegmentTable& kst() { return kst_; }
  const KnownSegmentTable& kst() const { return kst_; }

  Task* program() const { return program_.get(); }

  TaskState state() const { return state_; }
  void set_state(TaskState state) { state_ = state; }
  ChannelId blocked_on() const { return blocked_on_; }
  void set_blocked_on(ChannelId id) { blocked_on_ = id; }

  ProcessAccounting& accounting() { return accounting_; }
  const ProcessAccounting& accounting() const { return accounting_; }

  // The physical CPU this process last ran on (kNoCpu before its first
  // dispatch). The scheduler uses it for soft affinity, and a cross-CPU
  // wakeup directs a connect interrupt at it.
  static constexpr uint32_t kNoCpu = UINT32_MAX;
  uint32_t last_cpu() const { return last_cpu_; }
  void set_last_cpu(uint32_t cpu) { last_cpu_ = cpu; }

  // Global-clock time this process last became ready. A CPU dispatching the
  // process fast-forwards its local clock here first: a process woken by an
  // event at time T cannot have run before T.
  Cycles ready_since() const { return ready_since_; }
  void set_ready_since(Cycles t) { ready_since_ = t; }

  // --- Scheduling state (owned by the traffic controller) -------------------
  // Work class: which share of the machine this process draws from. Class 0
  // is the default; the traffic controller defines further classes.
  uint32_t work_class() const { return work_class_; }
  void set_work_class(uint32_t k) { work_class_ = k; }
  // Multilevel-feedback level: 0 is the interactive top; deeper levels get
  // longer quanta and run only when shallower ones are empty.
  uint32_t sched_level() const { return sched_level_; }
  void set_sched_level(uint32_t level) { sched_level_ = level; }
  // Cycles consumed against the current level's quantum.
  Cycles quantum_used() const { return quantum_used_; }
  void set_quantum_used(Cycles used) { quantum_used_ = used; }
  // True while this process sits in a run queue. The enqueue path CHECKs the
  // flag, so a blocked→ready transition can never double-insert a process.
  bool in_run_queue() const { return in_run_queue_; }
  void set_in_run_queue(bool in) { in_run_queue_ = in; }

  // Everything about the process that gates and the scheduler change: ring,
  // KST, descriptor segment, scheduling fields and accounting. Identity
  // (pid, name, principal, clearance) and the program are fixed at creation.
  // A restored descriptor segment keeps its saved page-table addresses until
  // the kernel re-resolves them through the AST.
  struct State {
    RingNumber ring = kRingUser;
    KnownSegmentTable kst;
    DescriptorSegment::Image dseg;
    TaskState state = TaskState::kReady;
    ChannelId blocked_on = 0;
    uint32_t last_cpu = kNoCpu;
    Cycles ready_since = 0;
    uint32_t work_class = 0;
    uint32_t sched_level = 0;
    Cycles quantum_used = 0;
    bool in_run_queue = false;
    ProcessAccounting accounting;
  };
  State SaveState() const {
    return State{.ring = ring_,
                 .kst = kst_,
                 .dseg = dseg_.SaveImage(),
                 .state = state_,
                 .blocked_on = blocked_on_,
                 .last_cpu = last_cpu_,
                 .ready_since = ready_since_,
                 .work_class = work_class_,
                 .sched_level = sched_level_,
                 .quantum_used = quantum_used_,
                 .in_run_queue = in_run_queue_,
                 .accounting = accounting_};
  }
  void RestoreState(const State& state) {
    set_ring(state.ring);
    kst_ = state.kst;
    dseg_.RestoreImage(state.dseg);
    state_ = state.state;
    blocked_on_ = state.blocked_on;
    last_cpu_ = state.last_cpu;
    ready_since_ = state.ready_since;
    work_class_ = state.work_class;
    sched_level_ = state.sched_level;
    quantum_used_ = state.quantum_used;
    in_run_queue_ = state.in_run_queue;
    accounting_ = state.accounting;
  }

 private:
  ProcessId pid_;
  std::string name_;
  Principal principal_;
  std::string principal_string_;  // principal_.ToString(), cached.
  MlsLabel clearance_;
  RingNumber ring_;
  std::unique_ptr<Task> program_;

  DescriptorSegment dseg_;
  KnownSegmentTable kst_;

  TaskState state_ = TaskState::kReady;
  ChannelId blocked_on_ = 0;
  uint32_t last_cpu_ = kNoCpu;
  Cycles ready_since_ = 0;
  uint32_t work_class_ = 0;
  uint32_t sched_level_ = 0;
  Cycles quantum_used_ = 0;
  bool in_run_queue_ = false;
  ProcessAccounting accounting_;
  TraceContext trace_context_;
};

}  // namespace multics

#endif  // SRC_PROC_PROCESS_H_
