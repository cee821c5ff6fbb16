#include <algorithm>
#include "src/proc/traffic_controller.h"

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

// --- TaskContext ----------------------------------------------------------------

Machine& TaskContext::machine() { return *controller_->machine_; }

void TaskContext::Charge(Cycles n, ChargeKind category) {
  controller_->machine_->Charge(n, category);
  self_->accounting().cpu_used += n;
}

bool TaskContext::Await(ChannelId channel) {
  Machine* machine = controller_->machine_;
  LockGuard traffic(machine->locks().Traffic());
  auto message = controller_->channels_.TryReceive(channel);
  if (message.ok()) {
    last_message_ = message.value();
    return true;
  }
  (void)controller_->channels_.SetWaiter(channel, self_->pid());
  self_->set_blocked_on(channel);
  machine->Charge(machine->costs().block, ChargeKind::kIpc);
  machine->meter().Emit(TraceEventKind::kIpcBlock, "ipc_block", channel);
  return false;
}

Status TaskContext::Wakeup(ChannelId channel, uint64_t data) {
  return controller_->Wakeup(channel, EventMessage{data, self_->pid()});
}

// --- TrafficController ----------------------------------------------------------

TrafficController::TrafficController(Machine* machine, uint32_t virtual_processors)
    : machine_(machine), vp_count_(virtual_processors) {
  channels_.AttachMeter(&machine_->meter());
  classes_.push_back(WorkClass{"system", 4, 0, 0});
  run_queues_.resize(machine_->cpu_count());
  for (auto& per_cpu : run_queues_) {
    per_cpu.resize(1);
  }
}

uint32_t TrafficController::DefineWorkClass(const std::string& name, uint32_t weight) {
  CHECK_GE(weight, 1u) << "work class " << name << " needs a positive weight";
  classes_.push_back(WorkClass{name, weight, 0, 0});
  for (auto& per_cpu : run_queues_) {
    per_cpu.resize(classes_.size());
  }
  return static_cast<uint32_t>(classes_.size() - 1);
}

Status TrafficController::AssignWorkClass(Process* process, uint32_t work_class) {
  if (work_class >= classes_.size()) {
    return Status::kInvalidArgument;
  }
  if (process->work_class() == work_class) {
    return Status::kOk;
  }
  const bool queued = process->in_run_queue();
  if (queued) {
    RemoveFromQueues(process);
  }
  process->set_work_class(work_class);
  if (queued) {
    Enqueue(process);
  }
  return Status::kOk;
}

void TrafficController::EnableDispatchTrace(size_t limit) {
  trace_limit_ = limit;
  dispatch_trace_.clear();
  if (limit > 0) {
    dispatch_trace_.reserve(limit);
  }
}

uint32_t TrafficController::HomeCpu(Process* process) {
  if (process->last_cpu() != Process::kNoCpu && process->last_cpu() < machine_->cpu_count()) {
    return process->last_cpu();
  }
  return next_home_cpu_++ % machine_->cpu_count();
}

size_t TrafficController::CpuQueued(uint32_t cpu) const {
  size_t total = 0;
  for (const RunQueue& rq : run_queues_[cpu]) {
    total += rq.count;
  }
  return total;
}

void TrafficController::Enqueue(Process* process) {
  MX_HOST_SPAN(kScheduler);
  // The double-insert guard: a blocked->ready transition (or any requeue)
  // must never insert a process that is already sitting in a run queue.
  CHECK(!process->in_run_queue()) << "double-insert of process " << process->pid();
  process->set_in_run_queue(true);
  if (policy_ == SchedulerPolicy::kFifo) {
    ready_queue_.push_back(process);
    return;
  }
  const uint32_t cpu = HomeCpu(process);
  RunQueue& rq = run_queues_[cpu][process->work_class()];
  rq.level[process->sched_level()].push_back(process);
  ++rq.count;
}

void TrafficController::RemoveFromQueues(Process* process) {
  MX_HOST_SPAN(kScheduler);
  if (policy_ == SchedulerPolicy::kFifo) {
    for (auto it = ready_queue_.begin(); it != ready_queue_.end(); ++it) {
      if (*it == process) {
        ready_queue_.erase(it);
        process->set_in_run_queue(false);
        return;
      }
    }
  } else {
    // A queued process sits at exactly (work_class, sched_level): Enqueue put
    // it there, StealWork migrates across CPUs at the same class and level,
    // and promotion only retargets processes that are not in a queue. Only
    // the CPU is unknown, so scan one deque per CPU instead of all of them.
    for (auto& per_cpu : run_queues_) {
      RunQueue& rq = per_cpu[process->work_class()];
      auto& level = rq.level[process->sched_level()];
      for (auto it = level.begin(); it != level.end(); ++it) {
        if (*it == process) {
          level.erase(it);
          --rq.count;
          process->set_in_run_queue(false);
          return;
        }
      }
    }
  }
  CHECK(false) << "process " << process->pid() << " flagged in_run_queue but not found";
}

void TrafficController::SetSchedulerPolicy(SchedulerPolicy policy) {
  if (policy == policy_) {
    return;
  }
  // Drain every queued process in a deterministic order (FIFO order, or CPU
  // then class then level order), then re-enqueue under the new policy.
  std::vector<Process*> queued;
  if (policy_ == SchedulerPolicy::kFifo) {
    queued.assign(ready_queue_.begin(), ready_queue_.end());
    ready_queue_.clear();
  } else {
    for (auto& per_cpu : run_queues_) {
      for (RunQueue& rq : per_cpu) {
        for (auto& level : rq.level) {
          queued.insert(queued.end(), level.begin(), level.end());
          level.clear();
        }
        rq.count = 0;
      }
    }
  }
  for (Process* p : queued) {
    p->set_in_run_queue(false);
  }
  policy_ = policy;
  for (Process* p : queued) {
    Enqueue(p);
  }
}

bool TrafficController::IsDedicated(const Process* process) const {
  for (const Process* d : dedicated_) {
    if (d == process) {
      return true;
    }
  }
  return false;
}

void TrafficController::set_two_layer(bool enabled) {
  if (two_layer_ && !enabled) {
    // Collapse layer 1: dedicated processes join the common run queues. The
    // in_run_queue guard keeps a re-collapse from inserting one twice.
    for (Process* d : dedicated_) {
      if (d->state() == TaskState::kReady && !d->in_run_queue()) {
        Enqueue(d);
      }
    }
  }
  two_layer_ = enabled;
}

Result<Process*> TrafficController::CreateProcess(const std::string& name,
                                                  const Principal& principal,
                                                  const MlsLabel& clearance, RingNumber ring,
                                                  std::unique_ptr<Task> program,
                                                  bool dedicated) {
  if (dedicated && dedicated_.size() + 1 >= vp_count_) {
    return Status::kProcessLimit;  // Must leave at least one shared VP.
  }
  ProcessId pid = next_pid_++;
  auto process = std::make_unique<Process>(pid, name, principal, clearance, ring,
                                           std::move(program), &machine_->dseg_epochs());
  Process* raw = process.get();
  processes_[pid] = std::move(process);
  machine_->meter().LabelProcess(pid, name);
  if (dedicated) {
    dedicated_.push_back(raw);
    if (!two_layer_) {
      Enqueue(raw);
    }
  } else {
    Enqueue(raw);
  }
  return raw;
}

Process* TrafficController::Find(ProcessId pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

void TrafficController::MakeReady(Process* process) {
  if (process->state() == TaskState::kDone) {
    return;
  }
  bool was_blocked = process->state() == TaskState::kBlocked;
  process->set_state(TaskState::kReady);
  process->set_blocked_on(0);
  // The process cannot run before the instant that readied it: a dispatching
  // CPU pulls its local clock up to here first.
  process->set_ready_since(machine_->clock().now());
  // Dedicated processes (two-layer mode) are polled in PickNext; everyone
  // else queues. The in_run_queue flag — not the observed state transition —
  // decides whether to insert, so a spurious double wakeup (or a wakeup
  // racing a requeue) can never double-insert the process.
  bool polled = two_layer_ && IsDedicated(process);
  if (polled || process->in_run_queue()) {
    return;
  }
  if (was_blocked && policy_ == SchedulerPolicy::kMultilevelFeedback) {
    // Interactive promotion: a process a wakeup just readied goes back to
    // the top level with a fresh quantum — the terminal-response path.
    ++promotions_;
    process->set_sched_level(0);
    process->set_quantum_used(0);
  }
  Enqueue(process);
}

Status TrafficController::Wakeup(ChannelId channel, EventMessage message) {
  LockGuard traffic(machine_->locks().Traffic());
  auto waiter = channels_.Wakeup(channel, message);
  if (!waiter.ok()) {
    return waiter.status();
  }
  machine_->Charge(machine_->costs().wakeup, ChargeKind::kIpc);
  machine_->meter().Emit(TraceEventKind::kIpcWakeup, "ipc_wakeup", channel);
  if (waiter.value() != kNoProcess) {
    if (Process* process = Find(waiter.value()); process != nullptr) {
      MakeReady(process);
      // A wakeup aimed at a process whose last home is another CPU is
      // delivered there with a connect interrupt, as on the real 6180.
      if (machine_->cpu_count() > 1 && process->state() == TaskState::kReady &&
          process->last_cpu() != Process::kNoCpu &&
          process->last_cpu() != machine_->active_cpu()) {
        machine_->PostConnect(process->last_cpu());
      }
    }
  }
  return Status::kOk;
}

Status TrafficController::RegisterInlineHandler(InterruptLine line, Cycles work,
                                                ChannelId completion_channel) {
  if (line >= machine_->interrupts().line_count()) {
    return Status::kInvalidArgument;
  }
  handlers_[line] = HandlerSpec{true, work, completion_channel};
  return Status::kOk;
}

Status TrafficController::RegisterInterruptProcess(InterruptLine line, ChannelId channel) {
  if (line >= machine_->interrupts().line_count()) {
    return Status::kInvalidArgument;
  }
  if (!channels_.Exists(channel)) {
    return Status::kNoSuchChannel;
  }
  handlers_[line] = HandlerSpec{false, 0, channel};
  return Status::kOk;
}

void TrafficController::RecordInterruptLatency(Cycles asserted_at) {
  interrupt_latency_.Add(static_cast<double>(machine_->clock().now() - asserted_at));
}

void TrafficController::DispatchPendingInterrupts() {
  InterruptEvent ev;
  while (machine_->interrupts().TakePending(&ev)) {
    auto it = handlers_.find(ev.line);
    if (it == handlers_.end()) {
      continue;  // Unregistered line: dropped, as real hardware masks do.
    }
    const HandlerSpec& spec = it->second;
    const CostModel& costs = machine_->costs();
    machine_->meter().Emit(TraceEventKind::kInterrupt, "interrupt", ev.line);
    if (interrupt_strategy_ == InterruptStrategy::kInlineInCurrentProcess || spec.inline_mode) {
      // The handler inhabits whatever process was running: its full body
      // executes now, on the interrupted VP, and the victim pays.
      machine_->Charge(costs.interrupt_entry + spec.work + costs.interrupt_exit,
                       ChargeKind::kInterruptInline);
      if (last_running_ != nullptr) {
        last_running_->accounting().stolen_by_interrupts +=
            costs.interrupt_entry + spec.work + costs.interrupt_exit;
      }
      RecordInterruptLatency(ev.asserted_at);
      if (spec.channel != 0) {
        (void)Wakeup(spec.channel, EventMessage{ev.payload, kNoProcess});
      }
    } else {
      // The interceptor just turns the interrupt into a wakeup; the handler
      // process does the work on its own virtual processor.
      machine_->Charge(costs.interrupt_entry, ChargeKind::kInterruptIntercept);
      (void)Wakeup(spec.channel, EventMessage{ev.asserted_at, kNoProcess});
    }
  }
}

uint32_t TrafficController::PickCpu() const {
  uint32_t best = 0;
  for (uint32_t cpu = 1; cpu < machine_->cpu_count(); ++cpu) {
    if (machine_->local_clock(cpu) < machine_->local_clock(best)) {
      best = cpu;
    }
  }
  return best;
}

Process* TrafficController::LastOn(uint32_t cpu) {
  return cpu < last_on_cpu_.size() ? last_on_cpu_[cpu] : nullptr;
}

void TrafficController::SetLastOn(uint32_t cpu, Process* process) {
  if (cpu >= last_on_cpu_.size()) {
    last_on_cpu_.resize(machine_->cpu_count(), nullptr);
  }
  last_on_cpu_[cpu] = process;
}

Process* TrafficController::PickNextFor(uint32_t cpu) {
  // One span over the whole pick (dedicated poll, MLF class/level selection,
  // work stealing): PickMlf/StealWork are not spanned separately so nested
  // same-subsystem totals are not double-counted.
  MX_HOST_SPAN(kScheduler);
  if (two_layer_) {
    // Dedicated virtual processors first: round-robin over ready ones. Any
    // CPU polls them, so a dedicated kernel process never loses its virtual
    // processor to affinity.
    const size_t n = dedicated_.size();
    for (size_t i = 0; i < n; ++i) {
      Process* candidate = dedicated_[(dedicated_cursor_ + i) % n];
      if (candidate->state() == TaskState::kReady) {
        dedicated_cursor_ = (dedicated_cursor_ + i + 1) % n;
        return candidate;
      }
    }
  }
  if (policy_ == SchedulerPolicy::kMultilevelFeedback) {
    return PickMlf(cpu);
  }
  // Drop stale front entries exactly as the uniprocessor scheduler did.
  while (!ready_queue_.empty()) {
    Process* front = ready_queue_.front();
    if ((two_layer_ && IsDedicated(front)) || front->state() != TaskState::kReady) {
      ready_queue_.pop_front();
      front->set_in_run_queue(false);
      continue;
    }
    break;
  }
  if (ready_queue_.empty()) {
    return nullptr;
  }
  // Every CPU takes the queue head, exactly as on the uniprocessor. The 6180's
  // CPUs had no caches, so there is nothing for a process to "warm up" on the
  // CPU it last ran on; reordering the queue for affinity only lets a CPU
  // re-run its own process past older waiters and starve them. Affinity lives
  // where the real system put it instead: a wakeup for a process whose last
  // home is another CPU sends the connect interrupt there (see Wakeup), and
  // the dispatcher charges a process switch only when the CPU actually
  // changes processes.
  Process* candidate = ready_queue_.front();
  ready_queue_.pop_front();
  candidate->set_in_run_queue(false);
  return candidate;
}

void TrafficController::StealWork(uint32_t cpu) {
  // Victim: the CPU with the most queued work (lowest index on ties).
  uint32_t victim = cpu;
  size_t victim_load = 0;
  for (uint32_t other = 0; other < machine_->cpu_count(); ++other) {
    if (other == cpu) {
      continue;
    }
    const size_t load = CpuQueued(other);
    if (load > victim_load) {
      victim = other;
      victim_load = load;
    }
  }
  if (victim == cpu || victim_load == 0) {
    return;
  }
  // Take the deeper half (rounded up): long-running work migrates, the
  // victim keeps its interactive front. Tail-first pops keep the migrated
  // processes behind any work already queued here at the same level.
  size_t want = (victim_load + 1) / 2;
  for (uint32_t k = 0; k < classes_.size() && want > 0; ++k) {
    RunQueue& from = run_queues_[victim][k];
    RunQueue& to = run_queues_[cpu][k];
    for (uint32_t level = kSchedLevels; level-- > 0 && want > 0;) {
      while (want > 0 && !from.level[level].empty()) {
        Process* moved = from.level[level].back();
        from.level[level].pop_back();
        --from.count;
        to.level[level].push_back(moved);
        ++to.count;
        --want;
        ++steals_;
      }
    }
  }
}

Process* TrafficController::PickMlf(uint32_t cpu) {
  if (CpuQueued(cpu) == 0 && machine_->cpu_count() > 1) {
    StealWork(cpu);
  }
  for (;;) {
    // Work class first: among classes with ready work here, the one with the
    // lowest virtual time (charged cycles scaled down by weight) runs. Ties
    // go to the lowest id, so selection is deterministic.
    uint32_t best_class = UINT32_MAX;
    for (uint32_t k = 0; k < classes_.size(); ++k) {
      if (run_queues_[cpu][k].count == 0) {
        continue;
      }
      if (best_class == UINT32_MAX ||
          classes_[k].charged * classes_[best_class].weight <
              classes_[best_class].charged * classes_[k].weight) {
        best_class = k;
      }
    }
    if (best_class == UINT32_MAX) {
      return nullptr;
    }
    RunQueue& rq = run_queues_[cpu][best_class];
    // Level next: shallowest non-empty, except that every kFairnessPeriod-th
    // dispatch serves the deepest instead — demoted work is never starved
    // for more than a bounded number of dispatches.
    const bool fairness_pass = dispatch_seq_ % kFairnessPeriod == kFairnessPeriod - 1;
    uint32_t chosen = UINT32_MAX;
    if (fairness_pass) {
      for (uint32_t level = kSchedLevels; level-- > 0;) {
        if (!rq.level[level].empty()) {
          chosen = level;
          break;
        }
      }
    } else {
      for (uint32_t level = 0; level < kSchedLevels; ++level) {
        if (!rq.level[level].empty()) {
          chosen = level;
          break;
        }
      }
    }
    CHECK_NE(chosen, UINT32_MAX);
    Process* candidate = rq.level[chosen].front();
    rq.level[chosen].pop_front();
    --rq.count;
    candidate->set_in_run_queue(false);
    // Stale entries — destroyed processes or dedicated ones after a layer
    // toggle — are dropped, exactly as the FIFO scheduler drops them.
    if ((two_layer_ && IsDedicated(candidate)) || candidate->state() != TaskState::kReady) {
      continue;
    }
    return candidate;
  }
}

void TrafficController::RecordDispatch(uint32_t cpu, const Process* process) {
  MX_HOST_SPAN(kScheduler);
  ++dispatch_seq_;
  if (trace_limit_ > 0 && dispatch_trace_.size() < trace_limit_) {
    dispatch_trace_.push_back(DispatchRecord{machine_->clock().now(), cpu, process->pid(),
                                             process->sched_level(), process->work_class()});
  }
}

bool TrafficController::RunSlice() {
  // Deliver everything that has already happened, then take interrupts.
  machine_->events().RunUntil(machine_->clock().now());
  DispatchPendingInterrupts();

  const uint32_t cpu = PickCpu();
  machine_->SetActiveCpu(cpu);
  if (machine_->cpu_count() > 1) {
    (void)machine_->TakeConnect(cpu);  // The connect got us here; consume it.
  }

  Process* next = PickNextFor(cpu);
  if (next == nullptr) {
    // Idle: jump to the next external event if there is one. Every CPU was
    // out of work, so all local clocks fast-forward to the event, uncharged —
    // a blocked CPU burns no accounted cycles.
    if (machine_->events().RunOne()) {
      ++idle_jumps_;
      machine_->FastForwardAllCpus(machine_->clock().now());
      DispatchPendingInterrupts();
      return true;
    }
    return false;
  }
  // The wakeup that readied this process happened at global time
  // ready_since(); this CPU cannot have run it earlier than that.
  machine_->FastForwardActiveCpu(next->ready_since());

  const bool switched = next != LastOn(cpu);
  if (switched) {
    ++context_switches_;
    machine_->Charge(machine_->costs().process_switch, ChargeKind::kScheduler);
  }
  SetLastOn(cpu, next);
  last_running_ = next;
  RecordDispatch(cpu, next);

  // Install the process's causal context (and {pid, ring} attribution) for
  // the duration of the step, so every span and event the step records is
  // attributed to this process and nests in its own span tree.
  Meter& meter = machine_->meter();
  TraceContext* previous_context = meter.SetContext(&next->trace_context());
  if (switched) {
    meter.Emit(TraceEventKind::kDispatch, "dispatch", next->pid());
  }
  const Cycles busy_before = machine_->busy_cycles(cpu);
  TaskContext ctx(this, next);
  TaskState state = next->program()->Step(ctx);
  meter.SetContext(previous_context);
  // Everything the step charged on this CPU — gate bodies included — counts
  // against the process's quantum and its work class's virtual time.
  const Cycles used = machine_->busy_cycles(cpu) - busy_before;
  WorkClass& work_class = classes_[next->work_class()];
  work_class.charged += used;
  ++work_class.dispatches;
  ++next->accounting().dispatches;
  next->set_last_cpu(cpu);
  next->set_state(state);
  switch (state) {
    case TaskState::kReady: {
      if (!(two_layer_ && IsDedicated(next))) {
        if (policy_ == SchedulerPolicy::kMultilevelFeedback) {
          next->set_quantum_used(next->quantum_used() + used);
          if (next->quantum_used() >= quantum_for_level(next->sched_level())) {
            // Quantum expiry: drop a level (longer quantum, served later) —
            // compute-bound work sinks out of the interactive levels.
            if (next->sched_level() + 1 < kSchedLevels) {
              next->set_sched_level(next->sched_level() + 1);
              ++demotions_;
            }
            next->set_quantum_used(0);
          }
        }
        Enqueue(next);
      }
      break;
    }
    case TaskState::kBlocked: {
      // A wakeup may have raced in during the step: if the channel already
      // has events, the process is still runnable.
      if (next->blocked_on() != 0 && channels_.HasEvents(next->blocked_on())) {
        MakeReady(next);
      }
      break;
    }
    case TaskState::kDone:
      break;
  }
  return true;
}

uint64_t TrafficController::RunUntil(Cycles deadline) {
  uint64_t slices = 0;
  while (machine_->clock().now() < deadline && RunSlice()) {
    ++slices;
  }
  machine_->clock().AdvanceTo(deadline);
  return slices;
}

uint64_t TrafficController::RunUntilQuiescent(uint64_t max_slices) {
  uint64_t slices = 0;
  while (slices < max_slices) {
    bool user_work_left = false;
    for (auto& [pid, process] : processes_) {
      if (!IsDedicated(process.get()) && process->state() != TaskState::kDone) {
        user_work_left = true;
        break;
      }
    }
    if (!user_work_left) {
      break;
    }
    if (!RunSlice()) {
      break;  // Deadlocked or everyone blocked with no pending events.
    }
    ++slices;
  }
  return slices;
}

// --- Snapshot -----------------------------------------------------------------------

TrafficController::State TrafficController::SaveState() const {
  auto pid_of = [](const Process* process) {
    return process == nullptr ? kNoProcess : process->pid();
  };
  State state;
  state.channels = channels_.SaveState();
  state.processes.reserve(processes_.size());
  for (const auto& [pid, process] : processes_) {
    CHECK(process->trace_context().stack.empty()) << "process " << pid << " saved with a span open";
    state.processes.emplace_back(pid, process->SaveState());
  }
  state.two_layer = two_layer_;
  for (const Process* process : dedicated_) state.dedicated.push_back(pid_of(process));
  for (const Process* process : ready_queue_) state.ready_queue.push_back(pid_of(process));
  state.dedicated_cursor = dedicated_cursor_;
  state.policy = policy_;
  state.base_quantum = base_quantum_;
  state.classes = classes_;
  state.run_queues.resize(run_queues_.size());
  for (size_t cpu = 0; cpu < run_queues_.size(); ++cpu) {
    state.run_queues[cpu].resize(run_queues_[cpu].size());
    for (size_t k = 0; k < run_queues_[cpu].size(); ++k) {
      for (uint32_t level = 0; level < kSchedLevels; ++level) {
        for (const Process* process : run_queues_[cpu][k].level[level]) {
          state.run_queues[cpu][k][level].push_back(pid_of(process));
        }
      }
    }
  }
  state.next_home_cpu = next_home_cpu_;
  state.dispatch_seq = dispatch_seq_;
  state.trace_limit = trace_limit_;
  state.dispatch_trace = dispatch_trace_;
  state.interrupt_strategy = interrupt_strategy_;
  state.handlers = handlers_;
  state.last_running = pid_of(last_running_);
  for (const Process* process : last_on_cpu_) state.last_on_cpu.push_back(pid_of(process));
  state.next_pid = next_pid_;
  state.interrupt_latency = interrupt_latency_;
  state.context_switches = context_switches_;
  state.idle_jumps = idle_jumps_;
  state.promotions = promotions_;
  state.demotions = demotions_;
  state.steals = steals_;
  return state;
}

void TrafficController::RestoreState(const State& state) {
  CHECK(state.next_pid == next_pid_ && state.processes.size() == processes_.size())
      << "traffic controller restored across process creation";
  auto process_of = [this](ProcessId pid) -> Process* {
    if (pid == kNoProcess) return nullptr;
    Process* process = Find(pid);
    CHECK(process != nullptr) << "no process " << pid;
    return process;
  };
  auto processes_of = [&](const std::vector<ProcessId>& pids, auto* out) {
    out->clear();
    for (ProcessId pid : pids) out->push_back(process_of(pid));
  };
  channels_.RestoreState(state.channels);
  for (const auto& [pid, process_state] : state.processes) {
    Process* process = process_of(pid);
    CHECK(process->trace_context().stack.empty()) << "process " << pid << " restored with a span open";
    process->RestoreState(process_state);
  }
  two_layer_ = state.two_layer;
  processes_of(state.dedicated, &dedicated_);
  processes_of(state.ready_queue, &ready_queue_);
  dedicated_cursor_ = state.dedicated_cursor;
  policy_ = state.policy;
  base_quantum_ = state.base_quantum;
  classes_ = state.classes;
  run_queues_.resize(state.run_queues.size());
  for (size_t cpu = 0; cpu < run_queues_.size(); ++cpu) {
    run_queues_[cpu].resize(state.run_queues[cpu].size());
    for (size_t k = 0; k < run_queues_[cpu].size(); ++k) {
      RunQueue& rq = run_queues_[cpu][k];
      rq.count = 0;
      for (uint32_t level = 0; level < kSchedLevels; ++level) {
        processes_of(state.run_queues[cpu][k][level], &rq.level[level]);
        rq.count += rq.level[level].size();
      }
    }
  }
  next_home_cpu_ = state.next_home_cpu;
  dispatch_seq_ = state.dispatch_seq;
  trace_limit_ = state.trace_limit;
  dispatch_trace_ = state.dispatch_trace;
  interrupt_strategy_ = state.interrupt_strategy;
  handlers_ = state.handlers;
  last_running_ = process_of(state.last_running);
  processes_of(state.last_on_cpu, &last_on_cpu_);
  interrupt_latency_ = state.interrupt_latency;
  context_switches_ = state.context_switches;
  idle_jumps_ = state.idle_jumps;
  promotions_ = state.promotions;
  demotions_ = state.demotions;
  steals_ = state.steals;
}

}  // namespace multics
