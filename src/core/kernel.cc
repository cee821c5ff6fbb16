#include "src/core/kernel.h"

#include "src/base/log.h"

namespace multics {

// --- Fault handling ---------------------------------------------------------------

// The per-process fault sink: segment faults reconnect SDWs (reactivating
// the segment and *recomputing access* — the reference monitor re-decides at
// every reconnection, as Multics did); page faults go to page control.
class KernelFaultSink : public FaultSink {
 public:
  KernelFaultSink(Kernel* kernel, Process* process) : kernel_(kernel), process_(process) {}

  Status HandleSegmentFault(SegNo segno) override {
    auto uid = process_->kst().UidOf(segno);
    if (!uid.ok()) {
      return Status::kNoSuchSegment;  // Never initiated: a real user error.
    }
    return kernel_->ConnectSdw(*process_, segno, uid.value());
  }

  Status HandlePageFault(SegNo segno, PageNo page, AccessMode mode) override {
    auto uid = process_->kst().UidOf(segno);
    if (!uid.ok()) {
      return Status::kNoSuchSegment;
    }
    ActiveSegment* seg = kernel_->store().ast()->Find(uid.value());
    if (seg == nullptr) {
      MX_RETURN_IF_ERROR(kernel_->ConnectSdw(*process_, segno, uid.value()));
      seg = kernel_->store().ast()->Find(uid.value());
      if (seg == nullptr) {
        return Status::kInternal;
      }
    }
    return kernel_->page_control().EnsureResident(seg, page, mode);
  }

 private:
  Kernel* kernel_;
  Process* process_;
};

namespace {

// Packs a (pid, segno) connection into one set key; exact because
// segno < kMaxSegments = 2^12.
constexpr uint64_t ConnKey(ProcessId pid, SegNo segno) {
  return (pid << 12) | static_cast<uint64_t>(segno);
}

}  // namespace

// --- Construction -------------------------------------------------------------------

Kernel::Kernel(const KernelParams& params)
    : params_([&] {
        KernelParams p = params;
        p.machine.ring_mode = params.config.ring_mode;
        return p;
      }()),
      machine_(params_.machine),
      core_map_(params_.machine.core_frames),
      bulk_(MakeBulkStore(params_.bulk_pages, &machine_)),
      disk_(MakeDisk(params_.disk_pages, &machine_)),
      ast_(params_.ast_capacity),
      policy_(MakePolicy(params_.replacement_policy)),
      store_(&machine_, &ast_, &disk_),
      hierarchy_(&store_),
      gates_(PresentGates(params_.config)),
      audit_(),
      monitor_(&audit_, params_.config.mls_enforcement),
      traffic_(&machine_, params_.virtual_processors),
      network_(&machine_, NetworkAttachment::Config{}) {
  CHECK(policy_ != nullptr) << "unknown replacement policy " << params_.replacement_policy;

  if (params_.config.parallel_page_control) {
    page_control_ = std::make_unique<ParallelPageControl>(&machine_, &core_map_, &bulk_, &disk_,
                                                          policy_.get(),
                                                          params_.parallel_page_control);
  } else {
    page_control_ = std::make_unique<SequentialPageControl>(&machine_, &core_map_, &bulk_,
                                                            &disk_, policy_.get());
  }
  store_.AttachPageControl(page_control_.get());
  store_.SetDeactivateHook([this](Uid uid) { DisconnectSdwsFor(uid); });

  CHECK(hierarchy_.Init() == Status::kOk);

  if (params_.config.per_device_io) {
    for (uint32_t line = 0; line < 4; ++line) {
      ttys_.push_back(std::make_unique<TtyLine>(&machine_, /*interrupt line=*/line));
    }
    card_reader_ = std::make_unique<CardReader>(&machine_);
    printer_ = std::make_unique<LinePrinter>(&machine_);
    tape_ = std::make_unique<TapeDrive>(&machine_);
  }

  traffic_.SetInterruptStrategy(params_.config.interrupt_processes
                                    ? InterruptStrategy::kDedicatedProcesses
                                    : InterruptStrategy::kInlineInCurrentProcess);

  for (const FlawReport& report : BuiltinFlawCatalog()) {
    flaws_.Add(report);
  }

  gate_dist_ids_.fill(kInvalidMeterId);
}

Kernel::~Kernel() = default;

// --- Gate prologue -------------------------------------------------------------------

GateSpan::GateSpan(Kernel* kernel, Process& caller, GateId gate, uint32_t arg_words)
    : kernel_(kernel), gate_(gate), status_(kernel->EnterGate(caller, gate)) {
  if (status_ != Status::kOk) {
    return;
  }
  // In global-lock mode the whole gate body runs under the one kernel lock —
  // the configuration the scaling benchmark uses as its strawman. (In
  // partitioned mode each module takes its own lock instead.)
  if (kernel_->machine_.lock_mode() == LockMode::kGlobalKernelLock) {
    kernel_->machine_.locks().Global().Acquire();
    locked_ = true;
  }
  Meter& meter = kernel_->machine_.meter();
  if (meter.enabled()) {
    // Attribute the gate body to the calling process running in ring 0; the
    // span itself stays on the current causal stack, so a gate called from a
    // bench's session span (or another process's open span) nests under it.
    saved_attribution_ = meter.SetAttribution(Attribution{caller.pid(), kRingKernel});
    ctx_ = meter.OpenSpan(GateName(gate_), TraceEventKind::kGateEnter);
  }
  // Charged after the span opens so the crossing is gate self-time; the
  // charge itself does not depend on whether the meter is enabled.
  kernel_->ChargeGateCrossing(arg_words);
}

GateSpan::~GateSpan() {
  if (locked_) {
    kernel_->machine_.locks().Global().Release();
  }
  if (status_ != Status::kOk || ctx_ == nullptr) {
    return;
  }
  Meter& meter = kernel_->machine_.meter();
  const Cycles elapsed = meter.CloseSpan(ctx_, TraceEventKind::kGateExit);
  meter.SetAttribution(saved_attribution_);
  if (meter.enabled()) {
    // The per-gate distribution id is interned once and cached by GateId,
    // so the steady state records "gate/<name>" without building the name:
    // 334k gate calls per 10k-session run made this concatenation one of the
    // hottest allocation sites in the simulator.
    MeterId& id = kernel_->gate_dist_ids_[GateIndex(gate_)];
    if (id == kInvalidMeterId) {
      id = meter.InternDistribution(std::string("gate/") + GateName(gate_).c_str());
    }
    meter.AddSample(id, static_cast<double>(elapsed));
  }
}

Status Kernel::EnterGate(Process& caller, GateId gate) {
  const char* name = GateName(gate).c_str();
  if (gates_.RecordCall(gate) != Status::kOk) {
    // The mechanism is not part of this configuration's kernel: there is no
    // such gate in the descriptor, so the hardware would fault the call.
    audit_.Record(machine_.clock().now(), caller.principal_string(), name, kInvalidUid,
                  Status::kNotAGate);
    return Status::kNotAGate;
  }
  // Injection point: crash the calling process inside this gate after a
  // configured number of cycles. The charge models the partial execution of
  // the gate body before the crash; the fault is audited and surfaces as an
  // ordinary denial, so no kernel data structure is left half-updated —
  // exactly the containment property the gate discipline is meant to give.
  if (machine_.injector() != nullptr) {
    InjectionDecision d = machine_.ConsultInjector(InjectSite::kGateEntry, name, caller.pid());
    if (d.IsFault()) {
      if (d.delay > 0) {
        machine_.Charge(d.delay, ChargeKind::kFaultPath);
      }
      audit_.Record(machine_.clock().now(), caller.principal_string(), name, kInvalidUid,
                    d.fault);
      return d.fault;
    }
  }
  return Status::kOk;
}

void Kernel::ChargeGateCrossing(uint32_t arg_words) {
  const CostModel& costs = machine_.costs();
  if (machine_.ring_mode() == RingMode::kHardware6180) {
    machine_.Charge(costs.intra_ring_call + costs.hardware_ring_call_extra +
                        costs.intra_ring_return + costs.hardware_ring_return_extra,
                    ChargeKind::kGateCrossing);
  } else {
    machine_.Charge(costs.intra_ring_call + costs.software_ring_trap +
                        costs.software_ring_validate + costs.software_ring_swap +
                        costs.software_ring_arg_copy_per_word * arg_words +
                        costs.intra_ring_return + costs.software_ring_trap +
                        costs.software_ring_swap,
                    ChargeKind::kGateCrossing);
  }
}

// --- Process management ----------------------------------------------------------------

Result<Process*> Kernel::BootstrapProcess(const std::string& name, const Principal& principal,
                                          const MlsLabel& clearance,
                                          std::unique_ptr<Task> program) {
  if (program == nullptr) {
    program = std::make_unique<FnTask>([](TaskContext&) { return TaskState::kDone; });
  }
  auto process =
      traffic_.CreateProcess(name, principal, clearance, kRingUser, std::move(program));
  if (!process.ok()) {
    return process.status();
  }
  AttachFaultSink(*process.value());
  return process;
}

void Kernel::AttachFaultSink(Process& process) {
  fault_sinks_[process.pid()] = std::make_unique<KernelFaultSink>(this, &process);
}

Result<Process*> Kernel::ProcCreate(Process& caller, const std::string& name,
                                    const Principal& principal, const MlsLabel& clearance,
                                    std::unique_ptr<Task> program) {
  MX_ENTER_GATE(caller, GateId::kProcCreate);
  Principal effective = principal;
  MlsLabel label = clearance;
  if (caller.ring() > kRingSupervisor) {
    // Unprivileged callers cannot mint foreign principals or raise clearance.
    effective = caller.principal();
    if (!caller.clearance().Dominates(label)) {
      label = caller.clearance();
    }
  }
  auto process = BootstrapProcess(name, effective, label, std::move(program));
  if (process.ok()) {
    audit_.Record(machine_.clock().now(), caller.principal_string(), "proc_create",
                  kInvalidUid, Status::kOk);
  }
  return process;
}

Status Kernel::ProcDestroy(Process& caller, ProcessId pid) {
  MX_ENTER_GATE(caller, GateId::kProcDestroy);
  Process* victim = traffic_.Find(pid);
  if (victim == nullptr) {
    return Status::kNoSuchProcess;
  }
  if (caller.ring() > kRingSupervisor && victim->principal() != caller.principal()) {
    audit_.Record(machine_.clock().now(), caller.principal_string(), "proc_destroy",
                  kInvalidUid, Status::kAccessDenied);
    return Status::kAccessDenied;
  }
  // Tear down the address space: every known segment is terminated.
  std::vector<SegNo> segnos;
  victim->kst().ForEach([&](SegNo segno, Uid) { segnos.push_back(segno); });
  for (SegNo segno : segnos) {
    (void)ReleaseSegno(*victim, segno, /*force=*/true);
  }
  legacy_naming_.erase(pid);
  fault_sinks_.erase(pid);
  victim->set_state(TaskState::kDone);
  return Status::kOk;
}

Result<std::string> Kernel::ProcGetInfo(Process& caller, ProcessId pid) {
  MX_ENTER_GATE(caller, GateId::kProcGetInfo);
  Process* process = traffic_.Find(pid);
  if (process == nullptr) {
    return Status::kNoSuchProcess;
  }
  return process->name() + " " + process->principal().ToString() + " ring=" +
         std::to_string(process->ring()) + " cpu=" +
         std::to_string(process->accounting().cpu_used) + " known_segs=" +
         std::to_string(process->kst().size());
}

Result<std::string> Kernel::ProcMetering(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kProcMetering, 2);
  const ProcessAccounting& accounting = caller.accounting();
  return "cpu=" + std::to_string(accounting.cpu_used) + " stolen=" +
         std::to_string(accounting.stolen_by_interrupts) + " dispatches=" +
         std::to_string(accounting.dispatches) + " known_segs=" +
         std::to_string(caller.kst().size());
}

Status Kernel::RunAs(Process& process) {
  auto it = fault_sinks_.find(process.pid());
  if (it == fault_sinks_.end()) {
    return Status::kNoSuchProcess;
  }
  if (current_ != &process) {
    machine_.Charge(machine_.costs().process_switch, ChargeKind::kScheduler);
  }
  current_ = &process;
  // Bind the process to whichever CPU the traffic controller made active:
  // address space, fault sink, and ring all live in per-CPU processor state.
  Processor& cpu = machine_.active_processor();
  cpu.AttachAddressSpace(&process.dseg());
  cpu.SetFaultSink(it->second.get());
  cpu.SetRing(process.ring());
  return Status::kOk;
}

// --- SDW management ----------------------------------------------------------------------

Status Kernel::ConnectSdw(Process& process, SegNo segno, Uid uid) {
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  ++address_space_ops_;

  SegmentDescriptor sdw;
  if (branch->is_directory) {
    // Directories are opaque handles in the user ring: a valid SDW with no
    // permissions and no pages. The kernel alone walks their contents.
    sdw.valid = true;
    sdw.page_table = nullptr;
    sdw.length_pages = 0;
    sdw.brackets = KernelPrivateBrackets();
    sdw.uid = uid;
  } else {
    uint8_t modes =
        monitor_.SegmentModes(*branch, process.principal(), process.clearance(), Trusted(process));
    MX_ASSIGN_OR_RETURN(ActiveSegment * seg, store_.Activate(uid));
    sdw = monitor_.BuildSdw(*branch, modes, &seg->page_table);
    sdw.length_pages = seg->pages;
  }
  process.dseg().Set(segno, sdw);

  connections_[uid].insert(ConnKey(process.pid(), segno));
  return Status::kOk;
}

void Kernel::DisconnectSdwsFor(Uid uid) {
  auto it = connections_.find(uid);
  if (it == connections_.end()) {
    return;
  }
  for (const uint64_t key : it->second) {
    const ProcessId pid = key >> 12;
    const SegNo segno = static_cast<SegNo>(key & (kMaxSegments - 1));
    if (Process* process = traffic_.Find(pid); process != nullptr) {
      SegmentDescriptor* sdw = process->dseg().GetMutable(segno);
      if (sdw != nullptr) {
        sdw->valid = false;  // Next touch takes a segment fault.
        sdw->page_table = nullptr;
      }
    }
  }
}

Result<SegNo> Kernel::InitiateKnown(Process& caller, Uid uid, const char* operation) {
  MX_ASSIGN_OR_RETURN(Branch * branch, store_.Get(uid));
  ++address_space_ops_;

  if (!branch->is_directory) {
    uint8_t modes =
        monitor_.SegmentModes(*branch, caller.principal(), caller.clearance(), Trusted(caller));
    if (modes == kModeNull) {
      audit_.Record(machine_.clock().now(), caller.principal_string(), operation, uid,
                    Status::kAccessDenied);
      return Status::kAccessDenied;
    }
    audit_.Record(machine_.clock().now(), caller.principal_string(), operation, uid,
                  Status::kOk);
  }

  bool already_known = caller.kst().IsKnown(uid);
  MX_ASSIGN_OR_RETURN(SegNo segno, caller.kst().Assign(uid));
  if (!already_known) {
    store_.AddRef(uid);
  }
  MX_RETURN_IF_ERROR(ConnectSdw(caller, segno, uid));
  return segno;
}

Status Kernel::ReleaseSegno(Process& caller, SegNo segno, bool force) {
  auto uid = caller.kst().UidOf(segno);
  if (!uid.ok()) {
    return Status::kSegmentNotKnown;
  }
  ++address_space_ops_;
  if (force) {
    MX_RETURN_IF_ERROR(caller.kst().ForceRelease(segno));
  } else {
    MX_ASSIGN_OR_RETURN(uint32_t remaining, caller.kst().Release(segno));
    if (remaining > 0) {
      return Status::kOk;  // Other initiations of this process still hold it.
    }
  }
  caller.dseg().Clear(segno);
  (void)store_.DropRef(uid.value());
  connections_[uid.value()].erase(ConnKey(caller.pid(), segno));
  if (params_.config.naming_in_kernel) {
    LegacyNamingState& state = naming(caller);
    state.pathnames.erase(segno);
    state.linkage_ptrs.erase(segno);
    std::erase_if(state.reference_names,
                  [segno](const auto& kv) { return kv.second == segno; });
  }
  return Status::kOk;
}

Result<Uid> Kernel::ResolveDirSegno(Process& caller, SegNo dir_segno) const {
  auto uid = caller.kst().UidOf(dir_segno);
  if (!uid.ok()) {
    return Status::kSegmentNotKnown;
  }
  return uid.value();
}

Kernel::LegacyNamingState& Kernel::naming(const Process& process) {
  return legacy_naming_[process.pid()];
}

// --- E3 metric -----------------------------------------------------------------------------

size_t Kernel::KernelAddressSpaceStateBytes(const Process& process) const {
  size_t bytes = process.kst().KernelStateBytes();
  auto it = legacy_naming_.find(process.pid());
  if (it != legacy_naming_.end()) {
    const LegacyNamingState& state = it->second;
    for (const auto& [name, segno] : state.reference_names) {
      bytes += name.size() + sizeof(SegNo) + 16;  // Hash-table entry overhead.
    }
    for (const std::string& rule : state.search_rules) {
      bytes += rule.size() + 16;
    }
    for (const auto& [segno, path] : state.pathnames) {
      bytes += path.size() + sizeof(SegNo) + 16;
    }
  }
  return bytes;
}

// --- Admin gates ------------------------------------------------------------------------------

Status Kernel::Shutdown(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kShutdown);
  if (caller.ring() > kRingSupervisor) {
    return Status::kAccessDenied;
  }
  page_control_->PumpIdle();
  return store_.DeactivateAll();
}

Result<std::string> Kernel::MeteringInfo(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kMeteringInfo);
  const PageControlMetrics& pm = page_control_->metrics();
  std::string out = "config=" + params_.config.Name();
  out += " gates=" + std::to_string(gates_.count());
  out += " gate_calls=" + std::to_string(gates_.total_calls());
  out += " faults=" + std::to_string(pm.faults);
  out += " active_segments=" + std::to_string(ast_.size());
  out += " audit_grants=" + std::to_string(audit_.grants());
  out += " audit_denials=" + std::to_string(audit_.denials());
  return out;
}

void Kernel::RegisterUser(const std::string& person, const std::string& project,
                          const std::string& password, const MlsLabel& max_clearance) {
  users_[person + "." + project] = UserRecord{password, max_clearance};
}

Result<MlsLabel> Kernel::CheckPassword(const std::string& person, const std::string& project,
                                       const std::string& password) const {
  auto it = users_.find(person + "." + project);
  if (it == users_.end() || it->second.password != password) {
    return Status::kAuthenticationFailed;
  }
  return it->second.max_clearance;
}

Result<Process*> Kernel::LoginLegacy(Process& caller, const std::string& person,
                                     const std::string& project, const std::string& password,
                                     const MlsLabel& clearance) {
  MX_ENTER_GATE(caller, GateId::kLogin);
  auto max_clearance = CheckPassword(person, project, password);
  if (!max_clearance.ok()) {
    audit_.Record(machine_.clock().now(), person + "." + project, "login", kInvalidUid,
                  Status::kAuthenticationFailed);
    return max_clearance.status();
  }
  if (!max_clearance->Dominates(clearance)) {
    audit_.Record(machine_.clock().now(), person + "." + project, "login", kInvalidUid,
                  Status::kMlsReadViolation);
    return Status::kAccessDenied;
  }
  audit_.Record(machine_.clock().now(), person + "." + project, "login", kInvalidUid,
                Status::kOk);
  return BootstrapProcess(person + "_process", Principal{person, project, "a"}, clearance);
}

Status Kernel::Logout(Process& caller, ProcessId session) {
  MX_ENTER_GATE(caller, GateId::kLogout);
  Process* victim = traffic_.Find(session);
  if (victim == nullptr) {
    return Status::kNoSuchProcess;
  }
  if (caller.ring() > kRingSupervisor && victim->principal() != caller.principal()) {
    audit_.Record(machine_.clock().now(), caller.principal_string(), "logout",
                  kInvalidUid, Status::kAccessDenied);
    return Status::kAccessDenied;
  }
  // The session's address space is torn down exactly as proc_destroy does it.
  std::vector<SegNo> segnos;
  victim->kst().ForEach([&](SegNo segno, Uid) { segnos.push_back(segno); });
  for (SegNo segno : segnos) {
    (void)ReleaseSegno(*victim, segno, /*force=*/true);
  }
  legacy_naming_.erase(session);
  fault_sinks_.erase(session);
  victim->set_state(TaskState::kDone);
  audit_.Record(machine_.clock().now(), caller.principal_string(), "logout", kInvalidUid,
                Status::kOk);
  return Status::kOk;
}

}  // namespace multics
