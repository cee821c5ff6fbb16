// Kernel::Snapshot / Kernel::Restore: the whole simulated state as values.
// Each subsystem saves and restores its own part (the State types next to
// each class); this file adds the parts only the kernel can resolve — which
// core frames are live, which process each CPU and the meter are bound to,
// and the SDW page tables, re-resolved through the restored AST by UID.

#include "src/core/kernel.h"

#include <algorithm>

#include "src/base/log.h"

namespace multics {

void Kernel::CheckQuiescent() const {
  CHECK(net_buffer_segments_.empty()) << "kernel snapshot with network buffer segments";
  CHECK(!has_device_io()) << "kernel snapshot with per-device I/O stacks";
}

KernelSnapshot Kernel::Snapshot() const {
  CheckQuiescent();
  KernelSnapshot snap;
  snap.machine = machine_.SaveState();
  for (FrameIndex frame = 0; frame < core_map_.frame_count(); ++frame) {
    // A free frame's contents are dead: page control zero-fills or writes
    // every frame before it maps it.
    if (!core_map_.info(frame).free) {
      snap.core_frames.push_back(frame);
      machine_.core().AppendPage(frame, &snap.core_words);
    }
  }
  snap.core_map = core_map_.SaveState();
  snap.bulk = bulk_.SaveState();
  snap.disk = disk_.SaveState();
  snap.ast = ast_.SaveState();
  snap.page_control = page_control_->SaveState();
  snap.store = store_.SaveState();
  snap.hierarchy = hierarchy_.SaveState();
  snap.gates = gates_;
  snap.gate_dist_ids = gate_dist_ids_;
  snap.audit = audit_;
  snap.monitor_checks = monitor_.checks();
  snap.flaws = flaws_;
  snap.traffic = traffic_.SaveState();
  snap.network = network_.SaveState();
  snap.connections = connections_;
  for (const auto& [pid, sink] : fault_sinks_) {
    snap.fault_sinks.push_back(pid);
  }
  snap.legacy_naming = legacy_naming_;
  snap.users = users_;
  for (uint32_t cpu = 0; cpu < machine_.cpu_count(); ++cpu) {
    const DescriptorSegment* dseg = machine_.processor(cpu).address_space();
    ProcessId attached = kNoProcess;
    traffic_.ForEachProcess([&](const Process& process) {
      if (&process.dseg() == dseg) {
        attached = process.pid();
      }
    });
    CHECK(dseg == nullptr || attached != kNoProcess) << "CPU " << cpu << " runs a foreign dseg";
    snap.attached.push_back(attached);
  }
  snap.meter_context = machine_.meter().context()->pid;
  snap.current = current_ == nullptr ? kNoProcess : current_->pid();
  snap.kernel_faults = kernel_faults_;
  snap.address_space_ops = address_space_ops_;
  return snap;
}

void Kernel::Restore(const KernelSnapshot& snap) {
  CheckQuiescent();
  auto process_of = [this](ProcessId pid) {
    Process* process = traffic_.Find(pid);
    CHECK(process != nullptr) << "snapshot names unknown process " << pid;
    return process;
  };

  // The meter's context first: the machine restore re-sets the attribution
  // that installing a context resets.
  Meter& meter = machine_.meter();
  meter.SetContext(snap.meter_context == kNoProcess
                       ? nullptr
                       : &process_of(snap.meter_context)->trace_context());
  machine_.RestoreState(snap.machine);

  ast_.RestoreState(snap.ast);
  core_map_.RestoreState(snap.core_map, ast_);
  for (size_t i = 0; i < snap.core_frames.size(); ++i) {
    machine_.core().LoadPage(snap.core_frames[i], &snap.core_words[i * kPageWords]);
  }
  bulk_.RestoreState(snap.bulk);
  disk_.RestoreState(snap.disk);
  page_control_->RestoreState(snap.page_control, ast_);
  store_.RestoreState(snap.store);
  hierarchy_.RestoreState(snap.hierarchy);

  gates_ = snap.gates;
  gate_dist_ids_ = snap.gate_dist_ids;
  audit_ = snap.audit;
  monitor_.RestoreChecks(snap.monitor_checks);
  flaws_ = snap.flaws;

  traffic_.RestoreState(snap.traffic);
  traffic_.ForEachProcess([&](Process& process) {
    process.dseg().RebindPageTables([&](uint64_t uid) {
      ActiveSegment* seg = ast_.Find(uid);
      CHECK(seg != nullptr) << "SDW of inactive segment " << uid;
      return &seg->page_table;
    });
  });
  network_.RestoreState(snap.network);
  connections_ = snap.connections;

  // Fault sinks are wiring, but which processes have one is state.
  std::erase_if(fault_sinks_, [&](const auto& entry) {
    return std::find(snap.fault_sinks.begin(), snap.fault_sinks.end(), entry.first) ==
           snap.fault_sinks.end();
  });
  for (ProcessId pid : snap.fault_sinks) {
    if (!fault_sinks_.contains(pid)) {
      AttachFaultSink(*process_of(pid));
    }
  }

  legacy_naming_ = snap.legacy_naming;
  users_ = snap.users;
  for (uint32_t cpu = 0; cpu < machine_.cpu_count(); ++cpu) {
    Processor& processor = machine_.processor(cpu);
    const ProcessId pid = snap.attached[cpu];
    if (pid == kNoProcess) {
      processor.AttachAddressSpace(nullptr);
      processor.SetFaultSink(nullptr);
    } else {
      processor.AttachAddressSpace(&process_of(pid)->dseg());
      auto sink = fault_sinks_.find(pid);
      processor.SetFaultSink(sink != fault_sinks_.end() ? sink->second.get() : nullptr);
    }
  }
  current_ = snap.current == kNoProcess ? nullptr : process_of(snap.current);
  kernel_faults_ = snap.kernel_faults;
  address_space_ops_ = snap.address_space_ops;
}

}  // namespace multics
