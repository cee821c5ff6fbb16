// IPC, device-I/O, and network gates.
//
// IPC: "the proposed new base-level interprocess communication facility has
// the property that its use can be controlled with the standard memory
// protection mechanisms of the kernel" — every channel is guarded by a
// segment; wakeup needs write access to the guard, blocking needs read.
//
// Device I/O: the legacy per-device stacks (E12); the kernelized
// configuration has only the network gates.

#include "src/core/kernel.h"

namespace multics {

// --- IPC gates ----------------------------------------------------------------------

Result<ChannelId> Kernel::IpcCreateChannel(Process& caller, SegNo guard_segno) {
  MX_ENTER_GATE(caller, GateId::kIpcCreateChannel, 4);
  MX_ASSIGN_OR_RETURN(Uid guard_uid, ResolveDirSegno(caller, guard_segno));
  MX_ASSIGN_OR_RETURN(Branch * guard, store_.Get(guard_uid));
  // Creating a channel on a guard requires write access to the guard.
  MX_RETURN_IF_ERROR(monitor_.RequireSegment(*guard, caller.principal(), caller.clearance(),
                                             kModeWrite, GateId::kIpcCreateChannel,
                                             machine_.clock().now(), Trusted(caller)));
  return traffic_.channels().Create(caller.pid(), guard_uid);
}

Status Kernel::IpcDestroyChannel(Process& caller, ChannelId channel) {
  MX_ENTER_GATE(caller, GateId::kIpcDestroyChannel, 4);
  auto owner = traffic_.channels().OwnerOf(channel);
  if (!owner.ok()) {
    return owner.status();
  }
  if (owner.value() != caller.pid() && caller.ring() > kRingSupervisor) {
    return Status::kAccessDenied;
  }
  return traffic_.channels().Destroy(channel);
}

Status Kernel::IpcWakeup(Process& caller, ChannelId channel, uint64_t data) {
  MX_ENTER_GATE(caller, GateId::kIpcWakeup, 4);
  auto guard_uid = traffic_.channels().GuardOf(channel);
  if (!guard_uid.ok()) {
    return guard_uid.status();
  }
  if (guard_uid.value() != 0) {
    MX_ASSIGN_OR_RETURN(Branch * guard, store_.Get(guard_uid.value()));
    MX_RETURN_IF_ERROR(monitor_.RequireSegment(*guard, caller.principal(), caller.clearance(),
                                               kModeWrite, GateId::kIpcWakeup,
                                               machine_.clock().now(), Trusted(caller)));
  }
  return traffic_.Wakeup(channel, EventMessage{data, caller.pid()});
}

Result<bool> Kernel::IpcAwait(Process& caller, TaskContext& ctx, ChannelId channel) {
  MX_ENTER_GATE(caller, GateId::kIpcBlock, 4);
  auto guard_uid = traffic_.channels().GuardOf(channel);
  if (!guard_uid.ok()) {
    return guard_uid.status();
  }
  if (guard_uid.value() != 0) {
    MX_ASSIGN_OR_RETURN(Branch * guard, store_.Get(guard_uid.value()));
    MX_RETURN_IF_ERROR(monitor_.RequireSegment(*guard, caller.principal(), caller.clearance(),
                                               kModeRead, GateId::kIpcBlock, machine_.clock().now(), Trusted(caller)));
  }
  return ctx.Await(channel);
}

Result<uint64_t> Kernel::IpcChannelStatus(Process& caller, ChannelId channel) {
  MX_ENTER_GATE(caller, GateId::kIpcChannelStatus, 2);
  auto guard_uid = traffic_.channels().GuardOf(channel);
  if (!guard_uid.ok()) {
    return guard_uid.status();
  }
  if (guard_uid.value() != 0) {
    MX_ASSIGN_OR_RETURN(Branch * guard, store_.Get(guard_uid.value()));
    MX_RETURN_IF_ERROR(monitor_.RequireSegment(*guard, caller.principal(), caller.clearance(),
                                               kModeRead, GateId::kIpcChannelStatus,
                                               machine_.clock().now(), Trusted(caller)));
  }
  return traffic_.channels().QueueLength(channel);
}

// --- Device I/O gates (legacy) ----------------------------------------------------------

Result<std::string> Kernel::TtyRead(Process& caller, uint32_t line) {
  MX_ENTER_GATE(caller, GateId::kTtyRead, 4);
  if (line >= ttys_.size()) {
    return Status::kDeviceError;
  }
  return ttys_[line]->ReadLine();
}

Status Kernel::TtyWrite(Process& caller, uint32_t line, const std::string& text) {
  MX_ENTER_GATE(caller, GateId::kTtyWrite, 8);
  if (line >= ttys_.size()) {
    return Status::kDeviceError;
  }
  return ttys_[line]->WriteString(text);
}

Result<std::string> Kernel::CardRead(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kCardRead, 2);
  if (card_reader_ == nullptr) {
    return Status::kDeviceError;
  }
  return card_reader_->ReadCard();
}

Status Kernel::PrinterWrite(Process& caller, const std::string& line) {
  MX_ENTER_GATE(caller, GateId::kPrinterWrite, 8);
  if (printer_ == nullptr) {
    return Status::kDeviceError;
  }
  return printer_->PrintLine(line);
}

Status Kernel::PrinterEject(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kPrinterEject, 2);
  if (printer_ == nullptr) {
    return Status::kDeviceError;
  }
  return printer_->EjectPage();
}

Result<std::string> Kernel::TapeRead(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kTapeRead, 2);
  if (tape_ == nullptr) {
    return Status::kDeviceError;
  }
  return tape_->ReadRecord();
}

Status Kernel::TapeWrite(Process& caller, const std::string& record) {
  MX_ENTER_GATE(caller, GateId::kTapeWrite, 8);
  if (tape_ == nullptr) {
    return Status::kDeviceError;
  }
  return tape_->WriteRecord(record);
}

Status Kernel::TapeRewind(Process& caller) {
  MX_ENTER_GATE(caller, GateId::kTapeRewind, 2);
  if (tape_ == nullptr) {
    return Status::kDeviceError;
  }
  return tape_->Rewind();
}

Status Kernel::TapeSkip(Process& caller, uint32_t records) {
  MX_ENTER_GATE(caller, GateId::kTapeSkip, 2);
  if (tape_ == nullptr) {
    return Status::kDeviceError;
  }
  return tape_->SkipRecords(records);
}

// --- Network gates -----------------------------------------------------------------------

Result<ConnId> Kernel::NetOpen(Process& caller, const std::string& remote) {
  MX_ENTER_GATE(caller, GateId::kNetOpen, 6);
  std::unique_ptr<InputBuffer> buffer;
  if (params_.config.infinite_net_buffers) {
    // The VM-backed infinite buffer: backing store grows page-by-page
    // through a real segment under >system, subject to its max length.
    auto system = hierarchy_.Lookup(hierarchy_.root(), "system");
    Uid system_uid = kInvalidUid;
    if (system.ok()) {
      system_uid = system->uid;
    } else {
      SegmentAttributes attrs;
      attrs.acl.Set(AclEntry{"*", "SysDaemon", "*", kModeRead | kModeWrite});
      attrs.author = Principal{"Network", "SysDaemon", "z"};
      MX_ASSIGN_OR_RETURN(system_uid,
                          hierarchy_.CreateDirectory(hierarchy_.root(), "system", attrs));
    }
    SegmentAttributes attrs;
    attrs.max_pages = params_.net_buffer_max_pages;
    attrs.acl.Set(AclEntry{"*", "SysDaemon", "*", kModeRead | kModeWrite});
    attrs.author = Principal{"Network", "SysDaemon", "z"};
    MX_ASSIGN_OR_RETURN(
        Uid buffer_uid,
        hierarchy_.CreateSegment(
            system_uid, "net_q_" + std::to_string(store_.segment_count()) + "_" + remote,
            attrs));
    buffer = std::make_unique<InfiniteBuffer>(
        [this, buffer_uid](uint32_t pages) { return store_.SetLength(buffer_uid, pages); });
  } else {
    buffer = std::make_unique<CircularBuffer>(params_.circular_buffer_words);
  }
  return network_.Open(remote, std::move(buffer));
}

Status Kernel::NetClose(Process& caller, ConnId conn) {
  MX_ENTER_GATE(caller, GateId::kNetClose, 2);
  return network_.Close(conn);
}

Status Kernel::NetWrite(Process& caller, ConnId conn, const std::string& data) {
  MX_ENTER_GATE(caller, GateId::kNetWrite, 8);
  return network_.Send(conn, data);
}

Result<std::string> Kernel::NetRead(Process& caller, ConnId conn) {
  MX_ENTER_GATE(caller, GateId::kNetRead, 4);
  auto message = network_.Receive(conn);
  if (!message.ok()) {
    return message.status();
  }
  return message->data;
}

Result<uint64_t> Kernel::NetStatus(Process& caller, ConnId conn) {
  MX_ENTER_GATE(caller, GateId::kNetStatus, 2);
  MX_ASSIGN_OR_RETURN(const InputBuffer* buffer, network_.BufferOf(conn));
  return static_cast<uint64_t>(buffer->queued());
}

}  // namespace multics
