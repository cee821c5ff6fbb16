#include "src/net/network.h"

namespace multics {

NetworkAttachment::NetworkAttachment(Machine* machine, Config config)
    : machine_(machine), config_(config) {}

Result<ConnId> NetworkAttachment::Open(const std::string& remote,
                                       std::unique_ptr<InputBuffer> buffer) {
  if (buffer == nullptr) {
    return Status::kInvalidArgument;
  }
  ConnId conn = next_conn_++;
  Connection connection;
  connection.remote = remote;
  connection.buffer = std::move(buffer);
  connections_[conn] = std::move(connection);
  return conn;
}

Status NetworkAttachment::Close(ConnId conn) {
  return connections_.erase(conn) > 0 ? Status::kOk : Status::kConnectionClosed;
}

Status NetworkAttachment::Send(ConnId conn, const std::string& data) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return Status::kConnectionClosed;
  }
  ++packets_out_;
  machine_->Charge(machine_->costs().instruction * 20, ChargeKind::kNetCpu);
  machine_->meter().Emit(TraceEventKind::kPacketOut, SpanId::kPacketOut, conn);
  // Deliver to the remote sink after the wire latency.
  auto sink = it->second.remote_sink;
  if (sink) {
    machine_->events().ScheduleAfter(config_.packet_latency, [sink, data] { sink(data); });
  }
  return Status::kOk;
}

Result<NetMessage> NetworkAttachment::Receive(ConnId conn) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return Status::kConnectionClosed;
  }
  machine_->Charge(machine_->costs().instruction * 10, ChargeKind::kNetCpu);
  return it->second.buffer->Dequeue();
}

Result<const InputBuffer*> NetworkAttachment::BufferOf(ConnId conn) const {
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return Status::kConnectionClosed;
  }
  return const_cast<const InputBuffer*>(it->second.buffer.get());
}

Status NetworkAttachment::InjectFromRemote(ConnId conn, const std::string& data) {
  if (!connections_.contains(conn)) {
    return Status::kConnectionClosed;
  }
  machine_->events().ScheduleAfter(config_.packet_latency, [this, conn, data] {
    // Delivery runs off the event queue under whatever context pumped it;
    // the span keeps arrival + interrupt assertion attributed as one unit.
    TraceSpan deliver_span(&machine_->meter(), SpanId::kNetDeliver, conn);
    auto it = connections_.find(conn);
    if (it == connections_.end()) {
      ++lost_on_closed_;
      return;
    }
    NetMessage message;
    message.sequence = it->second.next_sequence++;
    message.data = data;
    (void)it->second.buffer->Enqueue(message);
    ++packets_in_;
    machine_->meter().Emit(TraceEventKind::kPacketIn, SpanId::kPacketIn, conn);
    (void)machine_->interrupts().Assert(config_.interrupt_line, conn);
  });
  return Status::kOk;
}

void NetworkAttachment::SetRemoteSink(ConnId conn, std::function<void(const std::string&)> sink) {
  auto it = connections_.find(conn);
  if (it != connections_.end()) {
    it->second.remote_sink = std::move(sink);
  }
}

uint64_t NetworkAttachment::total_lost() const {
  uint64_t lost = lost_on_closed_;
  for (const auto& [conn, connection] : connections_) {
    lost += connection.buffer->messages_lost();
  }
  return lost;
}

}  // namespace multics
