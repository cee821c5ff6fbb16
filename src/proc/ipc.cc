#include "src/proc/ipc.h"

namespace multics {

void EventChannelTable::Count(MeterId& id, std::string_view name) {
  if (meter_ == nullptr || !meter_->enabled()) {
    return;
  }
  if (id == kInvalidMeterId) {
    id = meter_->InternCounter(name);
  }
  meter_->Count(id);
}

EventChannelTable::State EventChannelTable::SaveState() const {
  State state{{}, next_id_, total_wakeups_};
  state.slots.reserve(slots_.size());
  for (const std::unique_ptr<Channel>& channel : slots_) {
    state.slots.push_back(channel == nullptr ? std::nullopt : std::optional<Channel>(*channel));
  }
  return state;
}

void EventChannelTable::RestoreState(const State& state) {
  slots_.resize(state.slots.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!state.slots[i].has_value()) {
      slots_[i].reset();
    } else if (slots_[i] == nullptr) {
      slots_[i] = std::make_unique<Channel>(*state.slots[i]);
    } else {
      *slots_[i] = *state.slots[i];
    }
  }
  next_id_ = state.next_id;
  total_wakeups_ = state.total_wakeups;
}

ChannelId EventChannelTable::Create(ProcessId owner, uint64_t guard_uid) {
  ChannelId id = next_id_++;
  auto channel = std::make_unique<Channel>();
  channel->owner = owner;
  channel->guard_uid = guard_uid;
  slots_.push_back(std::move(channel));
  Count(m_channels_created_, "ipc/channels_created");
  return id;
}

Status EventChannelTable::Destroy(ChannelId id) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  slots_[id - 1].reset();
  return Status::kOk;
}

Result<ProcessId> EventChannelTable::OwnerOf(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return channel->owner;
}

Result<uint64_t> EventChannelTable::GuardOf(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return channel->guard_uid;
}

Result<ProcessId> EventChannelTable::Wakeup(ChannelId id, EventMessage message) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  channel->queue.push_back(message);
  ++total_wakeups_;
  Count(m_wakeups_queued_, "ipc/wakeups_queued");
  ProcessId waiter = channel->waiter;
  channel->waiter = kNoProcess;
  return waiter;
}

Result<EventMessage> EventChannelTable::TryReceive(ChannelId id) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  if (channel->queue.empty()) {
    return Status::kNotFound;
  }
  EventMessage message = channel->queue.front();
  channel->queue.pop_front();
  Count(m_receives_, "ipc/receives");
  return message;
}

Result<uint64_t> EventChannelTable::QueueLength(ChannelId id) const {
  const Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  return static_cast<uint64_t>(channel->queue.size());
}

bool EventChannelTable::HasEvents(ChannelId id) const {
  const Channel* channel = Find(id);
  return channel != nullptr && !channel->queue.empty();
}

Status EventChannelTable::SetWaiter(ChannelId id, ProcessId waiter) {
  Channel* channel = Find(id);
  if (channel == nullptr) {
    return Status::kNoSuchChannel;
  }
  channel->waiter = waiter;
  return Status::kOk;
}

}  // namespace multics
