// Base-level interprocess communication: event channels and wakeups.
//
// The paper: "The proposed new base-level interprocess communication facility
// has the property that its use can be controlled with the standard memory
// protection mechanisms of the kernel." We model that by associating each
// channel with a segment UID; the kernel's gate layer requires write access
// to that segment before permitting a Wakeup, and read access before a Block
// (see src/core/kernel.h). At this layer the table is pure mechanism.

#ifndef SRC_PROC_IPC_H_
#define SRC_PROC_IPC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/meter/meter.h"

namespace multics {

using ChannelId = uint64_t;
using ProcessId = uint64_t;
inline constexpr ProcessId kNoProcess = 0;

struct EventMessage {
  uint64_t data = 0;
  ProcessId sender = kNoProcess;
};

class EventChannelTable {
 public:
  // Optional metering hook (the traffic controller attaches the machine's
  // meter): channel creations, queued wakeups, and receives are counted
  // under "ipc/...", each by a MeterId interned on its first count.
  void AttachMeter(Meter* meter) { meter_ = meter; }

  // Creates a channel owned by `owner`, guarded by segment `guard_uid`
  // (0 = unguarded, kernel-internal channels).
  ChannelId Create(ProcessId owner, uint64_t guard_uid = 0);
  Status Destroy(ChannelId id);

  bool Exists(ChannelId id) const { return Find(id) != nullptr; }
  Result<ProcessId> OwnerOf(ChannelId id) const;
  Result<uint64_t> GuardOf(ChannelId id) const;

  // Queues an event. Returns the process (if any) that was blocked waiting
  // and should now be made ready; the scheduler handles that.
  Result<ProcessId> Wakeup(ChannelId id, EventMessage message);

  // Non-blocking receive: pops the oldest queued event if present.
  Result<EventMessage> TryReceive(ChannelId id);
  bool HasEvents(ChannelId id) const;
  Result<uint64_t> QueueLength(ChannelId id) const;

  // Registers the single blocked waiter.
  Status SetWaiter(ChannelId id, ProcessId waiter);

  uint64_t total_wakeups() const { return total_wakeups_; }

 private:
  struct Channel {
    ProcessId owner = kNoProcess;
    uint64_t guard_uid = 0;
    std::deque<EventMessage> queue;
    ProcessId waiter = kNoProcess;
  };

  // Channel ids are handed out sequentially from 1, so the table is a flat
  // id-indexed vector (destroyed channels leave a null slot): every Wakeup,
  // TryReceive and guard check on the session hot path is one bounds check
  // and one pointer chase, not a hash probe.
  Channel* Find(ChannelId id) {
    return id >= 1 && id <= slots_.size() ? slots_[id - 1].get() : nullptr;
  }
  const Channel* Find(ChannelId id) const {
    return id >= 1 && id <= slots_.size() ? slots_[id - 1].get() : nullptr;
  }

  // Counts under `id`, interning `name` into it on the first count.
  void Count(MeterId& id, std::string_view name);

  Meter* meter_ = nullptr;
  MeterId m_channels_created_ = kInvalidMeterId;
  MeterId m_wakeups_queued_ = kInvalidMeterId;
  MeterId m_receives_ = kInvalidMeterId;
  std::vector<std::unique_ptr<Channel>> slots_;
  ChannelId next_id_ = 1;
  uint64_t total_wakeups_ = 0;

 public:
  // Channels with their queues and waiters, saved and restored with the
  // kernel; the meter is wiring.
  struct State {
    std::vector<std::optional<Channel>> slots;  // Id-indexed from 1; empty = destroyed.
    ChannelId next_id = 1;
    uint64_t total_wakeups = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);
};

}  // namespace multics

#endif  // SRC_PROC_IPC_H_
