#include "src/mem/paging_device.h"

#include <algorithm>

#include "src/base/log.h"

namespace multics {

PagingDevice::PagingDevice(std::string name, uint32_t capacity_pages, Cycles read_latency,
                           Cycles write_latency, Machine* machine)
    : name_(std::move(name)),
      capacity_(capacity_pages),
      read_latency_(read_latency),
      write_latency_(write_latency),
      machine_(machine) {
  free_list_.reserve(capacity_pages);
  // Allocate low addresses first (pop from the back).
  for (uint32_t i = 0; i < capacity_pages; ++i) {
    free_list_.push_back(capacity_pages - 1 - i);
  }
}

Result<DevAddr> PagingDevice::Allocate() {
  if (free_list_.empty()) {
    return Status::kResourceExhausted;
  }
  DevAddr addr = free_list_.back();
  free_list_.pop_back();
  return addr;
}

Status PagingDevice::Free(DevAddr addr) {
  if (addr >= capacity_) {
    return Status::kInvalidArgument;
  }
  store_.erase(addr);
  free_list_.push_back(addr);
  return Status::kOk;
}

Cycles PagingDevice::ScheduleTransfer(Cycles latency, Cycles* channel_busy_until) {
  const Cycles start = std::max(machine_->clock().now(), *channel_busy_until);
  const Cycles done = start + machine_->costs().io_start_overhead + latency;
  *channel_busy_until = done;
  return done;
}

Status PagingDevice::ConsultTransfer(InjectSite site, DevAddr addr) {
  if (machine_->injector() == nullptr) {
    return Status::kOk;
  }
  InjectionDecision d = machine_->ConsultInjector(site, name_.c_str(), addr);
  if (d.IsFault()) {
    ++injected_faults_;
    return d.fault;
  }
  return Status::kOk;
}

Cycles PagingDevice::BackoffFor(int attempt) const {
  // Geometric backoff keyed off the channel-start overhead: cheap relative
  // to a transfer, but visible in the "fault_recovery" charge category.
  return machine_->costs().io_start_overhead << attempt;
}

Status PagingDevice::ReadSync(DevAddr addr, std::vector<Word>* out) {
  if (addr >= capacity_) {
    return Status::kInvalidArgument;
  }
  for (int attempt = 1;; ++attempt) {
    ++reads_;
    machine_->SyncTransfer(machine_->costs().io_start_overhead + read_latency_,
                           &read_busy_until_);
    machine_->charges_mutable().Increment(ChargeKind::kPageIo, read_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceRead, addr);
    if (fault == Status::kOk) {
      auto it = store_.find(addr);
      if (it == store_.end()) {
        out->assign(kPageWords, 0);
      } else {
        *out = it->second;
      }
      return Status::kOk;
    }
    if (attempt >= kMaxTransferAttempts) {
      ++failed_transfers_;
      return fault;
    }
    ++retries_;
    machine_->Charge(BackoffFor(attempt), ChargeKind::kFaultRecovery);
  }
}

Status PagingDevice::WriteSync(DevAddr addr, std::vector<Word> data) {
  if (addr >= capacity_ || data.size() != kPageWords) {
    return Status::kInvalidArgument;
  }
  for (int attempt = 1;; ++attempt) {
    ++writes_;
    machine_->SyncTransfer(machine_->costs().io_start_overhead + write_latency_,
                           &write_busy_until_);
    machine_->charges_mutable().Increment(ChargeKind::kPageIo, write_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceWrite, addr);
    if (fault == Status::kOk) {
      store_[addr] = std::move(data);
      return Status::kOk;
    }
    if (attempt >= kMaxTransferAttempts) {
      ++failed_transfers_;
      return fault;
    }
    ++retries_;
    machine_->Charge(BackoffFor(attempt), ChargeKind::kFaultRecovery);
  }
}

void PagingDevice::StartRead(DevAddr addr, std::function<void(Status, std::vector<Word>)> done,
                             bool urgent, int attempt) {
  ++reads_;
  Cycles* channel = urgent ? &urgent_busy_until_ : &read_busy_until_;
  const Cycles when = ScheduleTransfer(read_latency_, channel);
  machine_->events().ScheduleAt(when, [this, addr, done = std::move(done), urgent,
                                       attempt]() mutable {
    machine_->charges_mutable().Increment(ChargeKind::kPageIo, read_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceRead, addr);
    if (fault != Status::kOk) {
      if (attempt < kMaxTransferAttempts) {
        ++retries_;
        const Cycles backoff = BackoffFor(attempt);
        machine_->charges_mutable().Increment(ChargeKind::kFaultRecovery, backoff);
        machine_->events().ScheduleAfter(
            backoff, [this, addr, done = std::move(done), urgent, attempt]() mutable {
              StartRead(addr, std::move(done), urgent, attempt + 1);
            });
        return;
      }
      ++failed_transfers_;
      if (interrupts_ != nullptr) {
        (void)interrupts_->Assert(line_, addr);
      }
      done(fault, {});
      return;
    }
    std::vector<Word> data;
    auto it = store_.find(addr);
    if (it == store_.end()) {
      data.assign(kPageWords, 0);
    } else {
      data = it->second;
    }
    if (interrupts_ != nullptr) {
      (void)interrupts_->Assert(line_, addr);
    }
    done(Status::kOk, std::move(data));
  });
}

void PagingDevice::StartWrite(DevAddr addr, std::vector<Word> data,
                              std::function<void(Status)> done, int attempt) {
  ++writes_;
  const Cycles when = ScheduleTransfer(write_latency_, &write_busy_until_);
  machine_->events().ScheduleAt(
      when, [this, addr, data = std::move(data), done = std::move(done), attempt]() mutable {
        machine_->charges_mutable().Increment(ChargeKind::kPageIo, write_latency_);
        Status fault = ConsultTransfer(InjectSite::kDeviceWrite, addr);
        if (fault != Status::kOk) {
          if (attempt < kMaxTransferAttempts) {
            ++retries_;
            const Cycles backoff = BackoffFor(attempt);
            machine_->charges_mutable().Increment(ChargeKind::kFaultRecovery, backoff);
            machine_->events().ScheduleAfter(
                backoff,
                [this, addr, data = std::move(data), done = std::move(done), attempt]() mutable {
                  StartWrite(addr, std::move(data), std::move(done), attempt + 1);
                });
            return;
          }
          ++failed_transfers_;
          if (interrupts_ != nullptr) {
            (void)interrupts_->Assert(line_, addr);
          }
          done(fault);
          return;
        }
        store_[addr] = std::move(data);
        if (interrupts_ != nullptr) {
          (void)interrupts_->Assert(line_, addr);
        }
        done(Status::kOk);
      });
}

void PagingDevice::ReadAsync(DevAddr addr, std::function<void(Status, std::vector<Word>)> done) {
  if (addr >= capacity_) {
    machine_->events().ScheduleAfter(0, [done = std::move(done)] {
      done(Status::kInvalidArgument, {});
    });
    return;
  }
  StartRead(addr, std::move(done), /*urgent=*/false, /*attempt=*/1);
}

void PagingDevice::WriteAsync(DevAddr addr, std::vector<Word> data,
                              std::function<void(Status)> done) {
  if (addr >= capacity_ || data.size() != kPageWords) {
    machine_->events().ScheduleAfter(0,
                                     [done = std::move(done)] { done(Status::kInvalidArgument); });
    return;
  }
  StartWrite(addr, std::move(data), std::move(done), /*attempt=*/1);
}

void PagingDevice::ReadAsyncUrgent(DevAddr addr,
                                   std::function<void(Status, std::vector<Word>)> done) {
  if (addr >= capacity_) {
    machine_->events().ScheduleAfter(0, [done = std::move(done)] {
      done(Status::kInvalidArgument, {});
    });
    return;
  }
  StartRead(addr, std::move(done), /*urgent=*/true, /*attempt=*/1);
}

Status PagingDevice::Poke(DevAddr addr, std::vector<Word> data) {
  if (addr >= capacity_ || data.size() != kPageWords) {
    return Status::kInvalidArgument;
  }
  store_[addr] = std::move(data);
  return Status::kOk;
}

PagingDevice MakeBulkStore(uint32_t pages, Machine* machine) {
  const CostModel& costs = machine->costs();
  return PagingDevice("bulk-store", pages, costs.bulk_store_read, costs.bulk_store_write,
                      machine);
}

PagingDevice MakeDisk(uint32_t pages, Machine* machine) {
  const CostModel& costs = machine->costs();
  return PagingDevice("disk", pages, costs.disk_read, costs.disk_write, machine);
}

}  // namespace multics
