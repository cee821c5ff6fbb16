#include "src/session/session.h"

namespace multics {
namespace session {

uint64_t SessionSeed(uint64_t engine_seed, uint32_t index) {
  // splitmix64 finalizer over (seed, index) so neighbouring sessions get
  // uncorrelated streams.
  uint64_t z = engine_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SessionTask::SessionTask(Kernel* kernel, const WorkloadParams* params, uint32_t index,
                         uint64_t seed, bool batch,
                         std::function<void(uint32_t, bool)> finished)
    : kernel_(kernel),
      params_(params),
      index_(index),
      rng_(SessionSeed(seed, index)),
      batch_(batch),
      finished_(std::move(finished)) {}

TaskState SessionTask::Step(TaskContext& ctx) {
  switch (phase_) {
    case Phase::kSetup:
      return DoSetup(ctx);
    case Phase::kThink:
      return DoThink(ctx);
    case Phase::kInteract:
      return DoInteract(ctx);
    case Phase::kCompile:
      return DoCompile(ctx);
    case Phase::kCleanup:
      return DoCleanup(ctx);
  }
  return TaskState::kDone;
}

TaskState SessionTask::Abort(TaskContext& ctx) {
  failed_ = true;
  phase_ = Phase::kCleanup;
  return DoCleanup(ctx);
}

TaskState SessionTask::DoSetup(TaskContext& ctx) {
  Process& self = ctx.self();
  ctx.Charge(200, ChargeKind::kSessionSetup);
  auto root = kernel_->RootDir(self);
  if (!root.ok()) {
    return Abort(ctx);
  }
  // Project directory by popularity: most sessions pile into a few hot
  // projects, which is what makes the directory locks contend.
  const uint64_t dir_rank = rng_.NextZipf(params_->project_dirs.size(), params_->zipf_s);
  auto dir = kernel_->Initiate(self, root.value(), params_->project_dirs[dir_rank]);
  auto lib = kernel_->Initiate(self, root.value(), params_->library_dir);
  if (!dir.ok() || !lib.ok()) {
    return Abort(ctx);
  }
  dir_segno_ = dir->segno;
  lib_segno_ = lib->segno;

  scratch_name_ = std::string("s").append(std::to_string(index_));
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
  if (!kernel_->FsCreateSegment(self, dir_segno_, scratch_name_, attrs).ok()) {
    return Abort(ctx);
  }
  auto scratch = kernel_->Initiate(self, dir_segno_, scratch_name_);
  if (!scratch.ok()) {
    return Abort(ctx);
  }
  scratch_segno_ = scratch->segno;
  if (kernel_->SegSetLength(self, scratch_segno_, 1) != Status::kOk) {
    return Abort(ctx);
  }
  // The terminal wakeup channel, guarded by the scratch segment the session
  // itself owns.
  auto channel = kernel_->IpcCreateChannel(self, scratch_segno_);
  if (!channel.ok()) {
    return Abort(ctx);
  }
  channel_ = channel.value();
  phase_ = Phase::kThink;
  return TaskState::kReady;
}

TaskState SessionTask::DoThink(TaskContext& ctx) {
  if (!think_scheduled_) {
    // Exponential-ish think time, integer-deterministic. Absentee sessions
    // barely pause; interactive ones dominate the wakeup traffic.
    const double mean = static_cast<double>(batch_ ? params_->mean_think / 4 + 1
                                                   : params_->mean_think);
    const Cycles delay = static_cast<Cycles>(rng_.NextGeometric(1.0 / mean)) + 1;
    TrafficController* traffic = &kernel_->traffic();
    const ChannelId channel = channel_;
    // The scheduled event is the terminal interrupt: the terminal side wakes
    // the session's channel after the user "types".
    ctx.machine().events().ScheduleAfter(delay, [traffic, channel] {
      (void)traffic->Wakeup(channel, EventMessage{1, kNoProcess});
    });
    think_scheduled_ = true;
  }
  if (!ctx.Await(channel_)) {
    return TaskState::kBlocked;
  }
  think_scheduled_ = false;
  if (interactions_done_ < params_->interactions) {
    phase_ = Phase::kInteract;
  } else {
    phase_ = batch_ ? Phase::kCompile : Phase::kCleanup;
  }
  return TaskState::kReady;
}

TaskState SessionTask::DoInteract(TaskContext& ctx) {
  Process& self = ctx.self();
  if (kernel_->RunAs(self) != Status::kOk) {
    return Abort(ctx);
  }
  ctx.Charge(params_->edit_cost, ChargeKind::kSessionEdit);
  if (rng_.NextBool(0.75)) {
    // Edit: page through a popular library segment, then save into scratch.
    const uint64_t rank = rng_.NextZipf(params_->hot_segments, params_->zipf_s);
    auto hot = kernel_->Initiate(self, lib_segno_, "hot_" + std::to_string(rank));
    if (!hot.ok()) {
      return Abort(ctx);
    }
    for (int word = 0; word < 8; ++word) {
      (void)kernel_->cpu().Read(hot->segno, rng_.NextBelow(kPageWords));
    }
    for (int word = 0; word < 4; ++word) {
      (void)kernel_->cpu().Write(scratch_segno_, rng_.NextBelow(kPageWords),
                                 static_cast<Word>(rng_.Next()));
    }
    (void)kernel_->Terminate(self, hot->segno);
  } else {
    // Share: grant a colleague read access to the scratch segment and check
    // the result — two directory-lock operations on a popular directory.
    AclEntry grant{"Su" + std::to_string(rng_.NextBelow(64)), "Sessions", "*", kModeRead};
    (void)kernel_->FsSetAcl(self, dir_segno_, scratch_name_, grant);
    (void)kernel_->FsStatus(self, dir_segno_, scratch_name_);
  }
  ++interactions_done_;
  phase_ = Phase::kThink;
  return TaskState::kReady;
}

TaskState SessionTask::DoCompile(TaskContext& ctx) {
  // One burst per dispatch: the scheduler sees a CPU-bound process and sinks
  // it level by level, which is the whole point of the feedback queues.
  Process& self = ctx.self();
  ctx.Charge(params_->compile_burst, ChargeKind::kSessionCompile);
  if (compile_done_ % 8 == 0) {
    const uint32_t pages = 2 + compile_done_ / 8;
    if (kernel_->SegSetLength(self, scratch_segno_, pages) == Status::kOk &&
        kernel_->RunAs(self) == Status::kOk) {
      (void)kernel_->cpu().Write(scratch_segno_,
                                 (pages - 1) * kPageWords + rng_.NextBelow(kPageWords),
                                 static_cast<Word>(compile_done_));
    }
  }
  if (++compile_done_ >= params_->compile_steps) {
    phase_ = Phase::kCleanup;
  }
  return TaskState::kReady;
}

TaskState SessionTask::DoCleanup(TaskContext& ctx) {
  Process& self = ctx.self();
  ctx.Charge(100, ChargeKind::kSessionLogout);
  if (channel_ != 0) {
    (void)kernel_->IpcDestroyChannel(self, channel_);
  }
  if (scratch_segno_ != kInvalidSegNo) {
    (void)kernel_->Terminate(self, scratch_segno_);
  }
  if (dir_segno_ != kInvalidSegNo && !scratch_name_.empty()) {
    (void)kernel_->FsDelete(self, dir_segno_, scratch_name_);
  }
  if (finished_) {
    finished_(index_, !failed_);
    finished_ = nullptr;
  }
  return TaskState::kDone;
}

}  // namespace session
}  // namespace multics
