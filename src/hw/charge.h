// Cycle-charge categories: the account every simulated cycle is charged to.
// Machine::Charge files each charge under one ChargeKind, and the benches,
// the bench harness's "charge/<name>" counters and the model checker read
// the per-category totals back. The categories are a closed census, so a
// misspelt category is a compile error rather than a new account that every
// reader then sees as 0.

#ifndef SRC_HW_CHARGE_H_
#define SRC_HW_CHARGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace multics {

// The charge census, one row per category: X(enumerator, "name"), in name
// order (pinned below), so a walk in enum order is a walk in name order. The
// names are the export names ("charge/<name>" in the bench JSON).
#define MX_CHARGE_CENSUS(X)                          \
  X(kBackupIo, "backup_io")                          \
  X(kBenchHold, "bench_hold")                        \
  X(kCallCross, "call_cross")                        \
  X(kCallIntra, "call_intra")                        \
  X(kCallOutward, "call_outward")                    \
  X(kCompute, "compute")                             \
  X(kDaemonCpu, "daemon_cpu")                        \
  X(kDeviceIo, "device_io")                          \
  X(kFaultPath, "fault_path")                        \
  X(kFaultRecovery, "fault_recovery")                \
  X(kGateCrossing, "gate_crossing")                  \
  X(kImageCopy, "image_copy")                        \
  X(kInterruptHandler, "interrupt_handler")          \
  X(kInterruptInline, "interrupt_inline")            \
  X(kInterruptIntercept, "interrupt_intercept")      \
  X(kIpc, "ipc")                                     \
  X(kKernelLinker, "kernel_linker")                  \
  X(kKernelPathWalk, "kernel_path_walk")             \
  X(kLockOverhead, "lock_overhead")                  \
  X(kLockWait, "lock_wait")                          \
  X(kMemoryReference, "memory_reference")            \
  X(kNetCpu, "net_cpu")                              \
  X(kPageControlCpu, "page_control_cpu")             \
  X(kPageIo, "page_io")                              \
  X(kPolicyGate, "policy_gate")                      \
  X(kReturnCross, "return_cross")                    \
  X(kReturnIntra, "return_intra")                    \
  X(kRing0Init, "ring0_init")                        \
  X(kScheduler, "scheduler")                         \
  X(kSessionCompile, "session_compile")              \
  X(kSessionEdit, "session_edit")                    \
  X(kSessionLogout, "session_logout")                \
  X(kSessionSetup, "session_setup")                  \
  X(kSmpIpi, "smp_ipi")                              \
  X(kTaskCpu, "task_cpu")                            \
  X(kUserCpu, "user_cpu")                            \
  X(kUserRingPathWalk, "user_ring_path_walk")        \
  X(kVictimCpu, "victim_cpu")

enum class ChargeKind : uint8_t {
#define MX_CHARGE_ENUMERATOR(id, name) id,
  MX_CHARGE_CENSUS(MX_CHARGE_ENUMERATOR)
#undef MX_CHARGE_ENUMERATOR
};

#define MX_CHARGE_ONE(id, name) +1
inline constexpr size_t kChargeKindCount = 0 MX_CHARGE_CENSUS(MX_CHARGE_ONE);
#undef MX_CHARGE_ONE

namespace charge_internal {
inline constexpr std::array<std::string_view, kChargeKindCount> kChargeNames = {
#define MX_CHARGE_NAME(id, name) name,
    MX_CHARGE_CENSUS(MX_CHARGE_NAME)
#undef MX_CHARGE_NAME
};

consteval bool NamesAscending() {
  for (size_t i = 1; i < kChargeNames.size(); ++i) {
    if (!(kChargeNames[i - 1] < kChargeNames[i])) {
      return false;
    }
  }
  return true;
}
static_assert(NamesAscending(), "MX_CHARGE_CENSUS rows must be unique and in name order");
}  // namespace charge_internal

constexpr size_t ChargeIndex(ChargeKind kind) { return static_cast<size_t>(kind); }
constexpr ChargeKind ChargeAt(size_t index) { return static_cast<ChargeKind>(index); }
constexpr std::string_view ChargeName(ChargeKind kind) {
  return charge_internal::kChargeNames[ChargeIndex(kind)];
}

// Per-category cycle totals. Increment — which every Machine::Charge takes —
// is an array add; Snapshot lists every category ever incremented (a 0-cycle
// charge included), name-sorted because the census is.
class CounterSet {
 public:
  void Increment(ChargeKind kind, uint64_t delta = 1) {
    cells_[ChargeIndex(kind)] += delta;
    touched_[ChargeIndex(kind)] = true;
  }
  uint64_t Get(ChargeKind kind) const { return cells_[ChargeIndex(kind)]; }
  // By-name read for code outside the census's users; an unknown name
  // reads 0.
  uint64_t Get(const std::string& name) const;
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

 private:
  std::array<uint64_t, kChargeKindCount> cells_{};
  std::array<bool, kChargeKindCount> touched_{};
};

}  // namespace multics

#endif  // SRC_HW_CHARGE_H_
