// Deterministic, seed-driven fault planning — the concrete FaultInjector
// (src/hw/injection.h) the tests and benches register on a Machine.
//
// An InjectionPlan combines two trigger mechanisms:
//   - Explicit specs (Add): "the Nth matching operation at this site fails,
//     for a burst of B consecutive attempts". Bursts shorter than a device's
//     retry budget model *transient* faults the retry path absorbs; longer
//     bursts model *persistent* faults that surface as degraded operations
//     or audited denials.
//   - Storm mode (EnableStorm): per-site fault probabilities driven by the
//     plan's own Rng (src/base/random.h, Xoshiro256** from an explicit
//     seed), so a "fault storm" is reproducible bit-for-bit from its seed.
//
// Failure contract: Consult never touches the machine, the clock, or any
// meter — it only decides. All state lives in the plan, so the same plan
// driven by the same consult sequence yields the same decisions. Nothing
// here CHECKs on simulated conditions; malformed specs are normalized (an
// unset fault Status gets the kind's default).

#ifndef SRC_INJECT_PLAN_H_
#define SRC_INJECT_PLAN_H_

#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/status.h"
#include "src/hw/injection.h"

namespace multics {

// The catalogue of injectable fault kinds (docs/FAULTS.md documents each
// one's trigger site, recovery path, and covering test).
enum class FaultKind : uint8_t {
  kDeviceError,       // A device transfer (read or write) fails.
  kDroppedInterrupt,  // An interrupt assertion is silently lost.
  kMemoryParity,      // A resolved memory reference takes a parity fault.
  kGateCrash,         // The process dies inside a kernel gate.
  kHierarchyTear,     // A directory mutation is abandoned half-done.
};

// Matches any point.detail.
inline constexpr uint64_t kAnyDetail = UINT64_MAX;

// One planned fault: kind x site-name match x trigger position.
struct FaultSpec {
  FaultKind kind = FaultKind::kDeviceError;
  // Operation/device/gate name to match; empty matches every name at the
  // kind's site(s). (Device names: "bulk-store", "disk", "tty", "tape",
  // "card-reader", "printer". Hierarchy ops: "create_segment",
  // "create_directory", "delete_entry", "rename".)
  std::string match;
  // Number of *matching* consults to let pass before firing; 0 fires on the
  // first match ("the Nth read fails" => fire_after = N - 1).
  uint64_t fire_after = 0;
  // Consecutive matching consults that fault once triggered. A burst below
  // the device retry budget is transparently absorbed by retry-with-backoff.
  uint32_t burst = 1;
  // Injected status; kOk means "use the kind's default" (kDeviceError,
  // kParityError, or kProcessCrashed).
  Status fault = Status::kOk;
  // Cycles the victim burns before the fault bites (honored at the gate and
  // memory sites: "crash inside gate G after M cycles").
  Cycles delay = 0;
  // Optional site-specific filter (interrupt line, device address, pid);
  // kAnyDetail matches everything.
  uint64_t detail = kAnyDetail;
};

// Per-site probabilities for storm mode; a zero rate disables that site.
struct StormConfig {
  uint64_t seed = 1;
  double device_rate = 0.0;     // Applies to both read and write transfers.
  double interrupt_rate = 0.0;
  double memory_rate = 0.0;
  double gate_rate = 0.0;
  double hierarchy_rate = 0.0;
};

struct InjectionReport {
  uint64_t consults = 0;
  uint64_t injected = 0;
  uint64_t by_site[kInjectSiteCount] = {};
};

class InjectionPlan : public FaultInjector {
 public:
  InjectionPlan() = default;

  // Registers an explicit spec. Specs are checked in registration order;
  // the first live match wins.
  void Add(FaultSpec spec);

  // Turns on seeded random faulting underneath the explicit specs.
  void EnableStorm(const StormConfig& config);

  InjectionDecision Consult(const InjectionPoint& point) override;

  const InjectionReport& report() const { return report_; }
  uint64_t injected() const { return report_.injected; }

 private:
  struct ActiveSpec {
    FaultSpec spec;
    uint64_t seen = 0;   // Matching consults so far.
    uint32_t fired = 0;  // Faults delivered; spec is spent at spec.burst.
  };

  InjectionDecision Record(InjectSite site, Status fault, Cycles delay);

  std::vector<ActiveSpec> specs_;
  bool storm_enabled_ = false;
  StormConfig storm_;
  Rng rng_{1};
  InjectionReport report_;
};

}  // namespace multics

#endif  // SRC_INJECT_PLAN_H_
