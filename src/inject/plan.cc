#include "src/inject/plan.h"

namespace multics {
namespace {

// Which sites a fault kind can fire at.
bool KindMatchesSite(FaultKind kind, InjectSite site) {
  switch (kind) {
    case FaultKind::kDeviceError:
      return site == InjectSite::kDeviceRead || site == InjectSite::kDeviceWrite;
    case FaultKind::kDroppedInterrupt:
      return site == InjectSite::kInterruptAssert;
    case FaultKind::kMemoryParity:
      return site == InjectSite::kMemoryAccess;
    case FaultKind::kGateCrash:
      return site == InjectSite::kGateEntry;
    case FaultKind::kHierarchyTear:
      return site == InjectSite::kHierarchyUpdate;
  }
  return false;
}

Status DefaultFaultFor(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceError:
      return Status::kDeviceError;
    case FaultKind::kDroppedInterrupt:
      return Status::kDeviceError;  // Any non-kOk drops the assert.
    case FaultKind::kMemoryParity:
      return Status::kParityError;
    case FaultKind::kGateCrash:
    case FaultKind::kHierarchyTear:
      return Status::kProcessCrashed;
  }
  return Status::kInternal;
}

Status DefaultFaultForSite(InjectSite site) {
  switch (site) {
    case InjectSite::kDeviceRead:
    case InjectSite::kDeviceWrite:
    case InjectSite::kInterruptAssert:
      return Status::kDeviceError;
    case InjectSite::kMemoryAccess:
      return Status::kParityError;
    case InjectSite::kGateEntry:
    case InjectSite::kHierarchyUpdate:
      return Status::kProcessCrashed;
  }
  return Status::kInternal;
}

double StormRateFor(const StormConfig& storm, InjectSite site) {
  switch (site) {
    case InjectSite::kDeviceRead:
    case InjectSite::kDeviceWrite:
      return storm.device_rate;
    case InjectSite::kInterruptAssert:
      return storm.interrupt_rate;
    case InjectSite::kMemoryAccess:
      return storm.memory_rate;
    case InjectSite::kGateEntry:
      return storm.gate_rate;
    case InjectSite::kHierarchyUpdate:
      return storm.hierarchy_rate;
  }
  return 0.0;
}

}  // namespace

void InjectionPlan::Add(FaultSpec spec) {
  if (spec.fault == Status::kOk) {
    spec.fault = DefaultFaultFor(spec.kind);
  }
  if (spec.burst == 0) {
    spec.burst = 1;
  }
  specs_.push_back(ActiveSpec{std::move(spec)});
}

void InjectionPlan::EnableStorm(const StormConfig& config) {
  storm_enabled_ = true;
  storm_ = config;
  rng_ = Rng(config.seed);
}

InjectionDecision InjectionPlan::Record(InjectSite site, Status fault, Cycles delay) {
  ++report_.injected;
  ++report_.by_site[static_cast<int>(site)];
  return InjectionDecision{fault, delay};
}

InjectionDecision InjectionPlan::Consult(const InjectionPoint& point) {
  ++report_.consults;

  for (ActiveSpec& active : specs_) {
    const FaultSpec& spec = active.spec;
    if (!KindMatchesSite(spec.kind, point.site)) {
      continue;
    }
    if (!spec.match.empty() && spec.match != point.name) {
      continue;
    }
    if (spec.detail != kAnyDetail && spec.detail != point.detail) {
      continue;
    }
    const uint64_t position = active.seen++;
    if (position < spec.fire_after) {
      continue;  // Not yet at the Nth matching operation.
    }
    if (active.fired >= spec.burst) {
      continue;  // Burst spent; the spec is inert from now on.
    }
    ++active.fired;
    return Record(point.site, spec.fault, spec.delay);
  }

  if (storm_enabled_) {
    const double rate = StormRateFor(storm_, point.site);
    if (rate > 0.0 && rng_.NextBool(rate)) {
      return Record(point.site, DefaultFaultForSite(point.site), 0);
    }
  }
  return InjectionDecision{};
}

}  // namespace multics
