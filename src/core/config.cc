#include "src/core/config.h"

namespace multics {

std::string KernelConfiguration::Name() const {
  if (ring_mode == RingMode::kSoftware645) {
    return "legacy-645";
  }
  if (linker_in_kernel || naming_in_kernel || per_device_io) {
    return "legacy-6180";
  }
  return "kernelized-6180";
}

KernelConfiguration KernelConfiguration::Legacy645() {
  KernelConfiguration config;
  config.ring_mode = RingMode::kSoftware645;
  config.linker_in_kernel = true;
  config.naming_in_kernel = true;
  config.per_device_io = true;
  config.parallel_page_control = false;
  config.infinite_net_buffers = false;
  config.mls_enforcement = false;  // The 645 system predates the Mitre model.
  config.login_as_subsystem_entry = false;
  config.interrupt_processes = false;
  return config;
}

KernelConfiguration KernelConfiguration::Legacy6180() {
  KernelConfiguration config = Legacy645();
  config.ring_mode = RingMode::kHardware6180;
  config.mls_enforcement = true;
  return config;
}

KernelConfiguration KernelConfiguration::Kernelized6180() {
  KernelConfiguration config;
  config.ring_mode = RingMode::kHardware6180;
  config.linker_in_kernel = false;
  config.naming_in_kernel = false;
  config.per_device_io = false;
  config.parallel_page_control = true;
  config.infinite_net_buffers = true;
  config.mls_enforcement = true;
  config.login_as_subsystem_entry = true;
  config.interrupt_processes = true;
  return config;
}

GateSet PresentGates(const KernelConfiguration& config) {
  GateSet present;
  for (size_t i = 0; i < kGateCount; ++i) {
    bool on = true;
    switch (GatePresenceOf(GateAt(i))) {
      case GatePresence::kAlways:
        break;
      case GatePresence::kNamingInKernel:
        on = config.naming_in_kernel;
        break;
      case GatePresence::kLinkerInKernel:
        on = config.linker_in_kernel;
        break;
      case GatePresence::kPerDeviceIo:
        on = config.per_device_io;
        break;
      case GatePresence::kLegacyLogin:
        on = !config.login_as_subsystem_entry;
        break;
    }
    present.set(i, on);
  }
  return present;
}

}  // namespace multics
