// Supervisor configurations. The project's method is to *evolve* the big
// Multics supervisor into a kernel; each boolean below is one of the paper's
// removal/simplification projects, so the experiments can build the
// before-and-after systems and measure the difference.

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <string>

#include "src/core/gate.h"
#include "src/hw/machine.h"

namespace multics {

struct KernelConfiguration {
  // 645 software rings vs 6180 hardware rings (E2).
  RingMode ring_mode = RingMode::kHardware6180;

  // Dynamic linker executes in ring 0 (legacy) or the user ring (E1, E10).
  bool linker_in_kernel = true;

  // Reference names, search rules, and pathname-based addressing in ring 0
  // (legacy) or the user ring over a segment-number interface (E1, E3).
  bool naming_in_kernel = true;

  // Per-device I/O stacks in the kernel vs network-only external I/O (E12).
  bool per_device_io = true;

  // Sequential page control vs dedicated daemon processes (E4).
  bool parallel_page_control = false;

  // VM-backed infinite network buffers vs circular buffers (E5).
  bool infinite_net_buffers = false;

  // Mitre-model lattice enforcement at the bottom layer (E9).
  bool mls_enforcement = true;

  // Login implemented through the protected-subsystem entry mechanism,
  // making the answering service non-privileged (removal project 4).
  bool login_as_subsystem_entry = false;

  // Interrupt handlers as dedicated processes (E7).
  bool interrupt_processes = false;

  std::string Name() const;

  // The 645-era supervisor: everything in the kernel, software rings.
  static KernelConfiguration Legacy645();
  // The same big supervisor moved to the 6180 (hardware rings) — the state
  // of the system when the paper's project started.
  static KernelConfiguration Legacy6180();
  // The paper's target: minimal kernel, everything removable removed.
  static KernelConfiguration Kernelized6180();
};

// The gates this configuration's kernel exposes, from the census in
// gate.h: Kernel builds its gate table from this set, and the static
// certifier re-derives it to verify the live table matches.
GateSet PresentGates(const KernelConfiguration& config);

}  // namespace multics

#endif  // SRC_CORE_CONFIG_H_
