// Compile-fail fixture: a cycle charge names its category by ChargeKind, a
// row of the charge census (src/hw/charge.h). A string no longer converts,
// so a misspelt category cannot open a new account that every reader of
// the real one would see as 0.

#include "src/hw/machine.h"

namespace multics {

void Spend(Machine& machine) {
  machine.Charge(10, ChargeKind::kTaskCpu);
#ifdef MX_EXPECT_FAIL
  machine.Charge(10, "task_cpu");
#endif
}

}  // namespace multics
