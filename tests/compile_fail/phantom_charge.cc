// Compile-fail fixture: a cycle charge can only name a category in the
// charge census (the X-macro table in src/hw/charge.h) — a phantom category
// has no ChargeKind.

#include "src/hw/machine.h"

namespace multics {

void Spend(Machine& machine) {
#ifdef MX_EXPECT_FAIL
  machine.Charge(10, ChargeKind::kPhantom);
#else
  machine.Charge(10, ChargeKind::kPageIo);
#endif
}

}  // namespace multics
