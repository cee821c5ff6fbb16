// Compile-fail fixture: a gate prologue can only name a gate in the census
// (the X-macro table in src/meter/span_census.h) — a phantom gate, one no review
// ever saw, has no GateId.

#include "src/core/kernel.h"

namespace multics {

struct FixtureKernel : Kernel {
  Status Body(Process& caller) {
#ifdef MX_EXPECT_FAIL
    MX_ENTER_GATE(caller, GateId::kPhantom);
#else
    MX_ENTER_GATE(caller, GateId::kGetRootDir);
#endif
    return Status::kOk;
  }
};

}  // namespace multics
