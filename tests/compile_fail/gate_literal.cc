// Compile-fail fixture: a gate prologue takes a GateId, so it cannot be
// handed a gate's name as a string literal.

#include "src/core/kernel.h"

namespace multics {

struct FixtureKernel : Kernel {
  Status Body(Process& caller) {
#ifdef MX_EXPECT_FAIL
    MX_ENTER_GATE(caller, "initiate_seg");
#else
    MX_ENTER_GATE(caller, GateId::kInitiateSeg);
#endif
    return Status::kOk;
  }
};

}  // namespace multics
