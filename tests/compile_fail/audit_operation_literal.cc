// Compile-fail fixture: the reference monitor audits a decision under the
// enclosing gate's GateId, so an operation cannot be handed over as a
// string — a misspelt operation would otherwise audit under a name no
// reader looks for.

#include "src/core/reference_monitor.h"

namespace multics {

Status Check(ReferenceMonitor& monitor, const Branch& branch, const Principal& principal,
             const MlsLabel& clearance) {
#ifdef MX_EXPECT_FAIL
  return monitor.RequireSegment(branch, principal, clearance, kModeRead, "initiate_seg", 0);
#else
  return monitor.RequireSegment(branch, principal, clearance, kModeRead, GateId::kInitiateSeg,
                                0);
#endif
}

}  // namespace multics
