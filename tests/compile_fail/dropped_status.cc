// Compile-fail fixture: a statement that drops a Status does not build.
// Status is [[nodiscard]] and the tree builds with -Werror, so an ignored
// error — how an "undesired" event silently becomes an "unauthorized" one —
// is a compile error everywhere, not a finding of a regex scan.

#include "src/base/status.h"

namespace multics {

Status DoThing(int x);
// An overload with another return type: a name-based scan has to skip
// DoThing as ambiguous, while the compiler resolves each call.
void DoThing(double y);

Status Caller() {
  DoThing(0.5);
  Status s = DoThing(1);
  if (DoThing(2) != Status::kOk) return s;
  (void)DoThing(3);
#ifdef MX_EXPECT_FAIL
  DoThing(4);
#endif
  return DoThing(5);
}

}  // namespace multics
