// Compile-fail fixture: StaticName's constructor is consteval, so an array
// on the stack — whose address is no constant expression — cannot name a
// trace event, even though its type matches a literal's.

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter) {
  static const char kStatic[] = "static_event";
  meter.Emit(TraceEventKind::kDispatch, kStatic);
#ifdef MX_EXPECT_FAIL
  const char local[] = "stack_event";
  meter.Emit(TraceEventKind::kDispatch, local);
#endif
}

}  // namespace multics
