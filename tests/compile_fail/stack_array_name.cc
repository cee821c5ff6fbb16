// Compile-fail fixture: StaticName's constructor is consteval, so an array
// on the stack — whose address is no constant expression — cannot name a
// counter, even though its type matches a literal's.

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter) {
  static const char kStatic[] = "static_counter";
  meter.Count(kStatic);
#ifdef MX_EXPECT_FAIL
  const char local[] = "stack_counter";
  meter.Count(local);
#endif
}

}  // namespace multics
