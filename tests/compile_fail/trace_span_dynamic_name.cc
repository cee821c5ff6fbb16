// Compile-fail fixture: a TraceSpan's name becomes a causal span frame and a
// cached distribution key, both by pointer, so it must be a StaticName — the
// text of a std::string does not convert.

#include <string>

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter, const std::string& dynamic) {
  TraceSpan span(&meter, "session");
#ifdef MX_EXPECT_FAIL
  TraceSpan dynamic_span(&meter, dynamic.c_str());
#else
  (void)dynamic;
#endif
}

}  // namespace multics
