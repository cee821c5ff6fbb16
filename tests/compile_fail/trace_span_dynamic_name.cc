// Compile-fail fixture: a TraceSpan's name becomes a causal span frame, kept
// by pointer, so it must be a StaticName — the text of a std::string does
// not convert. The span's distribution is recorded by its owner-held id.

#include <string>

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter, const std::string& dynamic) {
  MeterId session_dist = kInvalidMeterId;
  TraceSpan span(&meter, "session", session_dist);
#ifdef MX_EXPECT_FAIL
  TraceSpan dynamic_span(&meter, dynamic.c_str(), session_dist);
#else
  (void)dynamic;
#endif
}

}  // namespace multics
