// Compile-fail fixture: a span or trace event can only name a row of the
// name census (src/meter/span_census.h) — a phantom span has no SpanId.

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter) {
#ifdef MX_EXPECT_FAIL
  TraceSpan span(&meter, SpanId::kPhantom);
#else
  TraceSpan span(&meter, SpanId::kSessionRound);
#endif
}

}  // namespace multics
