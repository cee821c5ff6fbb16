// Compile-fail fixture: spans and trace events are named by SpanId, a row of
// the name census (src/meter/span_census.h). A string does not convert, so a
// misspelt event cannot start a new trace series or profile path.

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter) {
  meter.Emit(TraceEventKind::kDispatch, SpanId::kDispatch);
  TraceSpan span(&meter, SpanId::kSession);
#ifdef MX_EXPECT_FAIL
  meter.Emit(TraceEventKind::kDispatch, "dispatch");
#endif
}

}  // namespace multics
