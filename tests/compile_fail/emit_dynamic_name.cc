// Compile-fail fixture: the flight recorder keeps a trace event's name by
// pointer, so Meter::Emit takes a StaticName — the text of a std::string
// does not convert.

#include <string>

#include "src/meter/meter.h"

namespace multics {

void Record(Meter& meter, const std::string& dynamic) {
  static const char kStatic[] = "static_name";
  meter.Emit(TraceEventKind::kDispatch, kStatic);
  meter.Emit(TraceEventKind::kDispatch, "literal");
#ifdef MX_EXPECT_FAIL
  meter.Emit(TraceEventKind::kDispatch, dynamic.c_str());
#else
  (void)dynamic;
#endif
}

}  // namespace multics
