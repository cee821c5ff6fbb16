// Exporters for the metering subsystem: a human-readable table (benches,
// interactive debugging), Chrome trace_event-format JSON so a run can be
// opened in Perfetto / chrome://tracing, and a folded-stack rendering of the
// cycle-attribution profile for flamegraph tooling.
//
// All render only deterministic data (sim-clock stamps, name-sorted maps),
// so the exported bytes are identical across same-seed runs.

#ifndef SRC_METER_EXPORT_H_
#define SRC_METER_EXPORT_H_

#include <cstdio>
#include <string>

#include "src/base/status.h"
#include "src/meter/meter.h"

namespace multics {

// Chrome trace_event JSON ("JSON Object Format"): gate calls and spans
// become properly nested B/E duration pairs on the thread of the process
// they are attributed to (`tid` = pid, with thread_name metadata from the
// meter's process labels); everything else becomes instant events. Each
// event's args carry its span id and parent span id, so the causal tree
// survives the export. The sim-clock cycle count is written as the
// microsecond timestamp.
std::string ChromeTraceJson(const Meter& meter);

Status WriteChromeTraceFile(const Meter& meter, const std::string& path);

// The attribution profile in folded-stack ("flamegraph collapsed") format:
// one line per call path, `<process-label>;<path> <self-cycles>`, merged
// over rings and sorted lexically. Feed to flamegraph.pl / speedscope.
std::string FoldedStackProfile(const Meter& meter);

Status WriteTextFile(const std::string& text, const std::string& path);

// Human-readable report: per-kind event totals, named counters, each
// distribution's Summary() line, and the per-process / per-ring
// cycle-attribution summary folded from closed spans.
std::string MeterReport(const Meter& meter);

}  // namespace multics

#endif  // SRC_METER_EXPORT_H_
