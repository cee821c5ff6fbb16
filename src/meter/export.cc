#include "src/meter/export.h"

#include <cinttypes>
#include <map>
#include <sstream>

namespace multics {

namespace {

void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(*s) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", *s);
          *out += buffer;
        } else {
          out->push_back(*s);
        }
    }
  }
  out->push_back('"');
}

// Chrome phase for each event kind: duration pairs for gates and spans,
// instants for everything else.
char PhaseOf(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kGateEnter:
    case TraceEventKind::kSpanBegin:
      return 'B';
    case TraceEventKind::kGateExit:
    case TraceEventKind::kSpanEnd:
      return 'E';
    default:
      return 'i';
  }
}

const std::string* LabelOf(const Meter& meter, uint64_t pid) {
  auto it = meter.process_labels().find(pid);
  return it == meter.process_labels().end() ? nullptr : &it->second;
}

}  // namespace

std::string ChromeTraceJson(const Meter& meter) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[192];
  // Thread-name metadata first: one thread per attributed process.
  for (const auto& [pid, label] : meter.process_labels()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu64
                  ",\"args\":{\"name\":",
                  pid);
    out += line;
    AppendJsonString(&out, label.c_str());
    out += "}}";
  }
  const FlightRecorder& recorder = meter.recorder();
  for (size_t i = 0; i < recorder.size(); ++i) {
    const TraceEvent& ev = recorder.at(i);
    if (!first) {
      out.push_back(',');
    }
    first = false;
    const char phase = PhaseOf(ev.kind);
    out += "{\"name\":";
    AppendJsonString(&out, SpanName(ev.name));
    out += ",\"cat\":";
    AppendJsonString(&out, TraceEventKindName(ev.kind));
    std::snprintf(line, sizeof(line),
                  ",\"ph\":\"%c\",\"ts\":%" PRIu64 ",\"pid\":1,\"tid\":%" PRIu64, phase, ev.time,
                  ev.pid);
    out += line;
    if (phase == 'i') {
      out += ",\"s\":\"t\"";
    }
    std::snprintf(line, sizeof(line),
                  ",\"args\":{\"arg\":%" PRIu64 ",\"depth\":%u,\"span\":%" PRIu64
                  ",\"parent\":%" PRIu64 ",\"cpu\":%u}}",
                  ev.arg, ev.depth, ev.span, ev.parent, ev.cpu);
    out += line;
  }
  out += "]}";
  return out;
}

Status WriteChromeTraceFile(const Meter& meter, const std::string& path) {
  return WriteTextFile(ChromeTraceJson(meter), path);
}

std::string FoldedStackProfile(const Meter& meter) {
  // Merge rings: the folded path does not include the ring, so two rings at
  // the same (pid, path) fold into one line. std::map keeps lines sorted.
  std::map<std::string, Cycles> folded;
  for (const auto& [key, entry] : meter.profile()) {
    std::string line;
    if (const std::string* label = LabelOf(meter, key.pid)) {
      line = *label;
    } else {
      line = "pid" + std::to_string(key.pid);
    }
    line += ';';
    line += key.path;
    folded[std::move(line)] += entry.self;
  }
  std::string out;
  for (const auto& [path, self] : folded) {
    out += path;
    out += ' ';
    out += std::to_string(self);
    out += '\n';
  }
  return out;
}

Status WriteTextFile(const std::string& text, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::kDeviceError;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size() ? Status::kOk : Status::kDeviceError;
}

std::string MeterReport(const Meter& meter) {
  std::ostringstream os;
  os << "meter: " << (meter.enabled() ? "enabled" : "disabled") << ", "
     << meter.recorder().total_recorded() << " events recorded ("
     << meter.recorder().dropped() << " dropped by ring wrap)\n";

  os << "\nevent totals by kind:\n";
  for (size_t k = 0; k < kTraceEventKindCount; ++k) {
    uint64_t n = meter.events_of(static_cast<TraceEventKind>(k));
    if (n > 0) {
      os << "  " << TraceEventKindName(static_cast<TraceEventKind>(k)) << ": " << n << "\n";
    }
  }

  auto counters = meter.CounterSnapshot();
  if (!counters.empty()) {
    os << "\ncounters:\n";
    for (const auto& [name, value] : counters) {
      os << "  " << name << ": " << value << "\n";
    }
  }

  auto distributions = meter.DistributionSnapshot();
  if (!distributions.empty()) {
    os << "\ncycle distributions:\n";
    for (const auto& [name, dist] : distributions) {
      os << "  " << name << ": " << dist->Summary() << "\n";
    }
  }

  if (!meter.profile().empty()) {
    // Attribution rollups: self cycles per process and per ring, then the
    // per-path rows (leaf name last) — the same data FoldedStackProfile
    // renders for flamegraph tools.
    std::map<uint64_t, Cycles> by_pid;
    std::map<unsigned, Cycles> by_ring;
    for (const auto& [key, entry] : meter.profile()) {
      by_pid[key.pid] += entry.self;
      by_ring[key.ring] += entry.self;
    }
    os << "\nattribution (self cycles) by process:\n";
    for (const auto& [pid, self] : by_pid) {
      os << "  ";
      if (const std::string* label = LabelOf(meter, pid)) {
        os << *label;
      } else {
        os << "pid" << pid;
      }
      os << ": " << self << "\n";
    }
    os << "\nattribution (self cycles) by ring:\n";
    for (const auto& [ring, self] : by_ring) {
      os << "  ring " << ring << ": " << self << "\n";
    }
    os << "\nattribution profile (pid ring path count self total):\n";
    for (const auto& [key, entry] : meter.profile()) {
      os << "  " << key.pid << " " << static_cast<unsigned>(key.ring) << " " << key.path << " "
         << entry.count << " " << entry.self << " " << entry.total << "\n";
    }
  }
  return os.str();
}

}  // namespace multics
