#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "src/base/log.h"
#include "src/hw/machine.h"
#include "src/meter/host_profile.h"

namespace multics {
namespace bench {

namespace {

struct Metric {
  double value = 0;
  std::string unit;
};

struct BenchResult {
  std::map<std::string, Metric> metrics;
  std::map<std::string, uint64_t> counters;
  uint64_t cycles = 0;
  uint64_t refs = 0;  // Simulated memory references (charges / per-ref cost).
  bool has_run_stats = false;
  // Host-side telemetry (mx-bench-v2). Nondeterministic by nature; rendered
  // only into the segregated "host" subtree, never into metrics.
  uint64_t wall_ns = 0;
  HostProfileSnapshot host_profile;
};

// The bench currently collecting metrics; null outside RunBenches.
BenchResult* g_active = nullptr;

std::vector<std::pair<std::string, BenchFn>>& MutableRegistry() {
  static std::vector<std::pair<std::string, BenchFn>> registry;
  return registry;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Deterministic number rendering: integers (the common case — cycle counts)
// print without a fraction; everything else prints with six digits.
void AppendJsonNumber(std::string* out, double v) {
  char buffer[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  }
  *out += buffer;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
}

}  // namespace

void RegisterMetric(const std::string& name, double value, const std::string& unit) {
  if (g_active == nullptr) {
    return;  // Bench body invoked outside the harness (e.g. from a test).
  }
  g_active->metrics[name] = Metric{value, unit};
}

void RegisterRunStats(const Machine& machine) {
  if (g_active == nullptr) {
    return;
  }
  g_active->cycles = machine.clock().now();
  g_active->has_run_stats = true;
  const Cycles per_ref = machine.costs().memory_reference;
  if (per_ref > 0) {
    g_active->refs = machine.charges().Get(ChargeKind::kMemoryReference) / per_ref;
  }
  for (const auto& [name, value] : machine.charges().Snapshot()) {
    g_active->counters["charge/" + name] = value;
  }
  for (const auto& [name, value] : machine.meter().CounterSnapshot()) {
    g_active->counters["meter/" + name] = value;
  }
}

bool RegisterBench(const std::string& name, BenchFn fn) {
  MutableRegistry().emplace_back(name, fn);
  return true;
}

std::string RunBenches(const std::vector<std::string>& names, const BenchOptions& options) {
  // Sorted execution order: the registry fills in link order, which is an
  // accident of the build; the JSON must not depend on it.
  std::vector<std::pair<std::string, BenchFn>> selected;
  if (names.empty()) {
    selected = MutableRegistry();
  } else {
    for (const std::string& name : names) {
      bool found = false;
      for (const auto& entry : MutableRegistry()) {
        if (entry.first == name) {
          selected.push_back(entry);
          found = true;
          break;
        }
      }
      CHECK(found) << "unknown bench '" << name << "'";
    }
  }
  std::sort(selected.begin(), selected.end());

  const bool host_profile = HostProfiler::enabled();
  HostProfileSnapshot aggregate;
  std::map<std::string, BenchResult> results;
  for (const auto& [name, fn] : selected) {
    BenchResult result;
    g_active = &result;
    if (host_profile) {
      HostProfiler::Reset();  // Per-bench window; deltas stay attributable.
    }
    const uint64_t start_ns = HostProfiler::NowNs();
    fn(options);
    result.wall_ns = HostProfiler::NowNs() - start_ns;
    if (host_profile) {
      result.host_profile = HostProfiler::Snapshot();
      for (size_t i = 0; i < kHostSubsystemCount; ++i) {
        aggregate.subsystems[i].spans += result.host_profile.subsystems[i].spans;
        aggregate.subsystems[i].total_ns += result.host_profile.subsystems[i].total_ns;
        aggregate.subsystems[i].self_ns += result.host_profile.subsystems[i].self_ns;
      }
      aggregate.window_ns += result.host_profile.window_ns;
    }
    g_active = nullptr;
    results[name] = std::move(result);
  }
  if (host_profile) {
    // Stderr, never stdout: the determinism contract keeps stdout
    // byte-identical whether or not the profiler ran.
    aggregate.enabled = true;
    std::fprintf(stderr, "%s", HostProfiler::Render(aggregate).c_str());
  }

  std::string out;
  out += "{\"schema\":\"mx-bench-v2\",\"mode\":";
  AppendJsonString(&out, options.smoke ? "smoke" : "full");
  out += ",\"host_profile\":";
  out += host_profile ? "true" : "false";
  out += ",\"benches\":{";
  bool first_bench = true;
  for (const auto& [name, result] : results) {
    if (!first_bench) {
      out.push_back(',');
    }
    first_bench = false;
    AppendJsonString(&out, name);
    out += ":{\"metrics\":{";
    bool first = true;
    for (const auto& [metric_name, metric] : result.metrics) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendJsonString(&out, metric_name);
      out += ":{\"value\":";
      AppendJsonNumber(&out, metric.value);
      out += ",\"unit\":";
      AppendJsonString(&out, metric.unit);
      out += "}";
    }
    out += "}";
    if (result.has_run_stats) {
      out += ",\"cycles\":";
      AppendJsonNumber(&out, static_cast<double>(result.cycles));
      out += ",\"refs\":";
      AppendJsonNumber(&out, static_cast<double>(result.refs));
      // Derived from two deterministic sim values, so itself deterministic.
      out += ",\"refs_per_mcycle\":";
      AppendJsonNumber(&out, result.cycles > 0 ? 1e6 * static_cast<double>(result.refs) /
                                                     static_cast<double>(result.cycles)
                                               : 0.0);
      out += ",\"counters\":{";
      first = true;
      for (const auto& [counter_name, value] : result.counters) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        AppendJsonString(&out, counter_name);
        out.push_back(':');
        AppendJsonNumber(&out, static_cast<double>(value));
      }
      out += "}";
    }
    // The host subtree is the one nondeterministic corner of the record;
    // bench_diff.py compares it under a tolerance band, never exactly.
    out += ",\"host\":{\"wall_ms\":";
    AppendJsonNumber(&out, static_cast<double>(result.wall_ns) / 1e6);
    out += ",\"host_ns_per_ref\":";
    AppendJsonNumber(&out, result.refs > 0 ? static_cast<double>(result.wall_ns) /
                                                 static_cast<double>(result.refs)
                                           : 0.0);
    out += ",\"peak_rss_kb\":";
    AppendJsonNumber(&out, static_cast<double>(HostProfiler::PeakRssKb()));
    if (result.host_profile.enabled) {
      out += ",\"profile\":{";
      for (size_t i = 0; i < kHostSubsystemCount; ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        const HostSubsystemStats& s = result.host_profile.subsystems[i];
        AppendJsonString(&out, HostSubsystemName(static_cast<HostSubsystem>(i)));
        out += ":{\"spans\":";
        AppendJsonNumber(&out, static_cast<double>(s.spans));
        out += ",\"total_ms\":";
        AppendJsonNumber(&out, static_cast<double>(s.total_ns) / 1e6);
        out += ",\"self_ms\":";
        AppendJsonNumber(&out, static_cast<double>(s.self_ns) / 1e6);
        out += "}";
      }
      out += "}";
    }
    out += "}}";
  }
  out += "}}\n";
  return out;
}

int BenchStandaloneMain(int argc, char** argv) {
  if (HostProfiler::EnabledByEnv()) {
    HostProfiler::SetEnabled(true);
  }
  BenchOptions options;
  std::string json_path;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--wallclock") {
      options.wallclock = true;
    } else if (arg == "--faults") {
      options.faults = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--wallclock] [--faults] [--trace=PATH] [--json=PATH] "
                   "[bench...]\n",
                   argv[0]);
      return 2;
    } else {
      names.push_back(arg);
    }
  }
  const std::string json = RunBenches(names, options);
  if (!json_path.empty()) {
    if (!WriteFile(json_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace bench
}  // namespace multics
