// mx_top — the live performance observatory (docs/ARCHITECTURE.md,
// "Observability").
//
// Runs the closed-loop session-engine workload in-process on a booted
// kernel and renders, while it runs, where the *host* time and the
// *simulated* time are going:
//
//   * per-subsystem host-nanosecond split from the HostProfiler
//     (MX_HOST_SPAN instrumentation in event queue, page-table walk,
//     scheduler, page I/O, locks, meter, gates);
//   * per-subsystem simulated-cycle split folded from the Meter's causal
//     attribution profile (root span name, self cycles);
//   * per-CPU run-queue depths, local clocks and idle cycles from the
//     traffic controller and machine;
//   * lock-wait tops from the SimLock counters;
//   * the flight-recorder tail — the last few structured trace events.
//
// The hook is SessionEngine::SetTickObserver: the engine calls back between
// dispatch slices, on the host side only, so the simulation is byte-identical
// with and without mx_top attached (same invariant the profiler itself
// keeps; tests/hostprof_test.cc).
//
//   mx_top                      # live: redraw while the workload runs
//   mx_top --once               # one final snapshot, no ANSI (CI / perf test)
//   mx_top --sessions=1000 --cpus=6 --seed=7
//
// Exit status: 0 when the workload completes cleanly, 1 otherwise.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/init/bootstrap.h"
#include "src/meter/host_profile.h"
#include "src/proc/traffic_controller.h"
#include "src/session/engine.h"

namespace multics {
namespace {

struct TopOptions {
  uint32_t sessions = 200;
  uint32_t cpus = 4;
  uint64_t seed = 1;
  uint64_t tick_slices = 2048;   // Observer granularity (dispatch slices).
  uint64_t interval_ms = 250;    // Host-time redraw throttle (live mode).
  bool once = false;             // Single snapshot at the end, no ANSI.
  bool plain = false;            // Live cadence but no ANSI clear (logs).
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: mx_top [--once] [--plain] [--sessions=N] [--cpus=N] [--seed=N]\n"
               "              [--interval-ms=N] [--tick-slices=N]\n"
               "\n"
               "Drives the session-engine workload on a freshly booted kernel and\n"
               "renders a live host/sim performance split while it runs.\n"
               "  --once          render one snapshot when the run completes (no ANSI)\n"
               "  --plain         live cadence, but append frames instead of redrawing\n"
               "  --sessions=N    closed-loop sessions to run (default 200)\n"
               "  --cpus=N        simulated CPUs (default 4)\n"
               "  --seed=N        workload seed (default 1)\n"
               "  --interval-ms=N live redraw throttle in host ms (default 250)\n"
               "  --tick-slices=N observer granularity in dispatch slices (default 2048)\n");
}

bool ParseU64(const char* arg, const char* prefix, uint64_t* out) {
  const size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg + n, &end, 10);
  if (end == arg + n || *end != '\0') {
    std::fprintf(stderr, "mx_top: bad number in %s\n", arg);
    std::exit(1);
  }
  *out = v;
  return true;
}

std::string FmtCycles(Cycles c) {
  char buf[32];
  if (c >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(c) / 1e6);
  } else if (c >= 10'000) {
    std::snprintf(buf, sizeof buf, "%.1fk", static_cast<double>(c) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRIu64, static_cast<uint64_t>(c));
  }
  return buf;
}

// One rendered frame. Everything here *reads* kernel state; nothing writes.
void Render(Kernel& kernel, const session::SessionEngine& engine, uint64_t slices,
            uint64_t start_ns, bool ansi) {
  Machine& machine = kernel.machine();
  const TrafficController& traffic = kernel.traffic();
  const Meter& meter = machine.meter();

  if (ansi) {
    std::fputs("\x1b[H\x1b[2J", stdout);  // Home + clear.
  }

  const double wall_ms =
      static_cast<double>(HostProfiler::NowNs() - start_ns) / 1e6;
  std::printf("mx_top — sim clock %s cycles, %" PRIu64
              " slices, %u sessions outstanding, %.0f ms wall\n",
              FmtCycles(machine.clock().now()).c_str(), slices, engine.outstanding(),
              wall_ms);

  // --- Host-side split (where the simulator's own nanoseconds go) ---------
  HostProfileSnapshot host = HostProfiler::Snapshot();
  std::printf("\n%-18s %10s %12s %12s %6s   (host)\n", "subsystem", "spans",
              "total ms", "self ms", "self%");
  const uint64_t self_total = std::max<uint64_t>(host.TotalSelfNs(), 1);
  for (size_t i = 0; i < kHostSubsystemCount; ++i) {
    const HostSubsystemStats& s = host.subsystems[i];
    if (s.spans == 0) {
      continue;
    }
    std::printf("%-18s %10" PRIu64 " %12.2f %12.2f %5.1f%%\n",
                HostSubsystemName(static_cast<HostSubsystem>(i)), s.spans,
                static_cast<double>(s.total_ns) / 1e6,
                static_cast<double>(s.self_ns) / 1e6,
                100.0 * static_cast<double>(s.self_ns) / static_cast<double>(self_total));
  }
  if (!host.enabled) {
    std::printf("  (host profiler off — mx_top enables it unless MX_HOST_PROFILE=0)\n");
  }

  // --- Simulated-cycle split (root span of the causal profile) ------------
  std::map<std::string, Cycles> sim_self;
  for (const auto& [key, entry] : meter.profile()) {
    const size_t cut = key.path.find(';');
    sim_self[key.path.substr(0, cut)] += entry.self;
  }
  std::vector<std::pair<std::string, Cycles>> sim(sim_self.begin(), sim_self.end());
  std::sort(sim.begin(), sim.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\n%-26s %14s   (sim, self cycles by root span)\n", "span", "cycles");
  size_t rows = 0;
  for (const auto& [path, cycles] : sim) {
    if (++rows > 8) {
      break;
    }
    std::printf("%-26s %14s\n", path.c_str(), FmtCycles(cycles).c_str());
  }
  std::printf("events: %" PRIu64 " dispatches, %" PRIu64 " faults, %" PRIu64
              " page fetches, %" PRIu64 " gate calls\n",
              meter.events_of(TraceEventKind::kDispatch),
              meter.events_of(TraceEventKind::kFaultTaken),
              meter.events_of(TraceEventKind::kPageFetch),
              meter.events_of(TraceEventKind::kGateEnter));

  // --- Per-CPU run queues -------------------------------------------------
  std::printf("\n%-6s %10s %14s %14s   (shared ready: %zu)\n", "cpu", "queued",
              "local clock", "idle cycles", traffic.SharedReadyQueued());
  for (uint32_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    std::printf("cpu%-3u %10zu %14s %14s\n", cpu, traffic.CpuQueued(cpu),
                FmtCycles(machine.local_clock(cpu)).c_str(),
                FmtCycles(machine.idle_cycles(cpu)).c_str());
  }

  // --- Lock-wait tops -----------------------------------------------------
  struct LockRow {
    std::string name;
    uint64_t contentions;
    Cycles wait;
  };
  std::vector<LockRow> locks;
  machine.locks().ForEach([&](const SimLock& lock) {
    if (lock.contentions() > 0 || lock.wait_cycles() > 0) {
      locks.push_back({lock.name(), lock.contentions(), lock.wait_cycles()});
    }
  });
  std::sort(locks.begin(), locks.end(), [](const LockRow& a, const LockRow& b) {
    return a.wait != b.wait ? a.wait > b.wait : a.name < b.name;
  });
  std::printf("\n%-18s %12s %14s   (top lock waits)\n", "lock", "contentions",
              "wait cycles");
  for (size_t i = 0; i < locks.size() && i < 6; ++i) {
    std::printf("%-18s %12" PRIu64 " %14s\n", locks[i].name.c_str(),
                locks[i].contentions, FmtCycles(locks[i].wait).c_str());
  }
  if (locks.empty()) {
    std::printf("(no contended locks yet)\n");
  }

  // --- Flight-recorder tail ----------------------------------------------
  const FlightRecorder& rec = meter.recorder();
  std::printf("\nflight recorder: %" PRIu64 " recorded, %" PRIu64
              " dropped by wrap — tail:\n",
              rec.total_recorded(), rec.dropped());
  const size_t tail = std::min<size_t>(rec.size(), 8);
  for (size_t i = rec.size() - tail; i < rec.size(); ++i) {
    const TraceEvent& ev = rec.at(i);
    std::printf("  %12s cpu%u pid%-4" PRIu64 " %-14s %s\n",
                FmtCycles(ev.time).c_str(), ev.cpu, ev.pid,
                TraceEventKindName(ev.kind), SpanName(ev.name));
  }
  std::fflush(stdout);
}

int RunTop(const TopOptions& options) {
  // The observatory profiles by default; MX_HOST_PROFILE=0 still wins so the
  // same binary can demonstrate the profiler-off rendering path.
  const char* env = std::getenv("MX_HOST_PROFILE");
  HostProfiler::SetEnabled(env == nullptr ? true : HostProfiler::EnabledByEnv());

  KernelParams params;
  params.machine.cpus = options.cpus;
  // Same sizing rationale as bench_sessions: big enough that the session
  // load exercises the scheduler, not AST reactivation thrash.
  params.machine.core_frames = 16384;
  params.ast_capacity = 16384;
  Kernel kernel(params);
  BootstrapOptions boot;
  boot.users = DefaultUsers();
  auto report = Bootstrap::Run(kernel, boot);
  if (!report.ok()) {
    std::fprintf(stderr, "mx_top: bootstrap failed: %s\n",
                 std::string(StatusName(report.status())).c_str());
    return 1;
  }

  session::SessionEngineConfig config;
  config.sessions = options.sessions;
  config.seed = options.seed;
  config.mean_interarrival = 4500;
  auto engine = session::SessionEngine::Create(&kernel, config);
  if (!engine.ok()) {
    std::fprintf(stderr, "mx_top: engine setup failed: %s\n",
                 std::string(StatusName(engine.status())).c_str());
    return 1;
  }

  const uint64_t start_ns = HostProfiler::NowNs();
  const bool ansi = !options.once && !options.plain;
  if (!options.once) {
    // Live mode: the engine calls back every tick_slices dispatch slices;
    // the host-time throttle decides whether that tick becomes a frame.
    uint64_t last_draw_ns = 0;
    engine.value()->SetTickObserver(
        [&](uint64_t slices) {
          const uint64_t now = HostProfiler::NowNs();
          if (now - last_draw_ns < options.interval_ms * 1'000'000ull) {
            return;
          }
          last_draw_ns = now;
          Render(kernel, *engine.value(), slices, start_ns, ansi);
        },
        options.tick_slices);
  }

  const Status status = engine.value()->Run();
  // The final frame always renders — in live mode it overwrites the last
  // partial one, in --once mode it is the only output.
  Render(kernel, *engine.value(), engine.value()->stats().slices, start_ns, ansi);

  const session::SessionEngineStats& stats = engine.value()->stats();
  std::printf("\n%u sessions: %u completed, %u failed, %u logins refused; "
              "makespan %s cycles\n",
              options.sessions, stats.completed, stats.failed_sessions,
              stats.failed_logins, FmtCycles(stats.makespan).c_str());
  if (status != Status::kOk) {
    std::fprintf(stderr, "mx_top: workload did not complete: %s\n",
                 std::string(StatusName(status)).c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace multics

int main(int argc, char** argv) {
  multics::TopOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t v = 0;
    if (std::strcmp(arg, "--once") == 0) {
      options.once = true;
    } else if (std::strcmp(arg, "--plain") == 0) {
      options.plain = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      multics::PrintUsage(stdout);
      return 0;
    } else if (multics::ParseU64(arg, "--sessions=", &v)) {
      options.sessions = static_cast<uint32_t>(v);
    } else if (multics::ParseU64(arg, "--cpus=", &v)) {
      options.cpus = static_cast<uint32_t>(v);
    } else if (multics::ParseU64(arg, "--seed=", &v)) {
      options.seed = v;
    } else if (multics::ParseU64(arg, "--interval-ms=", &v)) {
      options.interval_ms = v;
    } else if (multics::ParseU64(arg, "--tick-slices=", &v)) {
      options.tick_slices = v == 0 ? 1 : v;
    } else {
      multics::PrintUsage(stderr);
      return 1;
    }
  }
  return multics::RunTop(options);
}
