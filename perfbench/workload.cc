// perfbench_workload — runs ONE iteration of one benchmark workload in this
// process and prints its raw measurements as one JSON object on stdout.
//
//   perfbench_workload --workload NAME --seed N --units N [--trace]
//
// run.py starts one such process per iteration, so peak RSS and page-fault
// counts belong to that iteration alone, and aggregates, gates and reports
// them. The program drives the kernel through its public entry points only:
// the Kernel constructor, Bootstrap::Run, SessionEngine::Create/Run/
// SetTickObserver and ModelChecker::Explore/Fuzz. It reads counters through
// public accessors and, with --trace, the HostProfiler through
// SetEnabled/Snapshot. Without --trace nothing is observed during the timed
// phase, so its host figures are the untraced end-to-end numbers.
//
// Workloads (see README.md for why each was chosen):
//   sessions_10k     closed-loop sessions on the sized 4-CPU machine
//   sessions_paging  the same mix on the default small machine
//   mc_exhaustive    McConfig::Fast() BFS to its fixed point (no seed)
//   mc_fuzz          ModelChecker::Fuzz(seed, ops) on one long-lived world

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/kernel.h"
#include "src/init/bootstrap.h"
#include "src/meter/host_profile.h"
#include "src/modelcheck/checker.h"
#include "src/session/engine.h"

// Kernel objects allocated so far. The model checker builds its worlds
// privately, so the benchmark counts them from outside: every world is one
// heap-allocated Kernel. The count costs one compare per allocation in every
// run, traced or not.
static uint64_t g_kernel_allocs = 0;

void* operator new(std::size_t size) {
  if (size == sizeof(multics::Kernel)) {
    ++g_kernel_allocs;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using multics::Cycles;

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(double seconds) { return seconds * 1e3; }
double Mcycles(uint64_t cycles) { return static_cast<double>(cycles) / 1e6; }

// Current resident set in kB, from /proc (ru_maxrss only gives the peak).
uint64_t CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

// Flat JSON object writer: keys in insertion order, numbers with all digits.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) { Raw(key, "\"" + value + "\""); }
  void Bool(const std::string& key, bool value) { Raw(key, value ? "true" : "false"); }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ",";
    }
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

// The timed phase's host cost: wall time plus getrusage deltas.
class TimedPhase {
 public:
  TimedPhase() {
    getrusage(RUSAGE_SELF, &start_usage_);
    start_s_ = NowS();
  }

  // Emits the phase's host cost and returns its wall seconds.
  double Stop(JsonOut* out) const {
    const double wall = NowS() - start_s_;
    rusage end{};
    getrusage(RUSAGE_SELF, &end);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    out->Num("wall_s", wall);
    out->Num("user_s", secs(end.ru_utime) - secs(start_usage_.ru_utime));
    out->Num("host.cpu_sys_s", secs(end.ru_stime) - secs(start_usage_.ru_stime));
    out->Num("minflt", static_cast<double>(end.ru_minflt - start_usage_.ru_minflt));
    out->Num("peak_rss_kb", static_cast<double>(multics::HostProfiler::PeakRssKb()));
    return wall;
  }

 private:
  rusage start_usage_{};
  double start_s_ = 0.0;
};

// Per-layer host time from the HostProfiler, plus the unattributed rest.
void EmitProfile(const multics::HostProfileSnapshot& snap, double wall_s, JsonOut* out) {
  using multics::HostSubsystem;
  auto self_ms = [&](HostSubsystem s) { return static_cast<double>(snap.of(s).self_ns) / 1e6; };
  auto spans = [&](HostSubsystem s) { return static_cast<double>(snap.of(s).spans); };
  out->Num("base.event_queue.self_ms", self_ms(HostSubsystem::kEventQueue));
  out->Num("hw.page_table_walk.self_ms", self_ms(HostSubsystem::kPageTableWalk));
  out->Num("hw.lock_placement.self_ms", self_ms(HostSubsystem::kLockPlacement));
  const auto& gate = snap.of(HostSubsystem::kGateCall);
  out->Num("core.gate_calls", spans(HostSubsystem::kGateCall));
  out->Num("core.gate_call.self_ms", self_ms(HostSubsystem::kGateCall));
  out->Num("core.gate_call.ns_per_call",
           gate.spans == 0 ? 0.0
                           : static_cast<double>(gate.total_ns) / static_cast<double>(gate.spans));
  out->Num("meter.record.spans", spans(HostSubsystem::kMeterRecord));
  out->Num("meter.record.self_ms", self_ms(HostSubsystem::kMeterRecord));
  out->Num("mem.page_io.spans", spans(HostSubsystem::kPageIo));
  out->Num("mem.page_io.self_ms", self_ms(HostSubsystem::kPageIo));
  out->Num("proc.scheduler.self_ms", self_ms(HostSubsystem::kScheduler));
  out->Num("modelcheck.self_ms", self_ms(HostSubsystem::kModelCheck));
  const double attributed_ms = static_cast<double>(snap.TotalSelfNs()) / 1e6;
  out->Num("trace.attributed_share", wall_s > 0 ? attributed_ms / Ms(wall_s) : 0.0);
  out->Num("trace.unattributed_ms", std::max(0.0, Ms(wall_s) - attributed_ms));
}

// FNV-1a over every dispatch record: the sessions workloads' output digest.
uint64_t TraceHash(const std::vector<multics::DispatchRecord>& trace) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (byte * 8)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const multics::DispatchRecord& r : trace) {
    mix(r.at);
    mix(r.cpu);
    mix(r.pid);
    mix(r.level);
    mix(r.work_class);
  }
  return hash;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint64_t units = 0;  // Sessions or fuzz ops; unused by mc_exhaustive.
  bool trace = false;
};

// Slices per tick-observer batch in traced session runs.
constexpr uint64_t kTickSlices = 1024;
// Room for every dispatch of the largest sessions run, so the hash covers
// the whole trace.
constexpr size_t kDispatchTraceLimit = size_t{1} << 22;
// ModelChecker constructions timed per model-checker iteration.
constexpr int kCheckerCtorRepeats = 33;

int RunSessions(const Options& opts, bool sized_machine, JsonOut* out) {
  using namespace multics;
  const uint32_t sessions = static_cast<uint32_t>(opts.units);

  const double t0 = NowS();
  KernelParams params;
  params.machine.cpus = 4;
  if (sized_machine) {
    params.machine.core_frames = 16384;
    params.ast_capacity = 16384;
  }
  Kernel kernel(params);
  const double t1 = NowS();
  BootstrapOptions boot;
  boot.users = DefaultUsers();
  auto report = Bootstrap::Run(kernel, boot);
  if (!report.ok()) {
    std::fprintf(stderr, "Bootstrap::Run failed: %s\n",
                 std::string(StatusName(report.status())).c_str());
    return 1;
  }
  const double t2 = NowS();
  TrafficController& traffic = kernel.traffic();
  traffic.SetSchedulerPolicy(SchedulerPolicy::kMultilevelFeedback);
  traffic.EnableDispatchTrace(kDispatchTraceLimit);
  session::SessionEngineConfig config;
  config.sessions = sessions;
  config.seed = opts.seed;
  config.mean_interarrival = 4500;
  auto created = session::SessionEngine::Create(&kernel, config);
  if (!created.ok()) {
    std::fprintf(stderr, "SessionEngine::Create failed: %s\n",
                 std::string(StatusName(created.status())).c_str());
    return 1;
  }
  session::SessionEngine& engine = *created.value();
  const double t3 = NowS();
  out->Num("setup_s", t3 - t0);
  out->Num("core.kernel_ctor_ms", Ms(t1 - t0));
  out->Num("init.boot_ms", Ms(t2 - t1));
  out->Num("session.create_ms", Ms(t3 - t2));
  const uint64_t rss_setup_kb = CurrentRssKb();

  std::vector<double> tick_s;
  if (opts.trace) {
    engine.SetTickObserver([&tick_s](uint64_t) { tick_s.push_back(NowS()); }, kTickSlices);
    HostProfiler::SetEnabled(true);
  }
  TimedPhase phase;
  const Status status = engine.Run();
  const HostProfileSnapshot snap = HostProfiler::Snapshot();
  HostProfiler::SetEnabled(false);
  const double wall_s = phase.Stop(out);

  Machine& machine = kernel.machine();
  const session::SessionEngineStats& stats = engine.stats();
  out->Num("units", sessions);
  out->Str("run_status", std::string(StatusName(status)));
  out->Num("completed", stats.completed);
  out->Num("failed_sessions", stats.failed_sessions);
  out->Num("failed_logins", stats.failed_logins);
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(TraceHash(traffic.dispatch_trace())));
  out->Str("trace_hash", hash);
  out->Num("dispatches", static_cast<double>(traffic.dispatch_trace().size()));
  out->Num("session.sim_makespan_mcycles", Mcycles(stats.makespan));
  out->Num("session.sim_interactive_p50_mcycles", stats.interactive_latency.Percentile(0.50) / 1e6);
  out->Num("session.sim_interactive_p99_mcycles", stats.interactive_latency.Percentile(0.99) / 1e6);

  // Per-layer counters: simulated work and waiting, read after the run.
  out->Num("base.event_queue.slab_slots", static_cast<double>(machine.events().slab_slots()));
  const Cycles per_ref = machine.costs().memory_reference;
  out->Num("hw.refs", per_ref == 0 ? 0.0
                                   : static_cast<double>(machine.charges().Get("memory_reference") /
                                                         per_ref));
  std::map<std::string, std::pair<uint64_t, uint64_t>> lock_totals;  // name -> (acq, contended)
  Cycles lock_wait = 0;
  machine.locks().ForEach([&](const SimLock& lock) {
    auto& totals = lock_totals[lock.name()];
    totals.first += lock.acquisitions();
    totals.second += lock.contentions();
    lock_wait += lock.wait_cycles();
  });
  out->Num("hw.sim_lock_wait_mcycles", Mcycles(lock_wait));
  for (const char* name : {"ast", "dir", "page_table", "traffic"}) {
    const auto& totals = lock_totals[name];
    out->Num(std::string("hw.lock.") + name + ".contention_ratio",
             totals.first == 0 ? 0.0
                               : static_cast<double>(totals.second) /
                                     static_cast<double>(totals.first));
  }
  out->Num("core.denials", static_cast<double>(kernel.audit().denials()));
  const CounterSet& charges = machine.charges();
  out->Num("core.sim_gate_crossing_mcycles", Mcycles(charges.Get("gate_crossing")));
  out->Num("mem.sim_page_io_mcycles", Mcycles(charges.Get("page_io")));
  out->Num("mem.sim_fault_path_mcycles", Mcycles(charges.Get("fault_path")));
  out->Num("proc.sim_scheduler_mcycles", Mcycles(charges.Get("scheduler")));
  out->Num("proc.context_switches", static_cast<double>(traffic.context_switches()));
  out->Num("proc.promotions", static_cast<double>(traffic.promotions()));
  out->Num("proc.demotions", static_cast<double>(traffic.demotions()));
  out->Num("proc.steals", static_cast<double>(traffic.steals()));
  const uint64_t peak_kb = HostProfiler::PeakRssKb();
  out->Num("session.rss_kb_per_session",
           static_cast<double>(peak_kb > rss_setup_kb ? peak_kb - rss_setup_kb : 0) / sessions);

  if (opts.trace) {
    EmitProfile(snap, wall_s, out);
    std::vector<double> ticks_us;
    for (size_t i = 1; i < tick_s.size(); ++i) {
      ticks_us.push_back((tick_s[i] - tick_s[i - 1]) * 1e6);
    }
    Distribution dist;
    for (double t : ticks_us) {
      dist.Add(t);
    }
    out->Num("session.tick_us_p50", dist.count() == 0 ? 0.0 : dist.Percentile(0.50));
    out->Num("session.tick_us_p99", dist.count() == 0 ? 0.0 : dist.Percentile(0.99));
    const size_t decile = ticks_us.size() / 10;
    double growth = 0.0;
    if (decile > 0) {
      double first = 0.0;
      double last = 0.0;
      for (size_t i = 0; i < decile; ++i) {
        first += ticks_us[i];
        last += ticks_us[ticks_us.size() - 1 - i];
      }
      growth = first > 0 ? last / first : 0.0;
    }
    out->Num("session.tick_growth", growth);
  }
  return 0;
}

int RunModelCheck(const Options& opts, bool fuzz, JsonOut* out) {
  using namespace multics;
  const mc::McConfig config = mc::McConfig::Fast();
  // Construction takes well under a microsecond, so one timing is mostly timer
  // and cache noise: report the median of several.
  std::vector<double> ctor_s;
  for (int i = 0; i < kCheckerCtorRepeats; ++i) {
    const double t0 = NowS();
    mc::ModelChecker probe(config);
    ctor_s.push_back(NowS() - t0);
  }
  std::nth_element(ctor_s.begin(), ctor_s.begin() + ctor_s.size() / 2, ctor_s.end());
  out->Num("setup_s", ctor_s[ctor_s.size() / 2]);
  out->Num("modelcheck.ctor_us", ctor_s[ctor_s.size() / 2] * 1e6);
  mc::ModelChecker checker(config);

  const uint64_t kernels_before = g_kernel_allocs;
  if (opts.trace) {
    HostProfiler::SetEnabled(true);
  }
  TimedPhase phase;
  const mc::McResult result = fuzz ? checker.Fuzz(opts.seed, opts.units) : checker.Explore();
  const HostProfileSnapshot snap = HostProfiler::Snapshot();
  HostProfiler::SetEnabled(false);
  const double wall_s = phase.Stop(out);
  const uint64_t rebuilds = g_kernel_allocs - kernels_before;

  const mc::McStats& stats = result.stats;
  out->Num("units", static_cast<double>(fuzz ? stats.fuzz_ops : stats.transitions));
  out->Num("max_depth", stats.max_depth);
  out->Bool("fixed_point", stats.fixed_point);
  out->Num("fuzz_ops", static_cast<double>(stats.fuzz_ops));
  out->Num("violations", static_cast<double>(result.violations.size()));
  if (!result.clean()) {
    std::fputs(result.ToString().c_str(), stderr);
  }
  out->Num("modelcheck.states", static_cast<double>(stats.states));
  out->Num("modelcheck.transitions", static_cast<double>(stats.transitions));
  out->Num("modelcheck.world_rebuilds", static_cast<double>(rebuilds));
  out->Num("modelcheck.useful_ratio",
           rebuilds == 0 ? 0.0
                         : static_cast<double>(stats.transitions) / static_cast<double>(rebuilds));
  // Fuzz mode explores no state space: it reports no states and no ratio.
  out->Num("modelcheck.new_state_ratio",
           stats.states == 0 || stats.transitions == 0
               ? 0.0
               : static_cast<double>(stats.states - 1) / static_cast<double>(stats.transitions));
  if (opts.trace) {
    EmitProfile(snap, wall_s, out);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload "
               "{sessions_10k|sessions_paging|mc_exhaustive|mc_fuzz} --seed N "
               "--units N [--trace]\n(--units: sessions or fuzz ops; not used by "
               "mc_exhaustive)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--units" && has_value) {
      opts.units = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      opts.trace = true;
    } else {
      return Usage();
    }
  }

  // Every workload but the exhaustive checker needs its size; run.py owns
  // the sizes.
  if (opts.units == 0 && opts.workload != "mc_exhaustive") {
    return Usage();
  }
  JsonOut out;
  int rc = 0;
  if (opts.workload == "sessions_10k") {
    rc = RunSessions(opts, /*sized_machine=*/true, &out);
  } else if (opts.workload == "sessions_paging") {
    rc = RunSessions(opts, /*sized_machine=*/false, &out);
  } else if (opts.workload == "mc_exhaustive") {
    rc = RunModelCheck(opts, /*fuzz=*/false, &out);
  } else if (opts.workload == "mc_fuzz") {
    rc = RunModelCheck(opts, /*fuzz=*/true, &out);
  } else {
    return Usage();
  }
  if (rc != 0) {
    return rc;
  }
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}
