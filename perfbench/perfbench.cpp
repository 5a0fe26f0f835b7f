/// \file perfbench.cpp
/// The repo benchmark: three workloads, timed from outside the
/// library through its public entry points.
///
///   perfbench --workload rt-closed|rt-open|sim-closed --seed N
///             --seconds S --trace 0|1 [--spans PATH]
///
/// * `rt-closed`  — rt executor at saturation, observability attached.
/// * `rt-open`    — LoadScenario on rt: Poisson arrivals, churn, one
///                  crash-recovery cycle; latency-bound, workers park.
/// * `sim-closed` — discrete-event simulator with a heartbeat ◇P₁
///                  detector and two crashes; bypasses rt, recorder, obs.
///
/// A run discards repetitions for a few seconds of warm-up, then repeats
/// the workload (set up, run, verify) until `--seconds` of wall time are
/// spent and reports the median of every metric over the repetitions.
/// `--trace 0` prints the end-to-end metrics; `--trace 1` makes a
/// separate traced run that prints the per-layer ledger and writes its
/// spans (and, on rt, the per-shard telemetry counter tracks) to
/// `--spans` as Chrome-trace JSON. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. Any failed
/// correctness check prints `"correct": false` with no metrics and
/// exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dining/checkers.hpp"
#include "dining/trace.hpp"
#include "graph/coloring.hpp"
#include "obs/monitors.hpp"
#include "rt/log_io.hpp"
#include "rt/mailbox.hpp"
#include "rt/recorder.hpp"
#include "scenario/load_scenario.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"

namespace {

namespace sc = ekbd::scenario;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ utilities

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU time the hypervisor gave other guests while this VM wanted it
/// (the steal column of /proc/stat), seconds summed over all CPUs.
double steal_seconds() {
  unsigned long long v[8] = {};
  int n = 0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
  }
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Open a per-rep peak-RSS window: reset the kernel's resident
/// high-water mark (VmHWM) to the current resident set.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Resident high-water mark since the last reset_peak_rss, MB.
double peak_rss_mb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<double>(ru.ru_maxrss);
  }
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Quantile of whole-tick samples (sorted ascending), read as grouped
/// data: the samples of tick v are spread evenly over [v, v + 1). Integer
/// ticks otherwise make a p50 read the same on every run even when the
/// distribution under it moves.
double tick_quantile(const std::vector<Time>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double target = q * static_cast<double>(sorted.size());
  const std::size_t idx =
      std::min(sorted.size() - 1, static_cast<std::size_t>(std::floor(target)));
  const Time v = sorted[idx];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double at = static_cast<double>(hi - lo);
  return static_cast<double>(v) + (target - below) / at;
}

// ---------------------------------------------------------------- spans

/// Spans recorded around the benchmark's calls into each layer: name,
/// start, end and parent, kept in memory and written out at exit. When
/// off, `time` only measures.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  template <typename F>
  double time(const char* name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    int id = -1;
    const int saved = parent_;
    if (on_) {
      id = static_cast<int>(spans_.size());
      spans_.push_back({name, ns(t0), 0, parent_});
      parent_ = id;
    }
    f();
    const Clock::time_point t1 = Clock::now();
    if (on_) {
      spans_[static_cast<std::size_t>(id)].end_ns = ns(t1);
      parent_ = saved;
    }
    return seconds_between(t0, t1);
  }

  /// Counter samples of one rt run (RtScenario::counter_samples), placed
  /// on the span timeline at `run_start` + tick × tick_ns.
  void counters(const std::vector<ekbd::obs::CounterSample>& samples,
                Clock::time_point run_start, std::uint64_t tick_ns) {
    if (!on_) return;
    for (const auto& s : samples) {
      counters_.push_back({s.track, ns(run_start) + s.at * static_cast<std::int64_t>(tick_ns),
                           s.value});
    }
  }

  [[nodiscard]] bool on() const { return on_; }

  /// Chrome-trace JSON: spans as complete events, counters as "C" events.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   first ? "" : ",", s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
      first = false;
    }
    for (const Counter& c : counters_) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                   "\"args\":{\"value\":%.17g}}",
                   first ? "" : ",", c.track.c_str(), static_cast<double>(c.at_ns) / 1e3,
                   c.value);
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  struct Counter {
    std::string track;
    std::int64_t at_ns = 0;
    double value = 0.0;
  };

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  int parent_ = -1;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// ------------------------------------------------------------ workloads

std::size_t worker_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;  // leave one core for the recorder's collector
}

// rt-closed: 0.5 s horizon at 10 µs ticks. Every process eats about
// every 60 ms here, so a 0.5 s horizon leaves room for a starvation
// bound well past the slowest host's waits.
constexpr Time kClosedHorizon = 50'000;
constexpr std::uint64_t kClosedTickNs = 10'000;
// rt-open: 1 s horizon at 100 µs ticks; ~41k offered sessions/s, each
// eating 15-30 ms, so a process's neighbours each eat about a fifth of
// the time and most sessions wait for one of them. The wait is then set
// by the protocol in milliseconds. With µs-scale meals it was the host's
// thread wake-up latency, whose p99 moved 2x from run to run on a
// shared host.
constexpr Time kOpenHorizon = 10'000;
constexpr std::uint64_t kOpenTickNs = 100'000;
constexpr double kOpenRatePerKilotick = 1.0;
constexpr Time kOpenEatLo = 150;
constexpr Time kOpenEatHi = 300;
// sim-closed: 10k virtual ticks, crashes inside the horizon.
constexpr Time kSimHorizon = 10'000;

/// Both rt workloads: Algorithm 1 on sparse(4096) with the perfect
/// detector on an ideal network.
sc::Config rt_base_config(std::uint64_t seed, std::size_t shards) {
  sc::Config cfg;
  cfg.seed = seed;
  cfg.engine = sc::Engine::kRt;
  cfg.topology = "sparse";
  cfg.n = 4096;
  cfg.algorithm = sc::Algorithm::kWaitFree;
  cfg.detector = sc::DetectorKind::kPerfect;
  cfg.partial_synchrony = false;
  cfg.rt_shards = shards;
  return cfg;
}

sc::Config rt_closed_config(std::uint64_t seed, std::size_t shards, bool attached) {
  sc::Config cfg = rt_base_config(seed, shards);
  cfg.harness.think_lo = 0;
  cfg.harness.think_hi = 1;
  cfg.harness.eat_lo = 1;
  cfg.harness.eat_hi = 2;
  cfg.rt_tick_ns = kClosedTickNs;
  cfg.observability = attached;
  cfg.run_for = kClosedHorizon;
  return cfg;
}

sc::LoadConfig rt_open_config(std::uint64_t seed, std::size_t shards) {
  sc::LoadConfig lc;
  lc.base = rt_base_config(seed, shards);
  lc.base.harness.eat_lo = kOpenEatLo;
  lc.base.harness.eat_hi = kOpenEatHi;
  lc.base.rt_tick_ns = kOpenTickNs;
  lc.base.run_for = kOpenHorizon;
  lc.arrivals.kind = ekbd::load::ArrivalKind::kPoisson;
  lc.arrivals.rate_per_kilotick = kOpenRatePerKilotick;
  lc.arrivals.per_actor = true;
  lc.churn.mutations = 64;
  lc.recoveries.push_back({7, kOpenHorizon * 3 / 10, kOpenHorizon * 6 / 10});
  return lc;
}

sc::Config sim_closed_config(std::uint64_t seed) {
  sc::Config cfg;
  cfg.seed = seed;
  cfg.engine = sc::Engine::kSim;
  cfg.topology = "sparse";
  cfg.n = 1024;
  cfg.algorithm = sc::Algorithm::kWaitFree;
  cfg.detector = sc::DetectorKind::kHeartbeat;
  cfg.partial_synchrony = true;
  cfg.harness.think_lo = 0;
  cfg.harness.think_hi = 1;
  cfg.harness.eat_lo = 1;
  cfg.harness.eat_hi = 2;
  cfg.crashes = {{7, 3'000}, {500, 6'000}};
  cfg.run_for = kSimHorizon;
  return cfg;
}

// ----------------------------------------------------------- one rep

/// Everything one repetition measures. End-to-end fields first; the rest
/// feeds the per-layer ledger of a traced run.
struct Rep {
  double setup_s = 0, run_s = 0, check_s = 0;
  double meals = 0;
  std::size_t sessions = 0;  ///< completed sessions (the wait samples)
  /// p50 / p99 hungry→eat wait of each wait window of the horizon, µs.
  std::vector<double> window_p50_us, window_p99_us;
  std::uint64_t attempted = 0;
  std::uint64_t starving = 0;  ///< the failures
  std::uint64_t pending = 0;  ///< rt-open arrivals still queued at the horizon
  std::uint64_t shed = 0;     ///< rt-open arrivals shed at the crashed process
  std::string error;  ///< non-empty: a correctness check failed

  double graph_s = 0, color_s = 0;
  double agreement_s = 0, exclusion_s = 0, sessions_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double steal_share = 0;  ///< CPU steal over the rep, share of wall × CPUs
  double horizon_s = 0;  ///< configured horizon in wall seconds (rt)
  std::vector<ekbd::rt::ExecutorStats> shards;
  ekbd::rt::StreamStats stream{};
  std::uint64_t dining_msgs = 0, detector_msgs = 0, sim_events = 0;
  std::uint64_t offered = 0, backlog_hw = 0;
  double expected_offered = 0;

  [[nodiscard]] std::uint64_t failed() const { return starving; }
  [[nodiscard]] double meals_per_s() const { return ratio(meals, run_s); }
  [[nodiscard]] double p50_us() const { return median(window_p50_us); }
  [[nodiscard]] double p99_us() const { return median(window_p99_us); }
};

/// Time build_conflict_graph + welsh_powell_coloring on their own (the
/// scenario constructors run both again inside `setup`).
void time_graph_layers(const sc::Config& cfg, Spans& spans, Rep& r) {
  std::optional<ekbd::graph::ConflictGraph> g;
  r.graph_s = spans.time("setup.graph", [&] { g.emplace(sc::build_conflict_graph(cfg)); });
  r.color_s = spans.time("setup.color", [&] {
    if (ekbd::graph::welsh_powell_coloring(*g).size() != g->size()) std::abort();
  });
}

/// Wait percentiles are taken per window of the horizon (by the time a
/// session became hungry; 100 ms on rt, a fifth of the horizon on sim)
/// and reported as the median over windows: on a shared host a vCPU
/// stall of a few ms sets the p99 of the whole window it lands in, and a
/// few such windows must not decide a run. Every window holds at least
/// 2000 sessions, so its p99 rests on 20 or more.
constexpr std::size_t kClosedWaitWindows = 5;
constexpr std::size_t kOpenWaitWindows = 10;
constexpr std::size_t kSimWaitWindows = 5;

/// Meals, starvation and per-window waits from the trace (waits from
/// the sessions themselves, not from a bucketed latency histogram).
void check_sessions(const ekbd::dining::Trace& trace, const ekbd::dining::WaitFreedomReport& wf,
                    Time horizon, std::size_t n_windows, double us_per_tick, Rep& r) {
  std::vector<std::vector<Time>> windows(n_windows);
  for (const ekbd::dining::HungrySession& s : ekbd::dining::hungry_sessions(trace)) {
    if (!s.completed()) continue;
    const auto w = static_cast<std::size_t>(s.became_hungry) * n_windows /
                   static_cast<std::size_t>(horizon);
    windows[std::min(w, n_windows - 1)].push_back(s.response_time());
    ++r.sessions;
  }
  for (std::vector<Time>& w : windows) {
    std::sort(w.begin(), w.end());
    r.window_p50_us.push_back(tick_quantile(w, 0.50) * us_per_tick);
    r.window_p99_us.push_back(tick_quantile(w, 0.99) * us_per_tick);
  }
  r.meals = static_cast<double>(wf.sessions_completed);
  r.starving = wf.starving.size();
}

void collect_rt(sc::RtScenario& s, Rep& r) {
  r.shards = s.runtime().stats_per_shard();
  r.stream = s.recorder().stream_stats();
  r.dining_msgs = s.recorder().network().total_sent(ekbd::sim::MsgLayer::kDining);
  r.detector_msgs = s.recorder().network().total_sent(ekbd::sim::MsgLayer::kDetector);
  if (r.stream.dropped_records != 0) {
    r.error += "recorder shed " + std::to_string(r.stream.dropped_records) + " records; ";
  }
  if (s.event_log() != nullptr && s.event_log()->dropped() != 0) {
    r.error += "event log dropped " + std::to_string(s.event_log()->dropped()) + " events; ";
  }
}

/// Starvation bound: a never-crashed process hungry this long at the
/// horizon is a failed session. Each is several times the workload's
/// worst p99 wait: rt-closed's reaches 140 ms on a host running at a
/// third of its warm speed, and rt-open's, set by its 15-30 ms meals, is
/// about 110 ms. A failure then means a lost session, not a slow host.
constexpr Time kClosedStarvation = kClosedHorizon * 4 / 5;
constexpr Time kOpenStarvation = kOpenHorizon / 2;
constexpr Time kSimStarvation = kSimHorizon / 4;

/// Run an rt rep's scenario `s` (whose engine is `rt`), then make the
/// checks every rt rep makes: monitor agreement (when attached),
/// exclusion, and the sessions clipped at the configured horizon rather
/// than at the end of the join.
template <typename S>
void run_and_check_rt(S& s, sc::RtScenario& rt, Time horizon, Time starvation,
                      std::uint64_t tick_ns, std::size_t wait_windows, Spans& spans, Rep& r) {
  const double cpu0 = cpu_seconds();
  const Clock::time_point run_start = Clock::now();
  r.run_s = spans.time("run", [&] { s.run(); });
  r.cpu_s = cpu_seconds() - cpu0;
  r.horizon_s = static_cast<double>(horizon) * static_cast<double>(tick_ns) * 1e-9;
  spans.counters(rt.counter_samples(), run_start, tick_ns);
  collect_rt(rt, r);

  ekbd::dining::WaitFreedomReport wf;
  r.check_s = spans.time("check", [&] {
    if (rt.monitors() != nullptr) {
      r.agreement_s = spans.time("check.agreement", [&] {
        const std::string a = s.monitor_agreement();
        if (!a.empty()) r.error += "monitor agreement: " + a + "; ";
      });
    }
    r.exclusion_s = spans.time("check.exclusion", [&] {
      const auto ex = s.exclusion();
      if (!ex.violations.empty()) {
        r.error += std::to_string(ex.violations.size()) + " exclusion violations; ";
      }
    });
    r.sessions_s = spans.time("check.sessions", [&] {
      rt.recorder().set_end_time(horizon);
      wf = s.wait_freedom(starvation);
      check_sessions(s.trace(), wf, horizon, wait_windows, static_cast<double>(tick_ns) / 1e3, r);
    });
  });
  r.attempted = wf.sessions_total;
}

std::unique_ptr<sc::RtScenario> rep_rt_closed(std::uint64_t seed, std::size_t shards,
                                              bool attached, Spans& spans, Rep& r) {
  reset_peak_rss();
  sc::Config cfg = rt_closed_config(seed, shards, attached);
  if (spans.on()) {
    time_graph_layers(cfg, spans, r);
    cfg.rt_telemetry_interval = kClosedHorizon / 20;  // per-shard counter tracks
  }
  std::unique_ptr<sc::RtScenario> s;
  r.setup_s = spans.time("setup", [&] { s = std::make_unique<sc::RtScenario>(cfg); });
  run_and_check_rt(*s, *s, kClosedHorizon, kClosedStarvation, kClosedTickNs, kClosedWaitWindows,
                   spans, r);
  r.peak_rss_mb = peak_rss_mb();
  return s;
}

std::unique_ptr<sc::LoadScenario> rep_rt_open(std::uint64_t seed, std::size_t shards,
                                              Spans& spans, Rep& r) {
  reset_peak_rss();
  sc::LoadConfig lc = rt_open_config(seed, shards);
  if (spans.on()) {
    time_graph_layers(lc.base, spans, r);
    lc.base.rt_telemetry_interval = kOpenHorizon / 20;
  }
  std::unique_ptr<sc::LoadScenario> s;
  r.setup_s = spans.time("setup", [&] { s = std::make_unique<sc::LoadScenario>(lc); });
  run_and_check_rt(*s, *s->rt_scenario(), kOpenHorizon, kOpenStarvation, kOpenTickNs,
                   kOpenWaitWindows, spans, r);

  const std::size_t churn_done = s->churn_issued() + s->churn_skipped();
  if (churn_done != s->churn_plan().ops.size()) {
    r.error += "churn issued+skipped " + std::to_string(churn_done) + " != planned " +
               std::to_string(s->churn_plan().ops.size()) + "; ";
  }
  // Open loop: every arrival is an attempt. Only starving sessions fail:
  // arrivals shed while their process was crashed belong to a crashed
  // process, which wait-freedom promises nothing, and arrivals still
  // queued at the horizon are pending, like sessions still hungry within
  // the bound.
  const ekbd::load::LoadBook& book = s->book();
  r.attempted = book.offered();
  r.shed = book.dropped();
  r.pending = book.total_backlog();
  r.offered = book.offered();
  r.expected_offered = kOpenRatePerKilotick / 1000.0 * static_cast<double>(book.size()) *
                       static_cast<double>(kOpenHorizon);
  r.backlog_hw = s->overload().backlog_high_water();
  r.peak_rss_mb = peak_rss_mb();
  return s;
}

void rep_sim_closed(std::uint64_t seed, Spans& spans, Rep& r) {
  reset_peak_rss();
  const sc::Config cfg = sim_closed_config(seed);
  if (spans.on()) time_graph_layers(cfg, spans, r);
  std::unique_ptr<sc::Scenario> s;
  r.setup_s = spans.time("setup", [&] { s = std::make_unique<sc::Scenario>(cfg); });
  const double cpu0 = cpu_seconds();
  r.run_s = spans.time("run", [&] { s->run(); });
  r.cpu_s = cpu_seconds() - cpu0;
  r.sim_events = s->sim().events_processed();
  r.dining_msgs = s->sim().network().total_sent(ekbd::sim::MsgLayer::kDining);
  r.detector_msgs = s->sim().network().total_sent(ekbd::sim::MsgLayer::kDetector);

  ekbd::dining::WaitFreedomReport wf;
  r.check_s = spans.time("check", [&] {
    r.exclusion_s = spans.time("check.exclusion", [&] {
      // ◇WX: the heartbeat detector lies before it converges, and
      // neighbours may then eat together; none may after.
      const auto ex = s->exclusion();
      const std::size_t late = ex.violations_after(s->fd_convergence_estimate());
      if (late != 0) r.error += std::to_string(late) + " exclusion violations after FD convergence; ";
    });
    r.sessions_s = spans.time("check.sessions", [&] {
      wf = s->wait_freedom(kSimStarvation);
      // Virtual ticks rendered in wall time: the simulator's measured
      // wall seconds per tick of this run.
      const double us_per_tick = r.run_s / static_cast<double>(kSimHorizon) * 1e6;
      check_sessions(s->trace(), wf, kSimHorizon, kSimWaitWindows, us_per_tick, r);
    });
  });
  r.attempted = wf.sessions_total;
  r.peak_rss_mb = peak_rss_mb();
}

// ----------------------------------------------------------- µbenches

/// Streaming Recorder::on_send / on_deliver / on_trace from a thread
/// bound to its segment, with the collector merging behind it. ns/append.
double bench_recorder_append() {
  constexpr int kIters = 200'000;
  ekbd::rt::Recorder rec;
  rec.begin_stream({.segments = 1, .window_ns = 5'000'000, .pending_cap = 0});
  rec.bind_segment(0);
  ekbd::sim::Message m{};
  m.layer = ekbd::sim::MsgLayer::kDining;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    m.from = i & 63;
    m.to = (i + 1) & 63;
    m.sent_at = i;
    rec.on_send(m, i, false, false);
    rec.on_deliver(m, i, false);
    rec.on_trace(m.from, i, ekbd::dining::TraceEventKind::kBecameHungry);
  }
  const double s = seconds_between(t0, Clock::now());
  rec.end_stream();
  return s * 1e9 / (3.0 * kIters);
}

/// merge_segments + apply_event over `pools` interleaved send/deliver
/// streams, as the collector merges C shard segments. ns/record.
double bench_merge(std::size_t pools_n) {
  constexpr std::size_t kPairsPerPool = 50'000;
  std::vector<ekbd::rt::SegmentPool> pools(pools_n);
  std::uint64_t seq = 0;
  for (std::size_t c = 0; c < pools_n; ++c) {
    auto& recs = pools[c].recs;
    recs.reserve(2 * kPairsPerPool);
    for (std::size_t i = 0; i < kPairsPerPool; ++i) {
      const auto key = static_cast<std::int64_t>((i * pools_n + c) * 2);
      const auto from = static_cast<ProcessId>(c);
      const auto to = static_cast<ProcessId>(pools_n + (i & 15));
      ekbd::rt::SegmentRecord send;
      send.key = key;
      send.event = {static_cast<Time>(i), ekbd::sim::LoggedEvent::Kind::kSend, from, to,
                    ekbd::sim::MsgLayer::kDining, ++seq, ekbd::sim::kNoPayloadTag};
      ekbd::rt::SegmentRecord deliver = send;
      deliver.key = key + 1;
      deliver.event.kind = ekbd::sim::LoggedEvent::Kind::kDeliver;
      recs.push_back(send);
      recs.push_back(deliver);
    }
  }
  ekbd::sim::Network net;
  std::set<ProcessId> crashed;
  const Clock::time_point t0 = Clock::now();
  const std::size_t merged = ekbd::rt::merge_segments(
      pools, std::numeric_limits<std::int64_t>::max(),
      [&](const ekbd::rt::SegmentRecord& r) { ekbd::rt::apply_event(r.event, net, crashed); });
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(merged);
}

/// Replay a recorded EventLog (a prefix of at most 2M events) and the
/// matching trace prefix through a fresh MonitorHub. ns/record.
double bench_monitor_replay(const ekbd::sim::EventLog& log, const ekbd::dining::Trace& trace,
                            const ekbd::graph::ConflictGraph& g) {
  constexpr std::size_t kMaxEvents = 2'000'000;
  ekbd::rt::Recording rec;
  const auto& evs = log.events();
  rec.events.assign(evs.begin(), evs.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(evs.size(), kMaxEvents)));
  const Time last = rec.events.empty() ? 0 : rec.events.back().at;
  for (const auto& e : trace.events()) {
    if (e.at > last) break;
    rec.trace.push_back(e);
  }
  const std::size_t records = rec.events.size() + rec.trace.size();
  if (records == 0) return 0.0;
  ekbd::obs::MonitorHub hub(g);
  ekbd::sim::Network net;
  ekbd::dining::Trace replayed;
  const Clock::time_point t0 = Clock::now();
  ekbd::rt::rebuild(rec, hub, net, replayed);
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(records);
}

/// MpscRingMailbox try_push + pop_n, one thread. ns/message.
double bench_mailbox_1p() {
  constexpr int kRounds = 200'000;
  constexpr std::size_t kBurst = 16;
  ekbd::rt::MpscRingMailbox mb(1024);
  ekbd::sim::Message m{};
  ekbd::sim::Message out[kBurst];
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      m.seq = static_cast<std::uint64_t>(r) * kBurst + i;
      if (!mb.try_push(m)) std::abort();
    }
    const std::size_t n = mb.pop_n(out, kBurst);
    sink += out[n - 1].seq;
  }
  const double s = seconds_between(t0, Clock::now());
  if (sink == 0) std::abort();
  return s * 1e9 / (static_cast<double>(kRounds) * kBurst);
}

/// MpscRingMailbox with `producers` pushing threads and one pop_n
/// consumer. Wall ns per message.
double bench_mailbox_cp(std::size_t producers) {
  constexpr std::uint64_t kPerProducer = 400'000;
  ekbd::rt::MpscRingMailbox mb(1024);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&mb, &go, p] {
      ekbd::sim::Message m{};
      m.from = static_cast<ProcessId>(p);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        m.seq = i;
        while (!mb.try_push(m)) std::this_thread::yield();
      }
    });
  }
  ekbd::sim::Message out[16];
  const std::uint64_t total = kPerProducer * producers;
  std::uint64_t got = 0;
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  while (got < total) got += mb.pop_n(out, 16);
  const double s = seconds_between(t0, Clock::now());
  for (auto& t : threads) t.join();
  return s * 1e9 / static_cast<double>(total);
}

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int fail_run(const std::string& why, std::uint64_t attempted, std::uint64_t failed) {
  std::printf("CORRECTNESS CHECK FAILED: %s\n", why.c_str());
  std::printf("%s\n", json_result(false, attempted, failed, {}).c_str());
  return 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Input seed of rep `k`, derived from --seed. Inputs change from rep to
/// rep: graphs of one family differ by up to ±15% in rt throughput (and
/// in set-up time and memory), so a run on one graph would measure that
/// graph. The simulator is deterministic, so sim-closed runs each input
/// twice and checks that the second rep replays the first exactly.
std::uint64_t rep_seed(const Args& a, std::size_t k) {
  if (a.workload == "sim-closed") k /= 2;
  std::uint64_t z = a.seed * 0x9e3779b97f4a7c15ULL + k + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Rep `k` of the workload (scenario destroyed on return).
Rep run_rep(const Args& a, std::size_t k, Spans& spans) {
  Rep r;
  const std::uint64_t seed = rep_seed(a, k);
  const double steal0 = steal_seconds();
  const Clock::time_point t0 = Clock::now();
  if (a.workload == "rt-closed") {
    rep_rt_closed(seed, worker_shards(), true, spans, r);
  } else if (a.workload == "rt-open") {
    rep_rt_open(seed, worker_shards(), spans, r);
  } else {
    rep_sim_closed(seed, spans, r);
  }
  r.steal_share = ratio(steal_seconds() - steal0, seconds_between(t0, Clock::now()) *
                                                     std::thread::hardware_concurrency());
  return r;
}

/// Set-up alone (Config → ready to run) of rep `k`'s input, timed; the
/// scenario is destroyed unrun.
double setup_only(const Args& a, std::size_t k) {
  const std::uint64_t seed = rep_seed(a, k);
  const Clock::time_point t0 = Clock::now();
  if (a.workload == "rt-closed") {
    sc::RtScenario s(rt_closed_config(seed, worker_shards(), true));
  } else if (a.workload == "rt-open") {
    sc::LoadScenario s(rt_open_config(seed, worker_shards()));
  } else {
    sc::Scenario s(sim_closed_config(seed));
  }
  return seconds_between(t0, Clock::now());
}

void print_rep(const char* label, const Rep& r) {
  std::printf("  %-10s setup %.3fs run %.3fs (cpu %.3fs) check %.3fs  meals %.0f (%.0f/s)  "
              "wait p50 %.1fus p99 %.1fus over %zu sessions  rss %.0fMB  steal %.1f%%  "
              "attempted %llu starving %llu shed %llu pending %llu\n",
              label, r.setup_s, r.run_s, r.cpu_s, r.check_s, r.meals, r.meals_per_s(), r.p50_us(),
              r.p99_us(), r.sessions, r.peak_rss_mb, 100.0 * r.steal_share,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.starving),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.pending));
  std::fflush(stdout);
}

/// Discarded repetitions for the first kWarmUpSeconds: on a host that
/// was idle, the first 2-3 s of load complete a third of the meals of
/// later reps, whatever memory was touched before.
constexpr double kWarmUpSeconds = 5.0;
/// setup_s is the median of at least this many set-ups spanning at
/// least kSetupSeconds (sim-closed sets up in about a millisecond).
constexpr std::size_t kSetupSamples = 25;
constexpr double kSetupSeconds = 0.5;
/// Reps with more CPU steal than this share of wall × CPUs are left out
/// of the medians, unless fewer than kMinCleanReps would remain.
constexpr double kMaxStealShare = 0.02;
constexpr std::size_t kMinCleanReps = 3;

void warm_up(const Args& a) {
  Spans off(false);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; seconds_between(t0, Clock::now()) < kWarmUpSeconds; ++k) {
    print_rep("warm-up", run_rep(a, k, off));
  }
}

// ------------------------------------------------------ timed (trace 0)

int timed_run(const Args& a) {
  Spans off(false);
  warm_up(a);

  std::vector<Rep> reps;
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point t0 = Clock::now();
  while (reps.size() < 4 || seconds_between(t0, Clock::now()) < a.seconds ||
         (a.workload == "sim-closed" && reps.size() % 2 == 1)) {
    Rep r = run_rep(a, reps.size(), off);
    print_rep(("rep " + std::to_string(reps.size() + 1)).c_str(), r);
    attempted += r.attempted;
    failed += r.failed();
    if (!r.error.empty()) return fail_run(r.error, attempted, failed);
    if (a.workload == "sim-closed" && reps.size() % 2 == 1 &&
        (r.meals != reps.back().meals || r.sim_events != reps.back().sim_events)) {
      return fail_run("sim-closed is not deterministic: meals/events " +
                          std::to_string(r.meals) + "/" + std::to_string(r.sim_events) +
                          " vs " + std::to_string(reps.back().meals) + "/" +
                          std::to_string(reps.back().sim_events) + " on the same input",
                      attempted, failed);
    }
    reps.push_back(std::move(r));
  }

  // A rep during which the hypervisor ran other guests on this VM's
  // CPUs measures the neighbours, not the program: such reps stay out of
  // the medians while enough clean ones remain (their failures count).
  const std::size_t ran = reps.size();
  const auto clean_end = std::stable_partition(reps.begin(), reps.end(), [](const Rep& r) {
    return r.steal_share <= kMaxStealShare;
  });
  if (clean_end - reps.begin() >= static_cast<std::ptrdiff_t>(kMinCleanReps)) {
    reps.erase(clean_end, reps.end());
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  // Set-up is short next to a rep: top its samples up with set-ups alone.
  std::vector<double> setups;
  double setup_total = 0;
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  for (const double x : setups) setup_total += x;
  while (setups.size() < kSetupSamples || setup_total < kSetupSeconds) {
    setups.push_back(setup_only(a, setups.size()));
    setup_total += setups.back();
  }

  std::vector<double> p50s, p99s;  // every wait window of every rep
  for (const Rep& r : reps) {
    p50s.insert(p50s.end(), r.window_p50_us.begin(), r.window_p50_us.end());
    p99s.insert(p99s.end(), r.window_p99_us.begin(), r.window_p99_us.end());
  }
  const std::vector<Metric> metrics = {
      {"meals_per_s", "1/s", med([](const Rep& r) { return r.meals_per_s(); })},
      {"wait_p50_us", "us", median(p50s)},
      {"wait_p99_us", "us", median(p99s)},
      {"setup_s", "s", median(setups)},
      {"check_s", "s", med([](const Rep& r) { return r.check_s; })},
      {"peak_rss_mb", "MB", med([](const Rep& r) { return r.peak_rss_mb; })},
  };
  std::size_t sessions = 0;
  for (const Rep& r : reps) sessions += r.sessions;
  std::printf("%zu of %zu reps used (the rest had over %.0f%% CPU steal), %zu completed "
              "sessions in %zu wait windows (waits are service time: hungry -> eat)\n",
              reps.size(), ran, 100.0 * kMaxStealShare, sessions, p99s.size());
  std::printf("fail_ratio %.6g (%llu failed / %llu attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-14s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", json_result(true, attempted, failed, metrics).c_str());
  return 0;
}

// ----------------------------------------------------- traced (trace 1)

/// Executor / recorder / network ratios of one rt rep.
void rt_layer_metrics(const Rep& r, std::map<std::string, double>& m) {
  ekbd::rt::ExecutorStats sum{};
  double max_disp = 0;
  for (const auto& s : r.shards) {
    sum.dispatches += s.dispatches;
    sum.runs += s.runs;
    sum.steals += s.steals;
    sum.helps += s.helps;
    sum.parks += s.parks;
    max_disp = std::max(max_disp, static_cast<double>(s.dispatches));
  }
  const double n_shards = static_cast<double>(r.shards.size());
  const double disp = static_cast<double>(sum.dispatches);
  const double records =
      static_cast<double>(r.stream.merged_events + r.stream.merged_trace_events);
  m["rt.dispatches_per_meal"] = ratio(disp, r.meals);
  m["rt.dispatches_per_run"] = ratio(disp, static_cast<double>(sum.runs));
  m["rt.steal_share"] = ratio(static_cast<double>(sum.steals), static_cast<double>(sum.runs));
  m["rt.help_share"] = ratio(static_cast<double>(sum.helps), disp);
  m["rt.shard_imbalance"] = ratio(max_disp, disp / n_shards);
  m["rt.cpu_util"] = ratio(r.cpu_s, r.run_s * n_shards);
  m["rt.cpu_us_per_meal"] = ratio(r.cpu_s * 1e6, r.meals);
  m["rt.parks_per_s"] = ratio(static_cast<double>(sum.parks), r.run_s);
  m["rt.join_s"] = r.run_s - r.horizon_s;
  m["rec.records_per_meal"] = ratio(records, r.meals);
  m["rec.passes_per_s"] = ratio(static_cast<double>(r.stream.collect_passes), r.run_s);
  m["rec.max_pending"] = static_cast<double>(r.stream.max_pending);
  m["net.msgs_per_meal"] = ratio(static_cast<double>(r.dining_msgs + r.detector_msgs), r.meals);
}

double find(const std::map<std::string, double>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Per-layer metrics in ledger order; layers a workload bypasses read 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric and workload it should move
};

const LayerMetric kLayerMetrics[] = {
    {"rt.dispatches_per_meal", "count", "meals_per_s on rt-closed"},
    {"rt.dispatches_per_run", "count", "meals_per_s on rt-closed"},
    {"rt.steal_share", "ratio", "meals_per_s on rt-closed"},
    {"rt.help_share", "ratio", "meals_per_s on rt-closed"},
    {"rt.shard_imbalance", "ratio", "meals_per_s on rt-closed"},
    {"rt.cpu_util", "ratio", "meals_per_s on rt-closed"},
    {"rt.cpu_us_per_meal", "us", "meals_per_s on rt-closed"},
    {"rt.parks_per_s", "1/s", "wait_p99_us on rt-open"},
    {"rt.join_s", "s", "meals_per_s on rt-closed"},
    {"rt.scaling_eff", "ratio", "meals_per_s on rt-closed"},
    {"rec.records_per_meal", "count", "meals_per_s on rt-closed"},
    {"rec.passes_per_s", "1/s", "meals_per_s on rt-closed"},
    {"rec.max_pending", "count", "meals_per_s on rt-closed, peak_rss_mb"},
    {"rec.append_ns", "ns", "meals_per_s on rt-closed"},
    {"rec.merge_ns", "ns", "rt.join_s, meals_per_s on rt-closed"},
    {"obs.monitor_ns", "ns", "meals_per_s on rt-closed, check_s"},
    {"obs.attached_ratio", "ratio", "meals_per_s on rt-closed"},
    {"mbox.push_pop_ns_1p", "ns", "meals_per_s on rt-closed"},
    {"mbox.push_pop_ns_cp", "ns", "meals_per_s on rt-closed"},
    {"net.msgs_per_meal", "count", "meals_per_s on rt-closed"},
    {"sim.events_per_s", "1/s", "meals_per_s on sim-closed"},
    {"sim.events_per_meal", "count", "meals_per_s on sim-closed"},
    {"fd.msgs_per_meal", "count", "meals_per_s on sim-closed"},
    {"load.offered_ratio", "ratio", "wait_p99_us, fail_ratio on rt-open"},
    {"load.backlog_hw", "count", "wait_p99_us, fail_ratio on rt-open"},
    {"setup.graph_s", "s", "setup_s"},
    {"setup.color_s", "s", "setup_s"},
    {"setup.wire_s", "s", "setup_s"},
    {"check.agreement_s", "s", "check_s"},
    {"check.exclusion_s", "s", "check_s"},
    {"check.sessions_s", "s", "check_s"},
    {"trace.overhead", "ratio", "(traced vs untraced meals_per_s)"},
    {"ledger.explained_share", "ratio", "(share of rt.cpu_us_per_meal the ledger explains)"},
};

/// Traced reps; each is paired with untraced twins on the same input.
constexpr std::size_t kTracedReps = 3;

int traced_run(const Args& a) {
  Spans off(false);
  Spans spans(true);
  const std::size_t C = worker_shards();
  warm_up(a);

  // attempted/failed count the workload's own reps; the shard-curve and
  // detached variants are diagnostics (one shard starves some sessions
  // past the bound by design) and only their correctness checks count.
  std::string error;
  std::uint64_t attempted = 0, failed = 0;
  auto book = [&](const char* label, const Rep& r, bool workload = true) {
    print_rep(label, r);
    error += r.error;
    if (!workload) return;
    attempted += r.attempted;
    failed += r.failed();
  };
  std::vector<std::map<std::string, double>> layers;  // one ledger per traced rep
  std::vector<double> untraced, traced, one, two, detached;
  double monitor_ns = 0;
  for (std::size_t k = 0; k < kTracedReps; ++k) {
    const std::uint64_t seed = rep_seed(a, k);
    const Rep base = run_rep(a, k, off);
    book("untraced", base);
    untraced.push_back(base.meals_per_s());
    std::map<std::string, double> m;
    Rep r;
    if (a.workload == "rt-closed") {
      auto s = rep_rt_closed(seed, C, true, spans, r);
      book("traced", r);
      rt_layer_metrics(r, m);
      if (k == 0) monitor_ns = bench_monitor_replay(*s->event_log(), s->trace(), s->graph());
      s.reset();
      // The shard curve {1, 2, C} and the detached twin, untraced.
      Rep r1, r2, rd;
      rep_rt_closed(seed, 1, true, off, r1);
      book("shards=1", r1, false);
      one.push_back(r1.meals_per_s());
      if (C > 2) {
        rep_rt_closed(seed, 2, true, off, r2);
        book("shards=2", r2, false);
        two.push_back(r2.meals_per_s());
      }
      rep_rt_closed(seed, C, false, off, rd);
      book("detached", rd, false);
      detached.push_back(rd.meals_per_s());
    } else if (a.workload == "rt-open") {
      auto s = rep_rt_open(seed, C, spans, r);
      book("traced", r);
      rt_layer_metrics(r, m);
      const sc::RtScenario& rt = *s->rt_scenario();
      if (k == 0) monitor_ns = bench_monitor_replay(*rt.event_log(), rt.trace(), rt.graph());
      m["load.offered_ratio"] = ratio(static_cast<double>(r.offered), r.expected_offered);
      m["load.backlog_hw"] = static_cast<double>(r.backlog_hw);
    } else {
      rep_sim_closed(seed, spans, r);
      book("traced", r);
      const double events = static_cast<double>(r.sim_events);
      m["sim.events_per_s"] = ratio(events, r.run_s);
      m["sim.events_per_meal"] = ratio(events, r.meals);
      m["fd.msgs_per_meal"] = ratio(static_cast<double>(r.detector_msgs), r.meals);
      if (r.sim_events != base.sim_events || r.meals != base.meals) {
        error += "sim-closed is not deterministic between the untraced and traced reps; ";
      }
    }
    m["setup.graph_s"] = r.graph_s;
    m["setup.color_s"] = r.color_s;
    m["setup.wire_s"] = r.setup_s - r.graph_s - r.color_s;
    if (a.workload != "sim-closed") m["check.agreement_s"] = r.agreement_s;
    m["check.exclusion_s"] = r.exclusion_s;
    m["check.sessions_s"] = r.sessions_s;
    traced.push_back(r.meals_per_s());
    layers.push_back(std::move(m));
  }
  if (!error.empty()) return fail_run(error, attempted, failed);

  std::map<std::string, double> m;
  for (const auto& entry : layers.front()) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(find(l, entry.first));
    m[entry.first] = median(v);
  }
  if (a.workload == "rt-closed") {
    std::printf("shard curve (median meals/s): 1 -> %.0f, 2 -> %.0f, %zu -> %.0f; "
                "detached at %zu -> %.0f\n",
                median(one), median(two), C, median(untraced), C, median(detached));
    m["rt.scaling_eff"] = ratio(median(untraced), static_cast<double>(C) * median(one));
    m["obs.attached_ratio"] = ratio(median(untraced), median(detached));
  }
  if (a.workload != "sim-closed") {
    m["obs.monitor_ns"] = monitor_ns;
    std::vector<double> append, merge, one_p, c_p;
    for (int i = 0; i < 3; ++i) {
      append.push_back(bench_recorder_append());
      merge.push_back(bench_merge(C));
      one_p.push_back(bench_mailbox_1p());
      c_p.push_back(bench_mailbox_cp(C));
    }
    m["rec.append_ns"] = median(append);
    m["rec.merge_ns"] = median(merge);
    m["mbox.push_pop_ns_1p"] = median(one_p);
    m["mbox.push_pop_ns_cp"] = median(c_p);
  }
  m["trace.overhead"] = 1.0 - ratio(median(traced), median(untraced));

  // Ledger: µbench ns/op × per-meal counts, against the measured CPU/meal.
  const double records = find(m, "rec.records_per_meal");
  const double est_ns = find(m, "rec.append_ns") * records + find(m, "rec.merge_ns") * records +
                        find(m, "obs.monitor_ns") * records +
                        find(m, "mbox.push_pop_ns_1p") * find(m, "net.msgs_per_meal");
  const double cpu_ns = find(m, "rt.cpu_us_per_meal") * 1e3;
  m["ledger.explained_share"] = ratio(est_ns, cpu_ns);
  if (cpu_ns > 0) {
    std::printf("ledger: %.0f ns/meal of CPU; recorder append %.0f, collector merge %.0f, "
                "monitors %.0f, mailbox %.0f ns/meal => %.1f%% explained\n",
                cpu_ns, find(m, "rec.append_ns") * records, find(m, "rec.merge_ns") * records,
                find(m, "obs.monitor_ns") * records,
                find(m, "mbox.push_pop_ns_1p") * find(m, "net.msgs_per_meal"),
                100.0 * ratio(est_ns, cpu_ns));
  }
  std::printf("traced run overhead vs untraced: %+.2f%% meals_per_s (median %.0f vs %.0f)\n",
              100.0 * find(m, "trace.overhead"), median(traced), median(untraced));

  std::vector<Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    const double v = find(m, lm.name);
    out.push_back({lm.name, lm.unit, v});
    std::printf("  %-24s %14.6g %-6s -> %s%s\n", lm.name, v, lm.unit, lm.moves,
                m.count(lm.name) != 0 ? "" : "  [layer bypassed: 0]");
  }
  if (!a.spans_path.empty() && !spans.write(a.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", a.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", json_result(true, attempted, failed, out).c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload rt-closed|rt-open|sim-closed --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (arg == "--spans") {
      a.spans_path = v;
    } else {
      usage();
    }
  }
  if (a.workload != "rt-closed" && a.workload != "rt-open" && a.workload != "sim-closed") {
    usage();
  }
  std::printf("workload %s seed %llu seconds %g trace %d shards %zu build %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, worker_shards(), PERFBENCH_BUILD_TYPE);
  return a.trace ? traced_run(a) : timed_run(a);
}
