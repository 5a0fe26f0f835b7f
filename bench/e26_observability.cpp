// E26 — streaming observability overhead and scale.
//
// The PR-6 recorder funneled every trace/log/network event through one
// global mutex and materialized an O(events) EventLog — fine at n = 10²,
// the scalability cap at n = 10⁵ (ROADMAP item 2). The segmented
// streaming recorder (rt/recorder.hpp) gives each worker shard its own
// append-only segment, merges them on a collector thread in hybrid-
// timestamp order, and feeds the monitors a bounded merge-as-you-go
// stream. This bench records what full observability costs now and gates
// it:
//
//  * perf pair — the SAME dining scenario (sparse random conflict graph,
//    perfect detector) run twice at n = 10⁴: once fully attached (live
//    monitors, EventLog, hungry→eat latency histograms, periodic
//    telemetry snapshots) and once fully detached (observability off).
//    Gate: attached must sustain ≥ 0.7× the detached actors/sec at full
//    size (smoke pairs are too small for a stable ratio and get a 0.5×
//    sanity floor). This is the tentpole's claim: observability is a
//    bounded tax, not a second workload.
//
//  * scale run — 10⁵ actors, crash-faulted, fully attached, EventLog
//    capped so resident log memory stays bounded (the cap sheds oldest-
//    free: the log counts drops; trace and network books stay exact).
//    Gate: zero online/post-hoc monitor disagreement, real progress
//    (meals > 0), the crash plan executed, the cap respected, and zero
//    stream-shed records (the collector kept up).
//
// Wall-clock numbers are machine-dependent; --check-against uses the
// loose 0.5× floor per row (as E25) while the attached/detached ratio is
// enforced unconditionally — a slow runner slows both sides.
//
// Flags:
//   --smoke               CI-sized run (n = 2000 pair, n = 20000 scale)
//   --json PATH           machine-readable results (BENCH_e26.json in CI)
//   --check-against PATH  compare actors_per_sec per key against a
//                         recorded baseline; exit non-zero on a > 2x
//                         regression or a broken hard gate
//   --telemetry PATH      live JSONL snapshots of the scale run (artifact)
//   --perfetto PATH       Chrome trace JSON of the attached perf run,
//                         counter tracks included (artifact)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "obs/perfetto.hpp"
#include "scenario/rt_scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::Time;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string mode;    // "perf" | "scale"
  std::string layout;  // "attached" | "detached"
  std::size_t n = 0;
  std::size_t shards = 0;
  std::uint64_t events = 0;
  std::uint64_t meals = 0;
  std::uint64_t merged = 0;          // collector-merged events (stream)
  std::uint64_t dropped_windows = 0;
  std::size_t max_pending = 0;
  std::uint64_t log_dropped = 0;     // EventLog cap shedding
  double wall_s = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;  // hungry→eat ticks (attached only)
  [[nodiscard]] double actors_per_sec() const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(n) / wall_s;
  }
  [[nodiscard]] std::string key() const {
    return mode + "/" + layout + "/" + std::to_string(n);
  }
};

scenario::Config base_config(std::size_t n, Time horizon) {
  scenario::Config cfg;
  cfg.engine = scenario::Engine::kRt;
  cfg.seed = 2026;
  cfg.topology = "sparse";  // O(n·d) build; avg degree 4
  cfg.n = n;
  cfg.algorithm = scenario::Algorithm::kWaitFree;
  cfg.detector = scenario::DetectorKind::kPerfect;  // no detector traffic
  cfg.run_for = horizon;
  cfg.rt_tick_ns = 100'000;
  // Dense herd: everyone gets hungry in the first half, one session each.
  cfg.harness.first_hunger_hi = horizon / 2;
  cfg.harness.think_lo = horizon;
  cfg.harness.think_hi = 2 * horizon;
  cfg.harness.eat_lo = 5;
  cfg.harness.eat_hi = 20;
  return cfg;
}

/// One rt dining run; `gate_obs` enforces the observability gates (zero
/// monitor disagreement; progress + crash plan + log cap when capped).
Result run_one(const std::string& mode, const std::string& layout, scenario::Config cfg,
               bool gate_obs, bool& ok, std::vector<obs::CounterSample>* counters) {
  scenario::RtScenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  Result r;
  r.mode = mode;
  r.layout = layout;
  r.n = cfg.n;
  r.wall_s = seconds_since(t0);
  r.shards = s.runtime().shard_count();
  r.meals = s.trace().count(dining::TraceEventKind::kStartEating);
  if (cfg.observability) {
    r.events = s.event_log()->size() + s.trace().size();
    r.log_dropped = s.event_log()->dropped();
    const rt::StreamStats ss = s.recorder().stream_stats();
    r.merged = ss.merged_events + ss.merged_trace_events;
    r.dropped_windows = ss.dropped_windows;
    r.max_pending = ss.max_pending;
    const obs::Histogram lat = s.driver().latency_histogram();
    r.p50 = lat.quantile(0.50);
    r.p99 = lat.quantile(0.99);
    r.p999 = lat.quantile(0.999);
    if (counters != nullptr) *counters = s.counter_samples();
    if (gate_obs) {
      const std::string agreement = s.monitor_agreement();
      if (!agreement.empty()) {
        std::fprintf(stderr, "E26 %s: MONITOR DISAGREEMENT\n%s\n", r.key().c_str(),
                     agreement.c_str());
        ok = false;
      }
      if (ss.dropped_records > 0) {
        std::fprintf(stderr, "E26 %s: collector shed %llu records (pending cap)\n",
                     r.key().c_str(),
                     static_cast<unsigned long long>(ss.dropped_records));
        ok = false;
      }
      if (cfg.rt_event_log_cap != 0 && s.event_log()->size() > cfg.rt_event_log_cap) {
        std::fprintf(stderr, "E26 %s: EventLog cap not respected (%zu > %zu)\n",
                     r.key().c_str(), s.event_log()->size(), cfg.rt_event_log_cap);
        ok = false;
      }
      if (r.meals == 0) {
        std::fprintf(stderr, "E26 %s: no dining progress (0 meals)\n", r.key().c_str());
        ok = false;
      }
      for (const auto& [p, at] : cfg.crashes) {
        if (!s.runtime().crashed(p)) {
          std::fprintf(stderr, "E26 %s: scheduled crash of p%d never executed\n",
                       r.key().c_str(), static_cast<int>(p));
          ok = false;
        }
      }
    }
  }
  return r;
}

/// Chrome trace export of the attached perf run: sessions + message flows
/// + the live counter tracks. Runs as a second short scenario so the
/// measured perf pair never pays for the export.
void write_perfetto(const std::string& path, scenario::Config cfg) {
  cfg.run_for = std::min<Time>(cfg.run_for, 500);
  cfg.n = std::min<std::size_t>(cfg.n, 64);
  cfg.harness.first_hunger_hi = cfg.run_for / 2;
  scenario::RtScenario s(cfg);
  s.run();
  std::ofstream out(path);
  out << obs::chrome_trace_json(s.event_log(), &s.trace(), s.counter_samples());
  std::printf("perfetto trace written to %s\n", path.c_str());
}

void write_json(const std::string& path, const std::vector<Result>& results,
                double ratio, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e26_observability\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"attached_over_detached\": " << ratio
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"key\": \"" << r.key() << "\", \"mode\": \"" << r.mode
        << "\", \"layout\": \"" << r.layout << "\", \"n\": " << r.n
        << ", \"shards\": " << r.shards << ", \"events\": " << r.events
        << ", \"meals\": " << r.meals << ", \"merged\": " << r.merged
        << ", \"dropped_windows\": " << r.dropped_windows
        << ", \"max_pending\": " << r.max_pending
        << ", \"log_dropped\": " << r.log_dropped << ", \"wall_s\": " << r.wall_s
        << ", \"actors_per_sec\": " << static_cast<std::uint64_t>(r.actors_per_sec())
        << ", \"latency_p50\": " << r.p50 << ", \"latency_p99\": " << r.p99
        << ", \"latency_p999\": " << r.p999 << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string baseline_path;
  std::string telemetry_path;
  std::string perfetto_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--check-against PATH] "
                   "[--telemetry PATH] [--perfetto PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t perf_n = smoke ? 2'000 : 10'000;
  const std::size_t scale_n = smoke ? 20'000 : 100'000;
  const Time perf_horizon = smoke ? 300 : 2'000;      // ticks of 100 µs
  const Time scale_horizon = smoke ? 6'000 : 30'000;  // as E25's scale run

  std::printf("E26: streaming observability attached vs detached%s\n",
              smoke ? " (smoke)" : "");

  bool ok = true;
  std::vector<Result> results;

  // -- perf pair ----------------------------------------------------------
  {
    scenario::Config cfg = base_config(perf_n, perf_horizon);
    cfg.observability = true;
    cfg.rt_telemetry_interval = perf_horizon / 8;  // live snapshot loop on
    results.push_back(run_one("perf", "attached", cfg, /*gate_obs=*/true, ok, nullptr));
  }
  {
    scenario::Config cfg = base_config(perf_n, perf_horizon);
    cfg.observability = false;
    results.push_back(run_one("perf", "detached", cfg, /*gate_obs=*/false, ok, nullptr));
  }
  const double ratio = results[1].actors_per_sec() <= 0.0
                           ? 0.0
                           : results[0].actors_per_sec() / results[1].actors_per_sec();

  // -- scale run ----------------------------------------------------------
  {
    scenario::Config cfg = base_config(scale_n, scale_horizon);
    cfg.observability = true;
    // Sparse herd + early crashes, exactly as E25's scale shaping.
    cfg.harness.first_hunger_hi = 4 * scale_horizon;
    cfg.harness.think_lo = 2 * scale_horizon;
    cfg.harness.think_hi = 3 * scale_horizon;
    cfg.crashes = {{static_cast<sim::ProcessId>(scale_n / 3), scale_horizon / 6},
                   {static_cast<sim::ProcessId>(scale_n / 2), scale_horizon / 4}};
    // Bounded resident log memory at 10⁵ actors; drops are counted.
    cfg.rt_event_log_cap = smoke ? 100'000 : 500'000;
    cfg.rt_telemetry_interval = scale_horizon / 10;
    cfg.rt_telemetry_path = telemetry_path;  // "" = in-memory samples only
    results.push_back(run_one("scale", "attached", cfg, /*gate_obs=*/true, ok, nullptr));
    if (!telemetry_path.empty()) {
      std::printf("live telemetry written to %s\n", telemetry_path.c_str());
    }
  }

  util::Table t({"mode", "layout", "n", "shards", "wall_s", "actors/s", "meals",
                 "merged", "max_pend", "log_drop", "p99 wait"});
  for (const Result& r : results) {
    t.row()
        .cell(r.mode)
        .cell(r.layout)
        .cell(static_cast<std::uint64_t>(r.n))
        .cell(static_cast<std::uint64_t>(r.shards))
        .cell(r.wall_s, 3)
        .cell(static_cast<std::uint64_t>(r.actors_per_sec()))
        .cell(r.meals)
        .cell(r.merged)
        .cell(static_cast<std::uint64_t>(r.max_pending))
        .cell(r.log_dropped)
        .cell(r.p99, 0);
  }
  t.print();
  std::printf("attached over detached: %.2fx actors/sec\n", ratio);

  if (!perfetto_path.empty()) {
    scenario::Config cfg = base_config(perf_n, perf_horizon);
    cfg.observability = true;
    cfg.rt_telemetry_interval = 50;
    write_perfetto(perfetto_path, cfg);
  }

  if (!json_path.empty()) {
    write_json(json_path, results, ratio, smoke);
    std::printf("results written to %s\n", json_path.c_str());
  }

  // Hard gate: full observability is a bounded tax. Full size enforces the
  // acceptance ≥ 0.7×; smoke pairs are noise-dominated (start/join is a
  // bigger share of a 30 ms run) and get a 0.5× sanity floor.
  const double need = smoke ? 0.5 : 0.7;
  if (ratio < need) {
    std::fprintf(stderr,
                 "E26 GATE FAILED: attached only %.2fx of detached actors/sec "
                 "(need >= %.2fx)\n",
                 ratio, need);
    ok = false;
  }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline_rows(baseline_path);
    if (!baseline) {
      std::fprintf(stderr, "e26: cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    for (const obs::json::Value& row : *baseline) {
      const std::string key = bench::row_key(row);
      const double base = row.num_or("actors_per_sec", 0.0);
      for (const Result& r : results) {
        if (r.key() != key || base <= 0.0) continue;
        const double rel = r.actors_per_sec() / base;
        if (rel < 0.5) {
          std::fprintf(stderr,
                       "e26 REGRESSION: %s at %.0f actors/s vs baseline %.0f (%.2fx)\n",
                       key.c_str(), r.actors_per_sec(), base, rel);
          ok = false;
        }
      }
    }
    if (ok) {
      std::printf("perf gate: no metric regressed more than 2x vs %s\n",
                  baseline_path.c_str());
    }
  }

  return ok ? 0 : 1;
}
