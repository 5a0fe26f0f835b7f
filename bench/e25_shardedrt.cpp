// E25 — sharded rt executor: a hundred thousand philosophers on real
// threads.
//
// The PR-5 rt engine ran one OS thread per actor, which collapses past a
// few hundred philosophers; the shard-per-core executor (rt/runtime.hpp)
// multiplexes N actors onto C worker shards with run queues, work
// stealing, batched mailbox drains and Ben-David–Blelloch-style helping.
// This bench records what that buys and gates it:
//
//  * perf mode — the SAME dining scenario (sparse random conflict graph,
//    perfect detector, live monitors) run twice at n = 10⁴: once on the
//    sharded executor (shards = auto) and once at shards = n, which is
//    exactly the old thread-per-actor layout (one worker, one run queue,
//    one timer registry per actor). Reported as actors/sec (actors hosted
//    per wall second of the full run including start/join — the metric
//    the tentpole quantifies: how many philosophers the engine can field),
//    recorded events/sec, and the hungry→eat p99 in ticks. The bench
//    itself enforces the acceptance ratio: at full size sharded actors/sec
//    must be ≥ 10× the thread-per-actor baseline (measured ~90-180× on a
//    1-core container: the thread layout overshoots a 0.1 s horizon by
//    ~18 s of scheduler thrash). The smoke pair is too small for the full
//    gap — thread thrash grows superlinearly in n — so smoke enforces a
//    3× sanity floor instead.
//
//  * scale mode — a 10⁵-actor sparse random conflict graph on the sharded
//    executor, crash-faulted, live monitors attached, run to completion.
//    Gate: zero online/post-hoc monitor disagreement, the crash plan
//    executed, and real dining progress (meals > 0). This is the paper's
//    "arbitrary conflict graphs" claim on real threads at a scale the old
//    engine could not even start (10⁵ OS threads).
//
//    Load shaping matters here: on a saturated box a full FIFO sweep of
//    the run queue takes ~n · 10 µs, so a crash scheduled late in the
//    horizon can sit behind a sweep's worth of backlog and never execute
//    before the deadline. The scale run therefore spreads first hunger
//    over 4× the horizon (only ~¼ of actors start a session in-window)
//    and schedules crashes early — right behind the on_start storm — so
//    they reliably fire with ≥ 2 sweeps of horizon to spare.
//
// Wall-clock throughput numbers are machine-dependent; the --check-against
// gate therefore uses a loose 0.5× floor per metric (vs E21's 0.85) while
// the sharded-over-threads ratio is enforced unconditionally — a slow
// runner slows both sides of the ratio.
//
// Flags:
//   --smoke               CI-sized run (n = 2000 perf pair, n = 20000 scale)
//   --json PATH           machine-readable results (BENCH_e25.json in CI)
//   --check-against PATH  compare actors_per_sec/events_per_sec per key
//                         against a recorded baseline; exit non-zero on a
//                         > 2x regression or a broken hard gate
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "scenario/rt_scenario.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::Time;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string mode;   // "perf" | "scale"
  std::string layout; // "sharded" | "threads"
  std::size_t n = 0;
  std::size_t shards = 0;
  std::uint64_t events = 0;
  std::uint64_t meals = 0;
  std::uint64_t steals = 0;
  std::uint64_t helps = 0;
  double wall_s = 0.0;
  double p99_hungry_to_eat = 0.0;  // ticks
  [[nodiscard]] double actors_per_sec() const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(n) / wall_s;
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(events) / wall_s;
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
  cfg.observability = true;                         // live monitors attached
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

scenario::Config scale_config(std::size_t n, Time horizon) {
  scenario::Config cfg = base_config(n, horizon);
  // Sparse herd: first hunger uniform in [0, 4·horizon], so only ~¼ of the
  // actors start a session inside the window. A dense herd at 10⁵ actors
  // offers ~15 dispatches per session — more than 10× what one core clears
  // in the horizon — and the backlog would swallow the crash plan (see the
  // header comment).
  cfg.harness.first_hunger_hi = 4 * horizon;
  cfg.harness.think_lo = 2 * horizon;
  cfg.harness.think_hi = 3 * horizon;
  // Crash early: the dispatch that retires a crashed actor queues behind
  // whatever the on_start storm left, so an early schedule still executes
  // mid-run while a late one can miss the horizon entirely.
  cfg.crashes = {{static_cast<sim::ProcessId>(n / 3), horizon / 6},
                 {static_cast<sim::ProcessId>(n / 2), horizon / 4}};
  return cfg;
}

/// One full rt dining run; fails the bench on monitor disagreement.
/// `gate_progress` additionally enforces meals > 0 and crash-plan
/// execution — on for the scale run, off for the perf pair, whose short
/// horizon is a throughput probe (a Debug or sanitizer build may not
/// complete a session inside it, and that is not what the pair gates).
Result run_one(const std::string& mode, const std::string& layout, scenario::Config cfg,
               bool gate_progress, bool& ok) {
  scenario::RtScenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  Result r;
  r.mode = mode;
  r.layout = layout;
  r.n = cfg.n;
  r.wall_s = seconds_since(t0);
  r.shards = s.runtime().shard_count();
  r.events = s.event_log()->size() + s.trace().size();
  r.meals = s.trace().count(dining::TraceEventKind::kStartEating);
  const rt::ExecutorStats st = s.runtime().stats();
  r.steals = st.steals;
  r.helps = st.helps + st.timer_helps;

  std::vector<double> waits;
  for (const auto& sess : dining::hungry_sessions(s.trace())) {
    if (sess.completed()) waits.push_back(static_cast<double>(sess.response_time()));
  }
  r.p99_hungry_to_eat = util::percentile(std::move(waits), 0.99);

  const std::string agreement = s.monitor_agreement();
  if (!agreement.empty()) {
    std::fprintf(stderr, "E25 %s: MONITOR DISAGREEMENT\n%s\n", r.key().c_str(),
                 agreement.c_str());
    ok = false;
  }
  if (gate_progress) {
    if (r.meals == 0) {
      std::fprintf(stderr, "E25 %s: no dining progress (0 meals)\n", r.key().c_str());
      ok = false;
    }
    for (const auto& [p, at] : cfg.crashes) {
      if (!s.runtime().crashed(p)) {
        std::fprintf(stderr, "E25 %s: scheduled crash of p%d never executed\n",
                     r.key().c_str(), static_cast<int>(p));
        ok = false;
      }
    }
  }
  return r;
}

void write_json(const std::string& path, const std::vector<Result>& results,
                double ratio, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e25_shardedrt\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"sharded_over_threads\": " << ratio
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"key\": \"" << r.key() << "\", \"mode\": \"" << r.mode
        << "\", \"layout\": \"" << r.layout << "\", \"n\": " << r.n
        << ", \"shards\": " << r.shards << ", \"events\": " << r.events
        << ", \"meals\": " << r.meals << ", \"steals\": " << r.steals
        << ", \"helps\": " << r.helps << ", \"wall_s\": " << r.wall_s
        << ", \"actors_per_sec\": " << static_cast<std::uint64_t>(r.actors_per_sec())
        << ", \"events_per_sec\": " << static_cast<std::uint64_t>(r.events_per_sec())
        << ", \"p99_hungry_to_eat\": " << r.p99_hungry_to_eat << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH] [--check-against PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::size_t perf_n = smoke ? 2'000 : 10'000;
  const std::size_t scale_n = smoke ? 20'000 : 100'000;
  const Time perf_horizon = smoke ? 300 : 2'000;     // ticks of 100 µs
  const Time scale_horizon = smoke ? 6'000 : 30'000; // sized for ≥ 2 sweeps past the crashes

  std::printf("E25: sharded rt executor vs thread-per-actor%s\n", smoke ? " (smoke)" : "");

  bool ok = true;
  std::vector<Result> results;

  // -- perf pair ----------------------------------------------------------
  {
    scenario::Config cfg = base_config(perf_n, perf_horizon);
    cfg.rt_shards = 0;  // auto: one shard per hardware core
    results.push_back(run_one("perf", "sharded", cfg, /*gate_progress=*/false, ok));
  }
  {
    scenario::Config cfg = base_config(perf_n, perf_horizon);
    cfg.rt_shards = perf_n;  // the old layout: one worker per actor
    results.push_back(run_one("perf", "threads", cfg, /*gate_progress=*/false, ok));
  }
  const double ratio = results[1].actors_per_sec() <= 0.0
                           ? 0.0
                           : results[0].actors_per_sec() / results[1].actors_per_sec();

  // -- scale run ----------------------------------------------------------
  {
    scenario::Config cfg = scale_config(scale_n, scale_horizon);
    cfg.rt_shards = 0;
    results.push_back(run_one("scale", "sharded", cfg, /*gate_progress=*/true, ok));
  }

  util::Table t({"mode", "layout", "n", "shards", "wall_s", "actors/s", "events/s",
                 "meals", "steals", "p99 wait"});
  for (const Result& r : results) {
    t.row()
        .cell(r.mode)
        .cell(r.layout)
        .cell(static_cast<std::uint64_t>(r.n))
        .cell(static_cast<std::uint64_t>(r.shards))
        .cell(r.wall_s, 3)
        .cell(static_cast<std::uint64_t>(r.actors_per_sec()))
        .cell(static_cast<std::uint64_t>(r.events_per_sec()))
        .cell(r.meals)
        .cell(r.steals)
        .cell(r.p99_hungry_to_eat, 0);
  }
  t.print();
  std::printf("sharded over thread-per-actor: %.1fx actors/sec\n", ratio);

  if (!json_path.empty()) {
    write_json(json_path, results, ratio, smoke);
    std::printf("results written to %s\n", json_path.c_str());
  }

  // Hard gates: the acceptance ratio and the scenario-level checks above.
  // Full size enforces the tentpole's ≥ 10×; the smoke pair is too small
  // for the full gap (thread thrash grows superlinearly in n) so it only
  // gets a 3× sanity floor.
  const double need = smoke ? 3.0 : 10.0;
  if (ratio < need) {
    std::fprintf(stderr,
                 "E25 GATE FAILED: sharded executor only %.1fx over thread-per-actor "
                 "(need >= %.0fx)\n",
                 ratio, need);
    ok = false;
  }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline_rows(baseline_path);
    if (!baseline) {
      std::fprintf(stderr, "e25: cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    for (const obs::json::Value& row : *baseline) {
      const std::string key = bench::row_key(row);
      const double base = row.num_or("actors_per_sec", 0.0);
      // The thread-per-actor rows exist only as the ratio's denominator;
      // their wall clock swings ~3x run-to-run (scheduler thrash on 10⁴
      // threads), so only the sharded rows are floor-gated.
      if (key.find("/threads/") != std::string::npos) continue;
      for (const Result& r : results) {
        if (r.key() != key || base <= 0.0) continue;
        const double rel = r.actors_per_sec() / base;
        if (rel < 0.5) {
          std::fprintf(stderr,
                       "e25 REGRESSION: %s at %.0f actors/s vs baseline %.0f (%.2fx)\n",
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
