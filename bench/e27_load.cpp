// E27 — workload harness: open-loop load × graph churn × crash-recovery.
//
// PR-10's subsystem turns the daemon from a closed-loop experiment into a
// scheduling service: open-loop arrival streams offer sessions on their
// own clock, a churn planner mutates the conflict graph mid-run with
// incremental local recoloring, and crashed processes rejoin through the
// fork re-acquisition protocol. This bench runs the full grid on BOTH
// engines (virtual-time sim and the shard-per-core rt executor) and gates
// the claims that make the harness trustworthy:
//
//  * zero monitor disagreement on every cell — the online monitors and
//    post-hoc checkers see the same P1/P2/P3 story under load, churn and
//    rejoin alike;
//  * zero exclusion violations (perfect detector — any violation is an
//    algorithm bug, not detector noise);
//  * every recovery cell actually recovers: kRecovered observed, and the
//    rejoined process eats again after its rejoin;
//  * every churn cell issues its plan (issued + skipped == planned,
//    issued > 0) with only local repairs — no global recolor exists in
//    the code path;
//  * the overload cell is *detected* as overloaded (sim full runs; smoke
//    horizons are too short for a stable verdict and skip this gate);
//  * --check-against enforces the p99 regression floor: a cell's
//    hungry→eat p99 may not exceed max(2x, +100 ticks) of the recorded
//    baseline.
//
// Flags:
//   --smoke               CI-sized grid (shorter horizons, fewer rates)
//   --json PATH           machine-readable results (BENCH_e27.json in CI)
//   --check-against PATH  p99 floor against a recorded baseline
//   --telemetry PATH      write each cell's telemetry JSON line (artifact)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "scenario/load_scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::Time;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Cell {
  std::string engine;  // "sim" | "rt"
  double rate = 0.0;
  std::size_t churn = 0;
  std::size_t recoveries = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backlog_hw = 0;
  bool overloaded = false;
  std::size_t churn_planned = 0;
  std::size_t churn_issued = 0;
  std::size_t churn_skipped = 0;
  std::uint64_t recovered = 0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  double wall_s = 0.0;
  [[nodiscard]] std::string key() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s/r%g/c%zu/x%zu", engine.c_str(), rate, churn,
                  recoveries);
    return buf;
  }
};

struct Shape {
  Time horizon;       // ticks
  std::size_t n;      // actors
  Time recover_span;  // crash at span, rejoin at 2*span
};

/// One grid cell: build the LoadConfig, run it, collect + gate.
Cell run_cell(scenario::Engine engine, const Shape& shape, double rate, std::size_t churn,
              bool with_recovery, bool gate_overload, bool& ok, std::ofstream* telemetry) {
  scenario::LoadConfig cfg;
  cfg.base.engine = engine;
  cfg.base.topology = "ring";
  cfg.base.n = shape.n;
  cfg.base.algorithm = scenario::Algorithm::kWaitFree;
  cfg.base.detector = scenario::DetectorKind::kPerfect;
  cfg.base.seed = 2027;
  cfg.base.run_for = shape.horizon;
  cfg.base.rt_tick_ns = 100'000;
  cfg.arrivals.rate_per_kilotick = rate;
  cfg.churn.mutations = churn;
  if (with_recovery) {
    cfg.recoveries.push_back({static_cast<sim::ProcessId>(shape.n / 2), shape.recover_span,
                              2 * shape.recover_span});
  }

  scenario::LoadScenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();

  Cell c;
  c.engine = engine == scenario::Engine::kSim ? "sim" : "rt";
  c.rate = rate;
  c.churn = churn;
  c.recoveries = cfg.recoveries.size();
  c.wall_s = seconds_since(t0);
  c.offered = s.book().offered();
  c.completed = s.book().completed();
  c.dropped = s.book().dropped();
  c.backlog_hw = s.overload().backlog_high_water();
  c.overloaded = s.overload().overloaded();
  c.churn_planned = s.churn_plan().ops.size();
  c.churn_issued = s.churn_issued();
  c.churn_skipped = s.churn_skipped();
  c.recovered = s.trace().count(dining::TraceEventKind::kRecovered);
  const obs::Histogram lat = s.latency();
  c.p50 = lat.quantile(0.50);
  c.p99 = lat.quantile(0.99);
  c.p999 = lat.quantile(0.999);

  if (telemetry != nullptr && telemetry->is_open()) {
    *telemetry << s.telemetry_json() << '\n';
  }

  // -- hard gates ----------------------------------------------------------
  const std::string agreement = s.monitor_agreement();
  if (!agreement.empty()) {
    std::fprintf(stderr, "E27 %s: MONITOR DISAGREEMENT\n%s\n", c.key().c_str(),
                 agreement.c_str());
    ok = false;
  }
  const auto ex = s.exclusion();
  if (!ex.violations.empty()) {
    std::fprintf(stderr, "E27 %s: %zu exclusion violations\n", c.key().c_str(),
                 ex.violations.size());
    ok = false;
  }
  if (c.completed == 0) {
    std::fprintf(stderr, "E27 %s: no completed sessions\n", c.key().c_str());
    ok = false;
  }
  if (with_recovery) {
    const auto victim = static_cast<sim::ProcessId>(shape.n / 2);
    if (c.recovered != cfg.recoveries.size()) {
      std::fprintf(stderr, "E27 %s: expected %zu recoveries, trace has %llu\n",
                   c.key().c_str(), cfg.recoveries.size(),
                   static_cast<unsigned long long>(c.recovered));
      ok = false;
    }
    bool ate_after_rejoin = false;
    for (const auto& e : s.trace().events()) {
      if (e.kind == dining::TraceEventKind::kStartEating && e.process == victim &&
          e.at > 2 * shape.recover_span) {
        ate_after_rejoin = true;
        break;
      }
    }
    if (!ate_after_rejoin) {
      std::fprintf(stderr, "E27 %s: rejoined p%d never ate again\n", c.key().c_str(),
                   static_cast<int>(victim));
      ok = false;
    }
  }
  if (churn > 0) {
    if (c.churn_issued + c.churn_skipped != c.churn_planned || c.churn_issued == 0) {
      std::fprintf(stderr, "E27 %s: churn plan %zu != issued %zu + skipped %zu\n",
                   c.key().c_str(), c.churn_planned, c.churn_issued, c.churn_skipped);
      ok = false;
    }
  }
  if (gate_overload && !c.overloaded) {
    std::fprintf(stderr, "E27 %s: offered %g/kt not detected as overload\n",
                 c.key().c_str(), rate);
    ok = false;
  }
  return c;
}

void write_json(const std::string& path, const std::vector<Cell>& cells, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e27_load\",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"key\": \"" << c.key() << "\", \"engine\": \"" << c.engine
        << "\", \"rate\": " << c.rate << ", \"churn\": " << c.churn
        << ", \"recoveries\": " << c.recoveries << ", \"offered\": " << c.offered
        << ", \"completed\": " << c.completed << ", \"dropped\": " << c.dropped
        << ", \"backlog_hw\": " << c.backlog_hw
        << ", \"overloaded\": " << (c.overloaded ? "true" : "false")
        << ", \"churn_issued\": " << c.churn_issued << ", \"recovered\": " << c.recovered
        << ", \"latency_p50\": " << c.p50 << ", \"latency_p99\": " << c.p99
        << ", \"latency_p999\": " << c.p999 << ", \"wall_s\": " << c.wall_s << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string baseline_path;
  std::string telemetry_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--check-against PATH] "
                   "[--telemetry PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // Engine-scaled shapes: sim ticks are free, rt ticks are 100 µs of wall
  // clock each (rt full = 4000 ticks = 0.4 s per cell).
  const Shape sim_shape{smoke ? 20'000 : 60'000, 10, smoke ? Time{4'000} : Time{12'000}};
  const Shape rt_shape{smoke ? Time{2'500} : Time{4'000}, 8,
                       smoke ? Time{600} : Time{1'000}};
  const std::vector<double> rates = smoke ? std::vector<double>{2.0, 32.0}
                                          : std::vector<double>{2.0, 8.0, 32.0};
  const std::size_t churn_full = smoke ? 24 : 60;
  const std::size_t churn_rt = smoke ? 12 : 20;

  std::printf("E27: open-loop load x churn x crash-recovery grid%s\n",
              smoke ? " (smoke)" : "");

  std::ofstream telemetry;
  if (!telemetry_path.empty()) telemetry.open(telemetry_path, std::ios::trunc);

  bool ok = true;
  std::vector<Cell> cells;
  for (const bool rt : {false, true}) {
    const scenario::Engine engine = rt ? scenario::Engine::kRt : scenario::Engine::kSim;
    const Shape& shape = rt ? rt_shape : sim_shape;
    const std::size_t churn_n = rt ? churn_rt : churn_full;
    for (const double rate : rates) {
      for (const std::size_t churn : {std::size_t{0}, churn_n}) {
        for (const bool recover : {false, true}) {
          // Overload verdict needs a long window: gate it on the full-size
          // sim cells at the top rate only.
          const bool gate_overload = !smoke && !rt && rate >= 32.0;
          cells.push_back(run_cell(engine, shape, rate, churn, recover, gate_overload, ok,
                                   &telemetry));
        }
      }
    }
  }

  util::Table t({"engine", "rate/kt", "churn", "rec", "offered", "done", "drop", "backlog",
                 "over", "p50", "p99", "p999", "wall_s"});
  for (const Cell& c : cells) {
    t.row()
        .cell(c.engine)
        .cell(c.rate, 1)
        .cell(static_cast<std::uint64_t>(c.churn_issued))
        .cell(c.recovered)
        .cell(c.offered)
        .cell(c.completed)
        .cell(c.dropped)
        .cell(c.backlog_hw)
        .cell(c.overloaded ? "yes" : "no")
        .cell(c.p50, 0)
        .cell(c.p99, 0)
        .cell(c.p999, 0)
        .cell(c.wall_s, 3);
  }
  t.print();

  if (!telemetry_path.empty()) {
    std::printf("telemetry written to %s\n", telemetry_path.c_str());
  }
  if (!json_path.empty()) {
    write_json(json_path, cells, smoke);
    std::printf("results written to %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline_rows(baseline_path);
    if (!baseline) {
      std::fprintf(stderr, "e27: cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    // p99 regression floor: a cell may not blow past max(2x, +100 ticks)
    // of its recorded baseline (the absolute slack absorbs noise on the
    // keep-up cells whose p99 sits near one eat duration).
    for (const obs::json::Value& row : *baseline) {
      const std::string key = bench::row_key(row);
      const double base = row.num_or("latency_p99", 0.0);
      for (const Cell& c : cells) {
        if (c.key() != key || base <= 0.0) continue;
        const double floor = std::max(2.0 * base, base + 100.0);
        if (c.p99 > floor) {
          std::fprintf(stderr, "e27 REGRESSION: %s p99 %.0f vs baseline %.0f (floor %.0f)\n",
                       key.c_str(), c.p99, base, floor);
          ok = false;
        }
      }
    }
    if (ok) {
      std::printf("p99 floor: no cell regressed vs %s\n", baseline_path.c_str());
    }
  }

  return ok ? 0 : 1;
}
