// E23 — bounded-liveness certification: fair-lasso model checking of P3
// (wait-freedom) and P4 (eventual 2-bounded waiting), plus an rt-engine
// k-bound convergence study.
//
// Three row groups, all driven through mc::check_liveness over the
// closed universes of scenario/liveness.hpp (docs/MODELCHECK.md
// "Liveness checking"):
//
//  * certify — configurations whose semantic state graph must CLOSE
//    (paths_truncated == 0, budget not exhausted) with zero fair
//    starving cycles: P3 on K3 (full closure, crash-free and with an
//    adversarially timed crash), on C5 and the 2x3 grid (restricted
//    closures: three adjacent perpetually re-hungry diners among
//    responsive peers — the all-hungry C5 graph exceeds any feasible
//    budget and is documented as such, not silently skipped), thirst
//    liveness on the drinking edge, and P4 with the overtake counters
//    in the state key (K2 and, in full mode, K3).
//
//  * mutant — the honesty suite: every seeded LivenessMutation must be
//    re-detected (dropped fork handover and stuck detector as fair
//    lassos, ack-budget abuse as a bounded-waiting safety violation),
//    and each counterexample replays through the post-hoc checkers
//    (dining/checkers.hpp) to the same verdict. A mutant the checker
//    misses exits non-zero.
//
//  * rt — E3-style overtaking census on the real-threads engine: run
//    the rt dining scenario with crashes, collect the overtake census
//    and the empirical ◇2-BW establishment point. Wall-clock dependent,
//    therefore informational (never gated).
//
// Flags (same conventions as e21):
//   --smoke               CI-sized subset (the bench-only heavy rows drop out)
//   --json PATH           machine-readable results (BENCH_e23.json in CI)
//   --check-against PATH  compare against a recorded JSON: every matching
//                         gated key must reproduce states/sccs/fair/violation
//                         EXACTLY (the checker is deterministic — any drift
//                         is a semantic change, not noise). wall_s is never
//                         compared.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "dining/checkers.hpp"
#include "mc/liveness.hpp"
#include "scenario/liveness.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using mc::Fairness;
using mc::Options;
using scenario::LivenessConfig;
using scenario::LivenessMutation;

namespace {

struct Row {
  std::string key;    // group/name, e.g. "certify/p3-k3"
  bool gated = true;  // deterministic rows enter the baseline gate
  std::uint64_t states = 0;
  std::uint64_t sccs = 0;
  std::uint64_t fair = 0;
  bool violation = false;
  bool pass = false;  // this row's own expectation held
  double wall_s = 0.0;
  std::string note;
};

Options live_options(std::size_t max_depth, std::uint64_t max_nodes, bool include_timers,
                     bool fail_fast = false) {
  Options opt;
  opt.max_depth = max_depth;
  opt.max_nodes = max_nodes;
  opt.include_timers = include_timers;
  opt.threads = 2;
  opt.fairness = Fairness::kWeakEvent;
  opt.fail_fast = fail_fast;
  return opt;
}

bool certified(const mc::Result& r) {
  return r.ok() && r.paths_truncated == 0 && !r.budget_exhausted && r.fair_cycles == 0 &&
         r.unique_states > 0;
}

Row run_one(const std::string& key, const LivenessConfig& cfg, const Options& opt,
            bool expect_violation, const char* expect_substr = nullptr) {
  const mc::Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  Row row;
  row.key = key;
  row.states = r.unique_states;
  row.sccs = r.scc_count;
  row.fair = r.fair_cycles;
  row.violation = r.violation_found;
  row.wall_s = r.wall_seconds;
  if (expect_violation) {
    row.pass = r.violation_found &&
               (expect_substr == nullptr || r.violation.find(expect_substr) != std::string::npos);
    row.note = r.violation.substr(0, 56);
  } else {
    row.pass = certified(r);
    row.note = row.pass ? "certified" : (r.violation + r.config_error).substr(0, 56);
  }
  return row;
}

// ---------------------------------------------------------------- mutants

/// Starvation mutants: detect, unroll three laps, then demand the
/// post-hoc wait-freedom checker reach the same verdict on the unrolled
/// trace (checker-vs-checker agreement).
Row run_starvation_mutant(const std::string& key, const LivenessConfig& cfg,
                          const Options& opt) {
  const mc::Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  Row row;
  row.key = key;
  row.states = r.unique_states;
  row.sccs = r.scc_count;
  row.fair = r.fair_cycles;
  row.violation = r.violation_found;
  row.wall_s = r.wall_seconds;
  if (!r.violation_found || r.cycle_length == 0) {
    row.note = "MISSED (no lasso)";
    return row;
  }
  const auto replay = unroll_lasso(make_dinner_liveness_factory(cfg), r, /*laps=*/3, opt);
  auto* world = dynamic_cast<scenario::DinnerLivenessWorld*>(replay.world.get());
  if (!replay.valid || replay.laps_closed != 3 || world == nullptr) {
    row.note = "lasso does not unroll";
    return row;
  }
  const auto report = dining::check_wait_freedom(world->trace(), world->crash_times(),
                                                 /*starvation_horizon=*/1);
  row.pass = !report.wait_free();
  row.note = row.pass ? "caught + cross-checked" : "DISAGREEMENT vs post-hoc checker";
  return row;
}

/// The budget mutant: caught as a bounded-waiting safety violation whose
/// schedule replays into a trace the post-hoc overtake census counts the
/// same way.
Row run_budget_mutant(const std::string& key, const LivenessConfig& cfg, const Options& opt) {
  const mc::Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
  Row row;
  row.key = key;
  row.states = r.unique_states;
  row.sccs = r.scc_count;
  row.fair = r.fair_cycles;
  row.violation = r.violation_found;
  row.wall_s = r.wall_seconds;
  if (!r.violation_found || r.cycle_length != 0) {
    row.note = "MISSED (no safety violation)";
    return row;
  }
  scenario::DinnerLivenessWorld world(cfg);
  world.simulator().start();
  for (std::uint64_t id : r.counterexample) {
    if (!world.simulator().execute_event(id)) {
      row.note = "counterexample does not replay";
      return row;
    }
  }
  const auto census = dining::overtake_census(world.trace(), world.graph());
  row.pass = dining::max_overtakes(census) > cfg.overtake_bound;
  row.note = row.pass ? "caught + census agrees" : "DISAGREEMENT vs overtake census";
  return row;
}

// ------------------------------------------------------- thread parity

Row run_parity(const LivenessConfig& cfg, Options opt) {
  Row row;
  row.key = "parity/threads-1-2-8";
  opt.threads = 1;
  const auto t0 = std::chrono::steady_clock::now();
  const mc::Result base = check_liveness(make_dinner_liveness_factory(cfg), opt);
  bool same = true;
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    opt.threads = threads;
    const mc::Result r = check_liveness(make_dinner_liveness_factory(cfg), opt);
    same = same && r.unique_states == base.unique_states && r.scc_count == base.scc_count &&
           r.fair_cycles == base.fair_cycles && r.violation == base.violation &&
           r.counterexample == base.counterexample &&
           r.nodes_executed == base.nodes_executed &&
           r.replayed_events == base.replayed_events;
  }
  row.states = base.unique_states;
  row.sccs = base.scc_count;
  row.fair = base.fair_cycles;
  row.violation = base.violation_found;
  row.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  row.pass = same;
  row.note = same ? "bit-identical" : "THREAD-COUNT DIVERGENCE";
  return row;
}

// -------------------------------------------------- rt k-bound study

/// E3-style overtaking census on the real-threads engine: how long until
/// the rt execution settles into the paper's 2-bounded-waiting regime.
Row run_rt_study(bool smoke) {
  scenario::Config cfg;
  cfg.engine = scenario::Engine::kRt;
  cfg.seed = 2026;
  cfg.topology = "ring";
  cfg.n = smoke ? 6 : 8;
  cfg.algorithm = scenario::Algorithm::kWaitFree;
  cfg.detector = scenario::DetectorKind::kHeartbeat;
  cfg.net_mode = scenario::NetMode::kLossy;
  cfg.run_for = smoke ? 3000 : 10000;
  cfg.crashes = {{2, cfg.run_for / 3}};

  Row row;
  row.key = "rt/kbound-convergence";
  row.gated = false;  // real threads: wall-clock dependent, informational
  const auto t0 = std::chrono::steady_clock::now();
  scenario::RtScenario s(cfg);
  s.run();
  const auto census = dining::overtake_census(s.trace(), s.graph());
  const int worst = dining::max_overtakes(census);
  const int post = dining::max_overtakes(census, dining::k_bound_establishment(census, 2));
  row.states = census.size();  // observations, not graph states
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  row.pass = post <= 2;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "max overtakes %d, post-establishment %d, t*=%lld", worst,
                post, static_cast<long long>(dining::k_bound_establishment(census, 2)));
  row.note = buf;
  return row;
}

// ----------------------------------------------------------- reporting

void write_json(const std::string& path, const std::vector<Row>& rows, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e23_liveness\",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"key\": \"" << r.key << "\", \"gated\": " << (r.gated ? "true" : "false")
        << ", \"states\": " << r.states << ", \"sccs\": " << r.sccs << ", \"fair\": " << r.fair
        << ", \"violation\": " << (r.violation ? 1 : 0) << ", \"pass\": " << (r.pass ? 1 : 0)
        << ", \"wall_s\": " << r.wall_s << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
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

  std::printf("E23 — bounded-liveness certification%s\n\n", smoke ? " (smoke)" : "");

  std::vector<Row> rows;
  auto cfg = [](const char* topo, std::size_t n) {
    LivenessConfig c;
    c.topology = topo;
    c.n = n;
    return c;
  };

  // -- P3 certification ----------------------------------------------------
  rows.push_back(run_one("certify/p3-k3", cfg("clique", 3),
                         live_options(120, 80'000'000, false), false));
  {
    LivenessConfig c = cfg("ring", 5);  // restricted closure: three adjacent
    c.initial_hungry = 0b00111;         // re-hungry diners among responsive peers
    rows.push_back(run_one("certify/p3-c5-h3", c, live_options(160, 400'000'000, false), false));
  }
  {
    LivenessConfig c = cfg("grid", 6);  // 2x3; {0,1,2} is a corner L
    c.initial_hungry = 0b00111;
    rows.push_back(
        run_one("certify/p3-grid2x3-h3", c, live_options(160, 400'000'000, false), false));
  }
  {
    LivenessConfig c = cfg("clique", 3);  // restricted: timers blow the
    c.crash_victim = 0;                   // all-hungry crash graph past
    c.initial_hungry = 0b011;             // any feasible budget
    rows.push_back(run_one("certify/p3-k3-crash-h2", c,
                           live_options(160, 80'000'000, /*include_timers=*/true), false));
  }
  {
    const mc::Result r =
        check_liveness(scenario::make_drinking_edge_liveness_factory(),
                       live_options(120, 80'000'000, false));
    Row row;
    row.key = "certify/thirst-edge";
    row.states = r.unique_states;
    row.sccs = r.scc_count;
    row.fair = r.fair_cycles;
    row.violation = r.violation_found;
    row.wall_s = r.wall_seconds;
    row.pass = certified(r);
    row.note = row.pass ? "certified" : (r.violation + r.config_error).substr(0, 56);
    rows.push_back(row);
  }

  // -- P4 certification + tightness ---------------------------------------
  {
    LivenessConfig c = cfg("clique", 2);
    c.check_overtakes = true;
    c.overtake_bound = 2;
    rows.push_back(run_one("certify/p4-k2-bound2", c, live_options(120, 80'000'000, false),
                           false));
    c.overtake_bound = 1;
    rows.push_back(run_one("violate/p4-k2-bound1", c, live_options(120, 80'000'000, false),
                           true, "bounded waiting violated"));
  }
  if (!smoke) {
    LivenessConfig c = cfg("clique", 3);  // bench-only: ~460k states
    c.check_overtakes = true;
    c.overtake_bound = 2;
    rows.push_back(run_one("certify/p4-k3-bound2", c, live_options(160, 400'000'000, false),
                           false));
  }
  {
    LivenessConfig c = cfg("clique", 3);  // budget 3 admits triple overtaking
    c.check_overtakes = true;
    c.overtake_bound = 2;
    c.acks_per_session = 3;
    rows.push_back(run_one("violate/p4-k3-acks3", c,
                           live_options(160, 400'000'000, false, /*fail_fast=*/true), true,
                           "bounded waiting violated"));
  }

  // -- honesty: seeded mutants --------------------------------------------
  {
    LivenessConfig c = cfg("clique", 2);
    c.mutation = LivenessMutation::kDropForkHandover;
    c.initial_hungry = 0b01;
    rows.push_back(
        run_starvation_mutant("mutant/drop-fork", c, live_options(80, 20'000'000, true)));
    Options kb = live_options(80, 20'000'000, true);
    kb.fairness = Fairness::kKBounded;
    kb.fairness_k = 2;
    rows.push_back(run_starvation_mutant("mutant/drop-fork-kbounded", c, kb));
  }
  {
    LivenessConfig c = cfg("clique", 2);
    c.mutation = LivenessMutation::kStuckDetector;
    c.crash_victim = 1;
    c.initial_hungry = 0b01;
    rows.push_back(
        run_starvation_mutant("mutant/stuck-detector", c, live_options(80, 20'000'000, true)));
  }
  {
    LivenessConfig c = cfg("clique", 3);
    c.check_overtakes = true;
    c.overtake_bound = 2;
    c.mutation = LivenessMutation::kGrantBeyondBudget;
    rows.push_back(run_budget_mutant(
        "mutant/grant-beyond-budget", c,
        live_options(160, 400'000'000, false, /*fail_fast=*/true)));
  }

  // -- determinism parity --------------------------------------------------
  rows.push_back(run_parity(cfg("clique", 3), live_options(120, 80'000'000, false)));

  // -- rt engine k-bound convergence (informational) -----------------------
  rows.push_back(run_rt_study(smoke));

  util::Table table({"key", "states", "sccs", "fair", "viol", "pass", "wall s", "note"});
  for (const Row& r : rows) {
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.2f", r.wall_s);
    table.row()
        .cell(r.key)
        .cell(r.states)
        .cell(r.sccs)
        .cell(r.fair)
        .cell(r.violation ? "yes" : "no")
        .cell(r.pass ? "ok" : "FAIL")
        .cell(wall)
        .cell(r.note);
  }
  table.print();

  if (!json_path.empty()) {
    write_json(json_path, rows, smoke);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  int failures = 0;
  for (const Row& r : rows) {
    if (!r.pass && r.gated) {
      std::fprintf(stderr, "e23 FAIL: %s — %s\n", r.key.c_str(), r.note.c_str());
      ++failures;
    }
  }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline_rows(baseline_path);
    if (!baseline) {
      std::fprintf(stderr, "e23: cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    for (const obs::json::Value& b : *baseline) {
      const obs::json::Value* gated = b.find("gated");
      if (gated == nullptr || !gated->boolean) continue;
      const std::string key = bench::row_key(b);
      const auto states = static_cast<std::uint64_t>(b.num_or("states", 0));
      const auto sccs = static_cast<std::uint64_t>(b.num_or("sccs", 0));
      const auto fair = static_cast<std::uint64_t>(b.num_or("fair", 0));
      const int violation = static_cast<int>(b.num_or("violation", 0));
      for (const Row& r : rows) {
        if (r.key != key) continue;
        if (r.states != states || r.sccs != sccs || r.fair != fair ||
            (r.violation ? 1 : 0) != violation) {
          std::fprintf(stderr,
                       "e23 BASELINE DRIFT: %s states %llu vs %llu, sccs %llu vs %llu, "
                       "fair %llu vs %llu, violation %d vs %d\n",
                       key.c_str(), (unsigned long long)r.states,
                       (unsigned long long)states, (unsigned long long)r.sccs,
                       (unsigned long long)sccs, (unsigned long long)r.fair,
                       (unsigned long long)fair, r.violation ? 1 : 0, violation);
          ++failures;
        }
      }
    }
    if (failures == 0) {
      std::printf("baseline gate: every gated key reproduced exactly vs %s\n",
                  baseline_path.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
