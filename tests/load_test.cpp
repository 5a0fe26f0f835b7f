// Workload-harness tests: open-loop arrival processes, churn planning
// over dynamic conflict graphs, the load book + overload detector, and
// the full LoadScenario wiring on both engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "dining/trace.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "load/arrivals.hpp"
#include "load/churn.hpp"
#include "load/controller.hpp"
#include "obs/json.hpp"
#include "scenario/load_scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/rng.hpp"

namespace {

using ekbd::dining::TraceEventKind;
using ekbd::load::ArrivalKind;
using ekbd::load::ArrivalProcess;
using ekbd::load::ArrivalSpec;
using ekbd::load::ChurnOp;
using ekbd::load::ChurnParams;
using ekbd::load::ChurnPlan;
using ekbd::load::CrashWindow;
using ekbd::load::LoadBook;
using ekbd::load::OverloadDetector;
using ekbd::load::OverloadParams;
using ekbd::scenario::Algorithm;
using ekbd::scenario::Config;
using ekbd::scenario::DetectorKind;
using ekbd::scenario::Engine;
using ekbd::scenario::LoadConfig;
using ekbd::scenario::LoadScenario;
using ekbd::scenario::RecoverySpec;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

// ------------------------------------------------------------- arrivals

std::vector<Time> realize(const ArrivalSpec& spec, std::uint64_t seed, Time horizon) {
  ArrivalProcess proc(spec);
  ekbd::sim::Rng rng(seed);
  std::vector<Time> out;
  Time t = 0;
  while (true) {
    t = proc.next_after(t, rng);
    if (t >= horizon) break;
    out.push_back(t);
  }
  return out;
}

TEST(Arrivals, DeterministicReplay) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_kilotick = 10.0;
  const auto a = realize(spec, 42, 50'000);
  const auto b = realize(spec, 42, 50'000);
  const auto c = realize(spec, 43, 50'000);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Arrivals, GapsStrictlyAdvance) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kBursty}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_kilotick = 20.0;
    const auto ts = realize(spec, 7, 30'000);
    ASSERT_GT(ts.size(), 10u) << to_string(kind);
    for (std::size_t i = 1; i < ts.size(); ++i) {
      EXPECT_LT(ts[i - 1], ts[i]) << to_string(kind);
    }
  }
}

TEST(Arrivals, PoissonRateMatchesSpec) {
  ArrivalSpec spec;
  spec.rate_per_kilotick = 10.0;  // expect ~2000 arrivals in 200k ticks
  const auto ts = realize(spec, 5, 200'000);
  EXPECT_GT(ts.size(), 1'700u);
  EXPECT_LT(ts.size(), 2'300u);
}

TEST(Arrivals, UniformGapsWithinBounds) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kUniform;
  spec.gap_lo = 100;
  spec.gap_hi = 300;
  const auto ts = realize(spec, 9, 100'000);
  ASSERT_GT(ts.size(), 100u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const Time gap = ts[i] - ts[i - 1];
    EXPECT_GE(gap, 100);
    EXPECT_LE(gap, 300);
  }
}

TEST(Arrivals, BurstyConcentratesArrivalsInBursts) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBursty;
  spec.rate_per_kilotick = 5.0;
  spec.burst_len = 2'000;
  spec.idle_len = 8'000;
  spec.burst_factor = 8.0;
  const auto ts = realize(spec, 11, 400'000);
  std::size_t in_burst = 0;
  const Time cycle = spec.burst_len + spec.idle_len;
  for (Time t : ts) {
    if (t % cycle < spec.burst_len) ++in_burst;
  }
  // Bursts are 20% of wall time but carry rate×8 vs rate÷8: the burst
  // phase must dominate the count by a wide margin.
  EXPECT_GT(in_burst, (ts.size() - in_burst) * 4);
}

TEST(Arrivals, SplitPreservesAggregateRate) {
  ArrivalSpec spec;
  spec.rate_per_kilotick = 12.0;
  spec.per_actor = false;
  const ArrivalSpec each = spec.split(4);
  EXPECT_TRUE(each.per_actor);
  EXPECT_DOUBLE_EQ(each.rate_per_kilotick, 3.0);
}

// ---------------------------------------------------------------- churn

/// Replay `plan` against a copy of (g, c), asserting validity of every op
/// at its point in the sequence. Returns the mutated pair.
void replay_plan(const ChurnPlan& plan, ekbd::graph::ConflictGraph g,
                 ekbd::graph::Coloring c, bool expect_min_degree_one) {
  Time prev = -1;
  for (const ChurnOp& op : plan.ops) {
    ASSERT_GE(op.at, prev) << "ops must be time-sorted";
    prev = op.at;
    switch (op.kind) {
      case ChurnOp::Kind::kRecolor:
        c[static_cast<std::size_t>(op.a)] = op.color;
        break;
      case ChurnOp::Kind::kAddEdge:
        ASSERT_FALSE(g.adjacent(op.a, op.b)) << "duplicate add " << op.a << "-" << op.b;
        g.add_edge(op.a, op.b);
        break;
      case ChurnOp::Kind::kRemoveEdge:
        ASSERT_TRUE(g.adjacent(op.a, op.b)) << "removing absent " << op.a << "-" << op.b;
        g.remove_edge(op.a, op.b);
        if (expect_min_degree_one) {
          EXPECT_GE(g.degree(op.a), 1u);
          EXPECT_GE(g.degree(op.b), 1u);
        }
        break;
    }
    // Proper after *every* step — the recolor-before-add ordering exists
    // exactly so no intermediate instant has two adjacent equal colors.
    ASSERT_TRUE(ekbd::graph::is_proper(g, c)) << "improper after op at t=" << op.at;
  }
  EXPECT_EQ(g.edges(), plan.final_graph.edges());
  EXPECT_EQ(c, plan.final_colors);
}

TEST(Churn, PlanReplaysValidAndProper) {
  ekbd::graph::ConflictGraph g = ekbd::graph::ring(12);
  const ekbd::graph::Coloring c = ekbd::graph::welsh_powell_coloring(g);
  ChurnParams params;
  params.mutations = 200;
  params.start = 1'000;
  params.end = 100'000;
  const ChurnPlan plan = ekbd::load::plan_churn(g, c, params, {}, 77);
  EXPECT_EQ(plan.mutations(), 200u);
  EXPECT_EQ(plan.ops.size(), plan.adds + plan.removes + plan.recolors);
  for (const ChurnOp& op : plan.ops) {
    EXPECT_GE(op.at, params.start);
    EXPECT_LE(op.at, params.end);
  }
  replay_plan(plan, g, c, /*expect_min_degree_one=*/true);
  // Local repair keeps the greedy palette bound on the final graph.
  EXPECT_LE(ekbd::graph::num_colors(plan.final_colors),
            plan.final_graph.max_degree() + 1);
}

TEST(Churn, DeterministicInSeed) {
  ekbd::graph::ConflictGraph g = ekbd::graph::ring(10);
  const ekbd::graph::Coloring c = ekbd::graph::welsh_powell_coloring(g);
  ChurnParams params;
  params.mutations = 50;
  params.start = 0;
  params.end = 20'000;
  const ChurnPlan p1 = ekbd::load::plan_churn(g, c, params, {}, 5);
  const ChurnPlan p2 = ekbd::load::plan_churn(g, c, params, {}, 5);
  const ChurnPlan p3 = ekbd::load::plan_churn(g, c, params, {}, 6);
  ASSERT_EQ(p1.ops.size(), p2.ops.size());
  for (std::size_t i = 0; i < p1.ops.size(); ++i) {
    EXPECT_EQ(p1.ops[i].at, p2.ops[i].at);
    EXPECT_EQ(p1.ops[i].kind, p2.ops[i].kind);
    EXPECT_EQ(p1.ops[i].a, p2.ops[i].a);
    EXPECT_EQ(p1.ops[i].b, p2.ops[i].b);
  }
  EXPECT_NE(p1.final_graph.edges(), p3.final_graph.edges());
}

TEST(Churn, AvoidsCrashWindows) {
  ekbd::graph::ConflictGraph g = ekbd::graph::ring(10);
  const ekbd::graph::Coloring c = ekbd::graph::welsh_powell_coloring(g);
  ChurnParams params;
  params.mutations = 120;
  params.start = 0;
  params.end = 80'000;
  const std::vector<CrashWindow> windows = {
      {3, 20'000, 40'000, 1'000},  // outage with recovery
      {7, 60'000, -1, 1'000},      // crash, never comes back
  };
  const ChurnPlan plan = ekbd::load::plan_churn(g, c, params, windows, 13);
  ASSERT_GT(plan.ops.size(), 0u);
  for (const ChurnOp& op : plan.ops) {
    const bool touches_3 = op.a == 3 || (op.kind != ChurnOp::Kind::kRecolor && op.b == 3);
    const bool touches_7 = op.a == 7 || (op.kind != ChurnOp::Kind::kRecolor && op.b == 7);
    if (touches_3) {
      EXPECT_FALSE(op.at >= 19'000 && op.at <= 41'000) << "op at t=" << op.at;
    }
    if (touches_7) {
      EXPECT_LT(op.at, 59'000) << "op at t=" << op.at;
    }
  }
}

// ------------------------------------------------- load book + detector

TEST(LoadBook, ArrivalsBacklogAndDrain) {
  LoadBook book(4);
  EXPECT_TRUE(book.on_arrival(1, /*idle=*/true));   // starts immediately
  EXPECT_FALSE(book.on_arrival(1, /*idle=*/false));  // queues
  EXPECT_FALSE(book.on_arrival(1, /*idle=*/false));
  EXPECT_EQ(book.offered(), 3u);
  EXPECT_EQ(book.backlog(1), 2u);
  EXPECT_EQ(book.max_backlog(), 2u);

  book.on_complete();
  EXPECT_TRUE(book.try_drain(1));
  EXPECT_EQ(book.backlog(1), 1u);
  EXPECT_TRUE(book.try_drain(1));
  EXPECT_FALSE(book.try_drain(1));  // queue empty
  EXPECT_EQ(book.completed(), 1u);
  EXPECT_EQ(book.dropped(), 0u);
}

TEST(LoadBook, CrashShedsQueue) {
  LoadBook book(3);
  EXPECT_FALSE(book.on_arrival(2, false));
  EXPECT_FALSE(book.on_arrival(2, false));
  book.on_arrival_dropped();  // arrival addressed at a corpse
  book.on_crash(2);
  EXPECT_EQ(book.backlog(2), 0u);
  EXPECT_EQ(book.dropped(), 3u);  // 2 shed + 1 dead-on-arrival
  EXPECT_EQ(book.offered(), 3u);
  EXPECT_FALSE(book.try_drain(2));
}

TEST(Overload, KeepingUpNeverFlags) {
  OverloadParams params;
  params.window = 4;
  OverloadDetector det(params);
  // Completions track offers exactly; queues stay empty.
  for (int i = 0; i <= 20; ++i) {
    det.observe({i * 100, static_cast<std::uint64_t>(i * 10),
                 static_cast<std::uint64_t>(i * 10), 0});
  }
  EXPECT_FALSE(det.overloaded());
  EXPECT_EQ(det.overloaded_samples(), 0u);
  EXPECT_DOUBLE_EQ(det.window_completion_ratio(), 1.0);
}

TEST(Overload, PersistentLagWithBacklogFlags) {
  OverloadParams params;
  params.window = 4;
  params.lag_ratio = 0.9;
  params.backlog_watermark = 4;
  OverloadDetector det(params);
  // Offered 20/interval, completed 10/interval, queue growing.
  for (int i = 0; i <= 10; ++i) {
    det.observe({i * 100, static_cast<std::uint64_t>(i * 20),
                 static_cast<std::uint64_t>(i * 10),
                 static_cast<std::uint64_t>(i * 10)});
  }
  EXPECT_TRUE(det.overloaded());
  EXPECT_GT(det.overloaded_samples(), 0u);
  EXPECT_LT(det.window_completion_ratio(), 0.9);
  EXPECT_EQ(det.backlog_high_water(), 100u);
}

TEST(Overload, EmptyQueuesVetoTheFlag) {
  OverloadParams params;
  params.window = 4;
  params.backlog_watermark = 4;
  OverloadDetector det(params);
  // Ratio lags (rounding-noise regime) but queues never build.
  for (int i = 0; i <= 10; ++i) {
    det.observe({i * 100, static_cast<std::uint64_t>(i * 20),
                 static_cast<std::uint64_t>(i * 10), 1});
  }
  EXPECT_FALSE(det.overloaded());
}

TEST(Overload, TinyWindowsIgnored) {
  OverloadParams params;
  params.window = 4;
  params.min_offered = 8;
  OverloadDetector det(params);
  // Severe lag but only ~1 arrival per window: noise, not overload.
  for (int i = 0; i <= 10; ++i) {
    det.observe({i * 100, static_cast<std::uint64_t>(i), 0, 10});
  }
  EXPECT_FALSE(det.overloaded());
}

// ------------------------------------------------- LoadScenario (sim)

LoadConfig sim_load_config(std::uint64_t seed, std::size_t n, Time run_for) {
  LoadConfig lc;
  lc.base.seed = seed;
  lc.base.topology = "ring";
  lc.base.n = n;
  lc.base.algorithm = Algorithm::kWaitFree;
  lc.base.detector = DetectorKind::kPerfect;
  lc.base.run_for = run_for;
  return lc;
}

TEST(LoadScenarioSim, ModerateOpenLoopKeepsUp) {
  LoadConfig lc = sim_load_config(3, 8, 60'000);
  lc.arrivals.rate_per_kilotick = 2.0;  // one session per 500 ticks per actor
  LoadScenario sc(lc);
  sc.run();

  EXPECT_GT(sc.book().offered(), 400u);
  // Sessions complete at nearly the offered rate (the tail of the run may
  // hold a few in flight).
  EXPECT_GE(sc.book().completed() + 3 * lc.base.n, sc.book().offered());
  EXPECT_EQ(sc.book().dropped(), 0u);
  EXPECT_FALSE(sc.overload().overloaded());
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_TRUE(sc.wait_freedom(10'000).wait_free());
  EXPECT_EQ(sc.monitor_agreement(), "");
  EXPECT_GT(sc.latency().count(), 0u);
}

TEST(LoadScenarioSim, SustainedOverloadIsDetected) {
  LoadConfig lc = sim_load_config(5, 8, 60'000);
  lc.arrivals.rate_per_kilotick = 50.0;  // one arrival per 20 ticks ≫ capacity
  lc.overload.backlog_watermark = 8;
  LoadScenario sc(lc);
  sc.run();

  EXPECT_GT(sc.book().offered(), sc.book().completed());
  EXPECT_TRUE(sc.overload().overloaded());
  EXPECT_GT(sc.overload().backlog_high_water(), 8u);
  EXPECT_GE(sc.book().max_backlog(), 4u);
  // Overload degrades latency, never safety.
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.monitor_agreement(), "");
  // The p99/p999 the harness exists to measure are well defined under
  // sustained overload.
  const auto lat = sc.latency();
  EXPECT_GT(lat.count(), 100u);
  EXPECT_GE(lat.quantile(0.999), lat.quantile(0.50));
}

TEST(LoadScenarioSim, HundredMutationsNoGlobalRecolor) {
  LoadConfig lc = sim_load_config(9, 16, 80'000);
  lc.arrivals.rate_per_kilotick = 1.5;
  lc.churn.mutations = 100;
  LoadScenario sc(lc);
  EXPECT_EQ(sc.churn_plan().mutations(), 100u);
  sc.run();

  // Every op was issued live (no crashes scheduled, nothing skipped).
  EXPECT_EQ(sc.churn_issued(), sc.churn_plan().ops.size());
  EXPECT_EQ(sc.churn_skipped(), 0u);
  // The run actually saw the topology change.
  EXPECT_GT(sc.trace().count(TraceEventKind::kEdgeAdded), 0u);
  EXPECT_GT(sc.trace().count(TraceEventKind::kEdgeRemoved), 0u);
  // "No global recolor": repairs touched at most one vertex per mutation,
  // so recolor ops can never exceed mutations — and the palette stayed
  // within the greedy bound of the final topology.
  EXPECT_LE(sc.churn_plan().recolors, sc.churn_plan().mutations());
  EXPECT_LE(ekbd::graph::num_colors(sc.churn_plan().final_colors),
            sc.churn_plan().final_graph.max_degree() + 1);
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_TRUE(sc.wait_freedom(14'000).wait_free());
  EXPECT_EQ(sc.monitor_agreement(), "");
}

TEST(LoadScenarioSim, FullStackLoadChurnRecovery) {
  LoadConfig lc = sim_load_config(21, 12, 80'000);
  lc.arrivals.kind = ArrivalKind::kBursty;
  lc.arrivals.rate_per_kilotick = 3.0;
  lc.churn.mutations = 40;
  lc.recoveries = {{4, 15'000, 30'000}};
  LoadScenario sc(lc);
  sc.run();

  EXPECT_EQ(sc.trace().count(TraceEventKind::kCrashed, 4), 1u);
  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, 4), 1u);
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.monitor_agreement(), "");
  EXPECT_GT(sc.book().completed(), 0u);
  EXPECT_GT(sc.churn_issued(), 0u);
  // The victim's queue was shed at the crash (arrivals kept coming).
  EXPECT_GT(sc.book().dropped(), 0u);
  EXPECT_TRUE(sc.wait_freedom(14'000).wait_free());
}

TEST(LoadScenarioSim, GlobalStreamDealsAcrossActors) {
  LoadConfig lc = sim_load_config(31, 8, 40'000);
  lc.arrivals.per_actor = false;
  lc.arrivals.rate_per_kilotick = 20.0;  // one global stream, ~800 arrivals
  LoadScenario sc(lc);
  sc.run();
  EXPECT_GT(sc.book().offered(), 500u);
  EXPECT_GT(sc.book().completed(), 0u);
  EXPECT_TRUE(sc.exclusion().violations.empty());
}

TEST(LoadScenarioSim, TelemetryJsonRoundTrips) {
  LoadConfig lc = sim_load_config(17, 8, 30'000);
  lc.arrivals.rate_per_kilotick = 4.0;
  lc.churn.mutations = 10;
  LoadScenario sc(lc);
  sc.run();

  const std::string json = sc.telemetry_json();
  const auto doc = ekbd::obs::json::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const auto* load = doc->find("load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->num_or("offered", -1), static_cast<double>(sc.book().offered()));
  EXPECT_EQ(load->num_or("completed", -1), static_cast<double>(sc.book().completed()));
  const auto* churn = load->find("churn");
  ASSERT_NE(churn, nullptr);
  EXPECT_EQ(churn->num_or("planned", -1), static_cast<double>(sc.churn_plan().ops.size()));
  const auto* lat = load->find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->num_or("count", 0), 0.0);
  EXPECT_GE(lat->num_or("p999", 0), lat->num_or("p50", 0));
}

// The sweep runner over LoadConfigs: jobs parallelize on the pool, the
// telemetry JSONL keeps config order, and every line carries both the
// scenario's "load" object and the runner's "sweep" object.
TEST(LoadSweep, ParallelRunnerKeepsConfigOrderAndTelemetry) {
  const std::vector<double> rates = {2.0, 6.0, 12.0};
  std::vector<LoadConfig> configs;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    LoadConfig lc = sim_load_config(50 + i, 8, 20'000);
    lc.arrivals.rate_per_kilotick = rates[i];
    configs.push_back(lc);
  }
  const std::string path = ::testing::TempDir() + "load_sweep_telemetry.jsonl";
  ekbd::scenario::SweepOptions opt;
  opt.threads = 2;
  opt.telemetry_path = path;

  std::vector<std::uint64_t> offered;
  ekbd::scenario::sweep<LoadScenario>(
      configs,
      [&](std::size_t i, LoadScenario& s) {
        EXPECT_EQ(s.config().arrivals.rate_per_kilotick, rates[i]);
        EXPECT_TRUE(s.exclusion().violations.empty());
        EXPECT_EQ(s.monitor_agreement(), "");
        offered.push_back(s.book().offered());
      },
      opt);
  ASSERT_EQ(offered.size(), rates.size());
  // Higher offered rate => more offered sessions, in config order.
  EXPECT_LT(offered[0], offered[1]);
  EXPECT_LT(offered[1], offered[2]);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto doc = ekbd::obs::json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const auto* load = doc->find("load");
    ASSERT_NE(load, nullptr) << line;
    ASSERT_LT(lines, offered.size());
    EXPECT_EQ(load->num_or("offered", -1), static_cast<double>(offered[lines]));
    const auto* sweep = doc->find("sweep");
    ASSERT_NE(sweep, nullptr) << line;
    EXPECT_GT(sweep->num_or("wall_seconds", 0), 0.0);
    // The runner's offered = sessions actually started (kBecameHungry);
    // the book's offered also counts still-backlogged and dropped
    // arrivals, so it bounds the runner's count from above.
    EXPECT_GT(sweep->num_or("offered", 0), 0.0);
    EXPECT_LE(sweep->num_or("offered", 0), static_cast<double>(offered[lines]));
    ++lines;
  }
  EXPECT_EQ(lines, rates.size());
}

// -------------------------------------------------- LoadScenario (rt)

TEST(LoadScenarioRt, OpenLoopSmoke) {
  LoadConfig lc = sim_load_config(41, 6, 3'000);
  lc.base.engine = Engine::kRt;
  lc.base.rt_tick_ns = 100'000;  // 0.3 s wall
  lc.arrivals.rate_per_kilotick = 8.0;
  LoadScenario sc(lc);
  sc.run();

  EXPECT_GT(sc.book().offered(), 0u);
  EXPECT_GT(sc.book().completed(), 0u);
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.monitor_agreement(), "");
  EXPECT_GT(sc.latency().count(), 0u);
}

TEST(LoadScenarioRt, ChurnAndRecoveryStayClean) {
  LoadConfig lc = sim_load_config(43, 8, 4'000);
  lc.base.engine = Engine::kRt;
  lc.base.rt_tick_ns = 100'000;  // 0.4 s wall
  lc.arrivals.rate_per_kilotick = 6.0;
  lc.churn.mutations = 20;
  lc.churn.start = 400;
  lc.churn.end = 3'400;
  lc.churn_margin = 300;
  lc.recoveries = {{3, 900, 1'800}};
  LoadScenario sc(lc);
  sc.run();

  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, 3), 1u);
  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.monitor_agreement(), "");
  EXPECT_GT(sc.churn_issued(), 0u);
  EXPECT_GT(sc.book().completed(), 0u);
}

}  // namespace
