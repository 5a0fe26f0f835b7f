// Configuration fuzzing: random topologies, sizes, loads, oracles and
// crash plans — 120 scenarios per run, every paper property checked on
// each. Complements the curated parameterized sweeps with unplanned
// combinations (and stays deterministic: the fuzz seed is fixed).
//
// The `ParallelSweep*` tests drive the same property checks through
// scenario::parallel_sweep / sweep: simulations execute on a
// work-stealing pool, assertions run serially in index order on the main
// thread. They double as the TSan workload for the sweep runner — every
// Simulator is pool-thread-confined, so a data-race report here means the
// sharding leaked state between jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dining/checkers.hpp"
#include "drinking/drinking_harness.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "fd/scripted.hpp"
#include "graph/coloring.hpp"
#include "graph/topology.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace {

using ekbd::scenario::Algorithm;
using ekbd::scenario::Config;
using ekbd::scenario::DetectorKind;
using ekbd::scenario::Scenario;
using ekbd::sim::MsgLayer;
using ekbd::sim::Time;

TEST(Fuzz, RandomConfigurationsKeepEveryGuarantee) {
  const char* topologies[] = {"ring", "path", "clique", "star", "grid",
                              "tree", "random", "hypercube", "torus", "bipartite"};
  ekbd::sim::Rng fuzz(0xF022);
  int executed = 0;
  for (int iter = 0; iter < 120; ++iter) {
    Config cfg;
    cfg.seed = fuzz.u64();
    cfg.topology = topologies[fuzz.index(std::size(topologies))];
    cfg.n = static_cast<std::size_t>(fuzz.uniform_int(4, 28));
    cfg.algorithm = Algorithm::kWaitFree;
    cfg.acks_per_session = static_cast<int>(fuzz.uniform_int(1, 3));
    cfg.detector = DetectorKind::kScripted;
    cfg.partial_synchrony = false;
    cfg.uniform_delay_lo = 1;
    cfg.uniform_delay_hi = fuzz.uniform_int(2, 30);
    cfg.detection_delay = fuzz.uniform_int(10, 300);
    cfg.fp_count = static_cast<std::size_t>(fuzz.uniform_int(0, 60));
    cfg.fp_until = 10'000;
    cfg.harness.think_lo = fuzz.uniform_int(1, 50);
    cfg.harness.think_hi = cfg.harness.think_lo + fuzz.uniform_int(1, 300);
    cfg.harness.eat_lo = fuzz.uniform_int(5, 40);
    cfg.harness.eat_hi = cfg.harness.eat_lo + fuzz.uniform_int(1, 80);
    cfg.run_for = 60'000;
    cfg.observability = true;
    // Crash up to half the processes, all in the first half of the run.
    const auto crash_count = static_cast<std::size_t>(
        fuzz.uniform_int(0, static_cast<std::int64_t>(cfg.n / 2)));
    std::vector<bool> picked(cfg.n, false);
    for (std::size_t i = 0; i < crash_count; ++i) {
      auto v = static_cast<ekbd::sim::ProcessId>(fuzz.index(cfg.n));
      if (picked[static_cast<std::size_t>(v)]) continue;
      picked[static_cast<std::size_t>(v)] = true;
      cfg.crashes.emplace_back(v, fuzz.uniform_int(5'000, 28'000));
    }

    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + cfg.topology + " n=" +
                 std::to_string(cfg.n) + " f=" + std::to_string(cfg.crashes.size()) +
                 " m=" + std::to_string(cfg.acks_per_session) + " seed=" +
                 std::to_string(cfg.seed));

    Scenario s(cfg);
    s.run();
    ++executed;

    const Time conv = s.fd_convergence_estimate();
    ASSERT_LT(conv, 40'000) << "fuzzed config never converged";
    // Wait-freedom (generous horizon: some fuzzed loads are glacial).
    EXPECT_TRUE(s.wait_freedom(25'000).wait_free());
    // Eventual weak exclusion.
    EXPECT_EQ(s.exclusion().violations_after(conv), 0u);
    // Eventual (m+1)-bounded waiting.
    EXPECT_LE(ekbd::dining::max_overtakes(s.census(), conv), cfg.acks_per_session + 1);
    // Channel bound.
    EXPECT_LE(s.sim().network().max_in_transit_any(MsgLayer::kDining), 4);
    // Lemma 1.1 counter clean.
    for (std::size_t p = 0; p < cfg.n; ++p) {
      EXPECT_EQ(s.wait_free_diner(static_cast<int>(p))->lemma11_violations(), 0u);
    }
    // Online monitors agree with every post-hoc verdict above.
    EXPECT_EQ(s.monitor_agreement(), "");
  }
  EXPECT_EQ(executed, 120);
}

TEST(Fuzz, LossyAndPartitionedModesKeepEveryGuarantee) {
  // The same property battery as above, but over the net/ stack: every
  // scenario runs in {lossy, lossy+partition} with fuzzed loss ≤ 0.3 and
  // duplication ≤ 0.2 rates, finite partitions only, all traffic through
  // the ReliableTransport ARQ. Executed through sweep<Scenario> on a pool.
  const char* topologies[] = {"ring", "path", "clique", "star", "grid",
                              "tree", "random", "hypercube", "torus", "bipartite"};
  ekbd::sim::Rng fuzz(0x10557);
  std::vector<Config> configs;
  for (int iter = 0; iter < 24; ++iter) {
    Config cfg;
    cfg.seed = fuzz.u64();
    cfg.topology = topologies[fuzz.index(std::size(topologies))];
    cfg.n = static_cast<std::size_t>(fuzz.uniform_int(4, 12));
    cfg.algorithm = Algorithm::kWaitFree;
    cfg.acks_per_session = static_cast<int>(fuzz.uniform_int(1, 3));
    cfg.detector = DetectorKind::kScripted;
    cfg.partial_synchrony = false;
    cfg.uniform_delay_lo = 1;
    cfg.uniform_delay_hi = fuzz.uniform_int(2, 15);
    cfg.detection_delay = fuzz.uniform_int(10, 200);
    cfg.fp_count = static_cast<std::size_t>(fuzz.uniform_int(0, 20));
    cfg.fp_until = 8'000;
    cfg.run_for = 70'000;
    cfg.observability = true;
    cfg.net_mode = ekbd::scenario::NetMode::kLossy;
    cfg.link_faults.drop_prob = fuzz.uniform_real(0.05, 0.3);
    cfg.link_faults.dup_prob = fuzz.uniform_real(0.0, 0.2);
    cfg.link_faults.reorder_prob = fuzz.uniform_real(0.0, 0.2);
    if (iter % 4 == 3) {
      // Every fourth config additionally suffers a finite partition that
      // isolates one random process mid-run; the ARQ bridges it (no
      // suspicion needed — the scripted oracle cannot see partitions).
      cfg.net_mode = ekbd::scenario::NetMode::kLossyPartition;
      ekbd::net::Partition p;
      p.side = {static_cast<ekbd::sim::ProcessId>(fuzz.index(cfg.n))};
      p.from = fuzz.uniform_int(8'000, 12'000);
      p.until = p.from + fuzz.uniform_int(2'000, 6'000);
      cfg.partitions.push_back(std::move(p));
    }
    if (fuzz.chance(0.4)) {
      cfg.crashes.emplace_back(static_cast<ekbd::sim::ProcessId>(fuzz.index(cfg.n)),
                               fuzz.uniform_int(20'000, 30'000));
    }
    configs.push_back(std::move(cfg));
  }

  std::size_t inspected = 0;
  ekbd::scenario::SweepOptions sweep;
  sweep.threads = 8;
  ekbd::scenario::sweep<Scenario>(
      configs,
      [&configs, &inspected](std::size_t i, Scenario& s) {
        const Config& cfg = configs[i];
        SCOPED_TRACE("shard " + std::to_string(i) + ": " + cfg.topology + " n=" +
                     std::to_string(cfg.n) + " mode=" + to_string(cfg.net_mode) +
                     " drop=" + std::to_string(cfg.link_faults.drop_prob) + " seed=" +
                     std::to_string(cfg.seed));
        EXPECT_EQ(i, inspected) << "inspection left index order";
        ++inspected;

        Time conv = s.fd_convergence_estimate();
        // The scripted oracle cannot see partitions, so its estimate may
        // predate the heal; "eventually" starts once the cut is gone and
        // the ARQ has had a capped-timeout cycle to flush the backlog.
        for (const auto& part : cfg.partitions) conv = std::max(conv, part.until + 6'000);
        ASSERT_LT(conv, 45'000) << "fuzzed config never converged";
        // Wait-freedom — horizon sized for partition stalls + ARQ latency.
        EXPECT_TRUE(s.wait_freedom(32'000).wait_free());
        // Eventual weak exclusion.
        EXPECT_EQ(s.exclusion().violations_after(conv), 0u);
        // Eventual (m+1)-bounded waiting.
        EXPECT_LE(ekbd::dining::max_overtakes(s.census(), conv), cfg.acks_per_session + 1);
        // §7 channel bound over *logical* dining messages (ARQ mode).
        EXPECT_LE(s.sim().network().max_in_transit_any(MsgLayer::kDining), 4);
        // Fork/token conservation.
        for (std::size_t p = 0; p < cfg.n; ++p) {
          EXPECT_EQ(s.wait_free_diner(static_cast<int>(p))->lemma11_violations(), 0u);
        }
        // Transport sanity: in-flight stays within the aggregate §7
        // logical bound at the cutoff, and nothing is abandoned toward a
        // live process (abandonment requires suspected AND crashed).
        EXPECT_LE(s.transport()->logical_in_flight(), 4u * s.graph().num_edges());
        if (cfg.crashes.empty()) {
          EXPECT_EQ(s.transport()->abandoned_to_dead(), 0u);
        }
        // Online monitors agree with the post-hoc checkers even under
        // loss, duplication, reordering and partitions (ARQ mode).
        EXPECT_EQ(s.monitor_agreement(), "");
      },
      sweep);
  EXPECT_EQ(inspected, configs.size());
}

// ---------------------- parallel sweep variants ---------------------------

TEST(Fuzz, ParallelSweepWaitFreeKeepsEveryGuarantee) {
  // Fuzzed Algorithm::kWaitFree configs executed through sweep<Scenario> on
  // an 8-wide pool; every paper property is asserted per shard, serially,
  // in config order. Sizes are moderate so the TSan build stays brisk.
  const char* topologies[] = {"ring", "path", "clique", "star", "grid",
                              "tree", "random", "hypercube", "torus", "bipartite"};
  ekbd::sim::Rng fuzz(0xBEE5);
  std::vector<Config> configs;
  for (int iter = 0; iter < 32; ++iter) {
    Config cfg;
    cfg.seed = fuzz.u64();
    cfg.topology = topologies[fuzz.index(std::size(topologies))];
    cfg.n = static_cast<std::size_t>(fuzz.uniform_int(4, 14));
    cfg.algorithm = Algorithm::kWaitFree;
    cfg.acks_per_session = static_cast<int>(fuzz.uniform_int(1, 3));
    cfg.detector = DetectorKind::kScripted;
    cfg.partial_synchrony = false;
    cfg.uniform_delay_lo = 1;
    cfg.uniform_delay_hi = fuzz.uniform_int(2, 20);
    cfg.detection_delay = fuzz.uniform_int(10, 200);
    cfg.fp_count = static_cast<std::size_t>(fuzz.uniform_int(0, 30));
    cfg.fp_until = 8'000;
    cfg.harness.think_lo = fuzz.uniform_int(1, 40);
    cfg.harness.think_hi = cfg.harness.think_lo + fuzz.uniform_int(1, 200);
    cfg.harness.eat_lo = fuzz.uniform_int(5, 30);
    cfg.harness.eat_hi = cfg.harness.eat_lo + fuzz.uniform_int(1, 60);
    cfg.run_for = 45'000;
    cfg.observability = true;
    const auto crash_count = static_cast<std::size_t>(
        fuzz.uniform_int(0, static_cast<std::int64_t>(cfg.n / 3)));
    std::vector<bool> picked(cfg.n, false);
    for (std::size_t i = 0; i < crash_count; ++i) {
      auto v = static_cast<ekbd::sim::ProcessId>(fuzz.index(cfg.n));
      if (picked[static_cast<std::size_t>(v)]) continue;
      picked[static_cast<std::size_t>(v)] = true;
      cfg.crashes.emplace_back(v, fuzz.uniform_int(5'000, 20'000));
    }
    configs.push_back(std::move(cfg));
  }

  std::size_t inspected = 0;
  ekbd::scenario::SweepOptions sweep;
  sweep.threads = 8;
  ekbd::scenario::sweep<Scenario>(
      configs,
      [&configs, &inspected](std::size_t i, Scenario& s) {
        const Config& cfg = configs[i];
        SCOPED_TRACE("shard " + std::to_string(i) + ": " + cfg.topology + " n=" +
                     std::to_string(cfg.n) + " f=" + std::to_string(cfg.crashes.size()) +
                     " m=" + std::to_string(cfg.acks_per_session) + " seed=" +
                     std::to_string(cfg.seed));
        EXPECT_EQ(i, inspected) << "inspection left index order";
        ++inspected;

        const Time conv = s.fd_convergence_estimate();
        ASSERT_LT(conv, 30'000) << "fuzzed config never converged";
        // Wait-freedom (Theorem 2).
        EXPECT_TRUE(s.wait_freedom(22'000).wait_free());
        // Eventual weak exclusion (Theorem 1).
        EXPECT_EQ(s.exclusion().violations_after(conv), 0u);
        // Eventual (m+1)-bounded waiting (Theorem 3).
        EXPECT_LE(ekbd::dining::max_overtakes(s.census(), conv), cfg.acks_per_session + 1);
        // Channel bound (Lemma 2).
        EXPECT_LE(s.sim().network().max_in_transit_any(MsgLayer::kDining), 4);
        // Fork/token conservation (Lemma 1.1).
        for (std::size_t p = 0; p < cfg.n; ++p) {
          EXPECT_EQ(s.wait_free_diner(static_cast<int>(p))->lemma11_violations(), 0u);
        }
        // Online monitors agree with every post-hoc verdict above.
        EXPECT_EQ(s.monitor_agreement(), "");
      },
      sweep);
  EXPECT_EQ(inspected, configs.size());
}

/// Drinking-philosophers world for the parallel sweep (the drinking_test
/// World, reassembled here so the fuzz binary stays self-contained).
struct DrinkWorld {
  DrinkWorld(ekbd::graph::ConflictGraph g, std::uint64_t seed,
             ekbd::drinking::DrinkingOptions opt)
      : graph(std::move(g)),
        sim(seed, ekbd::sim::make_uniform_delay(1, 8)),
        det(sim, 120),
        harness(sim, graph, opt),
        hub(graph) {
    // Full observability rig: monitors over the dining substrate (the
    // drinking construction rides on it), metrics from the harness.
    sim.set_event_sink(&hub);
    sim.network().set_watch(&hub);
    harness.dining_trace().set_observer(&hub);
    harness.attach_metrics(metrics);
    const auto colors = ekbd::graph::welsh_powell_coloring(graph);
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const auto p = static_cast<ekbd::sim::ProcessId>(v);
      std::vector<ekbd::sim::ProcessId> neighbors = graph.neighbors(p);
      std::vector<int> ncolors;
      for (auto j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
      drinkers.push_back(sim.make_actor<ekbd::drinking::DrinkingDiner>(
          std::move(neighbors), colors[v], std::move(ncolors), det));
      harness.manage(drinkers.back());
    }
  }
  ekbd::graph::ConflictGraph graph;
  ekbd::sim::Simulator sim;
  ekbd::fd::ScriptedDetector det;
  ekbd::drinking::DrinkingHarness harness;
  ekbd::obs::MonitorHub hub;
  ekbd::obs::MetricsRegistry metrics;
  std::vector<ekbd::drinking::DrinkingDiner*> drinkers;
};

TEST(Fuzz, ParallelSweepDrinkingLayerKeepsEveryGuarantee) {
  // The drinking construction (Section 5's resource-generalization layer)
  // through parallel_sweep<R> directly: build + simulate on workers,
  // assert serially. Fuzzes topology, need density and crash plans.
  struct Shard {
    const char* topology;
    std::size_t n;
    std::uint64_t seed;
    double need_prob;
    std::size_t crashes;
  };
  const std::vector<Shard> shards = {
      {"ring", 6, 21, 1.0, 0},  {"ring", 8, 22, 0.5, 1},  {"path", 7, 23, 0.7, 1},
      {"clique", 5, 24, 0.5, 1}, {"star", 8, 25, 0.6, 1}, {"grid", 9, 26, 0.4, 1},
      {"tree", 9, 27, 0.6, 2},  {"random", 10, 28, 0.5, 2}, {"torus", 9, 29, 0.4, 1},
      {"hypercube", 8, 30, 0.5, 1}, {"bipartite", 8, 31, 0.8, 0}, {"clique", 6, 32, 1.0, 2},
  };

  std::size_t inspected = 0;
  ekbd::scenario::parallel_sweep<std::unique_ptr<DrinkWorld>>(
      shards.size(), /*threads=*/8,
      [&shards](std::size_t i) {
        const Shard& sh = shards[i];
        ekbd::sim::Rng trng(sh.seed ^ 0xD21);
        ekbd::drinking::DrinkingOptions opt;
        opt.need_prob = sh.need_prob;
        opt.dry_lo = 5;
        opt.dry_hi = 60;
        auto w = std::make_unique<DrinkWorld>(ekbd::graph::by_name(sh.topology, sh.n, trng),
                                              sh.seed, opt);
        for (std::size_t c = 0; c < sh.crashes; ++c) {
          w->harness.schedule_crash(static_cast<ekbd::sim::ProcessId>((c * 3 + 1) % sh.n),
                                    10'000 + static_cast<Time>(c) * 8'000);
        }
        w->harness.run_until(60'000);
        return w;
      },
      [&shards, &inspected](std::size_t i, std::unique_ptr<DrinkWorld>& w) {
        const Shard& sh = shards[i];
        SCOPED_TRACE("shard " + std::to_string(i) + ": " + sh.topology + " n=" +
                     std::to_string(sh.n) + " need=" + std::to_string(sh.need_prob) +
                     " f=" + std::to_string(sh.crashes));
        EXPECT_EQ(i, inspected) << "inspection left index order";
        ++inspected;

        // Shared-bottle exclusion (truthful oracle: zero tolerance).
        EXPECT_EQ(w->harness.shared_bottle_violations(), 0u);
        // Bottle conservation (Lemma 1.1 analogue).
        for (auto* d : w->drinkers) EXPECT_EQ(d->bottle_conservation_violations(), 0u);
        // Wait-free progress for every correct process.
        auto wf = ekbd::dining::check_wait_freedom(w->harness.drink_trace(),
                                                   w->harness.crash_times(), 25'000);
        EXPECT_TRUE(wf.wait_free());
        EXPECT_GT(w->harness.drinks_completed(), sh.n * 5);
        // The dining substrate underneath stayed clean.
        EXPECT_TRUE(ekbd::dining::check_exclusion(w->harness.dining_trace(), w->graph)
                        .violations.empty());
        // Online monitors on the dining substrate agree with the post-hoc
        // verdicts — the drinking layer's fork traffic is still P1/P6/P7
        // clean underneath.
        EXPECT_EQ(w->hub.agreement_failures(w->harness.dining_trace(), w->graph,
                                            w->sim.network()),
                  "");
        // Drinking-harness telemetry mirrors the harness's own books.
        const auto* drinks = w->metrics.find_counter("drinking.drinks");
        ASSERT_NE(drinks, nullptr);
        EXPECT_EQ(drinks->get(), w->harness.drinks_completed());
        EXPECT_EQ(w->metrics.find_counter("drinking.violations")->get(),
                  w->harness.shared_bottle_violations());
        const auto* thirst = w->metrics.find_histogram("drinking.thirst_latency");
        ASSERT_NE(thirst, nullptr);
        EXPECT_GE(thirst->count(), drinks->get());
      });
  EXPECT_EQ(inspected, shards.size());
}

}  // namespace
