// Harness tests: hunger driving, think-forever, drain mode, eat hook,
// crash bookkeeping — the environment half of the dining model.
#include <gtest/gtest.h>

#include <vector>

#include "core/wait_free_diner.hpp"
#include "dining/harness.hpp"
#include "fd/scripted.hpp"
#include "graph/topology.hpp"
#include "scenario/scenario.hpp"

namespace {

using ekbd::dining::Harness;
using ekbd::dining::HarnessOptions;
using ekbd::dining::TraceEventKind;
using ekbd::sim::ProcessId;
using ekbd::sim::Simulator;

struct World {
  explicit World(std::size_t n, HarnessOptions opt = {})
      : graph(ekbd::graph::ring(n)), sim(7), det(sim, 50), harness(sim, graph, opt) {
    colors = ekbd::graph::greedy_coloring(graph);
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<ProcessId> neighbors = graph.neighbors(static_cast<ProcessId>(p));
      std::vector<int> ncolors;
      for (ProcessId j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
      diners.push_back(sim.make_actor<ekbd::core::WaitFreeDiner>(
          std::move(neighbors), colors[p], std::move(ncolors), det));
      harness.manage(diners.back());
    }
  }
  ekbd::graph::ConflictGraph graph;
  Simulator sim;
  ekbd::fd::ScriptedDetector det;
  Harness harness;
  ekbd::graph::Coloring colors;
  std::vector<ekbd::core::WaitFreeDiner*> diners;
};

TEST(Harness, DrivesRepeatedHungerForEveryone) {
  World w(5);
  w.harness.run_until(20'000);
  for (std::size_t p = 0; p < 5; ++p) {
    EXPECT_GT(w.harness.trace().count(TraceEventKind::kBecameHungry, static_cast<int>(p)), 5u)
        << p;
  }
}

TEST(Harness, ThinkForeverProcessNeverGetsHungryAgain) {
  World w(5);
  w.harness.set_think_forever(2, true);
  w.harness.run_until(30'000);
  // p2 may have been hungry at most once (the initial hunger could fire
  // before think-forever takes effect is impossible here: set before run).
  EXPECT_EQ(w.harness.trace().count(TraceEventKind::kBecameHungry, 2), 0u);
  // Everyone else lives a normal life.
  EXPECT_GT(w.harness.trace().count(TraceEventKind::kStartEating, 0), 5u);
}

TEST(Harness, ThinkForeverCanBeLifted) {
  World w(4);
  w.harness.set_think_forever(1, true);
  w.harness.run_until(10'000);
  EXPECT_EQ(w.harness.trace().count(TraceEventKind::kBecameHungry, 1), 0u);
  w.harness.set_think_forever(1, false);
  // Re-arm: hunger scheduling for p1 stopped, so nudge via a new cycle:
  // the harness only schedules on StopEating, so lift + manual kick.
  w.sim.schedule(w.sim.now() + 10, [&] {
    if (w.diners[1]->thinking()) w.diners[1]->become_hungry();
  });
  w.harness.run_until(20'000);
  EXPECT_GT(w.harness.trace().count(TraceEventKind::kStartEating, 1), 0u);
}

TEST(Harness, StopHungerDrainsToThinking) {
  World w(6);
  w.harness.stop_hunger_after(10'000);
  w.harness.run_until(40'000);
  for (auto* d : w.diners) EXPECT_TRUE(d->thinking());
  // No hunger events after the deadline.
  for (const auto& e : w.harness.trace().events()) {
    if (e.kind == TraceEventKind::kBecameHungry) {
      EXPECT_LT(e.at, 10'000);
    }
  }
}

TEST(Harness, EatHookFiresOncePerMeal) {
  World w(4);
  std::size_t hook_calls = 0;
  w.harness.set_eat_hook([&](ProcessId) { ++hook_calls; });
  w.harness.run_until(15'000);
  EXPECT_EQ(hook_calls, w.harness.trace().count(TraceEventKind::kStartEating));
  EXPECT_GT(hook_calls, 0u);
}

TEST(Harness, CrashTimesReflectSimulator) {
  World w(4);
  w.harness.schedule_crash(3, 5'000);
  w.harness.run_until(10'000);
  auto ct = w.harness.crash_times();
  ASSERT_EQ(ct.size(), 4u);
  EXPECT_EQ(ct[3], 5'000);
  EXPECT_EQ(ct[0], -1);
  EXPECT_EQ(w.harness.trace().count(TraceEventKind::kCrashed, 3), 1u);
}

TEST(Harness, DinerLookupById) {
  World w(3);
  EXPECT_EQ(w.harness.diner(1), w.diners[1]);
  EXPECT_EQ(w.harness.diner(2), w.diners[2]);
}

TEST(Harness, EatingDurationsWithinConfiguredRange) {
  HarnessOptions opt;
  opt.eat_lo = 10;
  opt.eat_hi = 12;
  World w(4, opt);
  w.harness.run_until(20'000);
  // Reconstruct meal durations from the trace.
  std::vector<ekbd::sim::Time> start(4, -1);
  for (const auto& e : w.harness.trace().events()) {
    auto p = static_cast<std::size_t>(e.process);
    if (e.kind == TraceEventKind::kStartEating) start[p] = e.at;
    if (e.kind == TraceEventKind::kStopEating && start[p] >= 0) {
      const auto dur = e.at - start[p];
      EXPECT_GE(dur, 10);
      EXPECT_LE(dur, 12);
      start[p] = -1;
    }
  }
}

TEST(Harness, CrashedProcessStopsParticipating) {
  World w(5);
  w.harness.schedule_crash(0, 2'000);
  w.harness.run_until(30'000);
  // No scheduling events for p0 after the crash instant.
  for (const auto& e : w.harness.trace().events()) {
    if (e.process == 0 && e.at > 2'000) {
      ADD_FAILURE() << "dead process produced " << ekbd::dining::to_string(e.kind)
                    << " at t=" << e.at;
    }
  }
}

}  // namespace
