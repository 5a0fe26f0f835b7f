// layer_tour — building an experiment by hand, one layer at a time.
//
// The other examples go through scenario::Scenario; this one assembles the
// same stack from raw parts so each layer's public API is visible:
//
//   1. a conflict graph and a proper coloring        (graph)
//   2. a simulator with a partial-synchrony network  (sim)
//   3. a heartbeat ◇P₁ module inside every process   (fd)
//   4. one WaitFreeDiner per vertex                  (core)
//   5. a harness driving hunger/meals/crashes        (dining)
//   6. a stabilizing protocol scheduled by the dining layer (daemon+stab)
//   7. checkers over the recorded trace              (dining::checkers)
//
//   ./examples/layer_tour [seed]
#include <cstdio>
#include <cstdlib>

#include "core/wait_free_diner.hpp"
#include "daemon/scheduler.hpp"
#include "dining/checkers.hpp"
#include "dining/harness.hpp"
#include "fd/heartbeat.hpp"
#include "graph/coloring.hpp"
#include "graph/topology.hpp"
#include "sim/simulator.hpp"
#include "stab/coloring.hpp"

using namespace ekbd;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  // 1. Topology + static priorities. Any proper coloring works; fewer
  //    colors means shorter priority chains (faster phase 2).
  auto graph = graph::torus(3, 3);
  auto colors = graph::welsh_powell_coloring(graph);
  std::printf("torus(3,3): %zu processes, %zu conflict edges, %zu colors\n", graph.size(),
              graph.num_edges(), graph::num_colors(colors));

  // 2. Simulator: partially synchronous network (GST at t=8000) — the
  //    weakest environment where ◇P₁ is implementable.
  sim::PartialSynchronyDelay::Params delays;
  delays.gst = 8'000;
  delays.pre_lo = 1;
  delays.pre_hi = 80;
  delays.spike_prob = 0.08;
  delays.spike_factor = 15;
  delays.post_lo = 1;
  delays.post_hi = 6;
  sim::Simulator sim(seed, sim::make_partial_synchrony(delays));

  // 3+4. One diner per vertex, each hosting its own heartbeat module.
  fd::HeartbeatDetector detector;
  dining::HarnessOptions opts;
  opts.think_lo = 10;
  opts.think_hi = 60;
  dining::Harness harness(sim, graph, opts);
  for (std::size_t v = 0; v < graph.size(); ++v) {
    const auto p = static_cast<sim::ProcessId>(v);
    std::vector<sim::ProcessId> neighbors = graph.neighbors(p);
    std::vector<int> ncolors;
    for (auto j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
    auto* diner = sim.make_actor<core::WaitFreeDiner>(std::move(neighbors), colors[v],
                                                      std::move(ncolors), detector);
    harness.manage(diner);
  }
  harness.install_modules<fd::HeartbeatModule>(
      detector, {.period = 25, .initial_timeout = 40, .timeout_increment = 25});

  // 5. Environment: one crash mid-run.
  harness.schedule_crash(4, 25'000);  // the torus has no "center", pick one

  // 6. Application: stabilizing graph coloring scheduled by the daemon.
  stab::StabilizingColoring protocol;
  stab::StateTable registers(graph.size(), 1);  // all-zero: every edge conflicts
  daemon::DaemonScheduler daemon(harness, protocol, registers);

  // Run.
  const sim::Time horizon = 120'000;
  harness.run_until(horizon);

  // 7. Reports.
  auto exclusion = dining::check_exclusion(harness.trace(), graph);
  auto wait_freedom = dining::check_wait_freedom(harness.trace(), harness.crash_times(),
                                                 /*starvation_horizon=*/25'000);
  auto census = dining::overtake_census(harness.trace(), graph);

  std::printf("meals: %zu   mean hungry->eat: %.0f ticks\n",
              harness.trace().count(dining::TraceEventKind::kStartEating),
              wait_freedom.response.mean);
  std::printf("wait-free: %s   (%zu starving)\n", wait_freedom.wait_free() ? "yes" : "NO",
              wait_freedom.starving.size());
  std::printf("exclusion violations: %zu (last at t=%lld, FD retractions until t=%lld)\n",
              exclusion.violations.size(), static_cast<long long>(exclusion.last_violation()),
              static_cast<long long>(detector.last_retraction()));
  std::printf("max overtaking after FD settled: %d\n",
              dining::max_overtakes(census, detector.last_retraction()));
  std::printf("daemon: %llu protocol steps, %llu scheduling mistakes, converged: %s\n",
              static_cast<unsigned long long>(daemon.steps_executed()),
              static_cast<unsigned long long>(daemon.sharing_violations()),
              daemon.converged() ? "yes" : "NO");
  return 0;
}
