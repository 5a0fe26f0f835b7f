#include "scenario/proc_scenario.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <memory>
#include <utility>

#include "obs/json.hpp"
#include "rt/replay.hpp"

namespace ekbd::scenario {

namespace {

using ekbd::netproc::NodeEngine;

/// Nanoseconds per Config tick: the Config speaks `rt_tick_ns`-sized
/// ticks, the socket engine nanosecond ticks (so merged cross-node stamps
/// linearize).
std::int64_t tick_scale(const Config& cfg) {
  return static_cast<std::int64_t>(cfg.rt_tick_ns == 0 ? 1 : cfg.rt_tick_ns);
}

/// Divide every timestamp by `s` (ns ticks → Config ticks). Monotone, so
/// the merged linearization's order is preserved; ties keep merge order.
rt::Recording rescale(const rt::Recording& rec, std::int64_t s) {
  rt::Recording out = rec;
  if (s <= 1) return out;
  for (auto& ev : out.events) ev.at /= s;
  for (auto& te : out.trace) te.at /= s;
  if (out.end_time > 0) out.end_time /= s;
  return out;
}

}  // namespace

ProcScenario::ProcScenario(Config cfg)
    : cfg_(std::move(cfg)),
      graph_(build_conflict_graph(cfg_)),
      colors_(ekbd::graph::welsh_powell_coloring(graph_)) {
  validate(cfg_, Engine::kProc);
  log_dir_ = "ekbd_proc_logs." + std::to_string(::getpid()) + "." +
             std::to_string(cfg_.seed);
}

void ProcScenario::run() {
  assert(!ran_ && "run() may be called once");
  ran_ = true;

  const std::int64_t scale = tick_scale(cfg_);

  ::mkdir(log_dir_.c_str(), 0755);

  ekbd::netproc::ClusterOptions copt;
  copt.n = graph_.size();
  copt.seed = cfg_.seed;
  copt.tick_ns = 1;
  copt.horizon = cfg_.run_for * scale;
  copt.log_dir = log_dir_;
  if (cfg_.net_mode != NetMode::kIdeal) copt.link_faults = cfg_.link_faults;
  if (cfg_.net_mode == NetMode::kLossyPartition) {
    const auto scaled = [scale](auto window) {  // a Partition or an EdgeCut
      window.from *= scale;
      if (window.until >= 0) window.until *= scale;
      return window;
    };
    for (const net::Partition& p : cfg_.partitions) copt.partitions.push_back(scaled(p));
    for (const net::EdgeCut& c : cfg_.edge_cuts) copt.edge_cuts.push_back(scaled(c));
  }
  for (const auto& [p, at] : cfg_.crashes) copt.crashes.emplace_back(p, at * scale);

  // -- child-side wiring --------------------------------------------------
  // The setup runs in the forked child, which reads this object's graph,
  // coloring and Config from its copy of the parent's memory. The node's
  // Config speaks nanosecond ticks.
  Config node_cfg = cfg_;
  for (Time* t : {&node_cfg.harness.think_lo, &node_cfg.harness.think_hi,
                  &node_cfg.harness.eat_lo, &node_cfg.harness.eat_hi,
                  &node_cfg.harness.first_hunger_hi, &node_cfg.harness.recheck_period,
                  &node_cfg.heartbeat.period, &node_cfg.heartbeat.initial_timeout,
                  &node_cfg.heartbeat.timeout_increment, &node_cfg.transport.rto_initial,
                  &node_cfg.transport.rto_max}) {
    *t *= scale;
  }

  const ekbd::netproc::NodeSetup setup = [this, node_cfg](NodeEngine& eng) {
    // The node's one diner under the shared environment, recording into
    // the node's log.
    DetectorSet detectors = make_detector(
        node_cfg, [&eng] { return std::make_unique<ekbd::netproc::CrashNoticeDetector>(eng); });
    std::unique_ptr<ekbd::dining::Diner> d =
        make_diner(node_cfg, eng.config().self, graph_, colors_, *detectors.owned);
    ekbd::dining::Diner* diner = d.get();
    eng.set_actor(std::move(d));
    auto harness = std::make_shared<ekbd::dining::Harness>(
        eng, eng.log_writer(), node_cfg.seed, graph_, node_cfg.harness);
    harness->manage(diner);
    install_detector_modules(node_cfg, detectors, *harness);
    if (node_cfg.net_mode != NetMode::kIdeal) {
      eng.install_arq(node_cfg.transport, detectors.owned.get());
    }
    eng.retain(std::move(detectors.owned));
    eng.retain(std::move(harness));
  };

  result_ = ekbd::netproc::run_cluster(copt, setup);

  // -- rebuild the cluster-wide books from the merged shipped logs ---------
  const rt::Recording scaled = rescale(result_.merged, scale);
  hub_ = std::make_unique<ekbd::obs::MonitorHub>(graph_);
  rt::rebuild(scaled, *hub_, net_, trace_, &log_);

  // Keep the shipped logs when something went wrong (CI uploads them);
  // remove them after a clean run.
  if (result_.ok) {
    for (const auto& node : result_.nodes) {
      if (!node.log_path.empty()) (void)std::remove(node.log_path.c_str());
    }
    (void)::rmdir(log_dir_.c_str());
  }
}

Books ProcScenario::books() const {
  // The crashes as the orchestrator observed them (a node dies when it is
  // reaped, not at its planned tick), scaled to Config ticks like the
  // merged logs.
  const auto crash_times = [this] {
    const std::int64_t scale = tick_scale(cfg_);
    std::vector<Time> times(graph_.size(), -1);
    for (const auto& [p, at] : result_.crashes) {
      if (p >= 0 && static_cast<std::size_t>(p) < times.size()) {
        times[static_cast<std::size_t>(p)] = at / scale;
      }
    }
    return times;
  };
  return {graph_, trace_, net_, &log_, hub_.get(), crash_times};
}

std::string ProcScenario::replay_agreement() const {
  if (hub_ == nullptr) return "run() has not executed";
  ekbd::obs::MonitorHub fresh(graph_);
  rt::replay(log_, trace_, fresh);
  const std::string live = hub_->to_json();
  const std::string replayed = fresh.to_json();
  if (live == replayed) return "";
  return "replay verdicts diverge:\n  live:     " + live + "\n  replayed: " + replayed;
}

std::string ProcScenario::telemetry_json() const {
  ekbd::obs::MetricsRegistry reg;
  std::size_t truncated = 0;
  for (const auto& part : result_.parts) truncated += part.truncated ? 1 : 0;
  std::string cluster = ",\"cluster\":{";
  cluster += "\"ok\":" + std::string(result_.ok ? "true" : "false");
  cluster += ",\"error\":" + ekbd::obs::json::quote(result_.error);
  cluster += ",\"crashes\":" + std::to_string(result_.crashes.size());
  cluster += ",\"truncated_logs\":" + std::to_string(truncated);
  cluster += "}";
  return telemetry_line(cfg_, books(), reg, ",\"tick_ns\":" + std::to_string(cfg_.rt_tick_ns),
                        cluster);
}

}  // namespace ekbd::scenario
