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

using ekbd::dining::Diner;
using ekbd::dining::TraceEventKind;
using ekbd::netproc::NodeEngine;

/// Same salt as the sim harness / rt driver env streams.
constexpr std::uint64_t kEnvSalt = 0x4a52ULL;

/// Child-side environment driver for the node's single diner: plays the
/// paper's environment (think → hungry, finite eat durations) exactly
/// like rt::DiningDriver, reduced to one process. Lives on the engine's
/// retain list; all callbacks run on the node's only thread.
struct NodeWiring {
  NodeEngine* eng = nullptr;
  dining::HarnessOptions opt;
  std::unique_ptr<sim::Rng> env_rng;
  Diner* diner = nullptr;
  DetectorSet detectors;

  void schedule_hunger(Time delay) {
    eng->call_after(delay, [this] {
      if (diner->thinking()) diner->become_hungry();
    });
  }

  void on_event(Diner& d, TraceEventKind kind) {
    eng->recorder().on_trace(d.id(), eng->now(), kind);
    switch (kind) {
      case TraceEventKind::kStartEating: {
        const Time duration = env_rng->uniform_int(opt.eat_lo, opt.eat_hi);
        Diner* dp = &d;
        eng->call_after(duration, [dp] {
          if (dp->eating()) dp->finish_eating();
        });
        break;
      }
      case TraceEventKind::kStopEating:
        schedule_hunger(env_rng->uniform_int(opt.think_lo, opt.think_hi));
        break;
      default:
        break;
    }
  }
};

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

  // Scale: the Config speaks `rt_tick_ns`-sized ticks, the socket engine
  // nanosecond ticks (so merged cross-node stamps linearize).
  const auto scale = static_cast<std::int64_t>(cfg_.rt_tick_ns == 0 ? 1 : cfg_.rt_tick_ns);

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
  // coloring and Config from its copy of the parent's memory.
  dining::HarnessOptions hopt = cfg_.harness;
  hopt.think_lo *= scale;
  hopt.think_hi *= scale;
  hopt.eat_lo *= scale;
  hopt.eat_hi *= scale;
  hopt.first_hunger_hi *= scale;
  hopt.recheck_period *= scale;

  ekbd::fd::HeartbeatModule::Params hb = cfg_.heartbeat;
  hb.period *= scale;
  hb.initial_timeout *= scale;
  hb.timeout_increment *= scale;

  ekbd::net::ReliableTransport::Params arq = cfg_.transport;
  arq.rto_initial *= scale;
  arq.rto_max *= scale;

  const ekbd::netproc::NodeSetup setup = [this, hopt, hb, arq](NodeEngine& eng) {
    const ProcessId self = eng.config().self;

    auto wiring = std::make_shared<NodeWiring>();
    wiring->eng = &eng;
    wiring->opt = hopt;
    wiring->env_rng = std::make_unique<sim::Rng>(
        sim::Rng(cfg_.seed ^ kEnvSalt).fork(static_cast<std::uint64_t>(self) + 1));
    wiring->detectors = make_detector(
        cfg_, [&eng] { return std::make_unique<ekbd::netproc::CrashNoticeDetector>(eng); });

    std::unique_ptr<Diner> d =
        make_diner(cfg_, self, graph_, colors_, *wiring->detectors.owned);
    wiring->diner = d.get();
    eng.set_actor(std::move(d));
    wiring->diner->set_recheck_period(hopt.recheck_period);
    wiring->diner->set_event_callback([w = wiring.get()](Diner& dn, TraceEventKind kind) {
      w->on_event(dn, kind);
    });

    if (wiring->detectors.heartbeat != nullptr) {
      auto module = std::make_unique<ekbd::fd::HeartbeatModule>(graph_.neighbors(self), hb);
      wiring->detectors.heartbeat->attach(self, module.get());
      wiring->diner->host_fd_module(std::move(module));
    }

    if (cfg_.net_mode != NetMode::kIdeal) eng.install_arq(arq, wiring->detectors.owned.get());

    wiring->schedule_hunger(wiring->env_rng->uniform_int(0, hopt.first_hunger_hi));
    eng.retain(std::move(wiring));
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
  const auto crash_times = [this] {
    std::vector<Time> times(graph_.size(), -1);
    for (const auto& [p, at] : cfg_.crashes) {
      if (p >= 0 && static_cast<std::size_t>(p) < times.size()) {
        times[static_cast<std::size_t>(p)] = at;
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
