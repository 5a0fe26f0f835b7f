#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "baseline/chandy_misra_diner.hpp"
#include "baseline/doorway_diner.hpp"
#include "baseline/hierarchical_diner.hpp"
#include "graph/topology.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace ekbd::scenario {

using ekbd::graph::ConflictGraph;

std::string to_string(Algorithm a) {
  // In enumerator order; make_diner holds the one switch over Algorithm.
  static constexpr std::array<const char*, 5> kNames = {
      "waitfree(Alg.1)", "choy-singh", "choy-singh+1ack", "hierarchical", "chandy-misra"};
  const auto i = static_cast<std::size_t>(a);
  return i < kNames.size() ? kNames[i] : "?";
}

std::string to_string(Engine e) {
  switch (e) {
    case Engine::kSim: return "sim";
    case Engine::kRt: return "rt";
    case Engine::kProc: return "proc";
  }
  return "?";
}

std::string to_string(NetMode m) {
  switch (m) {
    case NetMode::kIdeal: return "ideal";
    case NetMode::kLossy: return "lossy";
    case NetMode::kLossyPartition: return "lossy+partition";
  }
  return "?";
}

std::string to_string(DetectorKind d) {
  switch (d) {
    case DetectorKind::kNever: return "none";
    case DetectorKind::kPerfect: return "perfect";
    case DetectorKind::kScripted: return "scripted-<>P1";
    case DetectorKind::kHeartbeat: return "heartbeat-<>P1";
    case DetectorKind::kPingPong: return "pingpong-<>P1";
    case DetectorKind::kAccrual: return "phi-accrual-<>P1";
  }
  return "?";
}

void validate(const Config& cfg, Engine engine) {
  const auto reject = [](const std::string& field, const std::string& why) {
    throw std::invalid_argument("Config." + field + ": " + why);
  };
  if (cfg.engine != engine) {
    reject("engine", "is " + to_string(cfg.engine) + ", but this is the " + to_string(engine) +
                         " engine's scenario class");
  }
  if (engine == Engine::kRt && cfg.detector == DetectorKind::kScripted) {
    reject("detector", "the scripted detector runs on virtual time, so only the sim engine "
                       "has it; use heartbeat on rt");
  }
  if (engine == Engine::kProc && cfg.detector != DetectorKind::kNever &&
      cfg.detector != DetectorKind::kPerfect && cfg.detector != DetectorKind::kHeartbeat) {
    reject("detector", "the proc engine wires none|perfect|heartbeat only, not " +
                           to_string(cfg.detector));
  }
}

ConflictGraph build_conflict_graph(const Config& cfg) {
  ekbd::sim::Rng rng(cfg.seed ^ 0x70110ULL);
  return ekbd::graph::by_name(cfg.topology, cfg.n, rng);
}

std::unique_ptr<ekbd::dining::Diner> make_diner(const Config& cfg, ProcessId p,
                                                const ConflictGraph& graph,
                                                const ekbd::graph::Coloring& colors,
                                                const ekbd::fd::FailureDetector& detector) {
  std::vector<ProcessId> neighbors = graph.neighbors(p);
  std::vector<int> ncolors;
  ncolors.reserve(neighbors.size());
  for (ProcessId j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
  const int color = colors[static_cast<std::size_t>(p)];
  using ekbd::baseline::DoorwayDiner;
  switch (cfg.algorithm) {
    case Algorithm::kWaitFree:
      return std::make_unique<ekbd::core::WaitFreeDiner>(
          std::move(neighbors), color, std::move(ncolors), detector,
          ekbd::core::WaitFreeDiner::Options{.acks_per_session = cfg.acks_per_session});
    case Algorithm::kChoySingh:
    case Algorithm::kChoySinghSingleAck:
      return std::make_unique<DoorwayDiner>(
          std::move(neighbors), color, std::move(ncolors), detector,
          DoorwayDiner::Options{.single_ack_per_session =
                                    cfg.algorithm == Algorithm::kChoySinghSingleAck});
    case Algorithm::kHierarchical:
      return std::make_unique<ekbd::baseline::HierarchicalDiner>(
          std::move(neighbors), color, std::move(ncolors), detector);
    case Algorithm::kChandyMisra:
      return std::make_unique<ekbd::baseline::ChandyMisraDiner>(
          std::move(neighbors), color, std::move(ncolors), detector);
  }
  throw std::invalid_argument("Config.algorithm: unknown value");
}

DetectorSet make_detector(
    const Config& cfg,
    const std::function<std::unique_ptr<ekbd::fd::FailureDetector>()>& oracle) {
  DetectorSet set;
  const auto own = [&set]<typename D>(D*& view) {
    auto det = std::make_unique<D>();
    view = det.get();
    set.owned = std::move(det);
  };
  switch (cfg.detector) {
    case DetectorKind::kNever: set.owned = std::make_unique<ekbd::fd::NeverSuspect>(); break;
    case DetectorKind::kPerfect:
    case DetectorKind::kScripted: set.owned = oracle(); break;
    case DetectorKind::kHeartbeat: own(set.heartbeat); break;
    case DetectorKind::kPingPong: own(set.pingpong); break;
    case DetectorKind::kAccrual: own(set.accrual); break;
  }
  return set;
}

void install_detector_modules(const Config& cfg, const DetectorSet& detectors,
                              ekbd::dining::Harness& env) {
  if (detectors.heartbeat != nullptr) {
    env.install_modules<ekbd::fd::HeartbeatModule>(*detectors.heartbeat, cfg.heartbeat);
  }
  if (detectors.pingpong != nullptr) {
    env.install_modules<ekbd::fd::PingPongModule>(*detectors.pingpong, cfg.pingpong);
  }
  if (detectors.accrual != nullptr) {
    env.install_modules<ekbd::fd::AccrualModule>(*detectors.accrual, cfg.accrual);
  }
}

ekbd::dining::ExclusionReport Reports::exclusion() const {
  const Books b = books();
  return ekbd::dining::check_exclusion(b.trace, b.graph);
}

ekbd::dining::WaitFreedomReport Reports::wait_freedom(Time starvation_horizon) const {
  const Books b = books();
  return ekbd::dining::check_wait_freedom(b.trace, b.crash_times(), starvation_horizon);
}

std::vector<ekbd::dining::OvertakeObservation> Reports::census() const {
  const Books b = books();
  return ekbd::dining::overtake_census(b.trace, b.graph);
}

std::string Reports::monitor_agreement() const {
  const Books b = books();
  if (b.monitors == nullptr) return "monitors not attached (cfg.observability is false)";
  return b.monitors->agreement_failures(b.trace, b.graph, b.network);
}

std::string telemetry_line(const Config& cfg, const Books& books,
                           ekbd::obs::MetricsRegistry& reg, const std::string& config_extras,
                           const std::string& sections) {
  // Pull-style sources are flushed into the registry at snapshot time; the
  // push-style instruments (engine, harness) are already current.
  ekbd::obs::collect_network_metrics(books.network, reg);
  if (books.event_log != nullptr) ekbd::obs::collect_event_log_metrics(*books.event_log, reg);
  std::string out = "{\"config\":{";
  out += "\"seed\":" + std::to_string(cfg.seed);
  out += ",\"engine\":" + ekbd::obs::json::quote(to_string(cfg.engine));
  out += ",\"topology\":" + ekbd::obs::json::quote(cfg.topology);
  out += ",\"n\":" + std::to_string(cfg.n);
  out += ",\"algorithm\":" + ekbd::obs::json::quote(to_string(cfg.algorithm));
  out += ",\"detector\":" + ekbd::obs::json::quote(to_string(cfg.detector));
  out += ",\"net_mode\":" + ekbd::obs::json::quote(to_string(cfg.net_mode));
  out += ",\"run_for\":" + std::to_string(cfg.run_for);
  out += config_extras + "}" + sections;
  out += ",\"metrics\":" + reg.to_json();
  out += ",\"monitors\":" + (books.monitors != nullptr ? books.monitors->to_json() : "{}");
  out += "}";
  return out;
}

std::string latency_json(const ekbd::obs::Histogram& lat, const std::string& extra) {
  return "{\"count\":" + std::to_string(lat.count()) +
         ",\"p50\":" + ekbd::obs::json::format_double(lat.quantile(0.50)) +
         ",\"p99\":" + ekbd::obs::json::format_double(lat.quantile(0.99)) +
         ",\"p999\":" + ekbd::obs::json::format_double(lat.quantile(0.999)) + extra + "}";
}

namespace {

std::unique_ptr<ekbd::sim::DelayModel> build_delays(const Config& cfg) {
  if (cfg.partial_synchrony) return ekbd::sim::make_partial_synchrony(cfg.delay);
  return ekbd::sim::make_uniform_delay(cfg.uniform_delay_lo, cfg.uniform_delay_hi);
}

}  // namespace

Scenario::Scenario(Config cfg)
    : cfg_(std::move(cfg)),
      graph_(build_conflict_graph(cfg_)),
      colors_(ekbd::graph::welsh_powell_coloring(graph_)),
      sim_(std::make_unique<ekbd::sim::Simulator>(cfg_.seed, build_delays(cfg_))) {
  validate(cfg_, Engine::kSim);

  // -- observability -------------------------------------------------------
  // Wired before any actor exists so the monitors see every event from
  // t=0; the harness-side hooks are attached after harness construction
  // below.
  if (cfg_.observability) {
    metrics_ = std::make_unique<ekbd::obs::MetricsRegistry>();
    monitors_ = std::make_unique<ekbd::obs::MonitorHub>(graph_);
    ekbd::obs::attach_simulator_metrics(*sim_, *metrics_);
    sim_->set_event_sink(monitors_.get());
    sim_->network().set_watch(monitors_.get());
  }

  // -- detector ---------------------------------------------------------
  detectors_ = make_detector(cfg_, [this] { return make_oracle(); });
  detector_ = detectors_.owned.get();

  // Sabotage wrappers for the necessity probes (applied outermost-first:
  // poison over blind over the base detector).
  if (!cfg_.blind_pairs.empty()) {
    auto wrap = std::make_unique<ekbd::fd::IncompleteDetector>(*detector_);
    for (const auto& [o, t] : cfg_.blind_pairs) wrap->blind(o, t);
    detector_ = wrap.get();
    sabotage_wrappers_.push_back(std::move(wrap));
  }
  if (!cfg_.poison_pairs.empty()) {
    auto wrap = std::make_unique<ekbd::fd::InaccurateDetector>(*detector_);
    for (const auto& [o, t] : cfg_.poison_pairs) wrap->poison(o, t);
    detector_ = wrap.get();
    sabotage_wrappers_.push_back(std::move(wrap));
  }

  // -- link-fault adversary + reliable transport --------------------------
  if (cfg_.net_mode != NetMode::kIdeal) {
    const std::uint64_t net_seed =
        cfg_.net_seed != 0 ? cfg_.net_seed : (cfg_.seed ^ 0x6E657441ULL);
    fault_model_ = std::make_unique<ekbd::net::LinkFaultModel>(net_seed, cfg_.link_faults);
    if (cfg_.net_mode == NetMode::kLossyPartition) {
      for (const auto& p : cfg_.partitions) fault_model_->add_partition(p);
      for (const auto& c : cfg_.edge_cuts) fault_model_->add_edge_cut(c);
    }
    using FaultEvent = ekbd::net::LinkFaultModel::FaultEvent;
    fault_model_->set_observer([this](const FaultEvent& ev) {
      if (harness_ == nullptr) return;  // faults only fire during the run
      switch (ev.kind) {
        case FaultEvent::Kind::kDrop:
        case FaultEvent::Kind::kPartitionDrop:
          harness_->trace().record(ev.at, ev.from, ekbd::dining::TraceEventKind::kNetDrop);
          break;
        case FaultEvent::Kind::kDuplicate:
          harness_->trace().record(ev.at, ev.from, ekbd::dining::TraceEventKind::kNetDup);
          break;
        case FaultEvent::Kind::kReorder:
          break;  // reordering is visible only in the event log
      }
    });
    sim_->set_adversary(fault_model_.get());
    // The shim consults the same (possibly sabotaged) oracle the diners
    // use, so retransmission quiesces exactly when the algorithm gives up
    // on a peer.
    arqs_ = install_arqs(*sim_, graph_.size(), cfg_.transport, detector_);
  }

  // -- harness + diners ---------------------------------------------------
  harness_ = std::make_unique<ekbd::dining::Harness>(*sim_, graph_, cfg_.harness);
  if (cfg_.observability) {
    harness_->trace().set_observer(monitors_.get());
    harness_->attach_metrics(*metrics_);
  }
  diners_ = add_diners(cfg_, graph_, colors_, *detector_, detectors_, *sim_, *harness_);
  for (const auto& [p, at] : cfg_.crashes) {
    harness_->schedule_crash(p, at);
  }

  // Mark partition boundaries in the trace so a verdict can be read next
  // to the fault schedule that produced it (kNoProcess: not a scheduling
  // event of any diner).
  if (cfg_.net_mode == NetMode::kLossyPartition) {
    const auto mark = [this](Time at, ekbd::dining::TraceEventKind kind) {
      sim_->schedule(at, [this, kind] {
        harness_->trace().record(sim_->now(), ekbd::sim::kNoProcess, kind);
      });
    };
    const auto mark_window = [&mark](const auto& window) {  // a Partition or an EdgeCut
      mark(window.from, ekbd::dining::TraceEventKind::kPartitionCut);
      if (window.until >= 0) mark(window.until, ekbd::dining::TraceEventKind::kPartitionHeal);
    };
    for (const auto& p : cfg_.partitions) mark_window(p);
    for (const auto& c : cfg_.edge_cuts) mark_window(c);
  }
}

std::unique_ptr<ekbd::fd::FailureDetector> Scenario::make_oracle() {
  if (cfg_.detector == DetectorKind::kPerfect) {
    return std::make_unique<ekbd::fd::PerfectDetector>(*sim_);
  }
  auto det = std::make_unique<ekbd::fd::ScriptedDetector>(*sim_, cfg_.detection_delay);
  scripted_ = det.get();
  if (cfg_.fp_count > 0 && cfg_.fp_until > 0 && graph_.num_edges() > 0) {
    // Adversarial pre-convergence mistakes on random edges.
    ekbd::sim::Rng rng(cfg_.seed ^ 0xF41511ULL);
    const auto edges = graph_.edges();
    for (std::size_t i = 0; i < cfg_.fp_count; ++i) {
      const auto [a, b] = edges[rng.index(edges.size())];
      const Time len = rng.uniform_int(cfg_.fp_len_lo, cfg_.fp_len_hi);
      const Time from = rng.uniform_int(0, std::max<Time>(0, cfg_.fp_until - len));
      const bool mutual = rng.chance(0.25);
      if (mutual) {
        det->add_mutual_false_positive(a, b, from, from + len);
      } else if (rng.chance(0.5)) {
        det->add_false_positive(a, b, from, from + len);
      } else {
        det->add_false_positive(b, a, from, from + len);
      }
    }
  }
  return det;
}

void Scenario::run() {
  assert(!ran_);
  ran_ = true;
  harness_->run_until(cfg_.run_for);
}

void Scenario::run_until(Time t) { harness_->run_until(t); }

Books Scenario::books() const {
  return {graph_, harness_->trace(), sim_->network(), sim_->event_log(), monitors_.get(),
          [this] { return harness_->crash_times(); }};
}

Time Scenario::fd_convergence_estimate() const {
  Time latest_crash = 0;
  for (const auto& [p, at] : cfg_.crashes) latest_crash = std::max(latest_crash, at);
  // The detector's last lie (scripted) or observed retraction, and how
  // long it takes to suspect a crash.
  Time settled = 0;
  Time detect = 0;
  switch (cfg_.detector) {
    case DetectorKind::kNever:
    case DetectorKind::kPerfect:
      return 0;
    case DetectorKind::kScripted:
      settled = scripted_->last_false_positive_end();
      detect = cfg_.detection_delay;
      break;
    case DetectorKind::kHeartbeat:
      settled = detectors_.heartbeat->last_retraction();
      detect = cfg_.heartbeat.period + cfg_.heartbeat.initial_timeout;
      break;
    case DetectorKind::kPingPong:
      // Threshold can have grown; period + a generous multiple of the
      // initial RTT estimate bounds typical detection latency.
      settled = detectors_.pingpong->last_retraction();
      detect = cfg_.pingpong.period + 8 * cfg_.pingpong.initial_rtt +
               2 * cfg_.pingpong.initial_slack;
      break;
    case DetectorKind::kAccrual:
      // φ grows roughly linearly in elapsed/period past the window mean;
      // a generous multiple of the period per unit threshold bounds it.
      settled = detectors_.accrual->last_retraction();
      detect = cfg_.accrual.period * (4 + static_cast<Time>(cfg_.accrual.threshold));
      break;
  }
  return std::max(settled, cfg_.crashes.empty() ? 0 : latest_crash + detect);
}

std::string Scenario::telemetry_json() const {
  if (metrics_ == nullptr) return "{}";
  if (!arqs_.empty()) ekbd::obs::collect_transport_metrics(arq_stats(), *metrics_);
  return telemetry_line(cfg_, books(), *metrics_);
}

ekbd::core::WaitFreeDiner* Scenario::wait_free_diner(ProcessId p) {
  return dynamic_cast<ekbd::core::WaitFreeDiner*>(diners_[static_cast<std::size_t>(p)]);
}

}  // namespace ekbd::scenario
