/// \file scenario.hpp
/// One-stop experiment builder, and the layer every engine shares.
///
/// Wires a full execution from a declarative `Config`: conflict graph +
/// coloring, engine, failure detector, one diner per vertex, environment,
/// crash plan. Used by the integration tests, every bench binary and the
/// examples, so that an experiment is (Config → run → reports) and
/// nothing else.
///
/// The sim (`Scenario`, here), rt (`RtScenario`) and proc
/// (`ProcScenario`) engines all produce the same three records: the
/// dining Trace, the network books and the EventLog. Each hands them out
/// as one `Books` view, and everything above that view is written once:
/// the `Config` check (`validate`), the diner and detector factories, the
/// reports (`Reports`), the telemetry line (`telemetry_line`) and the
/// sweep runner (scenario/sweep.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/wait_free_diner.hpp"
#include "dining/checkers.hpp"
#include "dining/harness.hpp"
#include "fd/detector.hpp"
#include "fd/heartbeat.hpp"
#include "fd/accrual.hpp"
#include "fd/lossy.hpp"
#include "fd/pingpong.hpp"
#include "fd/scripted.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "net/link_fault_model.hpp"
#include "net/reliable_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"

namespace ekbd::scenario {

using ekbd::sim::ProcessId;
using ekbd::sim::Time;

/// Which dining algorithm to instantiate at every vertex.
enum class Algorithm {
  kWaitFree,         ///< the paper's Algorithm 1 (core::WaitFreeDiner)
  kChoySingh,        ///< baseline::DoorwayDiner, original ack rule
  kChoySinghSingleAck,  ///< DoorwayDiner with the paper's ack rule (ablation)
  kHierarchical,     ///< baseline::HierarchicalDiner (no doorway)
  kChandyMisra,      ///< baseline::ChandyMisraDiner (dirty/clean forks)
};

[[nodiscard]] std::string to_string(Algorithm a);

/// Which oracle backs the suspicion guards.
enum class DetectorKind {
  kNever,      ///< suspect nobody (crash-oblivious algorithms)
  kPerfect,    ///< magic oracle: exactly the crashed, instantly
  kScripted,   ///< ScriptedDetector: delayed completeness + scripted lies
  kHeartbeat,  ///< real heartbeat ◇P₁ over the simulated network
  kPingPong,   ///< real query/response ◇P₁ with RTT-adaptive timeouts
  kAccrual,    ///< real φ-accrual ◇P₁ (Hayashibara et al.)
};

[[nodiscard]] std::string to_string(DetectorKind d);

/// Network fidelity of the run.
enum class NetMode {
  kIdeal,           ///< reliable FIFO channels — the paper's model (default)
  kLossy,           ///< probabilistic loss/dup/reorder + ARQ shim (net/)
  kLossyPartition,  ///< kLossy plus the scheduled partitions/edge cuts below
};

[[nodiscard]] std::string to_string(NetMode m);

/// Which engine executes the run. Each has its own class over the same
/// Config, and all three hand their records out as `Books`.
enum class Engine {
  kSim,   ///< sim::Simulator, the deterministic discrete-event simulator
          ///< (`Scenario`; default)
  kRt,    ///< rt::Runtime: shard-per-core executor over OS threads,
          ///< wall-clock timers (`RtScenario`, scenario/rt_scenario.hpp)
  kProc,  ///< netproc::NodeEngine: one OS process per node, UDP sockets
          ///< (`ProcScenario`, scenario/proc_scenario.hpp)
};

[[nodiscard]] std::string to_string(Engine e);

struct Config {
  std::uint64_t seed = 1;

  /// Engine selection: the engine class that runs the Config must match
  /// (`validate`). Most knobs are shared (topology, algorithm, detector,
  /// harness, crashes, run_for measured in ticks); sim-only knobs (delay
  /// model, scripted detector, channel faults, partitions, ARQ transport)
  /// are rejected or ignored by the rt engine — see
  /// scenario/rt_scenario.hpp for the exact mapping.
  Engine engine = Engine::kSim;

  // rt-engine knobs (used only when engine == kRt)
  std::uint64_t rt_tick_ns = 100'000;     ///< wall nanoseconds per tick
  /// Worker shards for the rt executor: 0 = one per hardware core,
  /// clamped to [1, n]; `n` reproduces thread-per-actor. Shard count
  /// never changes observable behavior (per-actor rng streams, monitor
  /// verdicts) — only scheduling (rt/runtime.hpp).
  std::size_t rt_shards = 0;
  /// EventLog capacity when observability is on; 0 = unbounded. Capping
  /// bounds resident log memory for 10⁵⁺-actor runs (the log counts what
  /// it dropped); the Trace and network books stay exact.
  std::size_t rt_event_log_cap = 0;
  /// Live telemetry: every `rt_telemetry_interval` ticks of the run, one
  /// JSONL snapshot line (per-shard executor stats, hungry→eat latency
  /// quantiles, stream stats) appended to `rt_telemetry_path`, and the
  /// same samples kept as Perfetto counter tracks (RtScenario::
  /// counter_samples). 0 = no snapshots.
  Time rt_telemetry_interval = 0;
  std::string rt_telemetry_path;  ///< empty = keep samples in memory only

  // topology
  std::string topology = "ring";
  std::size_t n = 8;

  Algorithm algorithm = Algorithm::kWaitFree;

  /// Ack budget per neighbor per hungry session for kWaitFree (paper: 1 →
  /// eventual 2-bounded waiting; m → eventual (m+1)-bounded waiting).
  int acks_per_session = 1;

  // delays: partial synchrony by default (what ◇P needs)
  bool partial_synchrony = true;
  ekbd::sim::PartialSynchronyDelay::Params delay{
      .gst = 5'000, .pre_lo = 1, .pre_hi = 60,
      .spike_prob = 0.05, .spike_factor = 20,
      .post_lo = 1, .post_hi = 8};
  Time uniform_delay_lo = 1;  ///< used when !partial_synchrony
  Time uniform_delay_hi = 10;

  // detector
  DetectorKind detector = DetectorKind::kScripted;
  Time detection_delay = 100;  ///< scripted completeness latency
  /// Scripted false positives: random per-edge one-directional suspicion
  /// intervals, all contained in [0, fp_until).
  std::size_t fp_count = 0;
  Time fp_until = 0;
  Time fp_len_lo = 20;
  Time fp_len_hi = 150;
  ekbd::fd::HeartbeatModule::Params heartbeat{};
  ekbd::fd::PingPongModule::Params pingpong{};
  ekbd::fd::AccrualModule::Params accrual{};

  /// Detector sabotage (necessity probes, bench/e12): `blind_pairs` are
  /// (owner, target) pairs where the owner NEVER suspects the target
  /// (permanent completeness hole); `poison_pairs` are pairs where the
  /// owner suspects the live target FOREVER (permanent accuracy hole).
  /// Applied on top of whichever base detector is configured.
  std::vector<std::pair<ProcessId, ProcessId>> blind_pairs;
  std::vector<std::pair<ProcessId, ProcessId>> poison_pairs;

  /// Channel-fault injection (model-violation experiments, E17): the
  /// paper assumes reliable FIFO channels; these knobs break that on
  /// purpose. Keep 0 for every reproduction experiment.
  double channel_dup_prob = 0.0;
  double channel_reorder_prob = 0.0;

  /// Network fault model + reliable transport (the net/ subsystem). In
  /// kLossy / kLossyPartition a LinkFaultModel adversary attacks every
  /// physical send and a ReliableTransport ARQ shim is interposed under
  /// the dining layer, so the diners still see reliable FIFO channels.
  NetMode net_mode = NetMode::kIdeal;
  ekbd::net::LinkFaultParams link_faults{
      .drop_prob = 0.1, .dup_prob = 0.05, .reorder_prob = 0.05};
  std::vector<ekbd::net::Partition> partitions;  ///< kLossyPartition only
  std::vector<ekbd::net::EdgeCut> edge_cuts;     ///< kLossyPartition only
  ekbd::net::ReliableTransport::Params transport{};
  /// Seed of the fault-coin stream; 0 derives one from `seed`. Always
  /// explicit internally — equal Configs replay equal fault schedules.
  /// Drops, duplicates and partition cuts/heals are recorded in the trace.
  std::uint64_t net_seed = 0;

  /// Observability: when true the scenario owns an `obs::MetricsRegistry`
  /// and an `obs::MonitorHub`, wires them into the simulator, network and
  /// harness, and can emit one-line JSON telemetry via `telemetry_json()`.
  /// Off by default: detached instrumentation costs one predictable-null
  /// branch per hook, attached costs a few stores per event.
  bool observability = false;

  // environment
  ekbd::dining::HarnessOptions harness{};

  // crash plan: (process, absolute time)
  std::vector<std::pair<ProcessId, Time>> crashes;

  // run horizon
  Time run_for = 50'000;
};

/// Throw std::invalid_argument naming the first field of `cfg` that the
/// engine class being built cannot run. `engine` is that class's engine:
/// `cfg.engine` must name it, the rt engine has no scripted detector and
/// no partitions, and the proc engine wires kNever, kPerfect and
/// kHeartbeat only. Every engine class calls it before it runs anything,
/// so a misconfiguration fails in every build type.
void validate(const Config& cfg, Engine engine);

/// Build the conflict graph a Config describes (seeded from cfg.seed, so
/// equal Configs get equal graphs). Shared by every engine: a sim run
/// and an rt run of the same Config schedule the same topology.
[[nodiscard]] ekbd::graph::ConflictGraph build_conflict_graph(const Config& cfg);

/// One diner of `cfg.algorithm` for vertex `p`: its neighbors from
/// `graph`, its own and its neighbors' colors from `colors`, its
/// suspicion guards on `detector`. The engine registers it as process p
/// (add_actor / set_actor).
[[nodiscard]] std::unique_ptr<ekbd::dining::Diner> make_diner(
    const Config& cfg, ProcessId p, const ekbd::graph::ConflictGraph& graph,
    const ekbd::graph::Coloring& colors, const ekbd::fd::FailureDetector& detector);

/// The detector a Config names, with typed views of the real ◇P₁
/// detectors whose per-process modules the engine installs.
struct DetectorSet {
  std::unique_ptr<ekbd::fd::FailureDetector> owned;
  ekbd::fd::HeartbeatDetector* heartbeat = nullptr;
  ekbd::fd::PingPongDetector* pingpong = nullptr;
  ekbd::fd::AccrualDetector* accrual = nullptr;
};

/// Build `cfg.detector`. kNever and the three real detectors are the same
/// on every engine; `oracle` builds the ones that read the engine's own
/// crash knowledge or clock: kPerfect, and on the sim kScripted.
[[nodiscard]] DetectorSet make_detector(
    const Config& cfg,
    const std::function<std::unique_ptr<ekbd::fd::FailureDetector>()>& oracle);

/// Host the real detectors' per-process modules (`cfg.heartbeat`,
/// `cfg.pingpong`, `cfg.accrual`) on every diner `env` manages.
void install_detector_modules(const Config& cfg, const DetectorSet& detectors,
                              ekbd::dining::Harness& env);

/// Register one `make_diner` diner per vertex on `engine` (the sim
/// Simulator or the rt Runtime), hand each to `env`, the environment, and
/// install the real detectors' per-process modules there. Returns the
/// diners, indexed by process.
template <typename EngineT>
std::vector<ekbd::dining::Diner*> add_diners(const Config& cfg,
                                             const ekbd::graph::ConflictGraph& graph,
                                             const ekbd::graph::Coloring& colors,
                                             const ekbd::fd::FailureDetector& detector,
                                             const DetectorSet& detectors, EngineT& engine,
                                             ekbd::dining::Harness& env) {
  std::vector<ekbd::dining::Diner*> diners;
  diners.reserve(graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    std::unique_ptr<ekbd::dining::Diner> d =
        make_diner(cfg, static_cast<ProcessId>(v), graph, colors, detector);
    diners.push_back(d.get());
    engine.add_actor(std::move(d));
    env.manage(diners.back());
  }
  install_detector_modules(cfg, detectors, env);
  return diners;
}

/// Non-owning view of one run's records, the same on every engine: the
/// conflict graph, the dining Trace, the network books, the EventLog and
/// the online monitors (each null when not kept), and the crash time of
/// every process (-1 = correct). The crash times cost a pass over every
/// process, so they are read on demand and building a Books stays O(1).
/// Valid while the engine object lives.
struct Books {
  const ekbd::graph::ConflictGraph& graph;
  const ekbd::dining::Trace& trace;
  const ekbd::sim::Network& network;
  const ekbd::sim::EventLog* event_log = nullptr;
  const ekbd::obs::MonitorHub* monitors = nullptr;
  std::function<std::vector<Time>()> crash_times;
};

/// The reports every engine answers the same way, written once over its
/// `books()`. Every engine class derives from it.
class Reports {
 public:
  Reports() = default;
  Reports(const Reports&) = delete;  // engines hand `this` to their callbacks
  Reports& operator=(const Reports&) = delete;
  virtual ~Reports() = default;

  [[nodiscard]] virtual Books books() const = 0;

  [[nodiscard]] ekbd::dining::ExclusionReport exclusion() const;
  [[nodiscard]] ekbd::dining::WaitFreedomReport wait_freedom(Time starvation_horizon) const;
  [[nodiscard]] std::vector<ekbd::dining::OvertakeObservation> census() const;

  /// Cross-check the online monitors against the post-hoc checkers and
  /// the network books ("" on full agreement; the fuzz suites assert
  /// exactly this on every run). Requires observability.
  [[nodiscard]] std::string monitor_agreement() const;
};

/// One telemetry line over `books`:
/// `{"config":{...},<sections>,"metrics":{...},"monitors":{...}}`. The
/// network and EventLog state is flushed into `reg` first. `config_extras`
/// (engine keys appended to the "config" object) and `sections` (engine
/// objects before "metrics") are empty or start with a comma.
[[nodiscard]] std::string telemetry_line(const Config& cfg, const Books& books,
                                         ekbd::obs::MetricsRegistry& reg,
                                         const std::string& config_extras = {},
                                         const std::string& sections = {});

/// `{"count":..,"p50":..,"p99":..,"p999":..<extra>}` of a hungry→eat
/// latency histogram; `extra` is empty or starts with a comma.
[[nodiscard]] std::string latency_json(const ekbd::obs::Histogram& lat,
                                       const std::string& extra = {});

class Scenario : public Reports {
 public:
  explicit Scenario(Config cfg);

  /// Run to the configured horizon (may be called once).
  void run();

  /// Run to an arbitrary absolute time (incremental driving).
  void run_until(Time t);

  // -- access ------------------------------------------------------------

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] ekbd::sim::Simulator& sim() { return *sim_; }
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const { return graph_; }
  [[nodiscard]] const ekbd::graph::Coloring& colors() const { return colors_; }
  [[nodiscard]] ekbd::dining::Harness& harness() { return *harness_; }
  [[nodiscard]] const ekbd::dining::Trace& trace() const { return harness_->trace(); }
  [[nodiscard]] ekbd::dining::Diner* diner(ProcessId p) { return diners_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const ekbd::fd::FailureDetector& detector() const { return *detector_; }
  [[nodiscard]] ekbd::fd::ScriptedDetector* scripted_detector() { return scripted_; }
  [[nodiscard]] ekbd::fd::HeartbeatDetector* heartbeat_detector() { return detectors_.heartbeat; }
  [[nodiscard]] ekbd::fd::PingPongDetector* pingpong_detector() { return detectors_.pingpong; }
  [[nodiscard]] ekbd::fd::AccrualDetector* accrual_detector() { return detectors_.accrual; }
  /// Installed link-fault adversary (nullptr when net_mode == kIdeal).
  [[nodiscard]] ekbd::net::LinkFaultModel* fault_model() { return fault_model_.get(); }
  /// Installed ARQ shim (nullptr when net_mode == kIdeal).
  [[nodiscard]] ekbd::net::ReliableTransport* transport() { return transport_.get(); }
  /// Metrics registry (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MetricsRegistry* metrics() { return metrics_.get(); }
  /// Online invariant monitors (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MonitorHub* monitors() { return monitors_.get(); }

  [[nodiscard]] Books books() const override;

  /// Best-effort bound on when the detector (if any) had converged:
  /// scripted → max(last scripted lie end, last crash + detection delay);
  /// heartbeat → last observed retraction (and crash detection latency);
  /// never/perfect → 0.
  [[nodiscard]] Time fd_convergence_estimate() const;

  /// The typed core diner (only when algorithm == kWaitFree).
  [[nodiscard]] ekbd::core::WaitFreeDiner* wait_free_diner(ProcessId p);

  /// One-line JSON telemetry snapshot (requires cfg.observability):
  /// flushes the network / transport / event-log state into the registry,
  /// then emits `{"config":{...},"metrics":{...},"monitors":{...}}`.
  /// Exactly the line `scenario::sweep` appends per scenario when given a
  /// telemetry path (plus the sweep's own object).
  [[nodiscard]] std::string telemetry_json() const;

 private:
  /// The sim's own detectors: kPerfect, and kScripted with its lies.
  std::unique_ptr<ekbd::fd::FailureDetector> make_oracle();

  Config cfg_;
  ekbd::graph::ConflictGraph graph_;
  ekbd::graph::Coloring colors_;
  std::unique_ptr<ekbd::sim::Simulator> sim_;
  // net objects must outlive nothing that uses them and die before sim_
  // (the transport detaches from the simulator in its destructor).
  std::unique_ptr<ekbd::net::LinkFaultModel> fault_model_;
  std::unique_ptr<ekbd::net::ReliableTransport> transport_;
  DetectorSet detectors_;
  /// Blind/poison wrappers, innermost first; `detector_` is the outermost.
  std::vector<std::unique_ptr<ekbd::fd::FailureDetector>> sabotage_wrappers_;
  ekbd::fd::FailureDetector* detector_ = nullptr;
  ekbd::fd::ScriptedDetector* scripted_ = nullptr;
  std::unique_ptr<ekbd::dining::Harness> harness_;
  std::vector<ekbd::dining::Diner*> diners_;
  // Observability (only when cfg.observability). Declared after sim_ /
  // harness_ so the hub outlives nothing that calls into it; the sinks are
  // raw observers and need no teardown order beyond that.
  std::unique_ptr<ekbd::obs::MetricsRegistry> metrics_;
  std::unique_ptr<ekbd::obs::MonitorHub> monitors_;
  bool ran_ = false;
};

}  // namespace ekbd::scenario
