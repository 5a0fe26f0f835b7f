/// \file proc_scenario.hpp
/// One-stop experiment builder for the multi-process socket engine.
///
/// The third engine's counterpart of `Scenario` / `RtScenario`: the same
/// declarative `Config` (with `engine = Engine::kProc`), executed as one
/// OS process per vertex over UDP loopback (src/netproc/). Crashes are
/// real SIGKILLs, partitions are injected at runtime through the control
/// channel, and observability is *post-hoc by construction*: each node
/// streams its Recorder log to disk, the orchestrator ships and merges
/// them (rt/log_io), and the MonitorHub + checkers consume the merged
/// linearization exactly as they consume a live sim/rt run.
///
/// Config mapping (vs. the rt engine):
///  * ticks — the Config keeps its usual granularity (`rt_tick_ns` wall
///    nanoseconds per tick); internally every duration is rescaled to the
///    socket engine's 1 ns ticks so that causally ordered cross-node
///    events carry strictly increasing stamps and the merged logs
///    linearize. Reports and telemetry are converted back to Config
///    ticks, so thresholds written for sim/rt runs carry over;
///  * detector kinds — kNever, kPerfect (the orchestrator's CrashNotice
///    ground truth, netproc::CrashNoticeDetector), kHeartbeat (real
///    modules over real datagrams). kScripted / kPingPong / kAccrual are
///    not wired up for this engine; `validate` rejects them;
///  * net_mode — kLossy seeds the per-sender socket-boundary filter with
///    `link_faults`; kLossyPartition additionally injects `partitions` /
///    `edge_cuts` at runtime. Unlike the rt engine the coins apply to
///    EVERY layer (the wire underneath is one wire), so lossy configs
///    install the ARQ (`transport`) under the dining layer;
///  * crashes — executed as SIGKILL by the orchestrator.
///
/// fork() caveat: `run()` forks; the calling process must be
/// single-threaded at that moment. `sweep<ProcScenario>` (sweep.hpp)
/// therefore runs proc configs serially.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netproc/cluster.hpp"
#include "obs/monitors.hpp"
#include "scenario/scenario.hpp"

namespace ekbd::scenario {

class ProcScenario : public Reports {
 public:
  explicit ProcScenario(Config cfg);

  /// Fork the cluster, supervise it to the horizon, ship + merge the
  /// logs, rebuild the books. May be called once; forks (see above).
  void run();

  // -- access --------------------------------------------------------------

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const { return graph_; }
  /// Orchestrator outcome: per-node exit codes, shipped logs, merge.
  [[nodiscard]] const ekbd::netproc::ClusterResult& result() const { return result_; }
  /// Rebuilt cluster-wide books (valid after run), in Config ticks.
  [[nodiscard]] const ekbd::dining::Trace& trace() const { return trace_; }
  [[nodiscard]] const ekbd::sim::EventLog& event_log() const { return log_; }

  /// The rebuilt books. The monitors are rebuilt over the merged logs
  /// (null until run); the crash times are the SIGKILL plan's, in Config
  /// ticks.
  [[nodiscard]] Books books() const override;

  /// Replay the merged recording (rt::replay over the rebuilt EventLog +
  /// Trace) into a fresh hub and compare its verdicts against the first
  /// rebuild's ("" when identical) — the shipped logs alone reproduce the
  /// run's analysis.
  [[nodiscard]] std::string replay_agreement() const;

  /// One-line JSON telemetry snapshot, same shape as the other engines'
  /// (`"engine":"proc"`), plus orchestrator facts (exits, crash plan).
  [[nodiscard]] std::string telemetry_json() const;

 private:
  Config cfg_;
  ekbd::graph::ConflictGraph graph_;
  ekbd::graph::Coloring colors_;
  std::string log_dir_;

  ekbd::netproc::ClusterResult result_;
  // Rebuilt from the merged recording (Config-tick timestamps).
  std::unique_ptr<ekbd::obs::MonitorHub> hub_;
  ekbd::sim::Network net_;
  ekbd::dining::Trace trace_;
  ekbd::sim::EventLog log_;
  bool ran_ = false;
};

}  // namespace ekbd::scenario
