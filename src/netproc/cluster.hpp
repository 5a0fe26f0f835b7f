/// \file cluster.hpp
/// Launcher/orchestrator for the multi-process socket engine.
///
/// `run_cluster` forks one OS process per node (each running a
/// `NodeEngine`), performs the Hello/Start handshake over the control
/// socket, and then supervises the run:
///
///  * **real crashes** — the crash plan is executed with SIGKILL at the
///    scripted ticks: the victim dies mid-whatever-it-was-doing, its log
///    file ends mid-frame, its peers find out the hard way (plus a
///    best-effort CrashNotice broadcast, the ground-truth oracle feed).
///    The crash is stamped with the tick at which the orchestrator has
///    reaped the victim, which can be later than the planned tick;
///  * **runtime partitions** — partition/edge-cut windows are injected
///    while the cluster runs, as control frames to every node's filter
///    (duplicated against UDP loss; the windows carry absolute ticks, so
///    early arrival is exact and a lost duplicate harmless);
///  * **supervision** — every node is reaped with `waitpid`; nodes still
///    alive `node_timeout_ms` after the horizon are SIGKILLed and marked
///    timed out, so a wedged node fails the run instead of hanging it;
///  * **log shipping** — each node's streamed log is loaded and merged
///    (rt/log_io) into the one Trace + EventLog + Network history the
///    MonitorHub and the post-hoc checkers consume, with the
///    orchestrator's observed crash times inserted.
///
/// fork() without exec: the child runs the `NodeSetup` callback (which
/// builds the actor and optional ARQ inside the child), runs the engine,
/// and `_Exit`s with its return code — no atexit handlers, no sanitizer
/// leak pass, no sharing of the parent's stdio buffers. The parent MUST
/// be single-threaded when `run_cluster` is called (POSIX fork +
/// multithreading do not mix); the proc scenario runner keeps it so.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/link_fault_model.hpp"
#include "netproc/node.hpp"
#include "rt/log_io.hpp"

namespace ekbd::netproc {

struct ClusterOptions {
  std::size_t n = 3;
  std::uint64_t seed = 1;
  std::uint64_t tick_ns = 1;  ///< keep 1 ns so merged logs linearize
  sim::Time horizon = 0;      ///< run end, in ticks

  net::LinkFaultParams link_faults{};
  /// Injected at runtime through the control channel (not preloaded):
  /// each window is broadcast while the cluster runs, slightly before its
  /// `from` tick.
  std::vector<net::Partition> partitions;
  std::vector<net::EdgeCut> edge_cuts;

  /// SIGKILL plan: (node, tick). Real crashes — no cooperation from the
  /// victim whatsoever. The kill lands at or after the planned tick.
  std::vector<std::pair<sim::ProcessId, sim::Time>> crashes;

  std::string log_dir = ".";
  int handshake_timeout_ms = 10'000;
  /// Grace after the horizon before a still-running node is SIGKILLed
  /// and marked timed out.
  int node_timeout_ms = 10'000;

  /// Supervision-test hook: this node wedges (never finishes) — the run
  /// must still complete, with the node marked timed out.
  sim::ProcessId wedge_node = sim::kNoProcess;
};

struct NodeOutcome {
  long pid = -1;
  int exit_code = -1;           ///< valid when !signaled
  bool signaled = false;
  int term_signal = 0;
  bool timed_out = false;       ///< SIGKILLed by the supervisor after grace
  bool killed_by_plan = false;  ///< SIGKILLed by the crash plan
  /// When killed_by_plan: the tick at which the node had been reaped (at
  /// or after the plan tick; every record the node wrote is stamped at or
  /// before it).
  sim::Time crash_tick = -1;
  std::string log_path;
};

struct ClusterResult {
  /// True iff the handshake converged and every node either was killed by
  /// the crash plan or exited cleanly (code 0, no timeout).
  bool ok = false;
  std::string error;  ///< first failure, "" when ok

  std::vector<NodeOutcome> nodes;
  std::vector<rt::Recording> parts;  ///< per-node shipped logs, as loaded
  rt::Recording merged;              ///< the cluster-wide linearization
  /// Crash times as observed (NodeOutcome::crash_tick), the list
  /// merge_recordings already consumed.
  std::vector<std::pair<sim::ProcessId, sim::Time>> crashes;
};

/// Child-side wiring: runs inside the forked node process, must register
/// the actor (NodeEngine::set_actor / make_actor) and may install the ARQ
/// and schedule environment callbacks. Everything it captures must be
/// fork-safe (plain values; no threads, no locks held at fork time).
using NodeSetup = std::function<void(NodeEngine&)>;

/// Fork, handshake, supervise, ship and merge. Blocks until every node is
/// reaped (bounded by horizon + node_timeout_ms + handshake timeout).
[[nodiscard]] ClusterResult run_cluster(const ClusterOptions& opt, const NodeSetup& setup);

}  // namespace ekbd::netproc
