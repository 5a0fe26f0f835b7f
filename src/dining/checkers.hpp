/// \file checkers.hpp
/// Property checkers for the paper's theorems.
///
/// Each checker is a pure function of (Trace, ConflictGraph [, crash
/// info]) and returns a report struct; the test suite asserts on reports
/// from real executions, and also feeds hand-crafted good *and bad* traces
/// to prove the checkers themselves can detect violations.
///
///  * `check_exclusion`       — Theorem 1 (◇WX): overlapping-eating pairs
///    of live neighbors, and when the last one happened.
///  * `check_wait_freedom`    — Theorem 2: every correct hungry process
///    eventually eats; reports starving processes and response times.
///  * `overtake_census` etc.  — Theorem 3 (◇2-BW): for every hungry
///    session of i and every neighbor j, how many times j started eating
///    while i stayed continuously hungry.
///
/// Quiescence (§7) and the channel bound (§7) are checked directly against
/// `sim::Network` statistics (see harness/bench code) since they are
/// properties of message traffic, not of the scheduling trace.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dining/trace.hpp"
#include "graph/graph.hpp"
#include "util/stats.hpp"

namespace ekbd::dining {

// ------------------------------------------------------ dynamic adjacency

/// The conflict graph as of a point *inside* a trace: the initial graph
/// overlaid with every kEdgeAdded / kEdgeRemoved event applied so far.
///
/// Churn scenarios never mutate the ConflictGraph object the checkers and
/// monitors hold — the initial graph plus the trace IS the authoritative
/// edge history. Both `check_exclusion` (post-hoc) and the online
/// ExclusionMonitor interpret it through this one helper, so their
/// verdicts stay elementwise identical by construction.
class DynamicAdjacency {
 public:
  explicit DynamicAdjacency(const ekbd::graph::ConflictGraph& g) : graph_(&g) {}

  /// Apply one trace event (only the edge kinds change anything).
  void apply(const TraceEvent& e);

  /// True iff {a, b} is an edge of the current overlaid graph.
  [[nodiscard]] bool adjacent(ProcessId a, ProcessId b) const;

  /// Visit the current neighbors of `p` in deterministic (sorted static
  /// neighbors first, then sorted churned-in extras) order.
  template <typename Fn>
  void for_each_neighbor(ProcessId p, Fn&& fn) const {
    for (ProcessId q : graph_->neighbors(p)) {
      if (removed_.count(key(p, q)) == 0) fn(q);
    }
    const auto it = extra_.find(p);
    if (it != extra_.end()) {
      for (ProcessId q : it->second) fn(q);
    }
  }

  [[nodiscard]] const ekbd::graph::ConflictGraph& initial() const { return *graph_; }

 private:
  static std::uint64_t key(ProcessId a, ProcessId b) {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  const ekbd::graph::ConflictGraph* graph_;
  std::set<std::uint64_t> removed_;          ///< static edges currently cut
  std::map<ProcessId, std::set<ProcessId>> extra_;  ///< churned-in edges
};

// ------------------------------------------------------------- exclusion

/// One scheduling mistake: `a` started eating at `at` while its live
/// neighbor `b` was already eating.
struct ExclusionViolation {
  Time at = 0;
  ProcessId a = ekbd::sim::kNoProcess;
  ProcessId b = ekbd::sim::kNoProcess;
};

struct ExclusionReport {
  std::vector<ExclusionViolation> violations;
  /// Time of the last violation, or -1 if the run is violation-free.
  [[nodiscard]] Time last_violation() const {
    return violations.empty() ? -1 : violations.back().at;
  }
  /// Number of violations occurring strictly after `t`.
  [[nodiscard]] std::size_t violations_after(Time t) const;
};

/// The ◇WX state machine, one trace event at a time: the overlaid
/// adjacency plus one eating flag per process of the initial graph.
/// `check_exclusion` (post-hoc) and obs::ExclusionMonitor (online) both
/// run this one object, so their violation lists agree elementwise.
class ExclusionState {
 public:
  explicit ExclusionState(const ekbd::graph::ConflictGraph& g)
      : adj_(g), eating_(g.size(), 0) {}

  /// Apply one event, appending every violation it reveals to `out`.
  void apply(const TraceEvent& e, std::vector<ExclusionViolation>& out);

  /// Processes currently eating.
  [[nodiscard]] std::size_t eating_now() const { return eating_count_; }

 private:
  DynamicAdjacency adj_;
  std::vector<std::uint8_t> eating_;
  std::size_t eating_count_ = 0;
};

/// Scan the trace for pairs of adjacent processes eating simultaneously.
/// Each violation is counted once, at the moment the overlap begins.
ExclusionReport check_exclusion(const Trace& trace, const ekbd::graph::ConflictGraph& g);

// ---------------------------------------------------------- wait-freedom

struct WaitFreedomReport {
  std::size_t sessions_total = 0;      ///< hungry sessions observed
  std::size_t sessions_completed = 0;  ///< ended in eating
  std::size_t sessions_crashed = 0;    ///< owner crashed while hungry
  /// Correct processes still hungry at the horizon whose wait exceeded
  /// `starvation_horizon` — the empirical starvation signal.
  std::vector<ProcessId> starving;
  /// Response times (hungry → eat) of completed sessions of processes that
  /// never crashed.
  ekbd::util::Summary response;

  [[nodiscard]] bool wait_free() const { return starving.empty(); }
};

/// \param crash_times      per-process crash time, -1 if correct
/// \param starvation_horizon a process still hungry at the end, waiting
///        longer than this, is declared starving. Pick ≫ the typical
///        response time (benches use ~20% of the run length).
WaitFreedomReport check_wait_freedom(const Trace& trace,
                                     const std::vector<Time>& crash_times,
                                     Time starvation_horizon);

// ------------------------------------------------------ bounded waiting

/// One fairness observation: during the hungry session of `waiter` that
/// began at `session_start`, neighbor `eater` started eating `count`
/// times before the waiter did (or before the session was cut short).
struct OvertakeObservation {
  ProcessId waiter = ekbd::sim::kNoProcess;
  ProcessId eater = ekbd::sim::kNoProcess;
  Time session_start = 0;
  int count = 0;
};

/// All (session, neighbor) overtake counts in the trace.
std::vector<OvertakeObservation> overtake_census(const Trace& trace,
                                                 const ekbd::graph::ConflictGraph& g);

/// Largest overtake count among observations whose session starts at or
/// after `after` (0 = whole run).
int max_overtakes(const std::vector<OvertakeObservation>& census, Time after = 0);

/// Earliest time T such that every observation with session_start >= T has
/// count <= k: the empirically observed establishment point of ◇k-BW
/// (last violating session start + 1). Returns 0 if the whole run is
/// k-bounded.
Time k_bound_establishment(const std::vector<OvertakeObservation>& census, int k);

// ------------------------------------------------------------ concurrency

/// How *distributed* the daemon actually is: a correct but useless daemon
/// could schedule one process at a time globally. A dining-based daemon
/// must let non-conflicting (non-adjacent) processes eat concurrently.
struct ConcurrencyReport {
  int max_concurrent_eaters = 0;
  /// Time-weighted average number of simultaneous eaters over the run.
  double mean_concurrent_eaters = 0.0;
  /// Overlap-begin events between NON-adjacent processes (harmless
  /// concurrency the daemon granted).
  std::uint64_t nonneighbor_overlaps = 0;
};

ConcurrencyReport concurrency_profile(const Trace& trace, const ekbd::graph::ConflictGraph& g);

// ----------------------------------------------------------- starvation

/// Bit p set iff process p is hungry (became hungry, has neither eaten
/// nor crashed since) at the end of the trace — the post-hoc face of the
/// liveness checker's hungry-forever predicate. A fair-lasso
/// counterexample unrolled for any number of laps must keep its starving
/// process in this mask; the cross-check tests assert exactly that.
std::uint64_t hungry_at_end_mask(const Trace& trace);

}  // namespace ekbd::dining
