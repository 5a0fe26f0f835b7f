#include "dining/checkers.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace ekbd::dining {

using ekbd::graph::ConflictGraph;

void DynamicAdjacency::apply(const TraceEvent& e) {
  if (e.kind != TraceEventKind::kEdgeAdded && e.kind != TraceEventKind::kEdgeRemoved) {
    return;
  }
  const ProcessId a = e.process;
  const ProcessId b = e.peer;
  if (a == b || a == ekbd::sim::kNoProcess || b == ekbd::sim::kNoProcess) return;
  const bool is_static = graph_->adjacent(a, b);
  if (e.kind == TraceEventKind::kEdgeAdded) {
    if (is_static) {
      removed_.erase(key(a, b));
    } else {
      extra_[a].insert(b);
      extra_[b].insert(a);
    }
  } else {
    if (is_static) {
      removed_.insert(key(a, b));
    } else {
      extra_[a].erase(b);
      extra_[b].erase(a);
    }
  }
}

bool DynamicAdjacency::adjacent(ProcessId a, ProcessId b) const {
  if (graph_->adjacent(a, b)) return removed_.count(key(a, b)) == 0;
  const auto it = extra_.find(a);
  return it != extra_.end() && it->second.count(b) != 0;
}

std::size_t ExclusionReport::violations_after(Time t) const {
  std::size_t n = 0;
  for (const auto& v : violations) {
    if (v.at > t) ++n;
  }
  return n;
}

void ExclusionState::apply(const TraceEvent& e, std::vector<ExclusionViolation>& out) {
  switch (e.kind) {
    case TraceEventKind::kStartEating: {
      adj_.for_each_neighbor(e.process, [&](ProcessId q) {
        if (eating_[static_cast<std::size_t>(q)] != 0) {
          out.push_back(ExclusionViolation{e.at, e.process, q});
        }
      });
      std::uint8_t& flag = eating_[static_cast<std::size_t>(e.process)];
      eating_count_ += flag == 0 ? 1 : 0;
      flag = 1;
      break;
    }
    case TraceEventKind::kStopEating:
    case TraceEventKind::kCrashed: {
      // A process outside the graph never started eating.
      const auto i = static_cast<std::size_t>(e.process);
      if (i < eating_.size() && eating_[i] != 0) {
        eating_[i] = 0;
        --eating_count_;
      }
      break;
    }
    default:
      adj_.apply(e);  // only the edge-churn kinds change anything
      break;
  }
}

ExclusionReport check_exclusion(const Trace& trace, const ConflictGraph& g) {
  ExclusionReport report;
  ExclusionState state(g);
  for (const TraceEvent& e : trace.events()) state.apply(e, report.violations);
  return report;
}

WaitFreedomReport check_wait_freedom(const Trace& trace,
                                     const std::vector<Time>& crash_times,
                                     Time starvation_horizon) {
  WaitFreedomReport report;
  std::vector<double> responses;
  std::unordered_set<ProcessId> starving_set;

  for (const HungrySession& s : hungry_sessions(trace)) {
    ++report.sessions_total;
    const bool correct =
        static_cast<std::size_t>(s.process) >= crash_times.size() ||
        crash_times[static_cast<std::size_t>(s.process)] < 0;
    if (s.completed()) {
      ++report.sessions_completed;
      if (correct) responses.push_back(static_cast<double>(s.response_time()));
    } else if (s.crashed_during) {
      ++report.sessions_crashed;
    } else if (correct && s.ended - s.became_hungry >= starvation_horizon) {
      starving_set.insert(s.process);
    }
  }
  report.starving.assign(starving_set.begin(), starving_set.end());
  std::sort(report.starving.begin(), report.starving.end());
  report.response = ekbd::util::summarize(responses);
  return report;
}

std::vector<OvertakeObservation> overtake_census(const Trace& trace, const ConflictGraph& g) {
  struct OpenSession {
    Time start = 0;
    std::unordered_map<ProcessId, int> eats;  // neighbor -> count
  };
  std::unordered_map<ProcessId, OpenSession> open;
  std::vector<OvertakeObservation> census;

  auto close = [&](ProcessId p) {
    auto it = open.find(p);
    if (it == open.end()) return;
    for (ProcessId j : g.neighbors(p)) {
      OvertakeObservation obs;
      obs.waiter = p;
      obs.eater = j;
      obs.session_start = it->second.start;
      auto cit = it->second.eats.find(j);
      obs.count = cit == it->second.eats.end() ? 0 : cit->second;
      census.push_back(obs);
    }
    open.erase(it);
  };

  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case TraceEventKind::kBecameHungry:
        open[e.process] = OpenSession{e.at, {}};
        break;
      case TraceEventKind::kStartEating:
        // The eater's own wait is over; then it counts as one more
        // overtake for every neighbor still waiting.
        close(e.process);
        for (ProcessId q : g.neighbors(e.process)) {
          auto it = open.find(q);
          if (it != open.end()) ++it->second.eats[e.process];
        }
        break;
      case TraceEventKind::kCrashed:
        close(e.process);
        break;
      default:
        break;
    }
  }
  // Sessions still hungry at the horizon produced valid observations too.
  std::vector<ProcessId> leftovers;
  leftovers.reserve(open.size());
  for (const auto& [p, s] : open) leftovers.push_back(p);
  std::sort(leftovers.begin(), leftovers.end());
  for (ProcessId p : leftovers) close(p);

  std::stable_sort(census.begin(), census.end(),
                   [](const OvertakeObservation& a, const OvertakeObservation& b) {
                     return a.session_start < b.session_start;
                   });
  return census;
}

int max_overtakes(const std::vector<OvertakeObservation>& census, Time after) {
  int best = 0;
  for (const auto& obs : census) {
    if (obs.session_start >= after) best = std::max(best, obs.count);
  }
  return best;
}

Time k_bound_establishment(const std::vector<OvertakeObservation>& census, int k) {
  Time last_violation_start = -1;
  for (const auto& obs : census) {
    if (obs.count > k) last_violation_start = std::max(last_violation_start, obs.session_start);
  }
  return last_violation_start < 0 ? 0 : last_violation_start + 1;
}

ConcurrencyReport concurrency_profile(const Trace& trace, const ConflictGraph& g) {
  ConcurrencyReport report;
  std::unordered_set<ProcessId> eating;
  Time prev = 0;
  double weighted = 0.0;
  const Time horizon = trace.end_time();
  for (const TraceEvent& e : trace.events()) {
    weighted += static_cast<double>(eating.size()) * static_cast<double>(e.at - prev);
    prev = e.at;
    switch (e.kind) {
      case TraceEventKind::kStartEating:
        for (ProcessId q : eating) {
          if (!g.adjacent(e.process, q)) ++report.nonneighbor_overlaps;
        }
        eating.insert(e.process);
        report.max_concurrent_eaters =
            std::max(report.max_concurrent_eaters, static_cast<int>(eating.size()));
        break;
      case TraceEventKind::kStopEating:
      case TraceEventKind::kCrashed:
        eating.erase(e.process);
        break;
      default:
        break;
    }
  }
  if (horizon > prev) {
    weighted += static_cast<double>(eating.size()) * static_cast<double>(horizon - prev);
  }
  if (horizon > 0) report.mean_concurrent_eaters = weighted / static_cast<double>(horizon);
  return report;
}

std::uint64_t hungry_at_end_mask(const Trace& trace) {
  std::uint64_t mask = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.process < 0 || e.process >= 64) continue;
    const std::uint64_t bit = 1ULL << e.process;
    switch (e.kind) {
      case TraceEventKind::kBecameHungry:
        mask |= bit;
        break;
      case TraceEventKind::kStartEating:
      case TraceEventKind::kCrashed:
        mask &= ~bit;
        break;
      default:
        break;
    }
  }
  return mask;
}

}  // namespace ekbd::dining
