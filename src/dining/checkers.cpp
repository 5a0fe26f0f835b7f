#include "dining/checkers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
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

namespace {

/// Response ticks of completed sessions, kept as a count per tick value.
/// Values outside [0, kDenseTicks) — a nanosecond-tick engine's waits, or
/// a negative one from a damaged trace — are kept aside and sorted once.
/// summarize() walks the sample in ascending order and accumulates exactly
/// as util::summarize does over the sorted sample, so every field comes
/// out bit-identical without sorting the sample.
class ResponseTicks {
 public:
  void add(Time t) {
    ++count_;
    if (t < 0 || t >= kDenseTicks) {
      others_.push_back(t);
      return;
    }
    const auto v = static_cast<std::size_t>(t);
    if (v >= dense_.size()) dense_.resize(v + 1, 0);
    ++dense_[v];
  }

  ekbd::util::Summary summarize() {
    ekbd::util::Summary s;
    if (count_ == 0) return s;
    std::sort(others_.begin(), others_.end());
    negatives_ = static_cast<std::size_t>(
        std::lower_bound(others_.begin(), others_.end(), Time{0}) - others_.begin());
    s.count = count_;
    double sum = 0.0;
    for_each_ascending([&](double x) { sum += x; });
    s.mean = sum / static_cast<double>(s.count);
    double var = 0.0;
    for_each_ascending([&](double x) { var += (x - s.mean) * (x - s.mean); });
    s.stddev = std::sqrt(var / static_cast<double>(s.count));
    // Nearest rank, as util::summarize: the sample's idx-th smallest value.
    const auto rank = [&](double q) {
      auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.count)));
      if (idx > 0) --idx;
      return value_at(std::min(idx, s.count - 1));
    };
    s.min = value_at(0);
    s.max = value_at(s.count - 1);
    s.p50 = rank(0.50);
    s.p95 = rank(0.95);
    s.p99 = rank(0.99);
    s.p999 = rank(0.999);
    return s;
  }

 private:
  static constexpr Time kDenseTicks = Time{1} << 16;

  /// Call fn(x) once per sample, in ascending order.
  template <typename Fn>
  void for_each_ascending(Fn&& fn) const {
    for (std::size_t i = 0; i < negatives_; ++i) fn(static_cast<double>(others_[i]));
    for (std::size_t v = 0; v < dense_.size(); ++v) {
      const auto x = static_cast<double>(v);
      for (std::uint64_t c = dense_[v]; c > 0; --c) fn(x);
    }
    for (std::size_t i = negatives_; i < others_.size(); ++i) {
      fn(static_cast<double>(others_[i]));
    }
  }

  /// The idx-th smallest sample (0-based).
  [[nodiscard]] double value_at(std::size_t idx) const {
    if (idx < negatives_) return static_cast<double>(others_[idx]);
    idx -= negatives_;
    for (std::size_t v = 0; v < dense_.size(); ++v) {
      if (idx < dense_[v]) return static_cast<double>(v);
      idx -= dense_[v];
    }
    return static_cast<double>(others_[negatives_ + idx]);
  }

  std::vector<std::uint64_t> dense_;
  std::vector<Time> others_;
  std::size_t negatives_ = 0;  ///< leading negative values of the sorted others_
  std::size_t count_ = 0;
};

}  // namespace

WaitFreedomReport check_wait_freedom(const Trace& trace,
                                     const std::vector<Time>& crash_times,
                                     Time starvation_horizon) {
  // One pass over the trace, with the session rules of hungry_sessions():
  // a session opens at kBecameHungry and closes at the owner's next
  // kStartEating (completed) or kCrashed; one still open at the end is
  // clipped at the trace horizon.
  constexpr Time kClosed = std::numeric_limits<Time>::min();
  WaitFreedomReport report;
  ResponseTicks responses;
  std::vector<Time> hungry_since;  // per process: open session's start, or kClosed
  std::vector<std::uint8_t> starving;
  const auto correct = [&](std::size_t p) {
    return p >= crash_times.size() || crash_times[p] < 0;
  };
  // A session that never started eating nor crashed, cut at `ended`.
  const auto cut = [&](std::size_t p, Time became_hungry, Time ended) {
    if (correct(p) && ended - became_hungry >= starvation_horizon) {
      if (p >= starving.size()) starving.resize(p + 1, 0);
      starving[p] = 1;
    }
  };

  for (const TraceEvent& e : trace.events()) {
    const auto p = static_cast<std::size_t>(e.process);
    switch (e.kind) {
      case TraceEventKind::kBecameHungry:
        assert(e.process >= 0);
        ++report.sessions_total;
        if (p >= hungry_since.size()) hungry_since.resize(p + 1, kClosed);
        // A session left open by a second hunger never ends: it keeps
        // hungry_sessions()'s `ended` of -1.
        if (hungry_since[p] != kClosed) cut(p, hungry_since[p], -1);
        hungry_since[p] = e.at;
        break;
      case TraceEventKind::kStartEating:
        if (p < hungry_since.size() && hungry_since[p] != kClosed) {
          ++report.sessions_completed;
          if (correct(p)) responses.add(e.at - hungry_since[p]);
          hungry_since[p] = kClosed;
        }
        break;
      case TraceEventKind::kCrashed:
        if (p < hungry_since.size() && hungry_since[p] != kClosed) {
          ++report.sessions_crashed;
          hungry_since[p] = kClosed;
        }
        break;
      default:
        break;
    }
  }
  const Time horizon = trace.end_time();
  for (std::size_t p = 0; p < hungry_since.size(); ++p) {
    if (hungry_since[p] != kClosed) cut(p, hungry_since[p], horizon);
  }
  for (std::size_t p = 0; p < starving.size(); ++p) {
    if (starving[p] != 0) report.starving.push_back(static_cast<ProcessId>(p));
  }
  report.response = responses.summarize();
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
  // A new eater overlaps every current eater but its eating neighbours:
  // one pass over its adjacency, not over the eaters.
  std::vector<char> eating(g.size(), 0);
  std::uint64_t eaters = 0;
  Time prev = 0;
  double weighted = 0.0;
  const Time horizon = trace.end_time();
  for (const TraceEvent& e : trace.events()) {
    weighted += static_cast<double>(eaters) * static_cast<double>(e.at - prev);
    prev = e.at;
    switch (e.kind) {
      case TraceEventKind::kStartEating: {
        char& self = eating[static_cast<std::size_t>(e.process)];
        std::uint64_t eating_neighbors = 0;
        for (ProcessId q : g.neighbors(e.process)) {
          eating_neighbors += eating[static_cast<std::size_t>(q)] != 0 ? 1 : 0;
        }
        report.nonneighbor_overlaps += eaters - eating_neighbors;
        if (self == 0) {
          self = 1;
          ++eaters;
        }
        report.max_concurrent_eaters =
            std::max(report.max_concurrent_eaters, static_cast<int>(eaters));
        break;
      }
      case TraceEventKind::kStopEating:
      case TraceEventKind::kCrashed: {
        char& self = eating[static_cast<std::size_t>(e.process)];
        if (self != 0) {
          self = 0;
          --eaters;
        }
        break;
      }
      default:
        break;
    }
  }
  if (horizon > prev) {
    weighted += static_cast<double>(eaters) * static_cast<double>(horizon - prev);
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
