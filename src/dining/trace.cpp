#include "dining/trace.hpp"

#include <cassert>
#include <cstdio>

namespace ekbd::dining {

std::string to_string(DinerState s) {
  switch (s) {
    case DinerState::kThinking: return "thinking";
    case DinerState::kHungry: return "hungry";
    case DinerState::kEating: return "eating";
  }
  return "?";
}

std::string to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kBecameHungry: return "hungry";
    case TraceEventKind::kEnteredDoorway: return "doorway";
    case TraceEventKind::kStartEating: return "eat";
    case TraceEventKind::kStopEating: return "exit";
    case TraceEventKind::kCrashed: return "crash";
    case TraceEventKind::kNetDrop: return "netdrop";
    case TraceEventKind::kNetDup: return "netdup";
    case TraceEventKind::kPartitionCut: return "cut";
    case TraceEventKind::kPartitionHeal: return "heal";
    case TraceEventKind::kRecovered: return "recover";
    case TraceEventKind::kEdgeAdded: return "edge+";
    case TraceEventKind::kEdgeRemoved: return "edge-";
  }
  return "?";
}

void Trace::record(Time at, ProcessId p, TraceEventKind kind, ProcessId peer) {
  assert(events_.empty() || at >= events_.back().at);
  events_.push_back(TraceEvent{at, p, kind, peer});
  if (observer_ != nullptr) observer_->on_trace_event(events_.back());
}

Time Trace::end_time() const {
  if (end_time_ >= 0) return end_time_;
  return events_.empty() ? 0 : events_.back().at;
}

std::size_t Trace::count(TraceEventKind kind, ProcessId p) const {
  std::size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind && (p == ekbd::sim::kNoProcess || e.process == p)) ++n;
  }
  return n;
}

std::string Trace::to_string(std::size_t max_events) const {
  std::string out;
  std::size_t shown = 0;
  for (const TraceEvent& e : events_) {
    if (shown++ >= max_events) {
      out += "... (" + std::to_string(events_.size() - max_events) + " more)\n";
      break;
    }
    char buf[80];
    std::snprintf(buf, sizeof(buf), "t=%-8lld p%-3d %s\n",
                  static_cast<long long>(e.at), e.process,
                  dining::to_string(e.kind).c_str());
    out += buf;
  }
  return out;
}

std::vector<HungrySession> hungry_sessions(const Trace& trace) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<HungrySession> out;
  out.reserve(trace.count(TraceEventKind::kBecameHungry));
  // Open session per process id (index into `out`), kNone if none.
  std::vector<std::size_t> open;
  const auto open_of = [&](ProcessId p) {
    const auto i = static_cast<std::size_t>(p);
    return i < open.size() ? open[i] : kNone;
  };

  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case TraceEventKind::kBecameHungry: {
        assert(e.process >= 0);
        // Trace::record keeps times nondecreasing, so pushing in trace
        // order leaves `out` sorted by became_hungry.
        assert(out.empty() || e.at >= out.back().became_hungry);
        const auto i = static_cast<std::size_t>(e.process);
        if (i >= open.size()) open.resize(i + 1, kNone);
        open[i] = out.size();
        HungrySession s;
        s.process = e.process;
        s.became_hungry = e.at;
        out.push_back(s);
        break;
      }
      case TraceEventKind::kEnteredDoorway: {
        const std::size_t idx = open_of(e.process);
        if (idx != kNone) out[idx].entered_doorway = e.at;
        break;
      }
      case TraceEventKind::kStartEating: {
        const std::size_t idx = open_of(e.process);
        if (idx != kNone) {
          out[idx].started_eating = e.at;
          out[idx].ended = e.at;
          open[static_cast<std::size_t>(e.process)] = kNone;
        }
        break;
      }
      case TraceEventKind::kCrashed: {
        const std::size_t idx = open_of(e.process);
        if (idx != kNone) {
          out[idx].ended = e.at;
          out[idx].crashed_during = true;
          open[static_cast<std::size_t>(e.process)] = kNone;
        }
        break;
      }
      case TraceEventKind::kStopEating:
      case TraceEventKind::kNetDrop:
      case TraceEventKind::kNetDup:
      case TraceEventKind::kPartitionCut:
      case TraceEventKind::kPartitionHeal:
      // A recovered process restarts thinking: its next hungry session is
      // a fresh one, so rejoin (like churn) needs no session bookkeeping.
      case TraceEventKind::kRecovered:
      case TraceEventKind::kEdgeAdded:
      case TraceEventKind::kEdgeRemoved:
        break;
    }
  }
  // Clip sessions still hungry at the horizon.
  const Time horizon = trace.end_time();
  for (const std::size_t idx : open) {
    if (idx != kNone) out[idx].ended = horizon;
  }
  return out;
}

}  // namespace ekbd::dining
