/// \file trace.hpp
/// Execution trace: the totally ordered log of scheduling events.
///
/// The simulator executes one event at a time, so appending during the run
/// yields a log already sorted by (time, execution order) — the exact
/// linearization the paper's proofs quantify over. All property checkers
/// (checkers.hpp) consume a Trace, a ConflictGraph and crash information,
/// which makes them unit-testable on hand-written traces.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dining/types.hpp"

namespace ekbd::dining {

struct TraceEvent {
  Time at = 0;
  ProcessId process = ekbd::sim::kNoProcess;
  TraceEventKind kind = TraceEventKind::kBecameHungry;
  /// Second endpoint for the edge-churn kinds (kEdgeAdded/kEdgeRemoved);
  /// kNoProcess for every scheduling event.
  ProcessId peer = ekbd::sim::kNoProcess;
};

/// Streaming consumer of trace events: sees each event as it is
/// recorded, in trace order (the online exclusion monitor rides on
/// this). Observers observe — they must not record into the trace.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void on_trace_event(const TraceEvent& ev) = 0;
};

/// Where the environment (dining::Harness) records scheduling events:
/// the simulator's own `Trace`, or an rt/proc engine's `rt::Recorder`,
/// which linearizes concurrent processes into one.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(Time at, ProcessId p, TraceEventKind kind,
                      ProcessId peer = ekbd::sim::kNoProcess) = 0;
};

/// One completed (or still-open) hungry→eating episode of one process,
/// extracted from a Trace by `hungry_sessions`.
struct HungrySession {
  ProcessId process = ekbd::sim::kNoProcess;
  Time became_hungry = 0;
  Time entered_doorway = -1;  ///< -1 if never entered
  Time started_eating = -1;   ///< -1 if never scheduled (open or starved)
  Time ended = -1;            ///< eat start, crash time, or trace horizon
  bool crashed_during = false;

  [[nodiscard]] bool completed() const { return started_eating >= 0; }
  /// Waiting time (hunger to eat) for completed sessions.
  [[nodiscard]] Time response_time() const { return started_eating - became_hungry; }
};

class Trace final : public TraceSink {
 public:
  void record(Time at, ProcessId p, TraceEventKind kind,
              ProcessId peer = ekbd::sim::kNoProcess) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Horizon of the run this trace was recorded over (set by the harness;
  /// defaults to the last event time). Open hungry sessions are clipped
  /// here.
  void set_end_time(Time t) { end_time_ = t; }
  [[nodiscard]] Time end_time() const;

  /// Count of events of one kind for one process (or all, p = kNoProcess).
  [[nodiscard]] std::size_t count(TraceEventKind kind,
                                  ProcessId p = ekbd::sim::kNoProcess) const;

  /// Human-readable dump (debugging aid for failed property checks).
  [[nodiscard]] std::string to_string(std::size_t max_events = 200) const;

  /// Attach (or detach with nullptr) a streaming observer. Not owned.
  void set_observer(TraceObserver* obs) { observer_ = obs; }

 private:
  std::vector<TraceEvent> events_;
  Time end_time_ = -1;
  TraceObserver* observer_ = nullptr;
};

/// Extract every hungry session in the trace, in session-start order.
/// Sessions still hungry at the horizon are returned with
/// started_eating = -1 and ended = end_time (or crash time).
std::vector<HungrySession> hungry_sessions(const Trace& trace);

}  // namespace ekbd::dining
