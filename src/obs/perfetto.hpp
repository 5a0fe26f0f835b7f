/// \file perfetto.hpp
/// Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
///
/// Two sources, both optional:
///
///  * the simulator's `EventLog` — every message becomes a pair of tiny
///    slices (send on the sender's track, deliver on the recipient's)
///    connected by a flow arrow keyed on the message's (sender, seq);
///    losses, drops and adversary duplicates become instants;
///  * the dining `Trace` — every hungry→eat session becomes a "hungry"
///    span and every eat→exit episode an "eat" span on the process's
///    track; crashes become instants and cut open spans short.
///
/// One virtual-time tick maps to one trace microsecond (the formats have
/// no "tick" unit); all times are the simulator's virtual clock.
#pragma once

#include <string>
#include <vector>

#include "dining/trace.hpp"
#include "sim/event_log.hpp"

namespace ekbd::obs {

struct PerfettoOptions {
  bool message_flows = true;  ///< render EventLog messages as flow events
  bool sessions = true;       ///< render hungry/eat sessions as spans
};

/// One point on a named counter track ("C"-phase trace event): the live
/// telemetry loop samples per-shard ExecutorStats / latency quantiles at
/// each snapshot and the exporter turns every sample into a step on the
/// track's staircase graph.
struct CounterSample {
  sim::Time at = 0;   ///< tick timestamp (one tick = one trace µs)
  std::string track;  ///< counter track name, e.g. "shard0/runs"
  double value = 0.0;
};

/// Render `log` and/or `trace` (either may be nullptr) as one Chrome
/// trace-event JSON document: `{"traceEvents":[...]}`.
[[nodiscard]] std::string chrome_trace_json(const sim::EventLog* log,
                                            const dining::Trace* trace,
                                            const PerfettoOptions& opts = {});

/// Same, plus counter tracks from periodic samples.
[[nodiscard]] std::string chrome_trace_json(const sim::EventLog* log,
                                            const dining::Trace* trace,
                                            const std::vector<CounterSample>& counters,
                                            const PerfettoOptions& opts = {});

}  // namespace ekbd::obs
