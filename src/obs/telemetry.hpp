/// \file telemetry.hpp
/// Glue between the instrumented subsystems and the metrics registry.
///
/// Two styles, matching how the sources expose their numbers:
///
///  * **attach** — resolve registry handles once and hand the pointers to
///    the subsystem, which updates them on its own hot path (simulator);
///  * **collect** — snapshot a subsystem's existing books into registry
///    entries on demand (network, transport, event log, mc) — zero cost
///    during the run, called at telemetry-emission points.
///
/// Metric names are dot-namespaced by subsystem ("sim.events",
/// "net.in_transit", "arq.retransmissions", "mc.states_per_sec");
/// per-instance labels are "p3" for a process, "p2-p5" for an undirected
/// pair, "dining"/"transport" for a layer, or "layer/p2-p5" for both.
/// docs/OBSERVABILITY.md is the catalogue.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sim/event_log.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ekbd::net {
struct ArqStats;
}

namespace ekbd::obs {

/// Lower-case layer name ("dining", "detector", "other", "transport").
[[nodiscard]] const char* layer_name(sim::MsgLayer layer);

/// Wire a simulator to a registry: creates "sim.events", "sim.sends",
/// "sim.queue_depth", "sim.slab_live" and installs the handles via
/// Simulator::set_metrics. The registry must outlive the simulator's use
/// of it (detach with `sim.set_metrics({})`).
void attach_simulator_metrics(sim::Simulator& sim, MetricsRegistry& reg);

/// Snapshot the event log's shape: "log.events", "log.dropped".
void collect_event_log_metrics(const sim::EventLog& log, MetricsRegistry& reg);

/// Snapshot the network books: per-layer "net.sent" counters (logical
/// layers vs. the physical kTransport layer is exactly the logical/
/// physical split), and per-pair "net.in_transit" gauges whose high-water
/// mark is the §7-bounded maximum.
void collect_network_metrics(const sim::Network& net, MetricsRegistry& reg);

/// Snapshot a run's ARQ counters (net::sum_stats over its per-process
/// transports): "arq.logical_sends", "arq.physical_data_sends",
/// "arq.retransmissions", "arq.dup_suppressed", "arq.abandoned",
/// "arq.backoff_peak" (highest RTO the backoff reached), "arq.in_flight".
void collect_transport_metrics(const net::ArqStats& stats, MetricsRegistry& reg);

/// Snapshot a model-checking run: "mc.nodes_executed", "mc.sleep_pruned",
/// "mc.states_per_sec" (0 when `wall_seconds` <= 0) and
/// "mc.sleep_hit_rate_pct" (pruned / offered, in percent). Takes plain
/// numbers so the obs layer needs no mc dependency.
void collect_mc_metrics(std::uint64_t nodes_executed, std::uint64_t sleep_pruned,
                        double wall_seconds, MetricsRegistry& reg);

}  // namespace ekbd::obs
