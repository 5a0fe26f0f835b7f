/// \file rt_scenario.hpp
/// One-stop experiment builder for the real-threads engine.
///
/// The rt counterpart of `Scenario`: the same declarative `Config` (with
/// `engine = Engine::kRt`), wired onto `rt::Runtime` — a shard-per-core
/// executor over OS threads (`rt_shards` workers, each running many
/// actors), wall-clock timers, lock-free mailboxes — with the Recorder
/// feeding the same `Books`, online monitors and post-hoc checkers.
///
/// Config mapping (vs. the sim engine):
///  * topology / algorithm / detector / harness / crashes / run_for —
///    shared verbatim; `run_for` ticks map to wall time via `rt_tick_ns`;
///  * delay model — none: real scheduling IS the delay model;
///  * detector kinds — kNever, kPerfect (an oracle over the runtime's
///    crash flags), kHeartbeat / kPingPong / kAccrual (real modules over
///    real timers). kScripted is sim-only (it is written against virtual
///    time); `validate` rejects it;
///  * net_mode kLossy / kLossyPartition — as on the sim and proc engines:
///    `link_faults` (and under kLossyPartition `partitions` and
///    `edge_cuts`) decide the fate of every physical send on every layer,
///    through one net::LinkFaultModel per sender, and one ARQ per actor
///    with `transport` rebuilds reliable FIFO channels under the dining
///    layer.
///    Mailboxes are FIFO, so `reorder_prob` only counts;
///  * observability — the MonitorHub rides the Recorder's streams; an
///    EventLog is attached so runs can be replayed (rt/replay.hpp) and
///    exported to Perfetto.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/perfetto.hpp"
#include "rt/recorder.hpp"
#include "rt/runtime.hpp"
#include "scenario/scenario.hpp"

namespace ekbd::scenario {

class RtScenario : public Reports {
 public:
  explicit RtScenario(Config cfg);

  /// Run to the configured horizon (may be called once). Blocks for
  /// run_for × rt_tick_ns wall nanoseconds. With `rt_telemetry_interval`
  /// set, the blocked wait becomes a snapshot loop: every interval ticks
  /// one JSONL line goes to `rt_telemetry_path` (if non-empty) and the
  /// same samples accumulate as Perfetto counter tracks
  /// (`counter_samples()`), all read live off the running executor.
  /// `sample`, when given, is called on this thread every `sample_every`
  /// ticks and once more after the join, with the tick it stands for.
  void run(Time sample_every = 0, const std::function<void(Time)>& sample = {});

  // -- access ------------------------------------------------------------

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] ekbd::rt::Runtime& runtime() { return *rt_; }
  [[nodiscard]] ekbd::rt::Recorder& recorder() { return recorder_; }
  /// The environment, recording into the recorder.
  [[nodiscard]] ekbd::dining::Harness& harness() { return *harness_; }
  [[nodiscard]] const ekbd::graph::ConflictGraph& graph() const { return graph_; }
  [[nodiscard]] const ekbd::dining::Trace& trace() const { return recorder_.trace(); }
  [[nodiscard]] ekbd::dining::Diner* diner(ProcessId p) {
    return diners_[static_cast<std::size_t>(p)];
  }
  /// Recorded event log (nullptr unless cfg.observability).
  [[nodiscard]] const ekbd::sim::EventLog* event_log() const { return event_log_.get(); }
  /// Metrics registry (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MetricsRegistry* metrics() { return metrics_.get(); }
  /// Online invariant monitors (nullptr unless cfg.observability).
  [[nodiscard]] ekbd::obs::MonitorHub* monitors() { return monitors_.get(); }
  /// The per-actor ARQs (empty on the ideal network) and their run-wide
  /// counters; read them after run().
  [[nodiscard]] const Arqs& arqs() const { return arqs_; }
  [[nodiscard]] ekbd::net::ArqStats arq_stats() const { return ekbd::net::sum_stats(arqs_); }

  [[nodiscard]] Books books() const override;

  /// One-line JSON telemetry snapshot (requires cfg.observability) —
  /// same shape as Scenario::telemetry_json (the `arq.*` counters
  /// included on a lossy network), with "engine":"rt" plus "latency"
  /// (hungry→eat quantiles) and "stream" (recorder StreamStats) objects.
  [[nodiscard]] std::string telemetry_json() const;

  /// Counter-track samples collected by the live snapshot loop (empty
  /// unless rt_telemetry_interval was set). Feed to the CounterSample
  /// overload of obs::chrome_trace_json.
  [[nodiscard]] const std::vector<ekbd::obs::CounterSample>& counter_samples() const {
    return counter_samples_;
  }

 private:
  /// One live snapshot at tick `at`: JSONL line to `out` (may be null)
  /// plus counter samples. Safe while the executor runs — everything it
  /// reads is atomic or mutexed; the EventLog (plain, collector-owned
  /// while streaming) is only summarized when `final_snapshot` is true.
  void snapshot_telemetry(Time at, std::FILE* out, bool final_snapshot);

  Config cfg_;
  ekbd::graph::ConflictGraph graph_;
  ekbd::graph::Coloring colors_;
  // Observability first: the recorder points at the log/hub, the runtime
  // at the recorder — destruction must run in reverse.
  std::unique_ptr<ekbd::sim::EventLog> event_log_;
  std::unique_ptr<ekbd::obs::MetricsRegistry> metrics_;
  std::unique_ptr<ekbd::obs::MonitorHub> monitors_;
  ekbd::rt::Recorder recorder_;
  std::unique_ptr<ekbd::rt::Runtime> rt_;
  DetectorSet detectors_;
  std::unique_ptr<ekbd::dining::Harness> harness_;
  std::vector<ekbd::dining::Diner*> diners_;
  Arqs arqs_;  ///< after rt_ and detectors_: dies first
  std::vector<ekbd::obs::CounterSample> counter_samples_;
  bool ran_ = false;
};

}  // namespace ekbd::scenario
