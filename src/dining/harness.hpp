/// \file harness.hpp
/// The paper's environment, once for every engine.
///
/// The harness plays the §2 environment: it decides when thinking
/// processes become hungry (processes may think forever, but eat only for
/// finite durations), ends eating sessions after a finite random
/// duration, and records every scheduling event. It is algorithm-agnostic
/// (anything implementing `dining::Diner` can be managed) and
/// engine-agnostic: it is written against `sim::TransportIface`, and the
/// sim, rt and proc engines run the same think→hungry→eat body.
///
/// What an engine supplies, as values rather than options:
///
///  * where records go — the simulator's harness keeps its own `Trace`
///    (the Scenario's fault observer and partition marks write to it too);
///    rt and proc hand their `rt::Recorder`, which linearizes concurrent
///    processes;
///  * which streams the durations come from — the simulator draws every
///    duration from one shared stream, `sim.rng().fork(0x4a52)`, in event
///    order (the golden digests depend on that order); rt and proc give
///    each process its own stream, `Rng(seed ^ 0x4a52).fork(p + 1)`,
///    because concurrent processes have no global draw order to share a
///    stream through. Sim and rt runs therefore agree on the model and
///    the seed discipline, not on the literal duration sequence.
///
/// The crash fence: every environment decision for process p is a
/// `call_after(p, …)` on the engine, so it runs in p's context (between
/// p's handlers; on rt, inside p's dispatch claim) and dies with the
/// incarnation that armed it. A recovered process re-enters the hunger
/// cycle from `kRecovered` alone — hunger or a meal end scheduled before
/// the crash never reaches it. Per-process state (hungry-since clocks,
/// rt/proc streams) is touched only in the owner's context.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "dining/diner.hpp"
#include "dining/trace.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ekbd::dining {

struct HarnessOptions {
  sim::Time think_lo = 50;         ///< post-eating think duration, uniform
  sim::Time think_hi = 300;
  sim::Time eat_lo = 20;           ///< eating duration, uniform (finite! §2)
  sim::Time eat_hi = 60;
  sim::Time first_hunger_hi = 100; ///< initial hunger offsets in [0, this]
  sim::Time recheck_period = 25;   ///< diner guard re-evaluation period
};

class Harness {
 public:
  /// The simulator's environment: records into its own trace, one shared
  /// draw stream. `sim` and `graph` must outlive the harness.
  Harness(sim::Simulator& sim, const graph::ConflictGraph& graph, HarnessOptions opt = {});

  /// A wall-clock engine's environment (rt, proc): records into `sink`
  /// (the engine's recorder), one draw stream per process from `seed`.
  /// `engine`, `sink` and `graph` must outlive the harness.
  Harness(sim::TransportIface& engine, TraceSink& sink, std::uint64_t seed,
          const graph::ConflictGraph& graph, HarnessOptions opt = {});

  Harness(const Harness&) = delete;  // sink_ may point into this object
  Harness& operator=(const Harness&) = delete;

  /// Take over hunger/eat-duration driving and trace recording for `d`.
  /// `d` must already be registered with the engine and correspond to a
  /// vertex of the conflict graph. Call before the run starts.
  void manage(Diner* d);

  /// Mark a process as never becoming hungry (paper: "processes may think
  /// forever"). Takes effect for hunger decisions after the current one.
  /// Sim only: the set is read in every owner's context.
  void set_think_forever(sim::ProcessId p, bool v);

  /// Stop generating *new* hungry sessions at/after time `t` (drain mode;
  /// the load harness sets 0). Call before the run starts.
  void stop_hunger_after(sim::Time t) { hunger_deadline_ = t; }

  /// Hooks, each run in the process's own context: when it starts eating
  /// (the daemon layer runs one step of the scheduled protocol inside the
  /// critical section), when it stops eating (the work-queue facade and
  /// the load harness decide whether to go hungry again), and when it
  /// recovers from a crash (the load harness restarts what died with the
  /// old incarnation). Set before the run starts.
  void set_eat_hook(std::function<void(sim::ProcessId)> hook) { eat_hook_ = std::move(hook); }
  void set_exit_hook(std::function<void(sim::ProcessId)> hook) { exit_hook_ = std::move(hook); }
  void set_recover_hook(std::function<void(sim::ProcessId)> hook) {
    recover_hook_ = std::move(hook);
  }

  /// Host one `Module` (heartbeat, ping-pong or accrual) per managed
  /// diner, its neighbors from the conflict graph, and attach each to
  /// `detector`, that module's facade. Call after every diner is managed,
  /// before the run starts. The facade's attach map is read-only once the
  /// run starts and each module is confined to its host's context, so
  /// this is race-free on the threaded engine as is.
  template <typename Module, typename Detector>
  void install_modules(Detector& detector, const typename Module::Params& params) {
    for (Diner* d : diners_) {
      auto module = std::make_unique<Module>(graph_.neighbors(d->id()), params);
      detector.attach(d->id(), module.get());
      d->host_fd_module(std::move(module));
    }
  }

  /// The managed diner for process `p` (nullptr if unmanaged).
  [[nodiscard]] Diner* diner(sim::ProcessId p) const {
    auto i = static_cast<std::size_t>(p);
    return i < by_id_.size() ? by_id_[i] : nullptr;
  }

  [[nodiscard]] sim::TransportIface& engine() { return engine_; }
  [[nodiscard]] const graph::ConflictGraph& graph() const { return graph_; }

  // -- sim only ------------------------------------------------------------

  /// The records (empty on an engine that supplied its own sink).
  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  /// Crash `p` at absolute time `at` (forwarded to the simulator).
  void schedule_crash(sim::ProcessId p, sim::Time at) { sim_->schedule_crash(p, at); }
  /// Run the simulation to absolute time `t` and clip the trace there.
  void run_until(sim::Time t);
  /// Per-process crash times from the simulator (-1 = correct), indexed by
  /// ProcessId; suitable for `check_wait_freedom`.
  [[nodiscard]] std::vector<sim::Time> crash_times() const;

  // -- latency -------------------------------------------------------------

  /// Shape of the hungry→eat latency histogram on every engine, in ticks.
  static constexpr double kLatencyLo = 0.0;
  static constexpr double kLatencyHi = 5000.0;
  static constexpr std::size_t kLatencyBins = 50;

  /// Wire scheduling telemetry into `reg` (the sim's registry; detached by
  /// default, zero cost until called): "dining.hungry_latency" — hungry→eat
  /// waits; "dining.meals" — eat sessions started; and
  /// "dining.neighbor_hungry_eats" — eats granted while ≥1 neighbor was
  /// already hungry, one count per such neighbor (each is one overtake
  /// opportunity, the quantity ◇k-BW / P4 bounds per session). The last
  /// reads the neighbors' clocks, so it needs one-event-at-a-time
  /// execution. The registry must outlive the harness's use of it.
  void attach_metrics(obs::MetricsRegistry& reg);

  /// Record hungry→eat waits without a registry (rt): the histogram is
  /// striped by process id across a few mutexes, so 10⁵ concurrent diners
  /// never funnel through one lock. Call before the run starts.
  void record_latency();
  [[nodiscard]] bool latency_recorded() const { return !latency_.empty(); }
  /// Every stripe merged into one snapshot; safe to call live (each stripe
  /// is copied under its own mutex). An empty [0, 1) histogram when
  /// latency is not recorded.
  [[nodiscard]] obs::Histogram latency_histogram() const;

 private:
  Harness(sim::TransportIface& engine, sim::Simulator* sim, TraceSink* sink,
          const graph::ConflictGraph& graph, HarnessOptions opt);

  /// 16 stripes: enough that two shards rarely contend, few enough that a
  /// merged snapshot is a handful of lock/copy rounds. A power of two.
  static constexpr std::size_t kLatencyStripes = 16;
  struct LatencyStripe {
    mutable std::mutex mu;
    obs::Histogram own{kLatencyLo, kLatencyHi, kLatencyBins};
    obs::Histogram* hist = &own;  ///< the registry's, when attached
  };

  void on_diner_event(Diner& d, TraceEventKind kind);
  void track_latency(sim::ProcessId p, TraceEventKind kind, sim::Time now);
  void schedule_next_hunger(Diner& d, sim::Time delay);
  /// The stream `p`'s durations come from: the one shared stream on the
  /// sim, `p`'s own elsewhere.
  sim::Rng& draws(sim::ProcessId p) {
    return *draws_[draws_.size() == 1 ? 0 : static_cast<std::size_t>(p)];
  }

  sim::TransportIface& engine_;
  sim::Simulator* sim_;  ///< null on rt and proc
  Trace trace_;          ///< the sim's records
  TraceSink& sink_;      ///< trace_ on the sim, the engine's recorder elsewhere
  const graph::ConflictGraph& graph_;
  HarnessOptions opt_;
  std::vector<std::unique_ptr<sim::Rng>> draws_;
  std::vector<Diner*> diners_;  // in managed order
  std::vector<Diner*> by_id_;   // indexed by ProcessId
  std::function<void(sim::ProcessId)> eat_hook_;
  std::function<void(sim::ProcessId)> exit_hook_;
  std::function<void(sim::ProcessId)> recover_hook_;
  std::unordered_set<sim::ProcessId> think_forever_;
  sim::Time hunger_deadline_ = -1;  ///< -1 = unlimited
  /// Hungry-since clock per process (-1 = no open session), kept while
  /// latency is recorded; element p is touched only in p's context.
  std::vector<sim::Time> hungry_since_;
  /// Empty until attach_metrics (one stripe: the registry's histogram) or
  /// record_latency (kLatencyStripes own ones).
  std::vector<std::unique_ptr<LatencyStripe>> latency_;
  obs::Counter* meals_ = nullptr;
  obs::Counter* neighbor_hungry_eats_ = nullptr;
};

}  // namespace ekbd::dining
