/// \file monitors.hpp
/// Online invariant monitors: streaming observers for the paper's safety
/// and resource properties, running *during* the simulation.
///
/// Each monitor mirrors one post-hoc verdict incrementally:
///
///  * ForkUniquenessMonitor (P1) — at most one fork per undirected edge
///    in transit, from the simulator's event stream (EventSink);
///  * ExclusionMonitor (P2/◇WX) — the exact streaming transcription of
///    dining::check_exclusion, from the scheduling trace (TraceObserver);
///  * ChannelBoundMonitor (P6) — per-edge in-flight occupancy vs. the
///    paper's ≤4 bound, from the network books (NetworkWatch);
///  * QuiescenceMonitor (P7) — last-send times and post-crash sends per
///    target, from the same watch.
///
/// The intended deployment is a MonitorHub wired to a Scenario
/// (Config::observability); `MonitorHub::agreement_failures` then
/// cross-checks every monitor against the post-hoc checkers/books — the
/// fuzz suite runs that comparison on every run, which is what makes the
/// online verdicts trustworthy.
///
/// Monitors observe and never mutate: none of them re-enters the
/// simulator, the network or the trace.
///
/// The rt collector feeds every merged record through these hooks on one
/// thread, so their state is dense: per process id (exclusion,
/// quiescence) and per edge of the graph the monitor was built with
/// (forks, channels, through an EdgeIndex). Only pairs outside that
/// graph pay for a hash lookup.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dining/checkers.hpp"
#include "dining/trace.hpp"
#include "graph/graph.hpp"
#include "sim/event_log.hpp"
#include "sim/network.hpp"

namespace ekbd::obs {

/// Dense numbering of the undirected edges of one graph: a CSR copy taken
/// at construction, never a pointer to a live graph. `slot(a, b)` names
/// the edge {a, b} in either direction by a number in [0, num_slots()),
/// or kNoSlot for a pair outside the graph: churn-added edges, an
/// external kNoProcess sender, ids past n.
class EdgeIndex {
 public:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  explicit EdgeIndex(const graph::ConflictGraph& g);

  [[nodiscard]] std::uint32_t slot(sim::ProcessId a, sim::ProcessId b) const {
    const auto row = static_cast<std::size_t>(a);
    if (row >= offsets_.size() - 1) return kNoSlot;  // also catches a < 0
    const auto first = entries_.begin() + offsets_[row];
    const auto last = entries_.begin() + offsets_[row + 1];
    const auto it = std::lower_bound(
        first, last, b, [](const Entry& e, sim::ProcessId q) { return e.nbr < q; });
    return it != last && it->nbr == b ? it->slot : kNoSlot;
  }
  [[nodiscard]] std::size_t num_slots() const { return entries_.size() / 2; }

 private:
  struct Entry {
    sim::ProcessId nbr;  ///< sorted within a row
    std::uint32_t slot;  ///< kept beside nbr: one cache line per lookup
  };
  std::vector<std::uint32_t> offsets_;  ///< row starts, n + 1 entries
  std::vector<Entry> entries_;
};

/// One `T` per undirected pair: a dense slot per edge of the initial
/// graph, and one hash-map spill for every other pair.
template <typename T>
class EdgeTable {
 public:
  explicit EdgeTable(const graph::ConflictGraph& g) : index_(g), dense_(index_.num_slots()) {}

  /// The pair's value, value-initialized on first touch.
  T& at(sim::ProcessId a, sim::ProcessId b) {
    const std::uint32_t s = index_.slot(a, b);
    return s != EdgeIndex::kNoSlot ? dense_[s] : spill_[key(a, b)];
  }
  /// The pair's value, or nullptr if a spilled pair was never touched.
  [[nodiscard]] const T* find(sim::ProcessId a, sim::ProcessId b) const {
    const std::uint32_t s = index_.slot(a, b);
    if (s != EdgeIndex::kNoSlot) return &dense_[s];
    const auto it = spill_.find(key(a, b));
    return it == spill_.end() ? nullptr : &it->second;
  }
  /// Visit every value: each edge slot (touched or not), then the spill.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const T& v : dense_) fn(v);
    for (const auto& [k, v] : spill_) fn(v);
  }

 private:
  static std::uint64_t key(sim::ProcessId a, sim::ProcessId b) {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  EdgeIndex index_;
  std::vector<T> dense_;
  std::unordered_map<std::uint64_t, T> spill_;
};

/// P1: per undirected edge, at most one core::Fork in transit. Counts
/// fork sends/deliveries from the logged event stream; a second fork
/// entering a channel that already holds one is a violation.
class ForkUniquenessMonitor final : public sim::EventSink {
 public:
  struct Violation {
    sim::Time at = 0;
    sim::ProcessId a = sim::kNoProcess;
    sim::ProcessId b = sim::kNoProcess;
    int in_transit = 0;  ///< forks in flight on the edge after the send
  };

  /// `g` is the initial graph; forks on churn-added edges count too.
  explicit ForkUniquenessMonitor(const graph::ConflictGraph& g) : in_transit_(g) {}

  void on_event(const sim::LoggedEvent& ev) override;

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  /// Forks currently in transit on the undirected edge {a, b}.
  [[nodiscard]] int in_transit(sim::ProcessId a, sim::ProcessId b) const;
  [[nodiscard]] std::uint64_t fork_sends() const { return fork_sends_; }

 private:
  EdgeTable<int> in_transit_;
  std::vector<Violation> violations_;
  std::uint64_t fork_sends_ = 0;
};

/// P2 (◇WX): streaming transcription of dining::check_exclusion — both
/// run one dining::ExclusionState, fed one trace event at a time.
/// `violations()` must equal check_exclusion's output elementwise on the
/// finished trace (the agreement check asserts exactly that).
class ExclusionMonitor final : public dining::TraceObserver {
 public:
  /// `g` is the *initial* graph; edge churn arrives as kEdgeAdded /
  /// kEdgeRemoved trace events and moves the same DynamicAdjacency
  /// overlay check_exclusion uses, so the two stay transcriptions.
  explicit ExclusionMonitor(const graph::ConflictGraph& g) : state_(g) {}

  void on_trace_event(const dining::TraceEvent& ev) override {
    state_.apply(ev, violations_);
  }

  [[nodiscard]] const std::vector<dining::ExclusionViolation>& violations() const {
    return violations_;
  }
  /// Processes currently eating (monitor's live view).
  [[nodiscard]] std::size_t eating_now() const { return state_.eating_now(); }

 private:
  dining::ExclusionState state_;
  std::vector<dining::ExclusionViolation> violations_;
};

/// P6: per-(layer, undirected pair) in-flight high-water marks, streamed
/// from the network books. Dining-layer pairs exceeding the paper's bound
/// of 4 are recorded as violations with the time the excess first
/// happened — something the post-hoc books cannot reconstruct.
class ChannelBoundMonitor final {
 public:
  struct Violation {
    sim::MsgLayer layer = sim::MsgLayer::kDining;
    sim::ProcessId a = sim::kNoProcess;
    sim::ProcessId b = sim::kNoProcess;
    int in_transit = 0;
    sim::Time at = 0;
  };

  /// The §7 bound for the dining layer.
  static constexpr int kDiningBound = 4;

  /// `g` is the initial graph; other pairs (churn, external senders)
  /// are tracked too.
  explicit ChannelBoundMonitor(const graph::ConflictGraph& g) : maxima_(g) {}

  void on_high_water(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to,
                     int in_transit, sim::Time at);

  /// High-water mark seen for the pair on `layer` (0 if no traffic).
  [[nodiscard]] int max_in_transit(sim::MsgLayer layer, sim::ProcessId a,
                                   sim::ProcessId b) const;
  /// Largest high-water mark over all pairs of `layer`.
  [[nodiscard]] int max_in_transit_any(sim::MsgLayer layer) const;
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }

 private:
  EdgeTable<std::array<int, sim::kNumMsgLayers>> maxima_;
  std::vector<Violation> violations_;
};

/// P7: streaming mirror of the network's quiescence books — last send
/// time and number of post-crash sends per (layer, target).
class QuiescenceMonitor final {
 public:
  /// Books for processes 0..n-1; other targets go to a spill map.
  explicit QuiescenceMonitor(std::size_t n) : dense_(n) {}

  void on_send(sim::MsgLayer layer, sim::ProcessId to, sim::Time at, bool target_crashed);

  [[nodiscard]] sim::Time last_send_to(sim::ProcessId target, sim::MsgLayer layer) const;
  [[nodiscard]] std::uint64_t sends_to_crashed(sim::ProcessId target,
                                               sim::MsgLayer layer) const;

 private:
  struct PerTarget {
    sim::Time last_send = -1;
    std::uint64_t after_crash = 0;
  };
  using Books = std::array<PerTarget, sim::kNumMsgLayers>;

  [[nodiscard]] const Books* find(sim::ProcessId target) const;

  std::vector<Books> dense_;
  std::unordered_map<sim::ProcessId, Books> spill_;
};

/// One object wearing all three observer hats, fanning out to the four
/// monitors. Wire it with:
///
///     sim.set_event_sink(&hub);
///     sim.network().set_watch(&hub);
///     harness.trace().set_observer(&hub);
///
/// (Scenario does exactly this when Config::observability is set.)
class MonitorHub final : public sim::EventSink,
                         public sim::NetworkWatch,
                         public dining::TraceObserver {
 public:
  explicit MonitorHub(const graph::ConflictGraph& g)
      : forks_(g), exclusion_(g), channels_(g), quiescence_(g.size()) {}

  // EventSink
  void on_event(const sim::LoggedEvent& ev) override { forks_.on_event(ev); }
  // NetworkWatch
  void on_send(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to, sim::Time at,
               bool target_crashed) override {
    (void)from;
    quiescence_.on_send(layer, to, at, target_crashed);
  }
  void on_high_water(sim::MsgLayer layer, sim::ProcessId from, sim::ProcessId to,
                     int in_transit, sim::Time at) override {
    channels_.on_high_water(layer, from, to, in_transit, at);
  }
  // TraceObserver
  void on_trace_event(const dining::TraceEvent& ev) override {
    exclusion_.on_trace_event(ev);
  }

  [[nodiscard]] const ForkUniquenessMonitor& forks() const { return forks_; }
  [[nodiscard]] const ExclusionMonitor& exclusion() const { return exclusion_; }
  [[nodiscard]] const ChannelBoundMonitor& channels() const { return channels_; }
  [[nodiscard]] const QuiescenceMonitor& quiescence() const { return quiescence_; }

  /// True when no monitor holds a violation.
  [[nodiscard]] bool clean() const {
    return forks_.violations().empty() && exclusion_.violations().empty() &&
           channels_.violations().empty();
  }

  /// Cross-check every monitor against the post-hoc sources of truth:
  /// the exclusion monitor against dining::check_exclusion (elementwise),
  /// the channel monitor against the network's per-pair high-water books,
  /// the quiescence monitor against last_send_to / sends_to_crashed, and
  /// fork uniqueness against P1 itself. Returns "" on full agreement,
  /// otherwise a newline-separated description of every mismatch. The
  /// fuzz suite calls this after every run.
  [[nodiscard]] std::string agreement_failures(const dining::Trace& trace,
                                               const graph::ConflictGraph& g,
                                               const sim::Network& net) const;

  /// Compact JSON summary of monitor verdicts for telemetry lines.
  [[nodiscard]] std::string to_json() const;

 private:
  ForkUniquenessMonitor forks_;
  ExclusionMonitor exclusion_;
  ChannelBoundMonitor channels_;
  QuiescenceMonitor quiescence_;
};

}  // namespace ekbd::obs
