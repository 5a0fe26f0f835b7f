/// \file link_fault_model.hpp
/// Composable channel adversary: probabilistic loss, duplication,
/// reordering, and scheduled partitions.
///
/// The paper assumes reliable FIFO channels; real links are fair-lossy at
/// best. This model is the adversary half of the net/ subsystem on every
/// engine: the simulator's adversary (Simulator::set_adversary), one per
/// sender on the rt engine, and one per node at the proc engine's socket
/// boundary. It decides, per physical send and from its own explicitly
/// seeded Rng, whether the message is lost in flight, duplicated, or
/// exempted from the per-channel FIFO horizon — and whether the (from, to)
/// link is currently cut by a scheduled partition. The decisions are a
/// pure function of (seed, query order), so two runs of the same scenario
/// replay the same fault schedule; every engine records each fault in its
/// event log (kLoss / kDuplicate / kPartitionLoss), and the sim also
/// surfaces them into the dining trace via the observer hook.
///
/// Fairness caveat (what "fair-lossy" buys): drops are independent coin
/// flips with probability < 1, so a message retransmitted forever is
/// delivered eventually with probability 1 — exactly the premise the ARQ
/// layer (reliable_transport.hpp) needs to rebuild reliable FIFO channels.
/// Permanent partitions deliberately violate it; see docs/MODEL.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/net_hooks.hpp"
#include "sim/rng.hpp"

namespace ekbd::net {

using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

/// Per-link fault probabilities (applied to each direction independently).
struct LinkFaultParams {
  double drop_prob = 0.0;     ///< lose the message in flight
  double dup_prob = 0.0;      ///< deliver an extra, independently delayed copy
  double reorder_prob = 0.0;  ///< ignore the per-channel FIFO horizon
};

/// Cut every link between `side` and its complement during [from, until).
/// `until < 0` means the partition never heals (permanent — outside the
/// paper's guarantee envelope; see docs/MODEL.md).
struct Partition {
  std::vector<ProcessId> side;
  Time from = 0;
  Time until = -1;
};

/// Cut one undirected edge {a, b} during [from, until) (`until < 0` =
/// permanent).
struct EdgeCut {
  ProcessId a = ekbd::sim::kNoProcess;
  ProcessId b = ekbd::sim::kNoProcess;
  Time from = 0;
  Time until = -1;
};

/// A run's scheduled cuts. The rt engine's per-sender models share one
/// copy, which nobody changes once the run has started.
struct CutSchedule {
  std::vector<Partition> partitions;
  std::vector<EdgeCut> edge_cuts;
};

/// Seed of sender `self`'s fault coins on the engines that give every
/// sender its own model (rt, proc): forked per id from the master seed
/// under a salt, so each sender's schedule is seed-deterministic and
/// independent of the others and of the actor rng streams.
[[nodiscard]] std::uint64_t fault_seed(std::uint64_t seed, ProcessId self);

class LinkFaultModel final : public ekbd::sim::ChannelAdversary {
 public:
  /// One observed fault, pushed to the observer (if any) as it happens —
  /// the scenario layer uses this to record faults in the dining trace.
  struct FaultEvent {
    enum class Kind { kDrop, kDuplicate, kReorder, kPartitionDrop };
    Kind kind = Kind::kDrop;
    ProcessId from = ekbd::sim::kNoProcess;
    ProcessId to = ekbd::sim::kNoProcess;
    Time at = 0;
  };
  using Observer = std::function<void(const FaultEvent&)>;

  /// \param seed     explicit seed for the fault coin flips — never taken
  ///                 from an ambient default (seed-determinism audit).
  /// \param defaults fault probabilities for links without an override
  /// \param cuts     the cut schedule, shared with other models or own
  LinkFaultModel(std::uint64_t seed, LinkFaultParams defaults = {},
                 std::shared_ptr<CutSchedule> cuts = std::make_shared<CutSchedule>());

  /// Override the fault probabilities of undirected link {a, b}.
  void set_link_params(ProcessId a, ProcessId b, LinkFaultParams params);

  void add_partition(Partition p) { cuts_->partitions.push_back(std::move(p)); }
  void add_edge_cut(EdgeCut c) { cuts_->edge_cuts.push_back(c); }

  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Is the directed link (from, to) currently cut by any partition or
  /// edge cut? (Symmetric: cuts apply to both directions.)
  [[nodiscard]] bool cut(ProcessId from, ProcessId to, Time now) const;

  // -- sim::ChannelAdversary ---------------------------------------------

  ekbd::sim::FaultDecision on_send(ProcessId from, ProcessId to, MsgLayer layer,
                                   Time now) override;

  // -- instrumentation ---------------------------------------------------

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t reorders() const { return reorders_; }
  [[nodiscard]] std::uint64_t partition_drops() const { return partition_drops_; }
  [[nodiscard]] std::uint64_t sends_seen() const { return sends_seen_; }

  /// Latest heal time across all finite partitions/edge cuts (0 if none);
  /// -1 if any cut is permanent. After this time (when >= 0) the network
  /// is fair-lossy everywhere, so ARQ guarantees kick back in.
  [[nodiscard]] Time last_heal_time() const;

 private:
  [[nodiscard]] const LinkFaultParams& params_for(ProcessId a, ProcessId b) const;
  void notify(FaultEvent::Kind kind, ProcessId from, ProcessId to, Time at);

  static std::uint64_t undirected_key(ProcessId a, ProcessId b) {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  ekbd::sim::Rng rng_;
  LinkFaultParams defaults_;
  std::unordered_map<std::uint64_t, LinkFaultParams> per_link_;
  std::shared_ptr<CutSchedule> cuts_;
  Observer observer_;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reorders_ = 0;
  std::uint64_t partition_drops_ = 0;
  std::uint64_t sends_seen_ = 0;
};

}  // namespace ekbd::net
