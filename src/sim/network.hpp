/// \file network.hpp
/// Channel bookkeeping: FIFO order, per-edge occupancy, per-layer traffic
/// accounting.
///
/// The Network does not schedule anything itself — the Simulator samples a
/// delay, asks the Network to stamp the message (which enforces per-channel
/// FIFO by never letting a later send undercut an earlier delivery), and
/// schedules the delivery event. Keeping the books here lets the property
/// checkers read off exactly the quantities the paper bounds in §7:
///
///  * at most 4 dining messages in transit per undirected neighbor pair;
///  * quiescence — dining traffic towards a crashed process stops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::sim {

/// Running statistics for one undirected process pair and one layer.
struct ChannelStats {
  int in_transit = 0;       ///< messages currently in flight (both directions)
  int max_in_transit = 0;   ///< high-water mark over the whole run
  std::uint64_t total = 0;  ///< messages ever sent on this pair
};

/// Streaming observer of channel bookkeeping (the §7 monitors ride on
/// this). Notified from stamp()/logical_sent(), i.e. *exactly* when the
/// books change — an observer that mirrors the callbacks agrees with the
/// Network's own books by construction. Implementations must not touch
/// the network or the simulator from inside a callback.
class NetworkWatch {
 public:
  virtual ~NetworkWatch() = default;
  /// Every accounted send (physical in raw mode, logical per
  /// logical_sent in transport mode, plus the transport's own physical
  /// segments on MsgLayer::kTransport).
  virtual void on_send(MsgLayer layer, ProcessId from, ProcessId to, Time at,
                       bool target_crashed) = 0;
  /// The undirected pair's in-transit count just set a new high-water
  /// mark (`in_transit` is the new maximum).
  virtual void on_high_water(MsgLayer layer, ProcessId from, ProcessId to, int in_transit,
                             Time at) = 0;
};

class Network {
 public:
  /// Stamp an outgoing message: assigns `deliver_at` respecting FIFO order
  /// on the (from, to) channel given the sampled `latency`, assigns the
  /// global sequence number, and updates occupancy/traffic books.
  /// `target_crashed` marks sends addressed to an already-crashed process
  /// (they still occupy the channel until their delivery time, when the
  /// simulator drops them). With `fifo` false (model-violation
  /// experiments only) the delivery time ignores the channel's FIFO
  /// horizon and may undercut earlier messages.
  void stamp(Message& m, Time now, Time latency, bool target_crashed, bool fifo = true);

  /// Record that a message reached its delivery time. This MUST be called
  /// for every stamped message exactly once — on normal delivery, on
  /// drop-at-delivery at a crashed target, and on adversarial loss — so
  /// channel occupancy always returns to 0 once the air clears.
  void delivered(const Message& m);

  // -- logical accounting (net::ReliableTransport) ----------------------
  //
  // When an ARQ transport is interposed, physical segments travel on
  // MsgLayer::kTransport while the *logical* messages the paper's §7
  // bounds are about (≤4 dining messages per edge, quiescence toward
  // crashed processes) are tracked here: `logical_sent` when the sender
  // hands a message to the transport, `logical_delivered` when the
  // receiving endpoint releases it to the actor, `logical_dropped` when
  // the sender abandons it (peer crashed and suspected). The same books
  // back both paths, so checkers read `channel()` / `max_in_transit_any`
  // / `sends_to_crashed` identically in raw and transport modes.

  /// Account a logical send on `layer`; returns its global sequence number.
  std::uint64_t logical_sent(ProcessId from, ProcessId to, MsgLayer layer, Time now,
                             bool target_crashed);

  /// A logical message was released to the receiving actor.
  void logical_delivered(ProcessId from, ProcessId to, MsgLayer layer);

  /// A logical message was abandoned by the transport (settles occupancy
  /// exactly like a drop-at-delivery).
  void logical_dropped(ProcessId from, ProcessId to, MsgLayer layer) {
    logical_delivered(from, to, layer);
  }

  /// Stats for the undirected pair {a, b} on `layer` (zeroes if no traffic).
  [[nodiscard]] ChannelStats channel(ProcessId a, ProcessId b, MsgLayer layer) const;

  /// Largest `max_in_transit` over all pairs for `layer`.
  /// For MsgLayer::kDining the paper proves this is at most 4.
  [[nodiscard]] int max_in_transit_any(MsgLayer layer) const;

  /// Total messages ever sent on `layer`.
  [[nodiscard]] std::uint64_t total_sent(MsgLayer layer) const;

  /// Time of the most recent send addressed to `target` on `layer`
  /// (-1 if none).
  [[nodiscard]] Time last_send_to(ProcessId target, MsgLayer layer) const;

  /// Number of messages addressed to `target` on `layer` *after* the
  /// target had crashed. Bounded for the dining layer (quiescence, §7);
  /// unbounded for heartbeats (◇P must monitor forever).
  [[nodiscard]] std::uint64_t sends_to_crashed(ProcessId target, MsgLayer layer) const;

  /// How many distinct undirected pairs ever communicated on `layer`.
  [[nodiscard]] std::size_t active_pairs(MsgLayer layer) const {
    return active_pairs_[static_cast<int>(layer)];
  }

  /// Visit every undirected pair that communicated on `layer`, in
  /// ascending (a, b) order (deterministic — snapshot/agreement code
  /// iterates this). a <= b in every callback; a pair with a kNoProcess
  /// end comes last, as (kNoProcess, b).
  void for_each_pair(MsgLayer layer,
                     const std::function<void(ProcessId a, ProcessId b,
                                              const ChannelStats&)>& fn) const;

  /// Attach (or detach with nullptr) a streaming watch. Not owned. When
  /// detached the books cost exactly what they did before the watch
  /// existed (one null check per stamp).
  void set_watch(NetworkWatch* watch) { watch_ = watch; }

 private:
  static constexpr int kLayers = kNumMsgLayers;

  /// The books of one undirected pair {lo, hi}: each direction's FIFO
  /// horizon (the latest deliver_at handed out) and the occupancy on
  /// every layer. A layer's entry counts as present once `total` > 0.
  struct PairBooks {
    Time horizon[2] = {0, 0};  ///< [0]: lo → hi, [1]: hi → lo
    ChannelStats stats[kLayers] = {};
  };
  /// One receiver in a sender's row.
  struct Link {
    ProcessId to;
    std::uint32_t pair;  ///< index into pairs_
  };

  struct PerTarget {
    Time last_send = -1;
    std::uint64_t after_crash = 0;
  };

  static std::uint64_t pair_key(ProcessId a, ProcessId b) {
    auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  static constexpr std::uint32_t kNoPair = ~std::uint32_t{0};
  /// Ids that get a row and a per-target slot. kNoProcess, and an id no
  /// engine hands out but a damaged log record can carry, spill instead
  /// of sizing the dense books by it.
  static constexpr std::uint32_t kRowIds = 1U << 20;
  static bool has_row(ProcessId p) { return static_cast<std::uint32_t>(p) < kRowIds; }
  /// Index of the pair's books in pairs_, or kNoPair if it never
  /// communicated.
  [[nodiscard]] std::uint32_t find_pair(ProcessId from, ProcessId to) const;
  /// The pair's books, created (in both ends' rows) on first use.
  PairBooks& books(ProcessId from, ProcessId to) {
    const std::uint32_t pair = find_pair(from, to);
    return pairs_[pair != kNoPair ? pair : add_pair(from, to)];
  }
  std::uint32_t add_pair(ProcessId from, ProcessId to);
  /// Position of the first receiver >= `to` in `row` (row.size() if none).
  static std::size_t lower_bound(const std::vector<Link>& row, ProcessId to);
  PerTarget& target(int li, ProcessId to) {
    std::vector<PerTarget>& books = per_target_[li];
    if (static_cast<std::uint32_t>(to) < books.size()) {
      return books[static_cast<std::size_t>(to)];
    }
    return grow_target(li, to);
  }
  PerTarget& grow_target(int li, ProcessId to);
  [[nodiscard]] const PerTarget* find_target(int li, ProcessId to) const;
  /// Book one send on `layer` of the pair `pb`; shared by stamp() and
  /// logical_sent().
  void count_send(PairBooks& pb, MsgLayer layer, ProcessId from, ProcessId to, Time now,
                  bool target_crashed);

  std::uint64_t next_seq_ = 0;
  std::uint64_t totals_[kLayers] = {};
  std::size_t active_pairs_[kLayers] = {};
  /// Per sender, its receivers sorted by id: a binary search over the
  /// sender's degree finds a channel, with no hashing. A pair sits in
  /// both ends' rows.
  std::vector<std::vector<Link>> rows_;
  std::vector<PairBooks> pairs_;
  /// Pairs with an end outside the rows (see kRowIds), by pair key.
  std::map<std::uint64_t, std::uint32_t> spill_;
  /// Quiescence books per layer, by target id; targets without a row spill.
  std::vector<PerTarget> per_target_[kLayers];
  std::map<ProcessId, PerTarget> target_spill_[kLayers];
  NetworkWatch* watch_ = nullptr;
};

// -- hot-path definitions (inline: once per message event, the calls
// must vanish into the simulator's send/deliver paths) -----------------

inline std::size_t Network::lower_bound(const std::vector<Link>& row, ProcessId to) {
  // Branch-free halving: the select compiles to a conditional move, so a
  // search costs log2(degree) dependent loads and no mispredicted jumps.
  if (row.empty()) return 0;
  std::size_t base = 0;
  std::size_t n = row.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = row[base + half].to < to ? base + half : base;
    n -= half;
  }
  return base + (row[base].to < to ? 1 : 0);
}

inline std::uint32_t Network::find_pair(ProcessId from, ProcessId to) const {
  if (has_row(from) && has_row(to)) {
    if (static_cast<std::size_t>(from) >= rows_.size()) return kNoPair;
    const std::vector<Link>& row = rows_[static_cast<std::size_t>(from)];
    const std::size_t i = lower_bound(row, to);
    return i < row.size() && row[i].to == to ? row[i].pair : kNoPair;
  }
  const auto it = spill_.find(pair_key(from, to));
  return it == spill_.end() ? kNoPair : it->second;
}

inline void Network::count_send(PairBooks& pb, MsgLayer layer, ProcessId from, ProcessId to,
                                Time now, bool target_crashed) {
  const int li = static_cast<int>(layer);
  ++totals_[li];
  ChannelStats& cs = pb.stats[li];
  if (cs.total++ == 0) ++active_pairs_[li];
  ++cs.in_transit;
  const bool high = cs.in_transit > cs.max_in_transit;
  if (high) cs.max_in_transit = cs.in_transit;

  PerTarget& pt = target(li, to);
  pt.last_send = now;
  if (target_crashed) ++pt.after_crash;

  if (watch_ != nullptr) {
    watch_->on_send(layer, from, to, now, target_crashed);
    if (high) watch_->on_high_water(layer, from, to, cs.in_transit, now);
  }
}

inline void Network::stamp(Message& m, Time now, Time latency, bool target_crashed,
                           bool fifo) {
  latency = latency < 1 ? 1 : latency;
  Time deliver_at = now + latency;
  PairBooks& pb = books(m.from, m.to);
  if (fifo) {
    Time& horizon = pb.horizon[m.from < m.to ? 0 : 1];
    if (deliver_at < horizon) deliver_at = horizon;  // FIFO: never undercut
    horizon = deliver_at;
  }

  m.sent_at = now;
  m.deliver_at = deliver_at;
  m.seq = next_seq_++;
  count_send(pb, m.layer, m.from, m.to, now, target_crashed);
}

inline void Network::delivered(const Message& m) {
  logical_delivered(m.from, m.to, m.layer);
}

inline void Network::logical_delivered(ProcessId from, ProcessId to, MsgLayer layer) {
  // Every delivered message was booked on the same pair and layer; a pair
  // never booked on `layer` has nothing in transit to settle.
  const std::uint32_t pair = find_pair(from, to);
  if (pair == kNoPair) return;
  ChannelStats& cs = pairs_[pair].stats[static_cast<int>(layer)];
  if (cs.total != 0) --cs.in_transit;
}

}  // namespace ekbd::sim
