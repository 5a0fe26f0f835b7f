/// \file reliable_transport.hpp
/// ARQ shim: reliable FIFO channels over a fair-lossy, duplicating,
/// reordering network.
///
/// The standard construction (Aspnes, *Notes on Theory of Distributed
/// Systems*; Stenning's protocol): per directed edge the sender numbers
/// logical messages 0, 1, 2, ..., keeps everything unacknowledged in a
/// retransmission queue, and retransmits on a timeout with exponential
/// backoff capped at `rto_max`; the receiver delivers strictly in sequence
/// order (buffering out-of-order arrivals, suppressing duplicates) and
/// answers every data segment with a cumulative acknowledgement. An ack
/// that names the oldest outstanding sequence number while the receiver
/// buffers a later segment (its gap bit) resends that segment at once,
/// once per retransmission round, without waiting for the timer. The
/// dining/doorway/fork layers above see exactly the reliable FIFO channel
/// the paper assumes — loss, duplication and reordering are absorbed here.
///
/// The protocol state machine is engine-agnostic: every interaction with
/// the world goes through `sim::ArqEnv` (sim/net_hooks.hpp), which the
/// simulator, the real-threads runtime and the socket engine each
/// implement. Every process owns one instance, and only that process's
/// context touches it: its senders' `tx` halves and its receivers' `rx`
/// halves are that process's channel state, so no engine needs a lock.
/// `install_arqs` (scenario/scenario.hpp) builds the n instances of a sim
/// or rt run; a proc node builds its one (`NodeEngine::install_arq`).
///
/// Accounting: physical segments travel on MsgLayer::kTransport; the
/// *logical* messages are booked on their own layer via
/// Network::logical_sent / logical_delivered, so the §7 bound (≤ 4 dining
/// messages in transit per edge) and the quiescence checker read off the
/// same Network API in raw and transport modes, and retransmit overhead is
/// the visible difference between the kTransport and logical books.
///
/// Quiescence toward dead peers: a retransmission loop consults the ◇P₁
/// oracle. While the sender suspects the peer it transmits nothing (the
/// loop idles at the capped timeout); if the suspicion is a ◇P₁ mistake it
/// is eventually retracted and retransmission resumes — no logical message
/// to a correct process is ever abandoned. Only when the peer is suspected
/// *and* has actually crashed (crash-stop: it can never return) is the
/// queue discarded and the loop stopped — the ground truth is used purely
/// to garbage-collect state; traffic quiescence is driven by suspicion
/// alone, so a permanently partitioned (live but unreachable) peer also
/// goes quiet as soon as ◇P₁ suspects it.
///
/// Write-off rule: a sender cannot see its peer's receive cursor, so when
/// it discards the queue it books kDrop only for the messages it never put
/// on the wire. A message that was sent but not acknowledged may have been
/// delivered before the peer died; it stays in transit in the books, as a
/// crashed sender's whole queue does. Either way every logical message is
/// settled at most once.
///
/// Retransmit desynchronization: after a partition heals, every cut edge's
/// backoff clock would fire in lockstep (they all saturated at `rto_max`
/// on the same schedule), hammering the just-healed link with a
/// synchronized retransmit storm. `rto_jitter` stretches each armed
/// timeout by an independent per-edge random factor in
/// [1, 1 + rto_jitter] — drawn from a stream seeded by (jitter_seed, edge)
/// only, so the schedule is bit-deterministic per edge for a fixed seed
/// while distinct edges decorrelate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fd/detector.hpp"
#include "sim/net_hooks.hpp"
#include "sim/rng.hpp"

namespace ekbd::net {

using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

// The DataSegment / AckSegment wire structs are defined in
// sim/payload.hpp (every wire type is an alternative of the closed
// sim::Payload variant). A DataSegment carries one logical message per
// segment, nested as (variant tag, raw bytes) via sim::pack_payload.

/// Counters of one ARQ instance, or of a whole run (`sum_stats`).
struct ArqStats {
  std::uint64_t logical_sends = 0;
  std::uint64_t logical_deliveries = 0;
  std::uint64_t physical_data_sends = 0;
  std::uint64_t physical_ack_sends = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_suppressed = 0;
  /// Logical messages written off toward a suspected and crashed peer.
  std::uint64_t abandoned_to_dead = 0;
  /// Highest RTO the exponential backoff ever reached on any edge (0 if
  /// no retransmission round backed off): the "backoff level" telemetry
  /// signal — Params::rto_max here means some link stayed bad long
  /// enough to saturate the cap.
  Time max_rto_reached = 0;

  /// Physical overhead factor: data segments sent per logical message
  /// (1.0 = no retransmissions; loss-free link).
  [[nodiscard]] double overhead() const {
    return logical_sends == 0
               ? 1.0
               : static_cast<double>(physical_data_sends) / static_cast<double>(logical_sends);
  }

  /// Logical messages accepted but neither delivered nor written off
  /// (queued, on the wire, in a reorder buffer, or stranded by a crash).
  /// Meaningful for a whole run: one instance books the sends of its
  /// process and the deliveries to it.
  [[nodiscard]] std::uint64_t logical_in_flight() const {
    return logical_sends - logical_deliveries - abandoned_to_dead;
  }

  ArqStats& operator+=(const ArqStats& o);
};

class ReliableTransport final : public ekbd::sim::Transport {
 public:
  struct Params {
    Time rto_initial = 40;    ///< first retransmission timeout
    double rto_backoff = 2.0; ///< multiplicative backoff per retry
    Time rto_max = 1'500;     ///< backoff cap (also the idle-probe cadence)
    /// Per-edge timeout stretch: each armed timeout is multiplied by an
    /// independent draw from [1, 1 + rto_jitter]. 0 disables (exact
    /// legacy schedule); ~0.3 is plenty to break post-heal storms.
    double rto_jitter = 0.0;
    /// Seed of the per-edge jitter streams (independent of every other
    /// stream in the run; only consulted when rto_jitter > 0).
    std::uint64_t jitter_seed = 1;
  };

  /// One process's ARQ over `env`. The engine must route that process's
  /// covered logical sends into `logical_send` and the physical kTransport
  /// segments addressed to it into `on_physical_deliver`; `env` must
  /// outlive the shim. `detector` (may be null) gates retransmission
  /// quiescence; pass the same oracle the diners use.
  ReliableTransport(ekbd::sim::ArqEnv& env, Params params,
                    const ekbd::fd::FailureDetector* detector = nullptr);

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  // -- sim::Transport ----------------------------------------------------

  /// The ARQ carries the dining and kOther layers. Detector traffic stays
  /// raw: ◇P₁ implementations are loss-tolerant by design, and
  /// retransmitting heartbeats would falsify their timing assumptions.
  [[nodiscard]] bool covers(MsgLayer layer) const override;
  void logical_send(ProcessId from, ProcessId to, const ekbd::sim::Payload& payload,
                    MsgLayer layer) override;
  bool on_physical_deliver(const ekbd::sim::Message& m) override;

  // -- instrumentation ---------------------------------------------------

  [[nodiscard]] const ArqStats& stats() const { return stats_; }

  /// Time of the most recent data transmission (first send or retransmit)
  /// on one directed edge this instance sends on; -1 if it never carried
  /// data. The quiescence checks assert it stops advancing once ◇P₁
  /// suspects the peer.
  [[nodiscard]] Time last_data_send(ProcessId from, ProcessId to) const;

  /// Every retransmission-timer arming on one directed edge, in order
  /// (the armed *delay*, after jitter). Test instrumentation for the
  /// desynchronization property; cheap enough to keep always on (a few
  /// words per timer arm, bounded by the run length).
  [[nodiscard]] const std::vector<Time>& armed_delays(ProcessId from, ProcessId to) const;

 private:
  struct PendingMsg {
    ekbd::sim::Payload payload;
    MsgLayer layer = MsgLayer::kOther;
    std::uint64_t logical_seq = 0;
    Time logical_sent_at = 0;
    bool on_wire = false;  ///< transmitted at least once (sender side)
  };

  /// Sender half of one directed edge.
  struct EdgeTx {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, PendingMsg> unacked;  // seq -> message
    Time rto = 0;              ///< current timeout (0 = not initialized)
    std::uint64_t timer_gen = 0;  ///< invalidates stale scheduled closures
    bool timer_armed = false;
    /// The head last resent on a gap ack (kNoSeq: none since the last
    /// retransmission round). A gap ack resends each head once per round,
    /// so a burst of later segments, or a duplicate overtaking the head,
    /// costs one resend rather than one per ack.
    std::uint64_t fast_resent = kNoSeq;
    Time last_data_send = -1;
    /// Per-edge jitter stream, created on first arm (rto_jitter > 0 only):
    /// seeded from (jitter_seed, edge) so the stretch sequence depends on
    /// nothing but the seed and this edge's own arm count.
    std::unique_ptr<ekbd::sim::Rng> jitter;
    std::vector<Time> armed_delays;  ///< instrumentation (see armed_delays())
  };

  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  /// Receiver half of one directed edge.
  struct EdgeRx {
    std::uint64_t expected = 0;                    // next in-order seq
    std::map<std::uint64_t, PendingMsg> buffered;  // out-of-order arrivals
  };

  static std::uint64_t edge_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(to));
  }

  void transmit(ProcessId from, ProcessId to, EdgeTx& tx, std::uint64_t seq);
  void arm_timer(ProcessId from, ProcessId to, EdgeTx& tx, Time delay);
  void on_timer(ProcessId from, ProcessId to, std::uint64_t gen);
  void handle_data(const ekbd::sim::Message& m, const DataSegment& ds);
  void handle_ack(const ekbd::sim::Message& m, const AckSegment& ack);
  void abandon(ProcessId from, ProcessId to, EdgeTx& tx);
  [[nodiscard]] bool suspected(ProcessId owner, ProcessId target) const;
  [[nodiscard]] Time jittered(EdgeTx& tx, std::uint64_t key, Time delay);

  ekbd::sim::ArqEnv* env_;
  Params params_;
  const ekbd::fd::FailureDetector* detector_;
  std::unordered_map<std::uint64_t, EdgeTx> tx_;
  std::unordered_map<std::uint64_t, EdgeRx> rx_;
  ArqStats stats_;
};

/// The run-wide counters of a sim or rt run's per-process ARQs.
[[nodiscard]] ArqStats sum_stats(const std::vector<std::unique_ptr<ReliableTransport>>& arqs);

}  // namespace ekbd::net
