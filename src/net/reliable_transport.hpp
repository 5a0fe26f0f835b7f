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
/// that repeats the oldest outstanding sequence number resends that
/// segment at once, without waiting for the timer. The
/// dining/doorway/fork layers above see exactly the reliable FIFO channel
/// the paper assumes — loss, duplication and reordering are absorbed here.
///
/// The protocol state machine is engine-agnostic: every interaction with
/// the world goes through `ArqEnv` (net/arq_env.hpp), so the same shim
/// runs under the deterministic simulator, the real-threads runtime
/// (rt::RtArq) and the multi-process socket engine (netproc::NodeEngine);
/// the lossy scenarios of all three install it the same way.
/// The Simulator constructor below builds the sim adapter internally and
/// installs itself with `set_transport`, preserving the historical
/// behavior bit for bit.
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
#include <unordered_set>
#include <vector>

#include "fd/detector.hpp"
#include "net/arq_env.hpp"
#include "sim/net_hooks.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ekbd::net {

using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

// The DataSegment / AckSegment wire structs are defined in
// sim/payload.hpp (every wire type is an alternative of the closed
// sim::Payload variant). A DataSegment carries one logical message per
// segment, nested as (variant tag, raw bytes) via sim::pack_payload.

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

  /// Installs itself on `sim` (set_transport). `detector` (may be null)
  /// gates retransmission quiescence; pass the same oracle the diners use.
  ReliableTransport(ekbd::sim::Simulator& sim, Params params,
                    const ekbd::fd::FailureDetector* detector = nullptr);

  /// Engine-agnostic: run the ARQ over an arbitrary environment (rt, the
  /// socket engine, tests). The caller owns the wiring — it must route
  /// covered logical sends into `logical_send` and physical kTransport
  /// deliveries into `on_physical_deliver`; `env` must outlive the shim.
  ReliableTransport(ArqEnv& env, Params params,
                    const ekbd::fd::FailureDetector* detector = nullptr);

  ~ReliableTransport() override;

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

  [[nodiscard]] std::uint64_t logical_sends() const { return logical_sends_; }
  [[nodiscard]] std::uint64_t logical_deliveries() const { return logical_deliveries_; }
  [[nodiscard]] std::uint64_t physical_data_sends() const { return physical_data_sends_; }
  [[nodiscard]] std::uint64_t physical_ack_sends() const { return physical_ack_sends_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  [[nodiscard]] std::uint64_t abandoned_to_dead() const { return abandoned_to_dead_; }

  /// Highest RTO the exponential backoff ever reached on any edge (0 if
  /// no retransmission round backed off): the "backoff level" telemetry
  /// signal — params_.rto_max here means some link stayed bad long
  /// enough to saturate the cap.
  [[nodiscard]] Time max_rto_reached() const { return max_rto_reached_; }

  /// Physical overhead factor: data segments sent per logical message
  /// (1.0 = no retransmissions; loss-free link).
  [[nodiscard]] double overhead() const {
    return logical_sends_ == 0
               ? 1.0
               : static_cast<double>(physical_data_sends_) /
                     static_cast<double>(logical_sends_);
  }

  /// Time of the most recent *data* transmission (first send or
  /// retransmit) toward `to` from anyone; -1 if none. The quiescence
  /// checks assert this stops advancing once ◇P₁ suspects a dead peer.
  [[nodiscard]] Time last_data_send_to(ProcessId to) const;

  /// Same clock for one directed edge only (-1 if it never carried data) —
  /// lets partition tests watch a single cut link while same-side traffic
  /// to the same receiver continues.
  [[nodiscard]] Time last_data_send(ProcessId from, ProcessId to) const;

  /// Logical messages accepted but neither delivered nor abandoned yet
  /// (in the sender queue or the receiver reorder buffer).
  [[nodiscard]] std::uint64_t logical_in_flight() const {
    return logical_sends_ - logical_deliveries_ - abandoned_to_dead_;
  }

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
  };

  /// Sender half of one directed edge.
  struct EdgeTx {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, PendingMsg> unacked;  // seq -> message
    Time rto = 0;              ///< current timeout (0 = not initialized)
    std::uint64_t timer_gen = 0;  ///< invalidates stale scheduled closures
    bool timer_armed = false;
    Time last_data_send = -1;
    /// Per-edge jitter stream, created on first arm (rto_jitter > 0 only):
    /// seeded from (jitter_seed, edge) so the stretch sequence depends on
    /// nothing but the seed and this edge's own arm count.
    std::unique_ptr<ekbd::sim::Rng> jitter;
    std::vector<Time> armed_delays;  ///< instrumentation (see armed_delays())
  };

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

  /// Adapter welding the shim to the deterministic simulator (the
  /// historical coupling, now one implementation among three).
  class SimEnv final : public ArqEnv {
   public:
    explicit SimEnv(ekbd::sim::Simulator& sim) : sim_(sim) {}
    [[nodiscard]] Time now() const override { return sim_.now(); }
    [[nodiscard]] bool crashed(ProcessId p) const override { return sim_.crashed(p); }
    std::uint64_t book_logical_send(ProcessId from, ProcessId to,
                                    const ekbd::sim::Payload& payload,
                                    MsgLayer layer) override;
    void book_logical_drop(ProcessId from, ProcessId to, const ekbd::sim::Payload& payload,
                           MsgLayer layer, std::uint64_t logical_seq) override;
    void physical_send(ProcessId from, ProcessId to,
                       const ekbd::sim::Payload& payload) override;
    void deliver_logical(ProcessId from, ProcessId to, const ekbd::sim::Payload& payload,
                         MsgLayer layer, std::uint64_t logical_seq, Time sent_at) override;
    void schedule_on(ProcessId owner, Time delay, std::function<void()> fn) override;

   private:
    ekbd::sim::Simulator& sim_;
  };

  // sim_env_ before env_: env_ may point at it.
  std::unique_ptr<SimEnv> sim_env_;
  ArqEnv* env_;
  ekbd::sim::Simulator* sim_ = nullptr;  ///< install/detach only (sim ctor)
  Params params_;
  const ekbd::fd::FailureDetector* detector_;
  std::unordered_map<std::uint64_t, EdgeTx> tx_;
  std::unordered_map<std::uint64_t, EdgeRx> rx_;
  std::unordered_set<std::uint64_t> dead_edges_;  ///< abandoned directed edges
  std::unordered_map<ProcessId, Time> last_data_send_to_;
  std::uint64_t logical_sends_ = 0;
  std::uint64_t logical_deliveries_ = 0;
  std::uint64_t physical_data_sends_ = 0;
  std::uint64_t physical_ack_sends_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t abandoned_to_dead_ = 0;
  Time max_rto_reached_ = 0;
};

}  // namespace ekbd::net
