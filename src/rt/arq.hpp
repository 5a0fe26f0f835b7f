/// \file arq.hpp
/// The Stenning ARQ over real threads: `net::ReliableTransport` welded to
/// `rt::Runtime` through the `net::ArqEnv` seam.
///
/// `RtScenario` installs one on every lossy network, as the sim and proc
/// scenarios install theirs: dining traffic rides the ARQ while the
/// senders' fault models attack the *physical* kTransport segments, so
/// the rt engine exercises retransmission, duplicate suppression and
/// partition recovery under real concurrency.
///
/// Concurrency model: the protocol state (per-edge sequence numbers,
/// retransmission queues, reorder buffers) is shared by every worker
/// thread, so one recursive mutex serializes all ARQ entry points.
/// Recursive because delivery re-enters: deliver_logical dispatches the
/// receiving actor's handler *inside* the lock (we are on the receiver's
/// own worker thread, inside its dispatch slot), and that handler may
/// send — which dives right back into logical_send on the same thread.
///
/// Deadlock freedom: the lock holder never blocks. Physical sends go
/// through Runtime::raw_send, which — with a transport installed — uses a
/// non-blocking mailbox push and records a full mailbox as a congestion
/// loss (the ARQ's own retransmission absorbs it). Lock order is strictly
/// RtArq → Recorder; nothing acquires them the other way.
///
/// Logical seqs: the ARQ numbers the logical messages itself (one
/// counter, under mu_) and carries that number in the DataSegment. The
/// recorder's own seq for the same message, which packs the recorder
/// segment id above bit 40 and cannot fit the DataSegment's 30-bit field,
/// stays here until the message is delivered or written off, and books
/// both ends.
///
/// Timer discipline: every schedule_on call site in the ARQ runs on the
/// owning edge's sender thread (logical_send on the sender's worker,
/// ack handling and timer re-arms on the worker that owns the edge), so
/// Runtime::call_after's owner-thread contract holds.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "fd/detector.hpp"
#include "net/arq_env.hpp"
#include "net/reliable_transport.hpp"
#include "rt/runtime.hpp"
#include "sim/net_hooks.hpp"

namespace ekbd::rt {

class RtArq final : public sim::Transport, public net::ArqEnv {
 public:
  /// Installs itself on `rt` (set_transport). Construct after the actors,
  /// before start(); `detector` (may be null) gates retransmission
  /// quiescence exactly as under the simulator.
  RtArq(Runtime& rt, net::ReliableTransport::Params params,
        const ekbd::fd::FailureDetector* detector = nullptr);
  ~RtArq() override;

  RtArq(const RtArq&) = delete;
  RtArq& operator=(const RtArq&) = delete;

  // -- sim::Transport (called by Runtime, any worker thread) --------------

  [[nodiscard]] bool covers(sim::MsgLayer layer) const override;
  void logical_send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                    sim::MsgLayer layer) override;
  bool on_physical_deliver(const sim::Message& m) override;

  // -- net::ArqEnv (called by the inner shim, under mu_) ------------------

  [[nodiscard]] sim::Time now() const override { return rt_.now(); }
  [[nodiscard]] bool crashed(sim::ProcessId p) const override { return rt_.crashed(p); }
  std::uint64_t book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                  const sim::Payload& payload,
                                  sim::MsgLayer layer) override;
  void book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                         const sim::Payload& payload, sim::MsgLayer layer,
                         std::uint64_t logical_seq) override;
  void physical_send(sim::ProcessId from, sim::ProcessId to,
                     const sim::Payload& payload) override;
  void deliver_logical(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                       sim::MsgLayer layer, std::uint64_t logical_seq,
                       sim::Time sent_at) override;
  void schedule_on(sim::ProcessId owner, sim::Time delay,
                   std::function<void()> fn) override;

  /// Post-run instrumentation (quiescent after stop_and_join).
  [[nodiscard]] const net::ReliableTransport& inner() const { return *inner_; }

 private:
  /// The recorder's seq for ARQ logical seq `seq`, forgotten on return
  /// (each logical message is delivered or written off exactly once).
  std::uint64_t take_recorder_seq(std::uint64_t seq);

  Runtime& rt_;
  mutable std::recursive_mutex mu_;
  std::unique_ptr<net::ReliableTransport> inner_;
  std::uint64_t next_logical_seq_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> recorder_seq_;  ///< ARQ seq → recorder seq
};

}  // namespace ekbd::rt
