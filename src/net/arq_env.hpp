/// \file arq_env.hpp
/// The environment seam under the ARQ shim.
///
/// `ReliableTransport` implements Stenning's protocol — per-edge sequence
/// numbers, go-back-N retransmission, cumulative acks — and none of that
/// logic cares *where* the physical segments travel. Historically the
/// transport was welded to `sim::Simulator`; this interface extracts the
/// seven operations it actually uses, so the same ARQ state machine runs
/// under three engines:
///
///  * the deterministic simulator (`ReliableTransport`'s Simulator
///    constructor builds the adapter internally — behavior, logs and
///    digests are unchanged);
///  * the real-threads runtime (`rt::RtArq`, src/rt/arq.hpp, installed by
///    every lossy `RtScenario`): physical segments ride the lock-free
///    mailboxes, timers ride the wall clock, one mutex serializes the
///    shared per-edge state;
///  * the multi-process socket engine (`netproc::NodeEngine`,
///    src/netproc/node.hpp): segments ride real UDP datagrams between OS
///    processes and face genuine kernel loss on top of injected faults.
///
/// Contract notes:
///  * `book_logical_send` / `book_logical_drop` / `deliver_logical` settle
///    the *logical* books (Network::logical_*) and emit the kSend / kDrop /
///    kDeliver events — the §7 channel-bound and quiescence checkers read
///    the same accounting under every engine;
///  * `physical_send` transmits one MsgLayer::kTransport segment
///    best-effort (it may be lost; that is the transport's whole job);
///  * `schedule_on(owner, ...)` runs the closure on whatever execution
///    context `owner`'s handlers use — engines with per-process threads
///    need the owner to place the timer; the simulator ignores it. The
///    transport only ever schedules on the sending edge's owner, from that
///    owner's own context (the TransportIface timer discipline).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/payload.hpp"
#include "sim/time.hpp"

namespace ekbd::net {

class ArqEnv {
 public:
  virtual ~ArqEnv() = default;

  /// Current time in ticks.
  [[nodiscard]] virtual sim::Time now() const = 0;

  /// Crash ground truth (crash-stop: once true, forever true). Consulted
  /// only to garbage-collect the retransmission queue of a peer that is
  /// both suspected and actually dead — quiescence itself is driven by
  /// suspicion alone.
  [[nodiscard]] virtual bool crashed(sim::ProcessId p) const = 0;

  /// Book one logical message on its own layer (Network::logical_sent +
  /// a kSend event) and return its logical sequence number.
  virtual std::uint64_t book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                          const sim::Payload& payload,
                                          sim::MsgLayer layer) = 0;

  /// Write off one logical message to a dead/unreachable peer
  /// (Network::logical_dropped + a kDrop event).
  virtual void book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                                 const sim::Payload& payload, sim::MsgLayer layer,
                                 std::uint64_t logical_seq) = 0;

  /// Transmit one physical MsgLayer::kTransport segment, best-effort.
  virtual void physical_send(sim::ProcessId from, sim::ProcessId to,
                             const sim::Payload& payload) = 0;

  /// Release one logical message, in order, to the receiving actor
  /// (books + kDeliver + dispatch).
  virtual void deliver_logical(sim::ProcessId from, sim::ProcessId to,
                               const sim::Payload& payload, sim::MsgLayer layer,
                               std::uint64_t logical_seq, sim::Time sent_at) = 0;

  /// Run `fn` on `owner`'s execution context `delay` ticks from now.
  virtual void schedule_on(sim::ProcessId owner, sim::Time delay,
                           std::function<void()> fn) = 0;
};

}  // namespace ekbd::net
