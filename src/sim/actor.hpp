/// \file actor.hpp
/// Base class for protocol processes.
///
/// An Actor is one process of the distributed system: it owns local state,
/// reacts to message deliveries and timer expirations, and interacts with
/// the world only through `send` / `set_timer`. Those helpers forward to
/// whichever engine registered the actor (a `sim::TransportIface`): the
/// deterministic discrete-event simulator, or the real-threads runtime
/// (src/rt/) where actors run on a pool of OS worker threads. Every engine
/// guarantees:
///
///  * handlers of one actor run atomically with respect to each other
///    (the simulator runs one event at a time globally; the rt engine one
///    event at a time per actor);
///  * a crashed actor's handlers are never invoked again and its
///    outstanding sends/timers are discarded;
///  * handlers of one actor always run in nondecreasing time.
///
/// This matches the paper's model: asynchronous processes executing guarded
/// actions with weak fairness, communicating over reliable FIFO channels,
/// subject to crash (not Byzantine) faults. As an extension beyond the
/// paper, engines may *recover* a crashed actor (`on_recover`): the process
/// comes back with its pre-crash local state at a fresh point in time, and
/// protocols that support rejoin resynchronize explicitly (see
/// core::WaitFreeDiner's rejoin handshake).
#pragma once

#include "sim/message.hpp"
#include "sim/time.hpp"
#include "sim/transport_iface.hpp"

namespace ekbd::sim {

class Rng;

class Actor {
 public:
  Actor() = default;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;
  virtual ~Actor() = default;

  [[nodiscard]] ProcessId id() const { return id_; }

  /// Invoked once, after all actors are registered, before any event.
  virtual void on_start() {}

  /// A message addressed to this actor reached its delivery time.
  virtual void on_message(const Message& m) = 0;

  /// A timer created with `set_timer` expired (and was not cancelled).
  virtual void on_timer(TimerId id) { (void)id; }

  /// The actor just crashed. For instrumentation only — the "process" is
  /// dead and must not send or schedule anything here.
  virtual void on_crash() {}

  /// The actor rejoined after a crash (engines that support recovery call
  /// this at the recovery boundary, before any post-recovery handler).
  /// Unlike on_crash, the process is live again: it may send and schedule
  /// — this is where a protocol runs its rejoin handshake.
  virtual void on_recover() {}

 protected:
  /// Send `payload` to `to` over the reliable FIFO channel.
  void send(ProcessId to, const Payload& payload, MsgLayer layer = MsgLayer::kOther);

  /// Arm a one-shot timer `delay` ticks from now; returns its id.
  TimerId set_timer(Time delay);

  /// Cancel a pending timer (no-op if it already fired or was cancelled).
  void cancel_timer(TimerId id);

  /// Current virtual time.
  [[nodiscard]] Time now() const;

  /// This actor's private random stream.
  Rng& rng();

 private:
  friend class TransportIface;
  TransportIface* ctx_ = nullptr;
  ProcessId id_ = kNoProcess;
};

}  // namespace ekbd::sim
