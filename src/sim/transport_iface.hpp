/// \file transport_iface.hpp
/// The actor-facing send/timer/clock/rng surface, as one small interface.
///
/// An `Actor` interacts with the world only through its protected helpers
/// (`send`, `set_timer`, `cancel_timer`, `now`, `rng`). Those helpers
/// forward to a `TransportIface` — the seam that lets the *same* protocol
/// code (core/, baseline/, dining/, fd/ modules) execute under two very
/// different engines:
///
///  * `sim::Simulator` — the deterministic discrete-event engine: virtual
///    time, a single global event queue, replayable to the bit;
///  * `rt::Runtime` — the real-concurrency engine (src/rt/): actors on a
///    shard-per-core executor, lock-free mailboxes, wall-clock timers.
///
/// The contract every implementation must honor (it is what the paper's
/// model gives each process):
///
///  * handlers of one actor run atomically with respect to each other
///    (never two handlers of the same actor concurrently);
///  * per directed channel, messages are delivered in send order
///    (reliable FIFO channels);
///  * a crashed actor's sends are discarded and its handlers never run
///    again;
///  * `set_timer`/`cancel_timer` for an actor are only called from that
///    actor's own handlers (or before the run starts);
///  * `call_after(owner, …)` runs its closure in the owner's context (as
///    if it were one of the owner's handlers) and never once the owner has
///    crashed, even after a recovery: an environment call dies with the
///    incarnation that armed it;
///  * `actor_rng(p)` is a private per-process stream derived purely from
///    (master seed, p) — identical across engines for equal seeds.
#pragma once

#include <functional>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::sim {

class Actor;
class Rng;

class TransportIface {
 public:
  virtual ~TransportIface() = default;

  /// Hand `payload` from `from` to the engine for reliable FIFO delivery
  /// to `to`. A crashed sender's messages are silently discarded.
  virtual void send(ProcessId from, ProcessId to, const Payload& payload,
                    MsgLayer layer) = 0;

  /// Arm a one-shot timer for `owner`, `delay` ticks from now. Only ever
  /// called from `owner`'s own handlers (or before the run starts).
  virtual TimerId set_timer(ProcessId owner, Time delay) = 0;

  /// Cancel a pending timer of `owner` (no-op if it already fired or was
  /// never armed). Same calling restriction as `set_timer`.
  virtual void cancel_timer(ProcessId owner, TimerId id) = 0;

  /// Current time in ticks: virtual time under the simulator, elapsed
  /// wall-clock ticks under the real-threads runtime.
  [[nodiscard]] virtual Time now() const = 0;

  /// `p`'s private random stream, derived purely from (seed, p). Only
  /// touched from `p`'s own handlers.
  virtual Rng& actor_rng(ProcessId p) = 0;

  /// Run `fn` in `owner`'s context `delay` ticks from now, unless `owner`
  /// crashes first: a call armed by one incarnation never runs in a
  /// later one. Callable before the run starts or from `owner`'s own
  /// context. The dining environment (dining::Harness) drives think and
  /// eat durations through this.
  virtual void call_after(ProcessId owner, Time delay, std::function<void()> fn) = 0;

 protected:
  /// Registration hook for engines: wires an actor to this engine under
  /// the given id. Protected static so every TransportIface subclass can
  /// bind actors without `Actor` naming each engine as a friend.
  static void bind(Actor& actor, TransportIface* ctx, ProcessId id);
};

}  // namespace ekbd::sim
