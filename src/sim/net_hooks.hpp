/// \file net_hooks.hpp
/// Seams between the engines and the optional net/ subsystem.
///
/// The engines stay ignorant of how faults are chosen and how reliability
/// is recovered; they only know three interposition points:
///
///  * `ChannelAdversary` — consulted once per physical send (timed mode):
///    may drop the message in flight, inject a duplicate, or exempt it
///    from per-channel FIFO (reordering). net::LinkFaultModel implements
///    it with seed-deterministic per-edge probabilities and scheduled
///    partitions.
///
///  * `Transport` — intercepts *logical* sends on the layers it covers and
///    consumes its own physical segments at delivery. net::ReliableTransport
///    implements it as a per-edge ARQ (sequence numbers, cumulative acks,
///    duplicate suppression, retransmission with capped exponential
///    backoff), rebuilding the reliable FIFO channel the paper assumes on
///    top of a faulty link. Every process has its own instance: the
///    engine hands a process's logical sends, and the physical segments
///    addressed to it, to that process's transport, from that process's
///    own context.
///
///  * `ArqEnv` — the engine as the transport sees it from below: clock,
///    crash ground truth, logical books, the physical wire and owner-fenced
///    timers. `sim::Simulator`, `rt::Runtime` and `netproc::NodeEngine`
///    each implement it once.
///
/// The hooks are inert unless installed and apply to ExecMode::kTimed
/// only — controlled-mode model checking explores the reliable-FIFO model
/// directly.
#pragma once

#include <cstdint>

#include "sim/message.hpp"
#include "sim/time.hpp"
#include "sim/transport_iface.hpp"

namespace ekbd::sim {

/// Per-send fault decision. `drop` wins over `duplicate`/`reorder`; a
/// dropped message still occupies the channel until its delivery time
/// (it was lost in flight, not at the sender), when the simulator settles
/// the books and logs kLoss/kPartitionLoss instead of delivering.
struct FaultDecision {
  bool drop = false;         ///< lose the message in flight
  bool partitioned = false;  ///< the drop was a partition cut (for logging)
  bool duplicate = false;    ///< deliver a second, independently delayed copy
  bool reorder = false;      ///< stamp outside the per-channel FIFO horizon
};

class ChannelAdversary {
 public:
  virtual ~ChannelAdversary() = default;

  /// Decide the fate of one physical message at send time. Called exactly
  /// once per send (and once more for the adversary's own duplicate), in
  /// deterministic simulator order — implementations draw from their own
  /// explicitly seeded Rng so equal seeds give equal fault schedules.
  virtual FaultDecision on_send(ProcessId from, ProcessId to, MsgLayer layer, Time now) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Layers this transport carries (others bypass it and hit the raw
  /// network directly — e.g. failure-detector heartbeats, which are
  /// loss-tolerant by design).
  [[nodiscard]] virtual bool covers(MsgLayer layer) const = 0;

  /// Accept a logical message from `from` (this transport's process) for
  /// in-order reliable delivery to `to`. The transport emits physical
  /// segments via ArqEnv::physical_send and releases the payload through
  /// ArqEnv::deliver_logical once it arrives in order.
  virtual void logical_send(ProcessId from, ProcessId to, const Payload& payload,
                            MsgLayer layer) = 0;

  /// Offer a physical message delivered to this transport's process.
  /// Returns true if it was a transport segment (consumed); false lets the
  /// engine dispatch it to the recipient actor as usual.
  virtual bool on_physical_deliver(const Message& m) = 0;
};

/// The engine under one process's ARQ. Every call comes from the context
/// of the process that owns the transport, so an engine needs no lock for
/// it; `call_after(owner, …)` (inherited) arms the retransmission timers,
/// which die with their owner like every other environment call.
///
///  * `book_logical_send` / `book_logical_drop` / `deliver_logical` settle
///    the *logical* books and emit the kSend / kDrop / kDeliver records;
///    the §7 channel-bound and quiescence checkers read the same
///    accounting under every engine. The seq `book_logical_send` returns
///    travels in the DataSegment, so with the sender id it names the
///    message in both its kSend and its kDeliver (or kDrop) record;
///  * `physical_send` transmits one MsgLayer::kTransport segment
///    best-effort (it may be lost; that is the transport's whole job).
class ArqEnv : public TransportIface {
 public:
  /// Crash ground truth (crash-stop: once true, forever true). Consulted
  /// only to garbage-collect the queue toward a peer that is both
  /// suspected and actually dead — quiescence itself is driven by
  /// suspicion alone.
  [[nodiscard]] virtual bool crashed(ProcessId p) const = 0;

  /// Book one logical message on its own layer (a kSend record) and
  /// return its logical sequence number.
  virtual std::uint64_t book_logical_send(ProcessId from, ProcessId to, const Payload& payload,
                                          MsgLayer layer) = 0;

  /// Write off one logical message to a dead peer (a kDrop record).
  virtual void book_logical_drop(ProcessId from, ProcessId to, const Payload& payload,
                                 MsgLayer layer, std::uint64_t logical_seq) = 0;

  /// Transmit one physical MsgLayer::kTransport segment, best-effort.
  virtual void physical_send(ProcessId from, ProcessId to, const Payload& payload) = 0;

  /// Release one logical message, in order, to the receiving actor
  /// (books + kDeliver + dispatch).
  virtual void deliver_logical(ProcessId from, ProcessId to, const Payload& payload,
                               MsgLayer layer, std::uint64_t logical_seq, Time sent_at) = 0;
};

}  // namespace ekbd::sim
