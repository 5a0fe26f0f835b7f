/// \file mailbox.hpp
/// The bounded MPSC mailbox of the real-threads runtime.
///
/// Every actor owns one mailbox; any thread may push (its conflict-graph
/// neighbors, the driver, fault injectors), and exactly one thread at a
/// time pops: the holder of the actor's `kRunning` dispatch claim in the
/// sharded executor (rt/runtime.hpp). The claim handoff is a seq_cst
/// store/CAS pair on the actor's state word, so the consumer role may
/// migrate between shard workers — each new consumer sees every prior
/// consumer's cursor and slot recycling.
///
/// `MpscRingMailbox` is a bounded ring of per-cell-sequenced slots
/// (`VyukovRing`, used MPSC). Producers claim a slot with one CAS on the
/// head ticket and publish the payload with one release store; the
/// consumer pops with plain loads plus one acquire per cell. No locks,
/// no allocation after construction — `sim::Message` is trivially
/// copyable, so a push is a ticket claim plus a memcpy. The runtime sizes
/// each ring from the paper's channel bound (P6): `Runtime::mailbox_bound`.
///
/// FIFO guarantee: a producer's pushes claim head tickets in program
/// order, and the consumer pops in ticket order — so *per-producer* order
/// is preserved, which is exactly the reliable-FIFO-per-directed-channel
/// assumption of the paper's model (each directed channel has a single
/// producer: the sender's thread).
///
/// Blocking (producer backpressure, consumer parking) deliberately lives
/// in the runtime's worker loop, not here: the queue itself stays
/// wait-free on the fast path and the park/wake handshake needs runtime
/// state (stop flags, timer deadlines) anyway.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/message.hpp"

namespace ekbd::rt {

/// Vyukov's bounded queue: a power-of-two ring of per-cell-sequenced
/// slots. Any number of producers claim a slot with one CAS on the head
/// ticket and publish with one release store. The consumer side belongs to
/// the subclass: the mailbox below has one consumer, the executor's run
/// queue (rt/runtime.hpp) has many.
template <typename T>
class VyukovRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit VyukovRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Enqueue a copy of `v`; false if the ring is full.
  bool try_push(const T& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        // Slot free for ticket `pos`: claim it. seq_cst CAS — the claim
        // must be globally ordered before the producer's subsequent
        // `sleeping` probe (lost-wakeup handshake).
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          cell.value = v;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh ticket.
      } else if (dif < 0) {
        return false;  // the slot still holds an unconsumed value: full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 protected:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< producers' ticket
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< consumers' cursor
};

/// The actor mailbox: a VyukovRing of messages with one consumer at a
/// time, the dispatch-claim holder. A failed push is the runtime's cue to
/// help the consumer drain (push_blocking).
class MpscRingMailbox final : public VyukovRing<sim::Message> {
 public:
  using VyukovRing::VyukovRing;

  /// Dequeue into `out`; false if empty. Single consumer at a time (the
  /// dispatch-claim holder).
  bool try_pop(sim::Message& out) {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
    if (dif < 0) return false;  // not yet published (empty, or mid-publish)
    out = cell.value;
    // Release the slot for the producer one lap ahead.
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Bulk drain: pop up to `max` messages into `out`, returning how many
  /// were popped (0 when empty). Same consumer contract as try_pop. The
  /// cursor is written once per batch instead of once per message — this
  /// is what amortizes the executor's park/wake and state-machine costs
  /// across a burst.
  std::size_t pop_n(sim::Message* out, std::size_t max) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) < 0) {
        break;  // next slot not yet published: drained everything visible
      }
      out[n++] = cell.value;
      cell.seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
    }
    if (n != 0) tail_.store(pos, std::memory_order_relaxed);
    return n;
  }

  /// Conservative "work may be pending" probe for the park/wake handshake:
  /// may report true for an item whose payload is still being published
  /// (the consumer just polls again), but after a producer's push is
  /// complete, a probe that is sequenced after the consumer's
  /// `sleeping = true` store (both seq_cst) is guaranteed to see it —
  /// that pairing is what rules out lost wakeups (see Runtime's loop).
  [[nodiscard]] bool maybe_nonempty() const {
    // seq_cst on the head ticket: pairs with the claim CAS in try_push for
    // the Dekker-style store/load handshake in the worker's park path.
    return head_.load(std::memory_order_seq_cst) !=
           tail_.load(std::memory_order_relaxed);
  }

  /// Slots claimed and not yet popped, including claims whose payload is
  /// still being published. Consumer-side only: between two drains the
  /// count can only grow, so a read just before each drain sees the peak.
  [[nodiscard]] std::size_t occupancy() const {
    return head_.load(std::memory_order_relaxed) - tail_.load(std::memory_order_relaxed);
  }
};

}  // namespace ekbd::rt
