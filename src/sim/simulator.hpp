/// \file simulator.hpp
/// Deterministic discrete-event simulator.
///
/// Executes a set of Actors over virtual time: one queue of events
/// (message deliveries, timers, externally scheduled callbacks) popped in
/// (time, sequence number) order. Given the same seed and the same
/// sequence of API calls, two runs are bit-identical — every experiment in
/// this repository is replayable from its parameters.
///
/// Crash faults follow the paper's model (Cristian-style crash): a crashed
/// process ceases execution without warning. Concretely, once `crash(p)`
/// takes effect no handler of `p` runs again; messages in flight *to* p
/// are silently dropped at delivery time; messages already sent *by* p are
/// still delivered (they left the process before the crash). As an
/// extension beyond the paper, `recover(p)` brings the process back at a
/// later instant (timed mode only): the dead incarnation's timers are
/// cancelled, inbound traffic sent before the recovery is dropped, and the
/// actor's `on_recover` runs a protocol-level rejoin.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/actor.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/net_hooks.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/transport_iface.hpp"

namespace ekbd::sim {

/// Metric handles the simulator updates when instrumented (see
/// obs::attach_simulator_metrics). All null by default: a handle that is
/// not attached costs one branch at its update site and nothing else —
/// the same discipline as the event log, enforced by the E21 perf gate
/// and the hot-path allocation test.
struct SimMetrics {
  obs::Counter* events = nullptr;      ///< events dispatched
  obs::Counter* sends = nullptr;       ///< physical sends (raw_send)
  obs::Gauge* queue_depth = nullptr;   ///< pending timed events (wheel + heap)
  obs::Gauge* slab_live = nullptr;     ///< live slab records (occupancy)
};

/// How the simulator orders events.
///
///  * kTimed: the normal mode — events fire in virtual-time order given by
///    the delay model; used by every experiment.
///  * kControlled: model-checking mode — pending events are exposed as an
///    explicit choice set and an external driver (mc::Explorer) picks which
///    fires next, subject only to per-channel FIFO. This is the literal
///    asynchronous model of the paper: any in-flight message may be the
///    next to arrive. Virtual time advances one tick per executed event.
enum class ExecMode { kTimed, kControlled };

/// Descriptor of one pending event in controlled mode.
struct PendingEvent {
  enum class Kind { kMessage, kTimer, kScheduled };
  std::uint64_t id = 0;
  Kind kind = Kind::kScheduled;
  ProcessId from = kNoProcess;  ///< messages: sender
  ProcessId to = kNoProcess;    ///< messages: recipient
  ProcessId owner = kNoProcess; ///< timers: owning process
  /// Messages: send order on the directed channel (from,to). Per-channel
  /// FIFO eligibility and the mc commutativity oracle both key off this.
  std::uint64_t channel_rank = 0;

  /// Packed key of a directed channel; the only ordering domain the
  /// asynchronous model constrains (reliable per-channel FIFO).
  [[nodiscard]] static std::uint64_t channel_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(to));
  }

  /// This event's channel key (messages only; meaningless otherwise).
  [[nodiscard]] std::uint64_t channel() const { return channel_key(from, to); }

  [[nodiscard]] std::string describe() const;
};

class Simulator final : public ArqEnv {
 public:
  /// \param seed   master seed for every random stream in the run
  /// \param delays model for message latencies (defaults to Uniform[1,10])
  /// \param mode   kTimed for experiments, kControlled for model checking
  explicit Simulator(std::uint64_t seed,
                     std::unique_ptr<DelayModel> delays = nullptr,
                     ExecMode mode = ExecMode::kTimed);

  // -- topology -------------------------------------------------------

  /// Register an actor; returns its ProcessId (0, 1, 2, ... in order).
  /// All actors must be registered before `start()`.
  ProcessId add_actor(std::unique_ptr<Actor> actor);

  /// Construct and register an actor in place; returns a non-owning typed
  /// pointer (valid for the simulator's lifetime).
  template <typename T, typename... Args>
  T* make_actor(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    add_actor(std::move(owned));
    return raw;
  }

  [[nodiscard]] std::size_t num_processes() const { return actors_.size(); }
  [[nodiscard]] Actor* actor(ProcessId p) { return actors_[static_cast<std::size_t>(p)].get(); }
  [[nodiscard]] const Actor* actor(ProcessId p) const {
    return actors_[static_cast<std::size_t>(p)].get();
  }

  // -- lifecycle ------------------------------------------------------

  /// Deliver `on_start` to every (non-crashed) actor. Idempotent.
  void start();

  /// Run all events with timestamp <= t; afterwards now() == t.
  void run_until(Time t);

  /// Run for `d` more ticks of virtual time.
  void run_for(Time d) { run_until(now_ + d); }

  /// Execute the single earliest pending event. Returns false if idle.
  /// (kTimed mode only.)
  bool step();

  /// True if no events are pending.
  [[nodiscard]] bool idle() const {
    return mode_ == ExecMode::kTimed ? wheel_size_ == 0 && heap_.empty() : controlled_.empty();
  }

  // -- controlled (model-checking) mode ---------------------------------

  [[nodiscard]] ExecMode mode() const { return mode_; }

  /// Pending events that may legally fire next: every timer and scheduled
  /// callback, plus — per directed channel — only the oldest in-flight
  /// message (reliable FIFO channels). Stable order (by event id).
  [[nodiscard]] std::vector<PendingEvent> eligible_events() const;

  /// Fire the pending event with this id (must be eligible). Advances
  /// virtual time by one tick. Returns false if the id is unknown or not
  /// currently eligible.
  bool execute_event(std::uint64_t id);

  /// Append the simulator's contribution to a *semantic* state
  /// fingerprint (mc::check_liveness): the crash mask, every directed
  /// channel's in-flight payload sequence (FIFO order, packed via
  /// pack_payload), and per-owner pending timer counts (live and
  /// cancelled-but-unfired separately — a cancelled timer is still a
  /// no-op choice). Deliberately excludes now(), event ids and channel
  /// ranks: two states that differ only in how many ticks it took to
  /// reach them fingerprint identically, which is what lets lasso
  /// detection close cycles. (kControlled only.)
  void controlled_state_key(std::vector<std::uint64_t>& out) const;

  /// The id the next controlled-mode event will receive. Lets a harness
  /// that calls schedule() learn the id of the choice it just created
  /// (read before the call): mc::LivenessWorld uses this to give
  /// scheduled closures stable semantic fingerprints.
  [[nodiscard]] std::uint64_t next_event_id() const { return next_event_seq_; }

  // -- actor services (the sim::TransportIface implementation) ----------

  void send(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer) override;
  TimerId set_timer(ProcessId owner, Time delay) override;
  /// Timer ids are unique per simulator, so the owner is redundant here —
  /// the interface carries it for engines with per-actor timer state.
  void cancel_timer(ProcessId owner, TimerId id) override { (void)owner; cancel_timer(id); }
  void cancel_timer(TimerId id);

  // -- net hooks (link-fault adversary + reliable transport) -------------

  /// Install (or clear with nullptr) a channel adversary consulted on
  /// every physical send in timed mode. Not owned; must outlive the run.
  void set_adversary(ChannelAdversary* adversary) { adversary_ = adversary; }
  [[nodiscard]] ChannelAdversary* adversary() const { return adversary_; }

  /// Install one transport per process (index = ProcessId; empty clears).
  /// Process p's covered logical sends divert to transports[p], and the
  /// physical segments delivered to p are offered to it first. Not owned;
  /// they must outlive the run.
  void set_transports(std::vector<Transport*> transports) {
    transports_ = std::move(transports);
  }

  // -- sim::ArqEnv: the transports' view of the simulator ----------------

  std::uint64_t book_logical_send(ProcessId from, ProcessId to, const Payload& payload,
                                  MsgLayer layer) override;
  void book_logical_drop(ProcessId from, ProcessId to, const Payload& payload,
                         MsgLayer layer, std::uint64_t logical_seq) override;
  void physical_send(ProcessId from, ProcessId to, const Payload& payload) override {
    raw_send(from, to, payload, MsgLayer::kTransport);
  }
  /// Hand a transport-released logical message to the recipient actor,
  /// settling the logical channel books and the event log. `logical_seq`
  /// is the sequence number book_logical_send returned for it; `sent_at`
  /// the original logical send time.
  void deliver_logical(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer,
                       std::uint64_t logical_seq, Time sent_at) override;

  // -- external scheduling (harness / tests) ---------------------------

  /// Run `fn` at absolute virtual time `at` (>= now).
  void schedule(Time at, std::function<void()> fn);

  /// Run `fn` `delay` ticks from now.
  void schedule_in(Time delay, std::function<void()> fn) { schedule(now_ + delay, std::move(fn)); }

  /// `schedule_in` fenced by `owner`'s incarnation: dropped at fire time
  /// if `owner` crashed after (or was crashed when) the call was armed.
  /// Timed mode only, like recovery (model-checking worlds drive their
  /// environment through scheduled choices).
  void call_after(ProcessId owner, Time delay, std::function<void()> fn) override;

  // -- event tracing ------------------------------------------------------

  /// Attach (or detach with nullptr) a low-level event log: every send,
  /// delivery, drop, timer firing and crash is appended. The log is not
  /// owned and must outlive its attachment.
  void set_event_log(EventLog* log) { event_log_ = log; }
  /// Currently attached log (nullptr when detached).
  [[nodiscard]] EventLog* event_log() const { return event_log_; }

  /// Attach (or detach with nullptr) a streaming event sink: receives
  /// exactly the events the log would, in the same order, as they happen
  /// (the online invariant monitors ride on this). Not owned; must not
  /// re-enter the simulator.
  void set_event_sink(EventSink* sink) { sink_ = sink; }

  /// Attach (or reset with {}) metric handles. Plain pointers into an
  /// obs::MetricsRegistry owned elsewhere; every handle is optional.
  void set_metrics(const SimMetrics& m) { metrics_ = m; }

  // -- crash faults -----------------------------------------------------

  /// Crash `p` immediately (idempotent).
  void crash(ProcessId p);

  /// Crash `p` at absolute time `at`.
  void schedule_crash(ProcessId p, Time at);

  /// Bring a crashed `p` back (timed mode only; no-op if live). The new
  /// incarnation keeps the actor object's local state; the dead one's
  /// pending timers are cancelled and every message sent to `p` before
  /// this instant is dropped at delivery (recovery fences the inbound
  /// channels). Fires `Actor::on_recover`.
  void recover(ProcessId p);

  /// Recover `p` at absolute time `at`.
  void schedule_recovery(ProcessId p, Time at);

  [[nodiscard]] bool crashed(ProcessId p) const override {
    return crash_times_[static_cast<std::size_t>(p)] >= 0;
  }

  /// Time at which `p` crashed, or -1 if live.
  [[nodiscard]] Time crash_time(ProcessId p) const {
    return crash_times_[static_cast<std::size_t>(p)];
  }

  /// Processes that have not crashed (so far).
  [[nodiscard]] std::vector<ProcessId> live_processes() const;

  // -- introspection ----------------------------------------------------

  [[nodiscard]] Time now() const override { return now_; }
  Rng& rng() { return rng_; }
  Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// Per-actor independent random stream (created lazily, stable per id:
  /// derived as Rng(seed).fork(p + 1), the same derivation every engine
  /// uses).
  Rng& actor_rng(ProcessId p) override;

 private:
  /// One record in the timed event queue. A typed discriminant instead of a
  /// per-event heap-allocated `std::function` closure: the steady-state
  /// kinds (deliveries, timers, drop settlements, crashes) carry their
  /// operands inline, so pushing and popping them never allocates — and
  /// the record is trivially copyable, so slab stores are plain memcpys.
  /// Externally scheduled callbacks (`schedule()`) keep a closure, parked
  /// in `callbacks_` under the event's seq — they are harness-frequency,
  /// not message-frequency.
  struct Event {
    enum class Kind : std::uint8_t {
      kDeliver,     ///< hand `msg` to its recipient (or drop at a corpse)
      kTimer,       ///< fire timer `timer_id` at `owner` unless cancelled
      kDropSettle,  ///< `msg` was lost in flight: settle books, log loss
      kCrash,       ///< crash process `owner`
      kCallback,    ///< run the closure filed under `seq` in `callbacks_`
    };
    Time at = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kCallback;
    bool partitioned = false;      ///< kDropSettle: partition cut vs. random loss
    /// kTimer / kCrash subject; kCallback: the call_after owner
    /// (kNoProcess for a schedule() callback).
    ProcessId owner = kNoProcess;
    /// Next slot in the same wheel bucket (kNil: last). Meaningless while
    /// the record sits in the far heap.
    std::uint32_t next = 0;
    union {
      TimerId timer_id = 0;       ///< kTimer
      std::uint64_t incarnation;  ///< kCallback with an owner: armed by this incarnation
    };
    Message msg;                   ///< kDeliver / kDropSettle
  };
  /// What the far heap actually sifts: 16 bytes — the firing time plus a
  /// packed (seq, slot) word, seq in the high bits so comparing the word
  /// orders by seq (slot is dead weight below unique-seq bits). Keeping
  /// the ~100-byte Event records out of the heap makes every sift step a
  /// two-word move, and at 16 bytes the four children of a 4-ary node
  /// share a single cache line — the difference between O(log n) in
  /// theory and in the cache.
  struct HeapEntry {
    Time at = 0;
    std::uint64_t seq_slot = 0;
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
  };
  /// Slab slots spendable before the packed word runs out of room:
  /// 2^21 ≈ 2M *concurrently pending* events (seq gets the other 43
  /// bits — centuries of simulated traffic). acquire_slot() hard-fails
  /// at the cap rather than silently mis-ordering.
  static constexpr std::uint64_t kMaxSlots = 1ULL << 21;
  /// Strict "a fires after b" on the (at, seq) key. seq is unique, so
  /// this is a *total* order: the pop sequence is fully determined by the
  /// key and does not depend on the heap's internal shape or arity.
  static bool event_later(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq_slot > b.seq_slot;
  }

  /// A pending event in controlled mode: descriptor (including the
  /// per-channel FIFO rank for messages) plus inline operands — same
  /// typed-record scheme as the timed heap; only kScheduled carries a
  /// closure.
  struct ControlledEvent {
    PendingEvent info;
    TimerId timer_id = 0;      ///< kTimer
    Message msg;               ///< kMessage
    std::function<void()> fn;  ///< kScheduled only
  };

  /// Grab a free slab slot (recycled or fresh). The returned reference is
  /// valid only until the next acquire (the slab may reallocate).
  std::uint32_t acquire_slot();
  /// Assign the next event seq to the record in `slot` and queue it: in
  /// its wheel bucket when it fires within kWheelSize ticks of the
  /// cursor, on the far heap otherwise. The record's `at` and `kind` must
  /// be final. Returns the seq (keys `callbacks_` for kCallback records).
  std::uint64_t commit_event(std::uint32_t slot);
  /// Cold-path convenience: copy a ready-made record into a slot and
  /// commit it. The hot send path builds records in place instead.
  std::uint64_t push_event(const Event& ev);
  ControlledEvent& push_controlled(PendingEvent::Kind kind, ProcessId from, ProcessId to,
                                   ProcessId owner, std::uint64_t channel_rank);
  /// 4-ary min-heap primitives over `heap_` (earliest (at, seq) on top).
  /// Quarter the depth of a binary heap and all four children share one
  /// cache line (4 × 16 B); because (at, seq) is a total order the pop
  /// sequence is identical to any other heap arity.
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  /// Remove heap_[0], restoring the heap property.
  void heap_pop_front();
  /// Append `slot` (firing at `at`, inside the wheel's window) to the
  /// tail of its bucket.
  void wheel_append(std::uint32_t slot, Time at);
  /// Unlink and return the head slot of non-empty bucket `b`.
  std::uint32_t wheel_pop(std::size_t b);
  /// The bucket holding the wheel's earliest tick. Precondition:
  /// wheel_size_ > 0.
  [[nodiscard]] std::size_t first_bucket() const;
  /// Move the cursor forward to `at` and pull every far event that now
  /// falls inside the window into its bucket, in (at, seq) order.
  void advance_cursor(Time at);
  /// Time of the earliest pending event, or kNever when none is left.
  /// Cancelled-timer records met at the front are dead weight, not
  /// events: they are discarded without advancing time, the cursor or
  /// the events_processed counter.
  Time next_live_at();
  /// Pop and run the earliest event, which fires at `at` (the value
  /// next_live_at() just returned).
  void pop_and_dispatch(Time at);
  void note_queue_depth();
  void dispatch(Event&& ev);
  void fire_timer(ProcessId owner, TimerId id);
  [[nodiscard]] bool is_eligible(const ControlledEvent& ev) const;
  /// Physical send that bypasses the transports (but not the adversary):
  /// what `send` does on an uncovered layer, and what physical_send does.
  void raw_send(ProcessId from, ProcessId to, const Payload& payload, MsgLayer layer);
  void deliver(const Message& m);

  /// True when anyone is listening for logged events. Every event
  /// construction site is guarded by this, so the uninstrumented hot path
  /// never builds a LoggedEvent.
  [[nodiscard]] bool tracing() const { return event_log_ != nullptr || sink_ != nullptr; }
  /// Fan one event out to the log and the sink (same order everywhere).
  void emit(const LoggedEvent& ev) {
    if (event_log_ != nullptr) event_log_->append(ev);
    if (sink_ != nullptr) sink_->on_event(ev);
  }

  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<DelayModel> delays_;
  ExecMode mode_;
  Network network_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::unique_ptr<Rng>> actor_rngs_;
  std::vector<Time> crash_times_;
  /// Latest recovery instant per process (-1: never recovered). Deliveries
  /// of messages sent before this are dropped — see recover().
  std::vector<Time> last_recover_;
  /// Crashes so far per process: the incarnation a call_after belongs to.
  std::vector<std::uint64_t> incarnations_;
  /// Timed mode: a wheel of kWheelSize one-tick buckets over
  /// [cursor_, cursor_ + kWheelSize), and a 4-ary min-heap over (at, seq)
  /// of compact HeapEntry keys for every event at or past the window's
  /// end. A bucket is a FIFO of slab slots linked through Event::next.
  /// Far events enter their bucket when the cursor's advance brings their
  /// tick into the window — before any direct push to that tick can
  /// happen — and direct pushes append in seq order, so each bucket is
  /// already sorted by seq and the pop order is exactly (at, seq). The
  /// Event records live in `slab_` (slots recycled through
  /// `free_slots_`); neither structure ever moves them.
  static constexpr std::size_t kWheelSize = 1024;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  Time cursor_ = 0;  ///< earliest tick the wheel can hold; never past now_
  std::size_t wheel_size_ = 0;
  std::array<std::uint32_t, kWheelSize> bucket_head_{};  ///< kNil-filled by the constructor
  std::array<std::uint32_t, kWheelSize> bucket_tail_{};
  /// Bit b set iff bucket b is non-empty: the scan for the next tick
  /// reads kWheelWords words, not kWheelSize heads.
  std::array<std::uint64_t, kWheelWords> occupied_{};
  std::vector<HeapEntry> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// Closures of pending kCallback events, keyed by event seq.
  std::unordered_map<std::uint64_t, std::function<void()>> callbacks_;
  std::map<std::uint64_t, ControlledEvent> controlled_;  // by event id
  /// Controlled mode: per-directed-channel FIFO of pending message event
  /// ids, in send (= channel_rank) order. An event is eligible iff it is
  /// at the front of its channel — O(1), making eligible_events()
  /// O(pending) instead of O(pending²).
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> channel_fifo_;
  std::unordered_map<std::uint64_t, std::uint64_t> channel_send_rank_;
  std::unordered_set<TimerId> active_timers_;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t events_processed_ = 0;
  ChannelAdversary* adversary_ = nullptr;
  std::vector<Transport*> transports_;  ///< per process; empty = none
  EventLog* event_log_ = nullptr;
  EventSink* sink_ = nullptr;
  SimMetrics metrics_;
  Time now_ = 0;
  bool started_ = false;
};

}  // namespace ekbd::sim
