/// \file runtime.hpp
/// The real-concurrency engine: a shard-per-core executor.
///
/// `rt::Runtime` is the second implementation of `sim::TransportIface`
/// (the first is the discrete-event `sim::Simulator`), so unmodified
/// protocol code — `core::WaitFreeDiner`, the baselines, the fd modules —
/// runs on real threads with real races. N actors are multiplexed onto C
/// worker shards (C = cores by default, `Options::shards`); the
/// thread-per-actor design this replaces died past a few hundred actors,
/// this one runs 10⁵-node random graphs (E25).
///
/// ## The actor state machine
///
/// Each actor lives in an `ActorCell` with a three-state dispatch word:
///
///   kIdle ──schedule()──▶ kQueued ──claim CAS──▶ kRunning ──finish──▶ kIdle
///
///  * `schedule()` CASes kIdle→kQueued and pushes the actor's index onto
///    its HOME shard's run queue. The CAS makes enqueueing idempotent: a
///    queued or running actor is never double-queued.
///  * Run-queue entries are *hints*, not owners. Whoever pops one tries
///    the kQueued→kRunning claim CAS; a loser (the actor was already
///    claimed by a helper) just discards the stale hint. Correctness
///    lives entirely in the state word — the queue only provides reach.
///  * The kRunning claim is exclusive, so everything dispatch-confined —
///    the actor's protocol state, timer heap, rng streams, mailbox
///    consumer cursor — needs no locks: the seq_cst claim/release pair on
///    the state word carries the happens-before edge when the claim
///    migrates between threads. "Owner thread" in the TransportIface
///    contract becomes "owner's dispatch claim"; every owner-context API
///    (set_timer, call_after, the ArqEnv hooks) keeps its contract.
///  * A dispatch run fires due timers first (pump cadence survives
///    message floods), then bulk-drains the mailbox
///    (`MpscRingMailbox::pop_n`, 16 at a time) up to 64 handler
///    invocations, re-checking the crash plan between handlers — crash
///    injection stays exactly at dispatch boundaries.
///  * finish: register the earliest timer/crash deadline with the home
///    shard's timer registry, store kIdle (seq_cst), then RE-CHECK
///    mailbox / crash request / deadline registration and re-schedule if
///    anything is pending. The recheck closes every lost-wakeup window
///    (see "Dekker pairs" below).
///
/// ## Shards: run queues, stealing, helping
///
/// A shard owns a bounded MPMC run queue of actor indices (Vyukov ring +
/// a mutexed overflow list so a push can never be lost), a timer registry
/// (min-heap of (deadline, actor) under a mutex, with a per-actor
/// `registered_at` hint so re-registration is O(1) when nothing changed),
/// and a parking lot. A worker loops: drain its own due timers, run its
/// own queue; when empty, scan a bounded rotating window (≤ 8) of OTHER
/// shards — drain their due timers (try_lock) and steal from their queues
/// — and only park (capped at 2 ms) when its window looks quiet.
/// The rotation visits every victim across successive idle rounds, so the
/// scan stays O(1) per round even at shards == n while keeping discovery
/// of a stalled shard's work bounded by a few park caps.
///
/// The run queue doubles as a help/announce structure in the
/// Ben-David–Blelloch sense: a pending dispatch is *announced* by its
/// queue entry + kQueued state, any thread can *complete* it, and the
/// claim CAS guarantees exactly-once completion. If a shard's worker
/// stalls (descheduled, paged out, wedged in a slow handler), its
/// announced dispatches and due timers are picked up by neighbors within
/// one park cap — hungry→eat progress does not depend on any single
/// worker thread staying scheduled. Producers blocked on a full mailbox
/// help too: `push_blocking` claims the *target* actor (from kQueued or
/// kIdle) and dispatches it in place, so backpressure drains the very
/// mailbox it is waiting on instead of spinning — an acyclic chain of
/// full mailboxes always makes progress even with one shard (with
/// shards == 1 self-help is the only drain).
///
/// The runtime sizes every mailbox itself, in start(), by the paper's P6
/// channel bound (`mailbox_bound`; the derivation and its measurements
/// are in docs/RUNTIME.md, "Mailboxes"). Traffic beyond the bound (edges
/// added by churn, a detector outpacing a stalled consumer) falls back on
/// this helping push; `mailbox_stats()` shows how close each ring came.
///
/// ## Dekker pairs (lost-wakeup freedom)
///
/// All four races resolve by seq_cst store-then-load on both sides:
///  1. producer: mailbox push (seq_cst ticket CAS) then state load in
///     schedule(); dispatcher: kIdle store then mailbox re-probe.
///  2. scheduler: run-queue push (seq_cst) then `sleeping` probe in
///     wake(); parker: `sleeping = true` then queue re-probe.
///  3. timer-registry popper: `registered_at` reset then schedule()'s
///     state load; dispatcher: kIdle store then `registered_at` re-probe
///     (the "timers armed but nothing registered → re-enqueue" clause).
///  4. crash requester: `crash_req` store then schedule(); dispatcher:
///     kIdle store then `crash_req` re-probe.
///
/// ## Everything the old engine guaranteed still holds
///
///  * per-actor handler atomicity (the kRunning claim) and per-directed-
///    channel FIFO (single producer per channel + per-producer ring
///    order, unchanged);
///  * crash injection at dispatch boundaries; a corpse's mailbox keeps
///    draining (as recorded drops) whenever it is scheduled, so senders
///    never block forever on a dead peer;
///  * seed-deterministic per-actor rng streams derived exactly as the
///    simulator derives them (`Rng(seed).fork(p + 1)`) and drawn only
///    under the actor's dispatch claim — identical streams for ANY shard
///    count, which the shard-invariance tests assert across {1,2,C,2C};
///  * the seed-deterministic link-fault layer (one net::LinkFaultModel
///    per sender, seeded as the proc engine seeds its nodes'), the
///    Recorder linearization feeding the online monitors, and
///    rt::replay agreement.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fd/detector.hpp"
#include "net/link_fault_model.hpp"
#include "rt/clock.hpp"
#include "rt/mailbox.hpp"
#include "rt/recorder.hpp"
#include "sim/actor.hpp"
#include "sim/net_hooks.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/transport_iface.hpp"

namespace ekbd::rt {

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t tick_ns = 100'000;        ///< wall nanoseconds per tick (100 µs)

  /// The lossy network: when any probability is set or any cut is
  /// scheduled, every sender gets its own net::LinkFaultModel, seeded by
  /// net::fault_seed(seed, sender), which decides the fate of each of its
  /// physical sends on every layer. Otherwise no model exists. The lossy
  /// scenarios put one ARQ per actor on top, as the sim and proc engines do.
  net::LinkFaultParams link_faults{};
  std::vector<net::Partition> partitions;
  std::vector<net::EdgeCut> edge_cuts;

  /// Worker shards. 0 = hardware_concurrency; always clamped to
  /// [1, num actors]. `shards == num actors` reproduces the old
  /// thread-per-actor engine (one actor per shard) — the E25 baseline.
  std::size_t shards = 0;
};

/// One actor's mailbox books (Runtime::mailbox_stats), exact after
/// stop_and_join.
struct MailboxStats {
  std::size_t capacity = 0;       ///< ring slots (0 before start())
  std::size_t high_water = 0;     ///< most messages ever waiting at once
  std::uint64_t full_pushes = 0;  ///< pushes that found the ring full
};

/// Aggregated executor counters. Exact after stop_and_join; readable live
/// (per-counter-atomic, so a snapshot may be mid-update but never torn) —
/// the telemetry loop samples them for periodic JSONL / Perfetto counter
/// tracks.
struct ExecutorStats {
  std::uint64_t dispatches = 0;   ///< handler invocations (on_start/messages/timers)
  std::uint64_t runs = 0;         ///< dispatch claims (batches)
  std::uint64_t steals = 0;       ///< runs claimed from another shard's queue
  std::uint64_t helps = 0;        ///< dispatches run by a blocked producer
  std::uint64_t timer_helps = 0;  ///< another shard's due timers drained
  std::uint64_t parks = 0;        ///< condvar waits
};

class Runtime final : public sim::ArqEnv {
 public:
  /// The recorder must outlive the runtime; it is shared with the scenario
  /// layer (monitors, post-run checkers).
  Runtime(Options opt, Recorder& recorder);
  ~Runtime() override;  // stops and joins if still running

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- topology (single-threaded, before start) --------------------------

  /// Register an actor; returns its ProcessId (0, 1, 2, ... in order).
  sim::ProcessId add_actor(std::unique_ptr<sim::Actor> actor);

  template <typename T, typename... Args>
  T* make_actor(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    add_actor(std::move(owned));
    return raw;
  }

  [[nodiscard]] std::size_t num_processes() const { return actors_.size(); }
  [[nodiscard]] sim::Actor* actor(sim::ProcessId p) {
    return actors_[static_cast<std::size_t>(p)].get();
  }

  /// Install one transport per actor (index = ProcessId), before start().
  /// An actor's covered logical sends divert to its transport, and the
  /// kTransport segments it pops are offered to that transport before the
  /// actor sees them — always under the actor's own dispatch claim, so a
  /// transport needs no lock. Not owned. A sender with a transport never
  /// blocks on a full mailbox: the message is recorded as a congestion
  /// loss instead, and the ARQ's retransmission makes it good.
  void set_transports(const std::vector<sim::Transport*>& transports);

  // -- fault plan (single-threaded, before start) ------------------------

  /// Crash `p` at tick `at` (takes effect at `p`'s first dispatch boundary
  /// at or after `at`; `at` = 0 crashes before on_start, like the sim).
  void schedule_crash(sim::ProcessId p, sim::Time at);

  /// Recover `p` at tick `at` (>= its scheduled crash; one crash/recovery
  /// cycle per process per run). The corpse wakes at its first dispatch
  /// boundary at or after `at`: its mailbox backlog is drained as drops
  /// (recovery fences the inbound channels), the crash flags clear, and
  /// `Actor::on_recover` runs the protocol-level rejoin.
  void schedule_recovery(sim::ProcessId p, sim::Time at);

  /// Run `fn` in `p`'s dispatch context `delay` ticks from now. Callable
  /// before start or from `p`'s own handlers; never runs once `p` has
  /// crashed (the crash clears the actor's pending calls, so a recovered
  /// incarnation never sees its predecessor's).
  void call_after(sim::ProcessId p, sim::Time delay, std::function<void()> fn) override;

  // -- execution ---------------------------------------------------------

  /// Resolve the shard count, assign actors to home shards, enqueue every
  /// actor for its first dispatch (which runs on_start — or the crash, for
  /// a tick-0 crash plan) and launch the shard workers. The tick clock is
  /// rebased here: tick 0 is "now", setup cost never eats into the horizon.
  void start();

  /// Ask every shard to stop at its next dispatch boundary and join the
  /// threads. Messages still in flight stay in flight (the books keep
  /// them in transit, like undelivered events at the sim's horizon).
  void stop_and_join();

  /// start() + sleep until tick `horizon` + stop_and_join(), then stamp
  /// the trace end time. The whole-run convenience the scenario uses.
  void run_for(sim::Time horizon);

  // -- live queries (any thread) -----------------------------------------

  /// Crash `p` at its next dispatch boundary (live fault injection from
  /// tests or a chaos driver).
  void request_crash(sim::ProcessId p);

  [[nodiscard]] bool crashed(sim::ProcessId p) const override {
    return cells_[static_cast<std::size_t>(p)]->crashed.load(std::memory_order_acquire);
  }
  /// Tick at which `p` crashed (-1 if alive).
  [[nodiscard]] sim::Time crash_time(sim::ProcessId p) const {
    return cells_[static_cast<std::size_t>(p)]->crash_tick.load(std::memory_order_acquire);
  }
  /// Crash times for all processes, indexed by id (-1 = alive) — the shape
  /// the property checkers take.
  [[nodiscard]] std::vector<sim::Time> crash_times() const;

  /// Resolved shard count (0 before start()).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Home shard of `p` (valid after start()).
  [[nodiscard]] std::size_t shard_of(sim::ProcessId p) const {
    return cells_[static_cast<std::size_t>(p)]->home;
  }
  /// Aggregated executor counters; exact after stop_and_join, a live
  /// (slightly stale) snapshot while running.
  [[nodiscard]] ExecutorStats stats() const;
  /// Per-shard executor counters, indexed by shard — the live telemetry
  /// loop's per-shard counter tracks. Same freshness as stats().
  [[nodiscard]] std::vector<ExecutorStats> stats_per_shard() const;
  /// `p`'s mailbox books; read them after stop_and_join (the high-water
  /// mark is dispatch-confined state while workers run).
  [[nodiscard]] MailboxStats mailbox_stats(sim::ProcessId p) const;

  /// Detector and transport slack over the dining traffic, measured on
  /// the ideal network (docs/RUNTIME.md, "Mailboxes").
  static constexpr std::size_t kMailboxSlack = 8;
  /// Most messages a diner of degree `deg` should have waiting on the
  /// ideal network: P6's 4 per edge plus the slack. Its ring is this
  /// rounded up to a power of two; a non-diner counts as degree 0.
  [[nodiscard]] static constexpr std::size_t mailbox_bound(std::size_t deg) {
    return 4 * deg + kMailboxSlack;
  }

  [[nodiscard]] const TickClock& clock() const { return clock_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] Recorder& recorder() { return rec_; }

  // -- sim::TransportIface -----------------------------------------------

  void send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
            sim::MsgLayer layer) override;
  sim::TimerId set_timer(sim::ProcessId owner, sim::Time delay) override;
  void cancel_timer(sim::ProcessId owner, sim::TimerId id) override;
  [[nodiscard]] sim::Time now() const override {
    return started_.load(std::memory_order_acquire) ? clock_.now_ticks() : 0;
  }
  sim::Rng& actor_rng(sim::ProcessId p) override {
    return *cells_[static_cast<std::size_t>(p)]->rng;
  }

  // -- sim::ArqEnv (from the owning actor's dispatch claim) --------------

  /// Numbers the message with the sender's own logical counter, so
  /// (sender, seq) names it in the kSend and the kDeliver or kDrop record.
  std::uint64_t book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                  const sim::Payload& payload, sim::MsgLayer layer) override;
  void book_logical_drop(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                         sim::MsgLayer layer, std::uint64_t logical_seq) override;
  void physical_send(sim::ProcessId from, sim::ProcessId to,
                     const sim::Payload& payload) override {
    raw_send(from, to, payload, sim::MsgLayer::kTransport);
  }
  /// Runs on `to`'s worker, inside the dispatch that popped the segment:
  /// calling the actor directly keeps its handlers atomic, and its crash
  /// flag cannot flip mid-dispatch.
  void deliver_logical(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                       sim::MsgLayer layer, std::uint64_t logical_seq,
                       sim::Time sent_at) override;

 private:
  // Dispatch-state words (ActorCell::state).
  static constexpr std::uint32_t kIdle = 0;
  static constexpr std::uint32_t kQueued = 1;
  static constexpr std::uint32_t kRunning = 2;

  struct TimerEntry {
    sim::Time at = 0;
    sim::TimerId id = 0;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.at > b.at || (a.at == b.at && a.id > b.id);
    }
  };

  /// Bounded MPMC ring of actor indices (the mailbox's VyukovRing, with
  /// many consumers). Entries are scheduling hints — losing a claim CAS
  /// after popping one is fine — but entries themselves must not be lost,
  /// so a full ring overflows to the shard's mutexed list instead of
  /// dropping (see schedule()). The seq_cst ticket CAS in try_push is
  /// globally ordered before the pusher's `sleeping` probe (lost-wakeup
  /// handshake with park()).
  class RunQueue final : public VyukovRing<std::uint32_t> {
   public:
    using VyukovRing::VyukovRing;

    bool try_pop(std::uint32_t& v) {
      std::size_t pos = tail_.load(std::memory_order_relaxed);
      for (;;) {
        Cell& cell = cells_[pos & mask_];
        const std::size_t seq = cell.seq.load(std::memory_order_acquire);
        const auto dif =
            static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
        if (dif == 0) {
          if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
            v = cell.value;  // published before seq (release), visible via acquire
            cell.seq.store(pos + mask_ + 1, std::memory_order_release);
            return true;
          }
        } else if (dif < 0) {
          return false;  // empty
        } else {
          pos = tail_.load(std::memory_order_relaxed);
        }
      }
    }

    [[nodiscard]] bool maybe_nonempty() const {
      return head_.load(std::memory_order_seq_cst) !=
             tail_.load(std::memory_order_seq_cst);
    }
  };

  struct ActorCell {
    std::optional<MpscRingMailbox> mailbox;  ///< sized and built in start()
    std::uint32_t home = 0;  ///< home shard index (set in start())
    std::atomic<std::uint64_t> mailbox_full{0};  ///< pushes that found it full

    /// The dispatch claim — see the state machine in the file comment.
    std::atomic<std::uint32_t> state{kIdle};

    /// Earliest (timer or crash) deadline currently registered in the home
    /// shard's timer registry; -1 = none. Written under the dispatch claim
    /// or by the registry popper's reset CAS.
    std::atomic<sim::Time> registered_at{-1};

    std::atomic<bool> crashed{false};
    std::atomic<sim::Time> crash_tick{-1};
    std::atomic<bool> crash_req{false};

    // Dispatch-confined state (guarded by the kRunning claim; pre-start,
    // single-threaded):
    bool started = false;  ///< on_start has run (or the tick-0 crash beat it)
    std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timers;
    std::unordered_set<sim::TimerId> active;  ///< armed actor timers
    std::unordered_map<sim::TimerId, std::function<void()>> calls;
    sim::TimerId next_timer_id = 1;
    std::unique_ptr<sim::Rng> rng;        ///< Rng(seed).fork(p + 1)
    /// This sender's link faults (null on the ideal network).
    std::unique_ptr<net::LinkFaultModel> faults;
    sim::Transport* transport = nullptr;  ///< this actor's ARQ (not owned)
    std::uint64_t next_logical_seq = 0;   ///< book_logical_send's counter
    sim::Time crash_at = -1;              ///< scheduled crash tick (-1 = none)
    sim::Time recover_at = -1;            ///< scheduled rejoin tick (-1 = none)
    std::size_t mailbox_high_water = 0;   ///< max occupancy seen at a drain

    /// pop_n, booking the occupancy first. Only a drain lowers it, so a
    /// read just before each drain sees every peak, with no extra
    /// read-modify-write on the producers' push path.
    std::size_t drain(sim::Message* out, std::size_t max) {
      mailbox_high_water = std::max(mailbox_high_water, mailbox->occupancy());
      return mailbox->pop_n(out, max);
    }
  };

  /// (deadline, actor) entry in a shard's timer registry heap.
  struct TimerReg {
    sim::Time at = 0;
    std::uint32_t idx = 0;
  };
  struct TimerRegLater {
    bool operator()(const TimerReg& a, const TimerReg& b) const {
      return a.at > b.at || (a.at == b.at && a.idx > b.idx);
    }
  };

  /// Single-writer counter: the shard's own worker thread (helpers book
  /// into their OWN shard via tls_shard) is the only incrementer, so a
  /// relaxed load+store pair is a data-race-free increment — no RMW on
  /// the hot path — while any thread may read a live snapshot.
  struct RelaxedCounter {
    std::atomic<std::uint64_t> v{0};
    RelaxedCounter& operator++() {
      v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
      return *this;
    }
    [[nodiscard]] std::uint64_t get() const { return v.load(std::memory_order_relaxed); }
  };

  /// Per-worker counters: written only by the shard's own worker thread
  /// (helpers book into their OWN shard), readable live by the telemetry
  /// sampler, exact after join.
  struct Counters {
    RelaxedCounter dispatches;
    RelaxedCounter runs;
    RelaxedCounter steals;
    RelaxedCounter helps;
    RelaxedCounter timer_helps;
    RelaxedCounter parks;
  };

  struct Shard {
    explicit Shard(std::size_t runq_capacity) : runq(runq_capacity) {}

    RunQueue runq;
    std::thread thread;

    // Overflow backstop for a full run queue (entries must never be lost).
    std::mutex overflow_mu;
    std::vector<std::uint32_t> overflow;
    std::atomic<std::size_t> overflow_count{0};

    // Timer registry: pending (deadline, actor) wakeups for actors homed
    // here. `next_deadline` caches the heap top for lock-free scans.
    std::mutex timer_mu;
    std::priority_queue<TimerReg, std::vector<TimerReg>, TimerRegLater> timer_heap;
    std::atomic<sim::Time> next_deadline{-1};

    // Parking lot (same Dekker discipline as the old per-actor one).
    std::atomic<bool> sleeping{false};
    std::mutex park_mu;
    std::condition_variable park_cv;

    Counters counters;
  };

  void worker_loop(std::size_t shard_index);
  /// Run one claimed actor: timers, batched mailbox drain, crash checks
  /// between handlers; then release the claim via finish_run.
  void dispatch_run(std::uint32_t idx, Counters* c);
  void finish_run(ActorCell& cell, std::uint32_t idx);
  /// CAS kIdle→kQueued and announce on the home shard's run queue.
  void schedule(std::uint32_t idx);
  /// Register the cell's earliest timer/crash deadline with its home
  /// shard's registry (dispatch-claim context).
  void register_deadline(ActorCell& cell, std::uint32_t idx);
  [[nodiscard]] static sim::Time earliest_deadline(const ActorCell& cell);
  /// Pop due registry entries and schedule their actors. `try_only` uses
  /// try_lock (the helping path). Returns whether anything was scheduled.
  bool drain_due_timers(Shard& s, bool try_only);
  /// Pop hints from `s`'s queue until a claim succeeds; run it. Returns
  /// whether a dispatch ran.
  bool try_run_from(Shard& s, Counters* c, bool stolen);
  bool pop_overflow(Shard& s, std::uint32_t& v);
  /// Claim `idx` from kQueued or kIdle and dispatch it in place (the
  /// blocked-producer helping path). Depth-capped; false if unclaimable.
  bool help_dispatch(std::uint32_t idx);
  void park(Shard& s, Counters* c);
  void wake(Shard& s);

  void do_crash(ActorCell& cell, sim::Actor& a, sim::ProcessId p);
  void do_recover(ActorCell& cell, sim::Actor& a, sim::ProcessId p);
  /// True if a timer was due and dispatched (one per call: crash checks
  /// run between dispatches).
  bool fire_one_timer(ActorCell& cell, sim::Actor& a, sim::ProcessId p);
  /// Push with backpressure: helps dispatch the target while its mailbox
  /// is full; gives up only at shutdown (the message then stays "in
  /// flight" forever, like an undelivered event at the horizon).
  void push_blocking(std::uint32_t idx, const sim::Message& m);
  /// Physical send, past the transport diversion: asks the sender's fault
  /// model, records, enqueues.
  void raw_send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                sim::MsgLayer layer);
  /// push_blocking when the sender has no transport; otherwise a
  /// non-blocking push whose failure is recorded as a congestion loss.
  /// Returns whether the message was enqueued (and scheduled).
  bool enqueue(std::uint32_t idx, const sim::Message& m);

  Options opt_;
  /// The cuts every sender's fault model reads (null on the ideal network).
  std::shared_ptr<net::CutSchedule> cuts_;
  Recorder& rec_;
  TickClock clock_;
  std::vector<std::unique_ptr<sim::Actor>> actors_;
  std::vector<std::unique_ptr<ActorCell>> cells_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< built in start()
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  bool joined_ = false;
};

/// Perfect oracle over the runtime's crash flags: suspects exactly the
/// crashed processes (one atomic load), with zero latency and zero
/// mistakes. The rt counterpart of `fd::PerfectDetector` (which reads the
/// simulator); used for ablation and for tests that must not see a single
/// false suspicion.
class RtPerfectDetector final : public fd::FailureDetector {
 public:
  explicit RtPerfectDetector(const Runtime& rt) : rt_(rt) {}
  [[nodiscard]] bool suspects(sim::ProcessId, sim::ProcessId target) const override {
    return rt_.crashed(target);
  }

 private:
  const Runtime& rt_;
};

}  // namespace ekbd::rt
