#include "rt/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "dining/diner.hpp"

namespace ekbd::rt {

namespace {
// Executor tuning (docs/RUNTIME.md): no caller needs other values.
constexpr int kDispatchBatch = 64;       ///< handlers per claim before it is released
constexpr std::size_t kDrainBurst = 16;  ///< messages per bulk mailbox drain
constexpr int kSpinPolls = 64;           ///< idle probes before a worker parks
constexpr std::chrono::nanoseconds kParkCap{2'000'000};  ///< also the helping latency bound
constexpr std::uint64_t kStreamWindowTicks = 50;  ///< recorder merge window
constexpr std::size_t kStreamPendingCap = 0;      ///< pending records before shedding; 0 = off
constexpr int kMaxHelpDepth = 4;  ///< nested help-dispatch cap

/// Shard index of the calling worker thread (-1 off the shard pool):
/// routes helper/stealer counters to the thread's OWN shard so the
/// Counters stay single-writer.
thread_local int tls_shard = -1;
/// Nested help-dispatch depth (push_blocking inside a helped dispatch).
thread_local int tls_help_depth = 0;
}  // namespace

Runtime::Runtime(Options opt, Recorder& recorder)
    : opt_(std::move(opt)), rec_(recorder), clock_(opt_.tick_ns) {
  const net::LinkFaultParams& f = opt_.link_faults;
  if (f.drop_prob > 0.0 || f.dup_prob > 0.0 || f.reorder_prob > 0.0 ||
      !opt_.partitions.empty() || !opt_.edge_cuts.empty()) {
    cuts_ = std::make_shared<net::CutSchedule>(
        net::CutSchedule{opt_.partitions, opt_.edge_cuts});
  }
}

Runtime::~Runtime() { stop_and_join(); }

sim::ProcessId Runtime::add_actor(std::unique_ptr<sim::Actor> actor) {
  assert(!started_.load(std::memory_order_relaxed) &&
         "register all actors before start()");
  const auto id = static_cast<sim::ProcessId>(actors_.size());
  bind(*actor, this, id);
  actors_.push_back(std::move(actor));

  auto cell = std::make_unique<ActorCell>();
  // Same derivation as Simulator::actor_rng — the cross-engine
  // reproducibility contract of TransportIface. Identical for any shard
  // count: the stream is a pure function of (seed, id) and is drawn only
  // under the actor's dispatch claim.
  cell->rng = std::make_unique<sim::Rng>(
      sim::Rng(opt_.seed).fork(static_cast<std::uint64_t>(id) + 1));
  if (cuts_ != nullptr) {
    cell->faults = std::make_unique<net::LinkFaultModel>(net::fault_seed(opt_.seed, id),
                                                         opt_.link_faults, cuts_);
  }
  cells_.push_back(std::move(cell));
  return id;
}

void Runtime::schedule_crash(sim::ProcessId p, sim::Time at) {
  assert(!started_.load(std::memory_order_relaxed) && "plan crashes before start()");
  cells_[static_cast<std::size_t>(p)]->crash_at = at < 0 ? 0 : at;
}

void Runtime::schedule_recovery(sim::ProcessId p, sim::Time at) {
  assert(!started_.load(std::memory_order_relaxed) && "plan recoveries before start()");
  ActorCell& cell = *cells_[static_cast<std::size_t>(p)];
  assert(cell.crash_at >= 0 && "recovery without a scheduled crash");
  cell.recover_at = at < cell.crash_at ? cell.crash_at : at;
}

void Runtime::call_after(sim::ProcessId p, sim::Time delay, std::function<void()> fn) {
  ActorCell& cell = *cells_[static_cast<std::size_t>(p)];
  const sim::TimerId id = cell.next_timer_id++;
  cell.calls.emplace(id, std::move(fn));
  cell.timers.push(TimerEntry{now() + (delay < 0 ? 0 : delay), id});
}

void Runtime::start() {
  assert(!started_.load(std::memory_order_relaxed) && "start() called twice");
  const std::size_t n = actors_.size();

  std::size_t shard_count = opt_.shards;
  if (shard_count == 0) {
    shard_count = std::thread::hardware_concurrency();
    if (shard_count == 0) shard_count = 4;
  }
  shard_count = std::max<std::size_t>(1, std::min(shard_count, std::max<std::size_t>(n, 1)));

  std::vector<std::size_t> homed(shard_count, 0);
  for (std::size_t i = 0; i < n; ++i) ++homed[i % shard_count];

  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Stale hints can briefly outnumber actors (a helper's claim leaves
    // the popped-later entry behind), so size generously; the overflow
    // list catches the rest — a schedule is never dropped.
    shards_.push_back(std::make_unique<Shard>(2 * homed[s] + 64));
  }

  // Size every ring by P6 (mailbox_bound of the diner's degree), then
  // announce every actor for its first dispatch (on_start, or the tick-0
  // crash) before any worker exists — single-threaded, relaxed is fine.
  for (std::size_t i = 0; i < n; ++i) {
    ActorCell& cell = *cells_[i];
    const auto* diner = dynamic_cast<const dining::Diner*>(actors_[i].get());
    cell.mailbox.emplace(mailbox_bound(diner != nullptr ? diner->diner_neighbors().size() : 0));
    cell.home = static_cast<std::uint32_t>(i % shard_count);
    cell.state.store(kQueued, std::memory_order_relaxed);
    const bool pushed = shards_[cell.home]->runq.try_push(static_cast<std::uint32_t>(i));
    assert(pushed && "initial run queue sized below one entry per actor");
    (void)pushed;
  }

  // Streaming observability: one recorder segment per shard, merged by
  // the recorder's collector thread. Started before the workers so their
  // very first records already go through their own segments.
  Recorder::StreamOptions sopts;
  sopts.segments = shard_count;
  sopts.window_ns = kStreamWindowTicks * opt_.tick_ns;
  sopts.pending_cap = kStreamPendingCap;
  rec_.begin_stream(sopts);

  clock_.rebase();
  started_.store(true, std::memory_order_release);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_[s]->thread = std::thread([this, s] { worker_loop(s); });
  }
}

void Runtime::stop_and_join() {
  if (joined_) return;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& s : shards_) {
    // Lock-then-notify: a worker between its stop check and its wait holds
    // the park mutex, so this lock serializes us after it enters the wait.
    std::lock_guard<std::mutex> lock(s->park_mu);
    s->park_cv.notify_all();
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  // Workers are quiesced: close the stream (final drain merges every
  // buffered record; the monitors and books are complete after this).
  if (started_.load(std::memory_order_relaxed)) rec_.end_stream();
  joined_ = true;
}

void Runtime::run_for(sim::Time horizon) {
  start();
  std::this_thread::sleep_until(clock_.deadline(horizon));
  stop_and_join();
  // After the join the clock is at or past every recorded timestamp, so
  // this end time never clips a recorded event.
  rec_.set_end_time(now());
}

void Runtime::request_crash(sim::ProcessId p) {
  ActorCell& cell = *cells_[static_cast<std::size_t>(p)];
  cell.crash_req.store(true, std::memory_order_seq_cst);
  // Dekker pair 4: the store above is ordered before schedule()'s state
  // load; a dispatcher releasing the claim re-probes crash_req after its
  // kIdle store — one side always sees the other.
  schedule(static_cast<std::uint32_t>(p));
}

std::vector<sim::Time> Runtime::crash_times() const {
  std::vector<sim::Time> out(cells_.size(), -1);
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    out[p] = cells_[p]->crash_tick.load(std::memory_order_acquire);
  }
  return out;
}

ExecutorStats Runtime::stats() const {
  ExecutorStats out;
  for (const auto& s : shards_) {
    out.dispatches += s->counters.dispatches.get();
    out.runs += s->counters.runs.get();
    out.steals += s->counters.steals.get();
    out.helps += s->counters.helps.get();
    out.timer_helps += s->counters.timer_helps.get();
    out.parks += s->counters.parks.get();
  }
  return out;
}

MailboxStats Runtime::mailbox_stats(sim::ProcessId p) const {
  const ActorCell& cell = *cells_[static_cast<std::size_t>(p)];
  if (!cell.mailbox) return {};
  // What is still waiting at the join never met a drain: fold it in.
  return {cell.mailbox->capacity(), std::max(cell.mailbox_high_water, cell.mailbox->occupancy()),
          cell.mailbox_full.load(std::memory_order_relaxed)};
}

std::vector<ExecutorStats> Runtime::stats_per_shard() const {
  std::vector<ExecutorStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    ExecutorStats e;
    e.dispatches = s->counters.dispatches.get();
    e.runs = s->counters.runs.get();
    e.steals = s->counters.steals.get();
    e.helps = s->counters.helps.get();
    e.timer_helps = s->counters.timer_helps.get();
    e.parks = s->counters.parks.get();
    out.push_back(e);
  }
  return out;
}

void Runtime::send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                   sim::MsgLayer layer) {
  if (to < 0 || static_cast<std::size_t>(to) >= cells_.size()) return;
  if (from >= 0 && crashed(from)) return;  // a dead process sends nothing
  sim::Transport* arq = from >= 0 ? cells_[static_cast<std::size_t>(from)]->transport : nullptr;
  if (arq != nullptr && arq->covers(layer)) {
    // Runs in the sender's dispatch context (handlers are the only senders
    // once started): the sender's own transport, under its own claim.
    arq->logical_send(from, to, payload, layer);
    return;
  }
  raw_send(from, to, payload, layer);
}

void Runtime::set_transports(const std::vector<sim::Transport*>& transports) {
  assert(!started_.load(std::memory_order_relaxed) && transports.size() == cells_.size() &&
         "install one transport per actor before start()");
  for (std::size_t p = 0; p < cells_.size(); ++p) cells_[p]->transport = transports[p];
}

std::uint64_t Runtime::book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                         const sim::Payload& payload, sim::MsgLayer layer) {
  const std::uint64_t seq = cells_[static_cast<std::size_t>(from)]->next_logical_seq++;
  rec_.on_logical_send(from, to, sim::payload_tag(payload), layer, seq, now());
  return seq;
}

void Runtime::book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                                const sim::Payload& payload, sim::MsgLayer layer,
                                std::uint64_t logical_seq) {
  rec_.on_logical_drop(from, to, sim::payload_tag(payload), layer, logical_seq, now());
}

void Runtime::deliver_logical(sim::ProcessId from, sim::ProcessId to,
                              const sim::Payload& payload, sim::MsgLayer layer,
                              std::uint64_t logical_seq, sim::Time sent_at) {
  const sim::Time t = now();
  rec_.on_logical_deliver(from, to, sim::payload_tag(payload), layer, logical_seq, t);
  sim::Message m;
  m.from = from;
  m.to = to;
  m.sent_at = sent_at;
  m.deliver_at = t;
  m.layer = layer;
  m.seq = logical_seq;
  m.payload = payload;
  actors_[static_cast<std::size_t>(to)]->on_message(m);
}

void Runtime::raw_send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                       sim::MsgLayer layer) {
  if (to < 0 || static_cast<std::size_t>(to) >= cells_.size()) return;
  if (from >= 0 && crashed(from)) return;

  const auto ti = static_cast<std::uint32_t>(to);

  sim::FaultDecision fate;
  if (from >= 0) {
    // The *sender's* model: send() runs in the sender's dispatch context
    // (handlers are the only senders once started), so the model is
    // claim-confined and its schedule depends only on the sender's own
    // send order. Mailboxes are FIFO, so a reorder coin only counts.
    net::LinkFaultModel* faults = cells_[static_cast<std::size_t>(from)]->faults.get();
    if (faults != nullptr) fate = faults->on_send(from, to, layer, now());
  }

  sim::Message m;
  m.from = from;
  m.to = to;
  m.layer = layer;
  m.payload = payload;
  rec_.on_send(m, now(), fate.drop, fate.partitioned);
  if (fate.drop) return;

  if (!enqueue(ti, m)) return;

  if (fate.duplicate) {
    sim::Message d;
    d.from = from;
    d.to = to;
    d.layer = layer;
    d.payload = payload;
    rec_.on_duplicate(d, now());
    enqueue(ti, d);
  }
}

bool Runtime::enqueue(std::uint32_t idx, const sim::Message& m) {
  ActorCell& cell = *cells_[idx];
  assert(cell.mailbox && "mailboxes are built in start(): send after it");
  if (m.from < 0 || cells_[static_cast<std::size_t>(m.from)]->transport == nullptr) {
    push_blocking(idx, m);
    return true;
  }
  // On a lossy network a full mailbox is one more wire loss, which the ARQ
  // exists to absorb: the sender never stalls (or help-dispatches) behind
  // a slow peer.
  if (cell.mailbox->try_push(m)) {
    schedule(idx);
    return true;
  }
  cell.mailbox_full.fetch_add(1, std::memory_order_relaxed);
  rec_.on_congestion_loss(m, now());
  return false;
}

sim::TimerId Runtime::set_timer(sim::ProcessId owner, sim::Time delay) {
  // Dispatch-claim-confined by the TransportIface contract: no lock needed.
  ActorCell& cell = *cells_[static_cast<std::size_t>(owner)];
  const sim::TimerId id = cell.next_timer_id++;
  cell.timers.push(TimerEntry{now() + (delay < 0 ? 0 : delay), id});
  cell.active.insert(id);
  return id;
}

void Runtime::cancel_timer(sim::ProcessId owner, sim::TimerId id) {
  // Lazy deletion: drop the armed flag, let the heap entry fizzle.
  cells_[static_cast<std::size_t>(owner)]->active.erase(id);
}

void Runtime::push_blocking(std::uint32_t idx, const sim::Message& m) {
  ActorCell& cell = *cells_[idx];
  int spins = 0;
  bool full = false;
  while (!cell.mailbox->try_push(m)) {
    // Booked once per push, on the slow path only.
    if (!std::exchange(full, true)) cell.mailbox_full.fetch_add(1, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Full mailbox: the target is behind. Help it along — claim its
    // dispatch and drain its mailbox on THIS thread. With one shard (or a
    // stalled home shard) this self-help is the only way the mailbox ever
    // drains; with many it just shortens the wait. If the target is
    // already kRunning elsewhere (or we are nested too deep), fall back to
    // yield/sleep like the old engine.
    if (help_dispatch(idx)) continue;
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  schedule(idx);
}

bool Runtime::help_dispatch(std::uint32_t idx) {
  if (tls_help_depth >= kMaxHelpDepth) return false;
  if (shards_.empty()) return false;
  ActorCell& cell = *cells_[idx];
  std::uint32_t st = cell.state.load(std::memory_order_seq_cst);
  if (st == kRunning) return false;
  // Claim from kQueued (its queue hint goes stale and is discarded by the
  // next popper) or straight from kIdle (no hint exists to go stale).
  if (!cell.state.compare_exchange_strong(st, kRunning, std::memory_order_seq_cst)) {
    return false;
  }
  Counters* c = tls_shard >= 0 ? &shards_[static_cast<std::size_t>(tls_shard)]->counters
                               : nullptr;
  if (c != nullptr) ++c->helps;
  ++tls_help_depth;
  dispatch_run(idx, c);
  --tls_help_depth;
  return true;
}

void Runtime::schedule(std::uint32_t idx) {
  if (shards_.empty()) return;  // pre-start: the initial announce in start() covers it
  ActorCell& cell = *cells_[idx];
  std::uint32_t expect = kIdle;
  if (!cell.state.compare_exchange_strong(expect, kQueued, std::memory_order_seq_cst)) {
    return;  // already announced or running; finish_run's recheck covers the rest
  }
  Shard& h = *shards_[cell.home];
  if (!h.runq.try_push(idx)) {
    // Hints must never be lost (state == kQueued promises an entry
    // exists somewhere); a full ring spills to the overflow list.
    std::lock_guard<std::mutex> lock(h.overflow_mu);
    h.overflow.push_back(idx);
    h.overflow_count.fetch_add(1, std::memory_order_seq_cst);
  }
  wake(h);
}

void Runtime::wake(Shard& s) {
  if (s.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(s.park_mu);
    s.park_cv.notify_one();
  }
}

void Runtime::do_crash(ActorCell& cell, sim::Actor& a, sim::ProcessId p) {
  const sim::Time t = clock_.now_ticks();
  cell.crashed.store(true, std::memory_order_seq_cst);
  cell.crash_tick.store(t, std::memory_order_release);
  rec_.on_crash(p, t);
  a.on_crash();  // instrumentation only (e.g. the diner's kCrashed trace event)
  // The process is dead: its pending timers and scheduled calls die with
  // it. A registry entry already pointing at it just fizzles (the corpse's
  // dispatch finds nothing due and re-idles).
  cell.timers = {};
  cell.active.clear();
  cell.calls.clear();
  cell.registered_at.store(-1, std::memory_order_relaxed);
}

void Runtime::do_recover(ActorCell& cell, sim::Actor& a, sim::ProcessId p) {
  const sim::Time t = clock_.now_ticks();
  // Recovery fences the inbound channels: everything mailboxed before this
  // instant was addressed to the dead incarnation — drain it as drops
  // (same records a corpse's drain produces) before the actor wakes.
  sim::Message buf[kDrainBurst];
  for (;;) {
    const std::size_t n = cell.drain(buf, kDrainBurst);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) rec_.on_deliver(buf[i], t, /*target_crashed=*/true);
  }
  cell.recover_at = -1;
  cell.crash_at = -1;
  cell.crash_req.store(false, std::memory_order_seq_cst);
  cell.crash_tick.store(-1, std::memory_order_release);
  cell.crashed.store(false, std::memory_order_seq_cst);
  rec_.on_recover(p, t);
  a.on_recover();
}

bool Runtime::fire_one_timer(ActorCell& cell, sim::Actor& a, sim::ProcessId p) {
  if (cell.timers.empty()) return false;
  const TimerEntry e = cell.timers.top();
  if (e.at > clock_.now_ticks()) return false;
  cell.timers.pop();
  const auto cit = cell.calls.find(e.id);
  if (cit != cell.calls.end()) {
    std::function<void()> fn = std::move(cit->second);
    cell.calls.erase(cit);
    fn();
    return true;
  }
  if (cell.active.erase(e.id) != 0) {
    rec_.on_timer(p, clock_.now_ticks());
    a.on_timer(e.id);
    return true;
  }
  return false;  // cancelled entry fizzled; not a dispatch
}

sim::Time Runtime::earliest_deadline(const ActorCell& cell) {
  if (cell.crashed.load(std::memory_order_relaxed)) {
    // A corpse has exactly one possible wakeup: its scheduled recovery.
    return cell.recover_at;
  }
  sim::Time want = cell.timers.empty() ? -1 : cell.timers.top().at;
  if (cell.crash_at >= 0 && (want < 0 || cell.crash_at < want)) want = cell.crash_at;
  return want;
}

void Runtime::register_deadline(ActorCell& cell, std::uint32_t idx) {
  const sim::Time want = earliest_deadline(cell);
  if (want < 0) {
    cell.registered_at.store(-1, std::memory_order_relaxed);
    return;
  }
  // O(1) when nothing changed since the last run — the common case for a
  // pump timer that re-arms with the same cadence.
  if (cell.registered_at.load(std::memory_order_relaxed) == want) return;
  cell.registered_at.store(want, std::memory_order_seq_cst);
  Shard& h = *shards_[cell.home];
  bool improved = false;
  {
    std::lock_guard<std::mutex> lock(h.timer_mu);
    h.timer_heap.push(TimerReg{want, idx});
    const sim::Time nd = h.next_deadline.load(std::memory_order_relaxed);
    if (nd < 0 || want < nd) {
      h.next_deadline.store(want, std::memory_order_seq_cst);
      improved = true;
    }
  }
  // A cross-thread registration (helper ran the dispatch) that shortens
  // the home shard's horizon must interrupt its park, or the timer fires
  // up to kParkCap late.
  if (improved && tls_shard != static_cast<int>(cell.home)) wake(h);
}

bool Runtime::drain_due_timers(Shard& s, bool try_only) {
  const sim::Time now_t = clock_.now_ticks();
  const sim::Time nd = s.next_deadline.load(std::memory_order_seq_cst);
  if (nd < 0 || nd > now_t) return false;
  std::unique_lock<std::mutex> lock(s.timer_mu, std::defer_lock);
  if (try_only) {
    if (!lock.try_lock()) return false;
  } else {
    lock.lock();
  }
  bool any = false;
  while (!s.timer_heap.empty() && s.timer_heap.top().at <= now_t) {
    const TimerReg r = s.timer_heap.top();
    s.timer_heap.pop();
    // Dekker pair 3: reset the registration hint BEFORE scheduling. If the
    // actor is mid-dispatch (claim CAS fails inside schedule), its
    // finish_run re-probes registered_at after storing kIdle, sees -1 with
    // timers still armed, and re-announces itself.
    ActorCell& cell = *cells_[r.idx];
    sim::Time expect = r.at;
    cell.registered_at.compare_exchange_strong(expect, -1, std::memory_order_seq_cst);
    schedule(r.idx);
    any = true;
  }
  s.next_deadline.store(s.timer_heap.empty() ? -1 : s.timer_heap.top().at,
                        std::memory_order_seq_cst);
  return any;
}

bool Runtime::pop_overflow(Shard& s, std::uint32_t& v) {
  if (s.overflow_count.load(std::memory_order_seq_cst) == 0) return false;
  std::lock_guard<std::mutex> lock(s.overflow_mu);
  if (s.overflow.empty()) return false;
  v = s.overflow.back();
  s.overflow.pop_back();
  s.overflow_count.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

bool Runtime::try_run_from(Shard& s, Counters* c, bool stolen) {
  std::uint32_t idx = 0;
  while (s.runq.try_pop(idx) || pop_overflow(s, idx)) {
    ActorCell& cell = *cells_[idx];
    std::uint32_t expect = kQueued;
    if (cell.state.compare_exchange_strong(expect, kRunning, std::memory_order_seq_cst)) {
      if (stolen && c != nullptr) ++c->steals;
      dispatch_run(idx, c);
      return true;
    }
    // Stale hint: a helper (or an earlier duplicate entry's winner) got
    // here first. The state machine owns correctness; just discard it.
  }
  return false;
}

void Runtime::dispatch_run(std::uint32_t idx, Counters* c) {
  ActorCell& cell = *cells_[idx];
  sim::Actor& a = *actors_[idx];
  const auto p = static_cast<sim::ProcessId>(idx);
  if (c != nullptr) ++c->runs;

  bool dead = cell.crashed.load(std::memory_order_relaxed);
  const auto crash_due = [&]() -> bool {
    if (dead) return false;
    return cell.crash_req.load(std::memory_order_acquire) ||
           (cell.crash_at >= 0 && clock_.now_ticks() >= cell.crash_at);
  };
  // Scheduled rejoin: the corpse wakes at recover_at (its registry entry
  // keeps it reachable) and the new incarnation resumes from here.
  if (dead && cell.recover_at >= 0 && clock_.now_ticks() >= cell.recover_at) {
    do_recover(cell, a, p);
    dead = false;
  }

  int budget = kDispatchBatch;

  if (!cell.started) {
    cell.started = true;
    // A crash at tick 0 fells the process before on_start (the simulator's
    // pre-marked-crash semantics).
    if (crash_due()) {
      do_crash(cell, a, p);
      dead = true;
    } else {
      a.on_start();
      if (c != nullptr) ++c->dispatches;
      --budget;
    }
  }

  sim::Message buf[kDrainBurst];

  while (budget > 0 && !stop_.load(std::memory_order_relaxed)) {
    if (crash_due()) {
      do_crash(cell, a, p);
      dead = true;
    }

    // Timers first (pump/heartbeat cadence survives message floods), one
    // at a time so crash checks run between dispatches.
    bool fired = false;
    while (!dead && budget > 0 && fire_one_timer(cell, a, p)) {
      fired = true;
      --budget;
      if (c != nullptr) ++c->dispatches;
      if (crash_due()) {
        do_crash(cell, a, p);
        dead = true;
      }
    }

    const auto want = std::min(kDrainBurst, static_cast<std::size_t>(std::max(budget, 1)));
    const std::size_t n = cell.drain(buf, want);
    for (std::size_t i = 0; i < n; ++i) {
      rec_.on_deliver(buf[i], clock_.now_ticks(), dead);
      if (!dead) {
        // ARQ segments go to this actor's transport (which reassembles and
        // re-enters the actor via deliver_logical, still inside this
        // dispatch slot); everything else — and anything the transport
        // does not recognize — goes to the actor.
        if (cell.transport != nullptr && buf[i].layer == sim::MsgLayer::kTransport &&
            cell.transport->on_physical_deliver(buf[i])) {
          // consumed by the transport
        } else {
          a.on_message(buf[i]);
        }
        // A crash landing mid-batch: the rest of the drained burst is
        // recorded as drops, same as a corpse draining its mailbox.
        if (crash_due()) {
          do_crash(cell, a, p);
          dead = true;
        }
      }
      if (c != nullptr) ++c->dispatches;
    }
    budget -= static_cast<int>(n);
    if (n == 0 && !fired) break;  // nothing due, nothing queued: go idle
  }

  finish_run(cell, idx);
}

void Runtime::finish_run(ActorCell& cell, std::uint32_t idx) {
  register_deadline(cell, idx);
  // Snapshot the deadline while the claim still protects the (non-atomic)
  // timer heap: the instant kIdle publishes, another worker may claim this
  // actor and mutate the heap, so the recheck below must not touch it. If
  // that happens the snapshot is stale, which is harmless — the new
  // claimant's own finish_run re-registers whatever it leaves armed.
  const sim::Time want = earliest_deadline(cell);
  cell.state.store(kIdle, std::memory_order_seq_cst);
  // Post-release recheck: each clause is the second half of a Dekker pair
  // (file comment in runtime.hpp) — producers, the crash requester and the
  // registry popper all publish their work BEFORE probing the state word,
  // so if their schedule() lost the race against our kRunning, we see
  // their work here and re-announce ourselves.
  bool requeue = cell.mailbox->maybe_nonempty() ||
                 cell.crash_req.load(std::memory_order_seq_cst);
  if (!requeue && want >= 0 &&
      (cell.registered_at.load(std::memory_order_seq_cst) < 0 ||
       want <= clock_.now_ticks())) {
    // Deadline armed but no live registration (the popper consumed it
    // concurrently), or already due (budget ran out mid-flood): the
    // registry won't ring again — re-announce directly.
    requeue = true;
  }
  if (requeue) schedule(idx);
}

void Runtime::park(Shard& s, Counters* c) {
  // A due registry deadline must end the idle path immediately: on an
  // oversubscribed box a single yield can cost a full scheduling quantum,
  // so an unconditional spin would hold the shard's timers hostage for
  // tens of milliseconds while nothing else can make progress.
  const auto deadline_due = [&]() {
    const sim::Time nd = s.next_deadline.load(std::memory_order_relaxed);
    return nd >= 0 && nd <= clock_.now_ticks();
  };

  // Brief spin first: most wakeups arrive within microseconds.
  for (int i = 0; i < kSpinPolls; ++i) {
    if (s.runq.maybe_nonempty() ||
        s.overflow_count.load(std::memory_order_relaxed) != 0 ||
        stop_.load(std::memory_order_relaxed) || deadline_due()) {
      return;
    }
    std::this_thread::yield();
  }

  // The cap doubles as the helping latency bound: within one cap every
  // worker re-scans the OTHER shards' queues and registries, so a stalled
  // shard's announced work waits at most kParkCap for a helper.
  auto deadline = TickClock::WallClock::now() + kParkCap;
  const sim::Time nd = s.next_deadline.load(std::memory_order_seq_cst);
  if (nd >= 0) {
    if (nd <= clock_.now_ticks()) return;  // went due during the spin
    const auto t = clock_.deadline(nd);
    if (t < deadline) deadline = t;
  }

  std::unique_lock<std::mutex> lock(s.park_mu);
  s.sleeping.store(true, std::memory_order_seq_cst);
  // Re-probe after publishing the sleeping flag (Dekker pair 2 with
  // schedule()'s push-then-probe).
  if (s.runq.maybe_nonempty() ||
      s.overflow_count.load(std::memory_order_seq_cst) != 0 ||
      stop_.load(std::memory_order_seq_cst) || deadline_due()) {
    s.sleeping.store(false, std::memory_order_relaxed);
    return;
  }
  if (c != nullptr) ++c->parks;
  s.park_cv.wait_until(lock, deadline);
  s.sleeping.store(false, std::memory_order_relaxed);
}

void Runtime::worker_loop(std::size_t shard_index) {
  tls_shard = static_cast<int>(shard_index);
  Shard& s = *shards_[shard_index];
  Counters* c = &s.counters;
  const std::size_t shard_count = shards_.size();
  // Streaming observability: this thread's records go to its own
  // segment; the per-iteration heartbeat below keeps the merge horizon
  // advancing even when the shard is idle (a parked worker re-loops at
  // least once per park cap).
  rec_.bind_segment(shard_index);

  // Victim-scan window: probing EVERY other shard per idle round would be
  // O(shards²) across the fleet — ruinous at shards == n (the
  // thread-per-actor configuration). A bounded window starting at a
  // per-worker rotating offset keeps each round cheap while still visiting
  // every victim across successive rounds, so the helping guarantee (a
  // stalled shard's announced work is eventually claimed by a neighbor)
  // is preserved — only its discovery latency grows with shard count.
  const std::size_t scan_window = std::min<std::size_t>(
      shard_count > 0 ? shard_count - 1 : 0, 8);
  std::size_t scan_offset = 0;

  while (!stop_.load(std::memory_order_acquire)) {
    rec_.heartbeat();
    drain_due_timers(s, /*try_only=*/false);
    if (try_run_from(s, c, /*stolen=*/false)) continue;

    // Idle: scan a window of other shards before parking — their due
    // timers (try_lock; the owner may hold it) and their announced
    // dispatches.
    bool progressed = false;
    for (std::size_t k = 0; k < scan_window; ++k) {
      Shard& t = *shards_[(shard_index + 1 + (scan_offset + k) % (shard_count - 1)) %
                          shard_count];
      if (drain_due_timers(t, /*try_only=*/true)) {
        ++c->timer_helps;
        progressed = true;
        break;
      }
      if (try_run_from(t, c, /*stolen=*/true)) {
        progressed = true;
        break;
      }
    }
    if (scan_window != 0) scan_offset = (scan_offset + scan_window) % (shard_count - 1);
    if (progressed) continue;
    park(s, c);
  }
  tls_shard = -1;
}

}  // namespace ekbd::rt
