#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ekbd::sim {

// -------------------------------------------------- TransportIface glue --

void TransportIface::bind(Actor& actor, TransportIface* ctx, ProcessId id) {
  actor.ctx_ = ctx;
  actor.id_ = id;
}

// ---------------------------------------------------------------- Actor --

void Actor::send(ProcessId to, const Payload& payload, MsgLayer layer) {
  assert(ctx_ != nullptr && "actor not registered with an engine");
  ctx_->send(id_, to, payload, layer);
}

TimerId Actor::set_timer(Time delay) { return ctx_->set_timer(id_, delay); }

void Actor::cancel_timer(TimerId id) { ctx_->cancel_timer(id_, id); }

Time Actor::now() const { return ctx_->now(); }

Rng& Actor::rng() { return ctx_->actor_rng(id_); }

// ------------------------------------------------------------ Simulator --

std::string PendingEvent::describe() const {
  switch (kind) {
    case Kind::kMessage:
      return "msg p" + std::to_string(from) + "->p" + std::to_string(to);
    case Kind::kTimer:
      return "timer@p" + std::to_string(owner);
    case Kind::kScheduled:
      return "scheduled";
  }
  return "?";
}

Simulator::Simulator(std::uint64_t seed, std::unique_ptr<DelayModel> delays, ExecMode mode)
    : seed_(seed),
      rng_(seed),
      delays_(delays ? std::move(delays) : make_uniform_delay(1, 10)),
      mode_(mode) {
  bucket_head_.fill(kNil);
}

ProcessId Simulator::add_actor(std::unique_ptr<Actor> actor) {
  assert(!started_ && "register all actors before start()");
  auto id = static_cast<ProcessId>(actors_.size());
  bind(*actor, this, id);
  actors_.push_back(std::move(actor));
  actor_rngs_.push_back(nullptr);
  crash_times_.push_back(-1);
  last_recover_.push_back(-1);
  incarnations_.push_back(0);
  return id;
}

void Simulator::start() {
  if (started_) return;
  started_ = true;
  for (auto& a : actors_) {
    if (!crashed(a->id())) a->on_start();
  }
}

Rng& Simulator::actor_rng(ProcessId p) {
  auto idx = static_cast<std::size_t>(p);
  if (!actor_rngs_[idx]) {
    // Stable derivation: depends only on the master seed and the id, not on
    // how many draws other components made before first use (in particular
    // it must NOT consume the master stream — that would make the actor's
    // stream, and everything drawn from the master afterwards, depend on
    // which actor asked first).
    actor_rngs_[idx] =
        std::make_unique<Rng>(Rng(seed_).fork(static_cast<std::uint64_t>(p) + 1));
  }
  return *actor_rngs_[idx];
}

std::uint32_t Simulator::acquire_slot() {
  static_assert(std::is_trivially_copyable_v<Event>,
                "Event must stay a flat record (slab stores are memcpys)");
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slab_.size() >= kMaxSlots) {
    // The packed heap key has 21 slot bits; ~2M *concurrently pending*
    // events means the workload is broken — fail loudly, never mis-order.
    std::fprintf(stderr, "sim: more than %llu concurrently pending events\n",
                 static_cast<unsigned long long>(kMaxSlots));
    std::abort();
  }
  const auto slot = static_cast<std::uint32_t>(slab_.size());
  slab_.emplace_back();
  return slot;
}

std::uint64_t Simulator::commit_event(std::uint32_t slot) {
  Event& ev = slab_[slot];
  assert(ev.at >= now_ && "cannot schedule into the past");
  const std::uint64_t seq = next_event_seq_++;
  ev.seq = seq;
  if (static_cast<std::uint64_t>(ev.at - cursor_) < kWheelSize) {
    wheel_append(slot, ev.at);
  } else {
    heap_.push_back(HeapEntry{ev.at, seq * kMaxSlots + slot});
    heap_sift_up(heap_.size() - 1);
  }
  note_queue_depth();
  if (metrics_.slab_live != nullptr) {
    metrics_.slab_live->set(static_cast<std::int64_t>(slab_.size() - free_slots_.size()));
  }
  return seq;
}

void Simulator::note_queue_depth() {
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->set(static_cast<std::int64_t>(wheel_size_ + heap_.size()));
  }
}

void Simulator::wheel_append(std::uint32_t slot, Time at) {
  const std::size_t b = static_cast<std::size_t>(at) & (kWheelSize - 1);
  slab_[slot].next = kNil;
  if (bucket_head_[b] == kNil) {
    bucket_head_[b] = slot;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  } else {
    slab_[bucket_tail_[b]].next = slot;
  }
  bucket_tail_[b] = slot;
  ++wheel_size_;
}

std::uint32_t Simulator::wheel_pop(std::size_t b) {
  const std::uint32_t slot = bucket_head_[b];
  bucket_head_[b] = slab_[slot].next;
  if (bucket_head_[b] == kNil) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  --wheel_size_;
  return slot;
}

std::size_t Simulator::first_bucket() const {
  // Scan forward from the cursor's bucket and wrap once: the low bits of
  // the starting word, met again last, are the window's latest ticks.
  const std::size_t start = static_cast<std::size_t>(cursor_) & (kWheelSize - 1);
  std::size_t w = start >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t i = 0; i < kWheelWords; ++i) {
    if (bits != 0) break;
    w = (w + 1) & (kWheelWords - 1);
    bits = occupied_[w];
  }
  assert(bits != 0 && "first_bucket() on an empty wheel");
  return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
}

void Simulator::advance_cursor(Time at) {
  assert(at >= cursor_);
  cursor_ = at;
  while (!heap_.empty() &&
         static_cast<std::uint64_t>(heap_.front().at - cursor_) < kWheelSize) {
    const HeapEntry e = heap_.front();
    heap_pop_front();
    wheel_append(e.slot(), e.at);
  }
}

void Simulator::heap_sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_later(heap_[best], heap_[c])) best = c;
    }
    if (!event_later(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
}

std::uint64_t Simulator::push_event(const Event& ev) {
  const std::uint32_t slot = acquire_slot();
  slab_[slot] = ev;
  return commit_event(slot);
}

Simulator::ControlledEvent& Simulator::push_controlled(PendingEvent::Kind kind,
                                                       ProcessId from, ProcessId to,
                                                       ProcessId owner,
                                                       std::uint64_t channel_rank) {
  const std::uint64_t id = next_event_seq_++;
  ControlledEvent& ev = controlled_[id];
  ev.info.id = id;
  ev.info.kind = kind;
  ev.info.from = from;
  ev.info.to = to;
  ev.info.owner = owner;
  ev.info.channel_rank = channel_rank;
  if (kind == PendingEvent::Kind::kMessage) {
    channel_fifo_[PendingEvent::channel_key(from, to)].push_back(id);
  }
  return ev;
}

void Simulator::schedule(Time at, std::function<void()> fn) {
  if (mode_ == ExecMode::kControlled) {
    push_controlled(PendingEvent::Kind::kScheduled, kNoProcess, kNoProcess, kNoProcess, 0)
        .fn = std::move(fn);
    return;
  }
  Event ev;
  ev.at = at;
  ev.kind = Event::Kind::kCallback;
  const std::uint64_t seq = push_event(ev);
  callbacks_[seq] = std::move(fn);
}

void Simulator::call_after(ProcessId owner, Time delay, std::function<void()> fn) {
  assert(mode_ == ExecMode::kTimed && "environment calls are a timed-mode feature");
  Event ev;
  ev.at = now_ + delay;
  ev.kind = Event::Kind::kCallback;
  ev.owner = owner;
  ev.incarnation = incarnations_[static_cast<std::size_t>(owner)];
  const std::uint64_t seq = push_event(ev);
  callbacks_[seq] = std::move(fn);
}

void Simulator::send(ProcessId from, ProcessId to, const Payload& payload,
                     MsgLayer layer) {
  assert(to >= 0 && static_cast<std::size_t>(to) < actors_.size());
  if (crashed(from)) return;  // a dead process sends nothing
  if (!transports_.empty() && mode_ == ExecMode::kTimed) {
    Transport* t = transports_[static_cast<std::size_t>(from)];
    if (t->covers(layer)) {
      t->logical_send(from, to, payload, layer);
      return;
    }
  }
  raw_send(from, to, payload, layer);
}

void Simulator::raw_send(ProcessId from, ProcessId to, const Payload& payload,
                         MsgLayer layer) {
  assert(to >= 0 && static_cast<std::size_t>(to) < actors_.size());
  if (crashed(from)) return;  // a dead process sends nothing
  if (mode_ == ExecMode::kControlled) {
    Message m;
    m.from = from;
    m.to = to;
    m.layer = layer;
    m.payload = payload;
    // Delay is nondeterministic — the driver chooses the arrival order.
    network_.stamp(m, now_, 1, crashed(to));
    if (metrics_.sends != nullptr) metrics_.sends->inc();
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kSend, from, to, layer, m.seq,
                       payload_tag(m.payload)});
    }
    const std::uint64_t rank = channel_send_rank_[PendingEvent::channel_key(from, to)]++;
    push_controlled(PendingEvent::Kind::kMessage, from, to, kNoProcess, rank).msg = m;
    return;
  }
  FaultDecision fate;
  if (adversary_ != nullptr) fate = adversary_->on_send(from, to, layer, now_);
  const bool duplicate = !fate.drop && fate.duplicate;
  const Time latency = delays_->sample(from, to, now_, rng_);
  // Build the delivery record directly in its slab slot — no stack
  // Message, no stack Event, no copies. Slots are recycled, so every
  // field a later reader touches is (re)assigned here.
  const std::uint32_t slot = acquire_slot();
  {
    Event& ev = slab_[slot];
    ev.msg.from = from;
    ev.msg.to = to;
    ev.msg.layer = layer;
    ev.msg.payload = payload;
  }
  if (duplicate) {
    // Stamped (so it draws the earlier network seq), logged and committed
    // before the original — exactly the order the copy-based code used.
    const std::uint32_t dup_slot = acquire_slot();  // may move the slab
    Event& dup_ev = slab_[dup_slot];
    dup_ev.msg = slab_[slot].msg;  // independent delay for the ghost
    network_.stamp(dup_ev.msg, now_, delays_->sample(from, to, now_, rng_), crashed(to),
                   /*fifo=*/false);
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDuplicate, from, to, layer,
                       dup_ev.msg.seq, payload_tag(dup_ev.msg.payload)});
    }
    dup_ev.at = dup_ev.msg.deliver_at;
    dup_ev.kind = Event::Kind::kDeliver;
    dup_ev.partitioned = false;
    commit_event(dup_slot);
  }
  Event& ev = slab_[slot];
  network_.stamp(ev.msg, now_, latency, crashed(to), /*fifo=*/!fate.reorder);
  if (metrics_.sends != nullptr) metrics_.sends->inc(duplicate ? 2 : 1);
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kSend, from, to, layer,
                     ev.msg.seq, payload_tag(ev.msg.payload)});
  }
  ev.at = ev.msg.deliver_at;
  if (fate.drop) {
    // Lost in flight: the message occupies the channel until its delivery
    // time, then the books settle and the loss is logged — never handed to
    // the recipient. Same settlement discipline as drop-at-crashed-target.
    ev.kind = Event::Kind::kDropSettle;
    ev.partitioned = fate.partitioned;
  } else {
    ev.kind = Event::Kind::kDeliver;
    ev.partitioned = false;  // slots are recycled: clear stale state
  }
  commit_event(slot);
}

void Simulator::deliver(const Message& m) {
  network_.delivered(m);
  if (crashed(m.to)) {
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, m.from, m.to, m.layer,
                       m.seq, payload_tag(m.payload)});
    }
    return;  // dropped on the floor of a dead process
  }
  if (m.sent_at < last_recover_[static_cast<std::size_t>(m.to)]) {
    // Addressed to a previous incarnation: recovery fences every inbound
    // channel, so traffic from before the recovery instant is lost just
    // like traffic delivered mid-crash.
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, m.from, m.to, m.layer,
                       m.seq, payload_tag(m.payload)});
    }
    return;
  }
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kDeliver, m.from, m.to, m.layer,
                     m.seq, payload_tag(m.payload)});
  }
  if (!transports_.empty() &&
      transports_[static_cast<std::size_t>(m.to)]->on_physical_deliver(m)) {
    return;
  }
  actors_[static_cast<std::size_t>(m.to)]->on_message(m);
}

std::uint64_t Simulator::book_logical_send(ProcessId from, ProcessId to, const Payload& payload,
                                           MsgLayer layer) {
  const std::uint64_t logical_seq = network_.logical_sent(from, to, layer, now_, crashed(to));
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kSend, from, to, layer, logical_seq,
                     payload_tag(payload)});
  }
  return logical_seq;
}

void Simulator::book_logical_drop(ProcessId from, ProcessId to, const Payload& payload,
                                  MsgLayer layer, std::uint64_t logical_seq) {
  network_.logical_dropped(from, to, layer);
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, from, to, layer, logical_seq,
                     payload_tag(payload)});
  }
}

void Simulator::deliver_logical(ProcessId from, ProcessId to, const Payload& payload,
                                MsgLayer layer, std::uint64_t logical_seq, Time sent_at) {
  network_.logical_delivered(from, to, layer);
  if (crashed(to) || sent_at < last_recover_[static_cast<std::size_t>(to)]) {
    if (tracing()) {
      emit(LoggedEvent{now_, LoggedEvent::Kind::kDrop, from, to, layer,
                       logical_seq, payload_tag(payload)});
    }
    return;
  }
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kDeliver, from, to, layer,
                     logical_seq, payload_tag(payload)});
  }
  Message m;
  m.from = from;
  m.to = to;
  m.layer = layer;
  m.seq = logical_seq;
  m.sent_at = sent_at;
  m.deliver_at = now_;
  m.payload = payload;
  actors_[static_cast<std::size_t>(m.to)]->on_message(m);
}

void Simulator::fire_timer(ProcessId owner, TimerId id) {
  if (active_timers_.erase(id) == 0) return;  // cancelled (controlled mode)
  if (crashed(owner)) return;
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kTimer, owner, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[static_cast<std::size_t>(owner)]->on_timer(id);
}

TimerId Simulator::set_timer(ProcessId owner, Time delay) {
  TimerId id = next_timer_id_++;
  active_timers_.insert(id);
  if (mode_ == ExecMode::kControlled) {
    // Kept as a pending (no-op if cancelled) choice on purpose: pruning
    // cancelled timers here would shrink the explored choice sets.
    push_controlled(PendingEvent::Kind::kTimer, kNoProcess, kNoProcess, owner, 0)
        .timer_id = id;
  } else {
    Event ev;
    ev.at = now_ + delay;
    ev.kind = Event::Kind::kTimer;
    ev.owner = owner;
    ev.timer_id = id;
    push_event(std::move(ev));
  }
  return id;
}

void Simulator::cancel_timer(TimerId id) { active_timers_.erase(id); }

void Simulator::crash(ProcessId p) {
  auto idx = static_cast<std::size_t>(p);
  if (crash_times_[idx] >= 0) return;
  crash_times_[idx] = now_;
  ++incarnations_[idx];
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kCrash, p, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[idx]->on_crash();
}

void Simulator::recover(ProcessId p) {
  assert(mode_ == ExecMode::kTimed && "recovery is a timed-mode feature");
  auto idx = static_cast<std::size_t>(p);
  if (crash_times_[idx] < 0) return;  // live: nothing to do
  // The dead incarnation's pending timers must never fire into the new one
  // (the Actor contract discards a crashed actor's timers). Crashes without
  // recovery get this for free from the crashed() check in fire_timer; here
  // the flag is about to clear, so cancel them explicitly.
  const auto cancel_if_timer_of_p = [&](std::uint32_t slot) {
    const Event& ev = slab_[slot];
    if (ev.kind == Event::Kind::kTimer && ev.owner == p) active_timers_.erase(ev.timer_id);
  };
  for (const HeapEntry& he : heap_) cancel_if_timer_of_p(he.slot());
  for (std::uint32_t head : bucket_head_) {
    for (std::uint32_t slot = head; slot != kNil; slot = slab_[slot].next) {
      cancel_if_timer_of_p(slot);
    }
  }
  crash_times_[idx] = -1;
  last_recover_[idx] = now_;
  if (tracing()) {
    emit(LoggedEvent{now_, LoggedEvent::Kind::kRecover, p, kNoProcess,
                     MsgLayer::kOther, 0, kNoPayloadTag});
  }
  actors_[idx]->on_recover();
}

void Simulator::schedule_recovery(ProcessId p, Time at) {
  schedule(at, [this, p] { recover(p); });
}

void Simulator::schedule_crash(ProcessId p, Time at) {
  // Always on the timed queue (historical quirk, preserved: in controlled
  // mode the queue is never drained, so a scheduled crash never fires —
  // mc worlds crash processes via crash() from a scheduled choice).
  Event ev;
  ev.at = at;
  ev.kind = Event::Kind::kCrash;
  ev.owner = p;
  push_event(std::move(ev));
}

std::vector<ProcessId> Simulator::live_processes() const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (crash_times_[i] < 0) out.push_back(static_cast<ProcessId>(i));
  }
  return out;
}

bool Simulator::is_eligible(const ControlledEvent& ev) const {
  if (ev.info.kind != PendingEvent::Kind::kMessage) return true;
  // FIFO: only the oldest pending message per directed channel may arrive.
  const auto it = channel_fifo_.find(ev.info.channel());
  return it != channel_fifo_.end() && !it->second.empty() &&
         it->second.front() == ev.info.id;
}

std::vector<PendingEvent> Simulator::eligible_events() const {
  assert(mode_ == ExecMode::kControlled);
  std::vector<PendingEvent> out;
  for (const auto& [id, ev] : controlled_) {
    if (is_eligible(ev)) out.push_back(ev.info);
  }
  return out;  // std::map iteration: sorted by id already
}

void Simulator::controlled_state_key(std::vector<std::uint64_t>& out) const {
  assert(mode_ == ExecMode::kControlled);
  assert(actors_.size() <= 64 && "controlled worlds are small");
  std::uint64_t crash_mask = 0;
  for (std::size_t i = 0; i < crash_times_.size(); ++i) {
    if (crash_times_[i] >= 0) crash_mask |= 1ULL << i;
  }
  out.push_back(crash_mask);

  // Directed channels in key order, each as (key, len, [tag, bits]...):
  // the in-flight payload *sequences* are state; the event ids carrying
  // them are not.
  std::vector<std::uint64_t> chans;
  chans.reserve(channel_fifo_.size());
  for (const auto& [key, fifo] : channel_fifo_) {
    if (!fifo.empty()) chans.push_back(key);
  }
  std::sort(chans.begin(), chans.end());
  for (std::uint64_t key : chans) {
    const auto& fifo = channel_fifo_.at(key);
    out.push_back(key);
    out.push_back(fifo.size());
    for (std::uint64_t id : fifo) {
      std::uint8_t tag = 0;
      std::uint64_t bits = 0;
      const Payload& p = controlled_.at(id).msg.payload;
      if (!pack_payload(p, tag, bits)) {  // oversized: tag-only fingerprint
        tag = payload_tag(p);
        bits = 0;
      }
      out.push_back(tag);
      out.push_back(bits);
    }
  }

  // Pending timers per owner, (owner, live, cancelled) in owner order. A
  // cancelled timer is inert but still a pending no-op choice, so two
  // states with different cancelled counts have different out-degrees and
  // must not collapse.
  std::map<ProcessId, std::pair<std::uint64_t, std::uint64_t>> timers;
  std::uint64_t scheduled = 0;
  for (const auto& [id, ev] : controlled_) {
    if (ev.info.kind == PendingEvent::Kind::kScheduled) {
      ++scheduled;
    } else if (ev.info.kind == PendingEvent::Kind::kTimer) {
      auto& [live, cancelled] = timers[ev.info.owner];
      (active_timers_.count(ev.timer_id) != 0 ? live : cancelled) += 1;
    }
  }
  for (const auto& [owner, counts] : timers) {
    out.push_back(static_cast<std::uint64_t>(static_cast<std::uint32_t>(owner)));
    out.push_back(counts.first);
    out.push_back(counts.second);
  }
  // Scheduled closures are opaque here; the count is state, their roles
  // are the world's to fingerprint (LivenessWorld::event_fingerprint).
  out.push_back(scheduled);
}

bool Simulator::execute_event(std::uint64_t id) {
  assert(mode_ == ExecMode::kControlled);
  start();
  auto it = controlled_.find(id);
  if (it == controlled_.end() || !is_eligible(it->second)) return false;
  ControlledEvent ev = std::move(it->second);
  controlled_.erase(it);
  if (ev.info.kind == PendingEvent::Kind::kMessage) {
    auto fifo = channel_fifo_.find(ev.info.channel());
    fifo->second.pop_front();  // eligibility guaranteed it was the front
    if (fifo->second.empty()) channel_fifo_.erase(fifo);
  }
  now_ += 1;
  ++events_processed_;
  if (metrics_.events != nullptr) metrics_.events->inc();
  switch (ev.info.kind) {
    case PendingEvent::Kind::kMessage:
      deliver(ev.msg);
      break;
    case PendingEvent::Kind::kTimer:
      fire_timer(ev.info.owner, ev.timer_id);
      break;
    case PendingEvent::Kind::kScheduled:
      ev.fn();
      break;
  }
  return true;
}

void Simulator::dispatch(Event&& ev) {
  switch (ev.kind) {
    case Event::Kind::kDeliver:
      deliver(ev.msg);
      break;
    case Event::Kind::kTimer:
      fire_timer(ev.owner, ev.timer_id);
      break;
    case Event::Kind::kDropSettle:
      network_.delivered(ev.msg);
      if (tracing()) {
        emit(LoggedEvent{
            now_,
            ev.partitioned ? LoggedEvent::Kind::kPartitionLoss : LoggedEvent::Kind::kLoss,
            ev.msg.from, ev.msg.to, ev.msg.layer, ev.msg.seq, payload_tag(ev.msg.payload)});
      }
      break;
    case Event::Kind::kCrash:
      crash(ev.owner);
      break;
    case Event::Kind::kCallback: {
      auto it = callbacks_.find(ev.seq);
      assert(it != callbacks_.end());
      // Detach before invoking: the closure may schedule more events.
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      // A call_after dies with the incarnation that armed it.
      const bool fenced = ev.owner != kNoProcess &&
                          (crashed(ev.owner) ||
                           incarnations_[static_cast<std::size_t>(ev.owner)] != ev.incarnation);
      if (!fenced) fn();
      break;
    }
  }
}

Time Simulator::next_live_at() {
  for (;;) {
    const bool in_wheel = wheel_size_ != 0;
    if (!in_wheel && heap_.empty()) return kNever;
    const std::size_t b = in_wheel ? first_bucket() : 0;
    const std::uint32_t slot = in_wheel ? bucket_head_[b] : heap_.front().slot();
    // A cancelled timer's record stays queued (unlinking it from a bucket
    // or the middle of the heap is not worth a back-pointer); it is
    // discarded here when it surfaces. Touching the front's slab line is
    // free: a live front is read from the same line right after.
    const Event& front = slab_[slot];
    if (front.kind != Event::Kind::kTimer ||
        active_timers_.find(front.timer_id) != active_timers_.end()) {
      return in_wheel ? cursor_ + static_cast<Time>(
                                      (b - static_cast<std::size_t>(cursor_)) & (kWheelSize - 1))
                      : heap_.front().at;
    }
    if (in_wheel) {
      wheel_pop(b);
    } else {
      heap_pop_front();
    }
    free_slots_.push_back(slot);
  }
}

void Simulator::pop_and_dispatch(Time at) {
  assert(at >= now_);
  // Bring the cursor to this tick; when the wheel was empty, this is
  // where the far event enters its bucket.
  if (at != cursor_) advance_cursor(at);
  const std::uint32_t slot = wheel_pop(static_cast<std::size_t>(at) & (kWheelSize - 1));
  now_ = at;
  ++events_processed_;
  if (metrics_.events != nullptr) metrics_.events->inc();
  note_queue_depth();
  // The handler may push events, which can recycle (or reallocate) the
  // slot being read — so copy out before dispatching. Deliveries (the
  // overwhelming bulk) copy only the Message, not the whole record.
  if (slab_[slot].kind == Event::Kind::kDeliver) {
    const Message m = slab_[slot].msg;
    free_slots_.push_back(slot);
    deliver(m);
    return;
  }
  Event ev = slab_[slot];
  free_slots_.push_back(slot);
  dispatch(std::move(ev));
}

bool Simulator::step() {
  assert(mode_ == ExecMode::kTimed && "use execute_event in controlled mode");
  const Time at = next_live_at();
  if (at == kNever) return false;
  pop_and_dispatch(at);
  return true;
}

void Simulator::run_until(Time t) {
  assert(mode_ == ExecMode::kTimed && "drive controlled mode via execute_event");
  start();
  // The cursor only ever moves to the tick of an event being dispatched,
  // so it never passes `t` (or now_): a later push at now_ or after
  // still lands inside or past the window, never behind it.
  for (Time at = next_live_at(); at != kNever && at <= t; at = next_live_at()) {
    pop_and_dispatch(at);
  }
  if (t > now_) now_ = t;
}

}  // namespace ekbd::sim
