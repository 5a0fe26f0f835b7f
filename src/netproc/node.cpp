#include "netproc/node.hpp"

#include <cassert>
#include <chrono>
#include <utility>

namespace ekbd::netproc {

namespace {
/// Same salt as the rt engine's per-sender fault streams: the socket
/// filter's coins are forked per sender id from (seed ^ salt), so each
/// node's drop/dup schedule is independent and seed-deterministic.
constexpr std::uint64_t kFaultSalt = 0x9e3779b97f4a7c15ULL;

std::uint64_t fault_seed(std::uint64_t seed, sim::ProcessId self) {
  return sim::Rng(seed ^ kFaultSalt).fork(static_cast<std::uint64_t>(self) + 1).u64();
}
}  // namespace

NodeEngine::NodeEngine(NodeConfig cfg)
    : cfg_(std::move(cfg)),
      clock_(cfg_.tick_ns),
      writer_(cfg_.log_path),
      filter_(fault_seed(cfg_.seed, cfg_.self), cfg_.link_faults),
      rng_(sim::Rng(cfg_.seed).fork(static_cast<std::uint64_t>(cfg_.self) + 1)),
      crashed_(cfg_.n, 0) {
  for (const net::Partition& p : cfg_.partitions) filter_.add_partition(p);
  for (const net::EdgeCut& c : cfg_.edge_cuts) filter_.add_edge_cut(c);
  // Stream every record to disk as it happens: a SIGKILL mid-run loses at
  // most the record being written (rt/log_io is frame-per-record).
  rec_.set_event_sink(&writer_);
  rec_.set_trace_observer(&writer_);
}

NodeEngine::~NodeEngine() = default;

void NodeEngine::set_actor(std::unique_ptr<sim::Actor> actor) {
  assert(actor_ == nullptr && "one actor per node process");
  bind(*actor, this, cfg_.self);
  actor_ = std::move(actor);
}

void NodeEngine::install_arq(net::ReliableTransport::Params params,
                             const fd::FailureDetector* detector) {
  assert(arq_ == nullptr && !started_);
  detector_ = detector;
  arq_ = std::make_unique<net::ReliableTransport>(static_cast<net::ArqEnv&>(*this),
                                                  params, detector);
}

void NodeEngine::call_after(sim::ProcessId owner, sim::Time delay, std::function<void()> fn) {
  assert(owner == cfg_.self && "only this node's process runs here");
  (void)owner;
  const sim::TimerId id = next_timer_id_++;
  calls_.emplace(id, std::move(fn));
  timers_.push(TimerEntry{now() + (delay < 0 ? 0 : delay), id});
}

// -- sim::TransportIface -----------------------------------------------------

void NodeEngine::send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                      sim::MsgLayer layer) {
  if (to < 0 || static_cast<std::size_t>(to) >= cfg_.n) return;
  if (arq_ != nullptr && arq_->covers(layer)) {
    arq_->logical_send(from, to, payload, layer);
    return;
  }
  raw_send(from, to, payload, layer);
}

sim::TimerId NodeEngine::set_timer(sim::ProcessId owner, sim::Time delay) {
  assert(owner == cfg_.self && "only this node's actor arms timers here");
  (void)owner;
  const sim::TimerId id = next_timer_id_++;
  active_.insert(id);
  timers_.push(TimerEntry{now() + (delay < 0 ? 0 : delay), id});
  return id;
}

void NodeEngine::cancel_timer(sim::ProcessId owner, sim::TimerId id) {
  (void)owner;
  active_.erase(id);
}

sim::Rng& NodeEngine::actor_rng(sim::ProcessId p) {
  assert(p == cfg_.self && "only this node's actor draws here");
  (void)p;
  return rng_;
}

// -- raw datagram path -------------------------------------------------------

void NodeEngine::raw_send(sim::ProcessId from, sim::ProcessId to,
                          const sim::Payload& payload, sim::MsgLayer layer) {
  const sim::Time t = now();
  sim::Message m;
  m.from = from;
  m.to = to;
  m.layer = layer;
  m.payload = payload;

  // The injected adversary decides at the socket boundary, before the
  // kernel sees the datagram; the wire underneath adds whatever loss and
  // reordering it genuinely has (the reorder coin is redundant here and
  // only keeps the counters comparable across engines).
  const sim::FaultDecision d = filter_.on_send(from, to, layer, t);

  // The local books stamp the send; the matching settle happens in the
  // *receiver's* process. Each node's Network is a local ledger — the
  // cluster-wide books are rebuilt from the merged logs (rt/log_io), so
  // an in-flight entry that never settles locally is expected, and
  // Network::delivered on a direction this node never stamped is a no-op.
  rec_.on_send(m, t, peer_crashed(to), d.drop, d.partitioned);
  if (d.drop) return;
  transmit(m);
  if (d.duplicate) {
    sim::Message copy = m;
    rec_.on_duplicate(copy, now(), peer_crashed(to));
    transmit(copy);
  }
}

void NodeEngine::transmit(const sim::Message& m) {
  const std::size_t len = codec::encode_message(m, buf_, sizeof buf_);
  if (len == 0) return;  // payload refused by the codec (cannot happen for
                         // the closed wire set; belt and braces)
  // Best-effort: a failed sendto is one more lost datagram, which the
  // layers above already absorb.
  (void)sock_.send_to(ports_[static_cast<std::size_t>(m.to)], buf_, len);
}

// -- net::ArqEnv -------------------------------------------------------------

std::uint64_t NodeEngine::book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                            const sim::Payload& payload,
                                            sim::MsgLayer layer) {
  return rec_.on_logical_send(from, to, sim::payload_tag(payload), layer, now(),
                              peer_crashed(to));
}

void NodeEngine::book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                                   const sim::Payload& payload, sim::MsgLayer layer,
                                   std::uint64_t logical_seq) {
  rec_.on_logical_drop(from, to, sim::payload_tag(payload), layer, logical_seq, now());
}

void NodeEngine::physical_send(sim::ProcessId from, sim::ProcessId to,
                               const sim::Payload& payload) {
  raw_send(from, to, payload, sim::MsgLayer::kTransport);
}

void NodeEngine::deliver_logical(sim::ProcessId from, sim::ProcessId to,
                                 const sim::Payload& payload, sim::MsgLayer layer,
                                 std::uint64_t logical_seq, sim::Time sent_at) {
  const sim::Time t =
      rec_.on_logical_deliver(from, to, sim::payload_tag(payload), layer, logical_seq,
                              now());
  sim::Message m;
  m.from = from;
  m.to = to;
  m.sent_at = sent_at;
  m.deliver_at = t;
  m.layer = layer;
  m.seq = logical_seq;
  m.payload = payload;
  actor_->on_message(m);
}

void NodeEngine::schedule_on(sim::ProcessId owner, sim::Time delay,
                             std::function<void()> fn) {
  call_after(owner, delay, std::move(fn));
}

// -- socket pump -------------------------------------------------------------

void NodeEngine::drain_socket() {
  std::uint8_t in[codec::kMaxFrameSize];
  int len = 0;
  while ((len = sock_.recv(in, sizeof in)) > 0) {
    std::uint8_t kind = 0;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    // A frame that fails the checksum (bit flip, kernel truncation, stray
    // datagram) is rejected wholesale — never parsed, never UB.
    if (codec::open_frame(in, static_cast<std::size_t>(len), kind, body, body_len) !=
        codec::DecodeStatus::kOk) {
      continue;
    }
    handle_frame(kind, body, body_len);
    if (stop_) return;
  }
}

void NodeEngine::handle_frame(std::uint8_t kind, const std::uint8_t* body,
                              std::size_t len) {
  if (kind >= static_cast<std::uint8_t>(codec::FrameKind::kControlBase)) {
    handle_control(kind, body, len);
    return;
  }
  if (kind == static_cast<std::uint8_t>(codec::FrameKind::kMessage)) {
    sim::Message m;
    if (codec::decode_message(body, len, m) == codec::DecodeStatus::kOk &&
        m.to == cfg_.self) {
      handle_data(std::move(m));
    }
  }
  // Other data-plane kinds (kEvent/kTrace/kEndTime) never travel between
  // nodes; ignore them like any other stray datagram.
}

void NodeEngine::handle_data(sim::Message m) {
  // This node is self-evidently alive to receive; kDrop-on-corpse cannot
  // happen here (a SIGKILLed node simply stops reading its socket).
  rec_.on_deliver(m, now(), /*target_crashed=*/false);
  if (arq_ != nullptr && m.layer == sim::MsgLayer::kTransport &&
      arq_->on_physical_deliver(m)) {
    return;  // ARQ segment, consumed (logical deliveries were dispatched)
  }
  actor_->on_message(m);
}

void NodeEngine::handle_control(std::uint8_t kind, const std::uint8_t* body,
                                std::size_t len) {
  switch (static_cast<ControlKind>(kind)) {
    case ControlKind::kCrashNotice: {
      CrashNotice c;
      if (decode_crash_notice(body, len, c) && c.node >= 0 &&
          static_cast<std::size_t>(c.node) < crashed_.size()) {
        crashed_[static_cast<std::size_t>(c.node)] = 1;
      }
      break;
    }
    case ControlKind::kCut: {
      Cut c;
      if (decode_cut(body, len, c)) {
        filter_.add_edge_cut(net::EdgeCut{c.a, c.b, c.from, c.until});
      }
      break;
    }
    case ControlKind::kSplit: {
      Split s;
      if (decode_split(body, len, s)) {
        net::Partition p;
        p.from = s.from;
        p.until = s.until;
        for (std::size_t i = 0; i < cfg_.n && i < 64; ++i) {
          if ((s.side_mask >> i) & 1ULL) p.side.push_back(static_cast<sim::ProcessId>(i));
        }
        filter_.add_partition(std::move(p));
      }
      break;
    }
    case ControlKind::kStop:
      stop_ = true;
      break;
    case ControlKind::kStart:   // late duplicate of the handshake reply
    case ControlKind::kHello:   // not ours to answer
      break;
  }
}

// -- timers ------------------------------------------------------------------

void NodeEngine::fire_due_timers() {
  while (!stop_ && !timers_.empty()) {
    const TimerEntry e = timers_.top();
    if (e.at > now()) return;
    timers_.pop();
    auto c = calls_.find(e.id);
    if (c != calls_.end()) {
      auto fn = std::move(c->second);
      calls_.erase(c);
      fn();
      continue;
    }
    if (active_.erase(e.id) > 0) {
      rec_.on_timer(cfg_.self, now());
      actor_->on_timer(e.id);
    }
  }
}

// -- run ---------------------------------------------------------------------

bool NodeEngine::handshake() {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(cfg_.handshake_timeout_ms);
  Hello hello{cfg_.self, sock_.port()};

  while (Clock::now() < deadline) {
    std::uint8_t out[64];
    const std::size_t len = encode_hello(hello, out, sizeof out);
    (void)sock_.send_to(cfg_.orch_port, out, len);

    const auto resend_at = Clock::now() + std::chrono::milliseconds(50);
    while (Clock::now() < resend_at) {
      sock_.wait_readable(10);
      std::uint8_t in[codec::kMaxFrameSize];
      int r = 0;
      while ((r = sock_.recv(in, sizeof in)) > 0) {
        std::uint8_t kind = 0;
        const std::uint8_t* body = nullptr;
        std::size_t body_len = 0;
        if (codec::open_frame(in, static_cast<std::size_t>(r), kind, body, body_len) !=
            codec::DecodeStatus::kOk) {
          continue;
        }
        if (kind != static_cast<std::uint8_t>(ControlKind::kStart)) continue;
        Start start;
        if (!decode_start(body, body_len, start) || start.ports.size() != cfg_.n) continue;
        ports_ = start.ports;
        // All nodes rebase to the same CLOCK_MONOTONIC instant: their tick
        // streams share an origin and the merged logs linearize.
        clock_.rebase_to_epoch(start.epoch_ns);
        return true;
      }
    }
  }
  return false;
}

int NodeEngine::run() {
  if (!sock_.ok() || !writer_.ok() || actor_ == nullptr) return kNodeSetupFailed;
  if (!handshake()) return kNodeHandshakeTimeout;

  started_ = true;
  actor_->on_start();

  while (!stop_) {
    if (now() >= cfg_.horizon) break;
    fire_due_timers();
    drain_socket();
    if (stop_) break;

    sim::Time next = cfg_.horizon;
    if (!timers_.empty() && timers_.top().at < next) next = timers_.top().at;
    const sim::Time cur = now();
    if (next <= cur) continue;
    const std::int64_t ns =
        (next - cur) * static_cast<std::int64_t>(cfg_.tick_ns);
    int wait_ms = static_cast<int>(ns / 1'000'000);
    if (wait_ms > 5) wait_ms = 5;  // stay responsive to control frames
    sock_.wait_readable(wait_ms);
  }

  if (cfg_.wedge) {
    // Supervision-test mode: never finish. The orchestrator's per-node
    // timeout must SIGKILL us — if it doesn't, the test hangs, which is
    // exactly the failure the timeout exists to prevent.
    for (;;) sock_.wait_readable(1000);
  }

  rec_.set_end_time(cfg_.horizon);
  writer_.append_end_time(cfg_.horizon);
  writer_.close();
  return kNodeOk;
}

}  // namespace ekbd::netproc
