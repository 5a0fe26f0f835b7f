#include "net/reliable_transport.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ekbd::net {

using ekbd::sim::LoggedEvent;
using ekbd::sim::Payload;

// -- SimEnv: the deterministic-simulator adapter ---------------------------

std::uint64_t ReliableTransport::SimEnv::book_logical_send(ProcessId from, ProcessId to,
                                                           const Payload& payload,
                                                           MsgLayer layer) {
  const Time now = sim_.now();
  const std::uint64_t logical_seq =
      sim_.network().logical_sent(from, to, layer, now, sim_.crashed(to));
  sim_.append_log(LoggedEvent{now, LoggedEvent::Kind::kSend, from, to, layer, logical_seq,
                              sim::payload_tag(payload)});
  return logical_seq;
}

void ReliableTransport::SimEnv::book_logical_drop(ProcessId from, ProcessId to,
                                                  const Payload& payload, MsgLayer layer,
                                                  std::uint64_t logical_seq) {
  sim_.network().logical_dropped(from, to, layer);
  sim_.append_log(LoggedEvent{sim_.now(), LoggedEvent::Kind::kDrop, from, to, layer,
                              logical_seq, sim::payload_tag(payload)});
}

void ReliableTransport::SimEnv::physical_send(ProcessId from, ProcessId to,
                                              const Payload& payload) {
  sim_.raw_send(from, to, payload, MsgLayer::kTransport);
}

void ReliableTransport::SimEnv::deliver_logical(ProcessId from, ProcessId to,
                                                const Payload& payload, MsgLayer layer,
                                                std::uint64_t logical_seq, Time sent_at) {
  sim_.deliver_logical(from, to, payload, layer, logical_seq, sent_at);
}

void ReliableTransport::SimEnv::schedule_on(ProcessId /*owner*/, Time delay,
                                            std::function<void()> fn) {
  // One event loop for everyone: the owner is irrelevant here.
  sim_.schedule_in(delay, std::move(fn));
}

// -- ReliableTransport -----------------------------------------------------

ReliableTransport::ReliableTransport(ekbd::sim::Simulator& sim, Params params,
                                     const ekbd::fd::FailureDetector* detector)
    : sim_env_(std::make_unique<SimEnv>(sim)),
      env_(sim_env_.get()),
      sim_(&sim),
      params_(params),
      detector_(detector) {
  sim_->set_transport(this);
}

ReliableTransport::ReliableTransport(ArqEnv& env, Params params,
                                     const ekbd::fd::FailureDetector* detector)
    : env_(&env), params_(params), detector_(detector) {}

ReliableTransport::~ReliableTransport() {
  // The shim must be torn down before the simulator (both the scenario
  // layer and stack usage guarantee this); detach so a later run of the
  // same simulator cannot touch a dead transport.
  if (sim_ != nullptr && sim_->transport() == this) sim_->set_transport(nullptr);
}

bool ReliableTransport::covers(MsgLayer layer) const {
  return layer == MsgLayer::kDining || layer == MsgLayer::kOther;
}

bool ReliableTransport::suspected(ProcessId owner, ProcessId target) const {
  return detector_ != nullptr && detector_->suspects(owner, target);
}

void ReliableTransport::logical_send(ProcessId from, ProcessId to, const Payload& payload,
                                     MsgLayer layer) {
  ++logical_sends_;
  const Time now = env_->now();
  const std::uint64_t logical_seq = env_->book_logical_send(from, to, payload, layer);

  EdgeTx& tx = tx_[edge_key(from, to)];
  const std::uint64_t seq = tx.next_seq++;
  tx.unacked.emplace(seq, PendingMsg{payload, layer, logical_seq, now});
  // While ◇P₁ suspects the peer, NOTHING goes on the wire — not even the
  // first copy. The message waits in the queue; the timer loop transmits
  // it if/when the suspicion is retracted.
  if (!suspected(from, to)) transmit(from, to, tx, seq);
  if (!tx.timer_armed) {
    tx.rto = params_.rto_initial;
    arm_timer(from, to, tx, tx.rto);
  }
}

void ReliableTransport::transmit(ProcessId from, ProcessId to, EdgeTx& tx,
                                 std::uint64_t seq) {
  const auto it = tx.unacked.find(seq);
  if (it == tx.unacked.end()) return;
  const PendingMsg& pm = it->second;
  // Nest the logical payload as (tag, bits): covered layers only ever
  // carry word-sized wire types (§7 constant-size records), so the pack
  // cannot fail; the bit-packed counters bound a run far above any
  // experiment here (see sim/payload.hpp).
  std::uint8_t tag = 0;
  std::uint64_t bits = 0;
  [[maybe_unused]] const bool packed = sim::pack_payload(pm.payload, tag, bits);
  assert(packed && "transported payloads must fit the 8-byte inline encoding");
  env_->physical_send(
      from, to,
      DataSegment{seq, pm.layer, pm.logical_seq, pm.logical_sent_at, tag, bits});
  ++physical_data_sends_;
  tx.last_data_send = env_->now();
  last_data_send_to_[to] = env_->now();
}

Time ReliableTransport::jittered(EdgeTx& tx, std::uint64_t key, Time delay) {
  if (params_.rto_jitter <= 0.0) return delay;
  if (tx.jitter == nullptr) {
    // Stream identity = (jitter_seed, edge): independent of arrival order
    // across edges, reproducible per edge for a fixed seed.
    tx.jitter = std::make_unique<sim::Rng>(sim::Rng(params_.jitter_seed).fork(key));
  }
  const double stretch = 1.0 + tx.jitter->uniform_real(0.0, params_.rto_jitter);
  return std::max<Time>(static_cast<Time>(static_cast<double>(delay) * stretch), 1);
}

void ReliableTransport::arm_timer(ProcessId from, ProcessId to, EdgeTx& tx, Time delay) {
  tx.timer_armed = true;
  const std::uint64_t gen = ++tx.timer_gen;
  delay = jittered(tx, edge_key(from, to), delay);
  tx.armed_delays.push_back(delay);
  env_->schedule_on(from, delay, [this, from, to, gen] { on_timer(from, to, gen); });
}

void ReliableTransport::on_timer(ProcessId from, ProcessId to, std::uint64_t gen) {
  EdgeTx& tx = tx_[edge_key(from, to)];
  if (gen != tx.timer_gen) return;  // superseded by an ack or a re-arm
  tx.timer_armed = false;
  if (tx.unacked.empty()) return;
  if (env_->crashed(from)) {
    // The sender died: whatever it had queued left no trace on the wire.
    abandon(from, to, tx);
    return;
  }
  if (suspected(from, to)) {
    if (env_->crashed(to)) {
      // Suspected and actually dead — crash-stop means the peer can never
      // return, so the queue is garbage; discard it and go fully quiet.
      // (Traffic already quiesced the moment suspicion was raised.)
      abandon(from, to, tx);
      return;
    }
    // ◇P₁ may be lying about a live peer: transmit nothing while the
    // suspicion stands, but keep the queue and keep checking at the
    // capped cadence — accuracy guarantees the suspicion is eventually
    // retracted, and then delivery resumes. No message to a correct
    // process is ever lost.
    arm_timer(from, to, tx, params_.rto_max);
    return;
  }
  // Go-back-N: retransmit everything outstanding (cumulative acks make
  // redundant copies harmless), then back off exponentially up to the cap.
  for (const auto& [seq, pm] : tx.unacked) {
    transmit(from, to, tx, seq);
    ++retransmissions_;
  }
  tx.rto = std::min<Time>(static_cast<Time>(static_cast<double>(tx.rto) * params_.rto_backoff),
                          params_.rto_max);
  tx.rto = std::max<Time>(tx.rto, 1);
  if (tx.rto > max_rto_reached_) max_rto_reached_ = tx.rto;
  arm_timer(from, to, tx, tx.rto);
}

void ReliableTransport::abandon(ProcessId from, ProcessId to, EdgeTx& tx) {
  // A queued segment may be unacked yet already delivered (the data made
  // it, the ack was lost): the receiver's in-order cursor is the ground
  // truth, and those segments settled their books at delivery time — only
  // genuinely undelivered ones are written off here.
  const auto rx_it = rx_.find(edge_key(from, to));
  const std::uint64_t delivered_below = rx_it == rx_.end() ? 0 : rx_it->second.expected;
  for (const auto& [seq, pm] : tx.unacked) {
    if (seq < delivered_below) continue;
    env_->book_logical_drop(from, to, pm.payload, pm.layer, pm.logical_seq);
    ++abandoned_to_dead_;
  }
  tx.unacked.clear();
  tx.timer_armed = false;
  ++tx.timer_gen;
  // Copies of the written-off segments may still be on the wire (e.g. the
  // sender crashed with data in flight). Their fate is sealed — refuse
  // delivery so no message is booked both dropped and delivered.
  dead_edges_.insert(edge_key(from, to));
}

bool ReliableTransport::on_physical_deliver(const ekbd::sim::Message& m) {
  if (m.layer != MsgLayer::kTransport) return false;
  if (const auto* ds = m.as<DataSegment>()) {
    handle_data(m, *ds);
    return true;
  }
  if (const auto* ack = m.as<AckSegment>()) {
    handle_ack(m, *ack);
    return true;
  }
  return false;
}

void ReliableTransport::handle_data(const ekbd::sim::Message& m, const DataSegment& ds) {
  if (dead_edges_.count(edge_key(m.from, m.to)) != 0) {
    // The edge was abandoned (sender or receiver dead); anything still
    // arriving was already booked as dropped.
    ++duplicates_suppressed_;
    return;
  }
  EdgeRx& rx = rx_[edge_key(m.from, m.to)];
  if (ds.seq() < rx.expected || rx.buffered.count(ds.seq()) != 0) {
    ++duplicates_suppressed_;  // retransmit or adversary copy — drop it
  } else {
    rx.buffered.emplace(ds.seq(),
                        PendingMsg{sim::unpack_payload(ds.inner_tag(), ds.inner_bits),
                                   ds.layer(), ds.logical_seq(), ds.logical_sent_at});
    // Release the in-order prefix to the actor (reliable FIFO restored).
    while (!rx.buffered.empty() && rx.buffered.begin()->first == rx.expected) {
      auto node = rx.buffered.extract(rx.buffered.begin());
      PendingMsg pm = std::move(node.mapped());
      ++rx.expected;
      ++logical_deliveries_;
      env_->deliver_logical(m.from, m.to, pm.payload, pm.layer, pm.logical_seq,
                            pm.logical_sent_at);
    }
  }
  // Always (re-)acknowledge: a duplicate usually means our previous ack
  // was lost, and cumulative acks are idempotent.
  env_->physical_send(m.to, m.from, AckSegment{rx.expected});
  ++physical_ack_sends_;
}

void ReliableTransport::handle_ack(const ekbd::sim::Message& m, const AckSegment& ack) {
  // The ack traveled m.from -> m.to about data flowing m.to -> m.from.
  const auto it = tx_.find(edge_key(m.to, m.from));
  if (it == tx_.end()) return;
  EdgeTx& tx = it->second;
  bool progress = false;
  while (!tx.unacked.empty() && tx.unacked.begin()->first < ack.cumulative) {
    tx.unacked.erase(tx.unacked.begin());
    progress = true;
  }
  if (tx.unacked.empty()) {
    tx.timer_armed = false;
    ++tx.timer_gen;  // cancel the pending retransmission
    tx.rto = params_.rto_initial;
  } else if (progress) {
    // Fresh evidence the link works: reset the backoff and restart the
    // clock for the remaining queue.
    tx.rto = params_.rto_initial;
    arm_timer(m.to, m.from, tx, tx.rto);
  } else if (tx.unacked.begin()->first == ack.cumulative && !suspected(m.to, m.from)) {
    // The receiver got some other segment and still waits for the head,
    // most often because the head was lost. Resend it now: the timer could
    // take a whole rto_max, since a healed partition leaves the backoff at
    // its cap. The timer and its backoff stay as they are.
    transmit(m.to, m.from, tx, ack.cumulative);
    ++retransmissions_;
  }
}

Time ReliableTransport::last_data_send_to(ProcessId to) const {
  const auto it = last_data_send_to_.find(to);
  return it == last_data_send_to_.end() ? -1 : it->second;
}

Time ReliableTransport::last_data_send(ProcessId from, ProcessId to) const {
  const auto it = tx_.find(edge_key(from, to));
  return it == tx_.end() ? -1 : it->second.last_data_send;
}

const std::vector<Time>& ReliableTransport::armed_delays(ProcessId from,
                                                         ProcessId to) const {
  static const std::vector<Time> kEmpty;
  const auto it = tx_.find(edge_key(from, to));
  return it == tx_.end() ? kEmpty : it->second.armed_delays;
}

}  // namespace ekbd::net
