#include "net/reliable_transport.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ekbd::net {

using ekbd::sim::Payload;

ArqStats& ArqStats::operator+=(const ArqStats& o) {
  logical_sends += o.logical_sends;
  logical_deliveries += o.logical_deliveries;
  physical_data_sends += o.physical_data_sends;
  physical_ack_sends += o.physical_ack_sends;
  retransmissions += o.retransmissions;
  duplicates_suppressed += o.duplicates_suppressed;
  abandoned_to_dead += o.abandoned_to_dead;
  max_rto_reached = std::max(max_rto_reached, o.max_rto_reached);
  return *this;
}

ArqStats sum_stats(const std::vector<std::unique_ptr<ReliableTransport>>& arqs) {
  ArqStats sum;
  for (const auto& arq : arqs) sum += arq->stats();
  return sum;
}

ReliableTransport::ReliableTransport(ekbd::sim::ArqEnv& env, Params params,
                                     const ekbd::fd::FailureDetector* detector)
    : env_(&env), params_(params), detector_(detector) {}

bool ReliableTransport::covers(MsgLayer layer) const {
  return layer == MsgLayer::kDining || layer == MsgLayer::kOther;
}

bool ReliableTransport::suspected(ProcessId owner, ProcessId target) const {
  return detector_ != nullptr && detector_->suspects(owner, target);
}

void ReliableTransport::logical_send(ProcessId from, ProcessId to, const Payload& payload,
                                     MsgLayer layer) {
  ++stats_.logical_sends;
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
  PendingMsg& pm = it->second;
  pm.on_wire = true;
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
  ++stats_.physical_data_sends;
  tx.last_data_send = env_->now();
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
  env_->call_after(from, delay, [this, from, to, gen] { on_timer(from, to, gen); });
}

void ReliableTransport::on_timer(ProcessId from, ProcessId to, std::uint64_t gen) {
  EdgeTx& tx = tx_[edge_key(from, to)];
  if (gen != tx.timer_gen) return;  // superseded by an ack or a re-arm
  tx.timer_armed = false;
  if (tx.unacked.empty()) return;
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
  tx.fast_resent = kNoSeq;
  for (const auto& [seq, pm] : tx.unacked) {
    transmit(from, to, tx, seq);
    ++stats_.retransmissions;
  }
  tx.rto = std::min<Time>(static_cast<Time>(static_cast<double>(tx.rto) * params_.rto_backoff),
                          params_.rto_max);
  tx.rto = std::max<Time>(tx.rto, 1);
  stats_.max_rto_reached = std::max(stats_.max_rto_reached, tx.rto);
  arm_timer(from, to, tx, tx.rto);
}

void ReliableTransport::abandon(ProcessId from, ProcessId to, EdgeTx& tx) {
  // Only a message that never went on the wire is surely undelivered: one
  // that did may have reached the peer before it died (the ack lost), and
  // the peer's receive cursor is not ours to read. Those stay in transit.
  for (const auto& [seq, pm] : tx.unacked) {
    if (pm.on_wire) continue;
    env_->book_logical_drop(from, to, pm.payload, pm.layer, pm.logical_seq);
    ++stats_.abandoned_to_dead;
  }
  tx.unacked.clear();
  tx.timer_armed = false;
  ++tx.timer_gen;
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
  EdgeRx& rx = rx_[edge_key(m.from, m.to)];
  if (ds.seq() < rx.expected || rx.buffered.count(ds.seq()) != 0) {
    ++stats_.duplicates_suppressed;  // retransmit or adversary copy — drop it
  } else {
    rx.buffered.emplace(ds.seq(),
                        PendingMsg{sim::unpack_payload(ds.inner_tag(), ds.inner_bits),
                                   ds.layer(), ds.logical_seq(), ds.logical_sent_at});
    // Release the in-order prefix to the actor (reliable FIFO restored).
    while (!rx.buffered.empty() && rx.buffered.begin()->first == rx.expected) {
      auto node = rx.buffered.extract(rx.buffered.begin());
      PendingMsg pm = std::move(node.mapped());
      ++rx.expected;
      ++stats_.logical_deliveries;
      env_->deliver_logical(m.from, m.to, pm.payload, pm.layer, pm.logical_seq,
                            pm.logical_sent_at);
    }
  }
  // Always (re-)acknowledge: a duplicate usually means our previous ack
  // was lost, and cumulative acks are idempotent.
  env_->physical_send(m.to, m.from, AckSegment{rx.expected, !rx.buffered.empty()});
  ++stats_.physical_ack_sends;
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
    return;
  }
  if (progress) {
    // Fresh evidence the link works: reset the backoff and restart the
    // clock for the remaining queue.
    tx.rto = params_.rto_initial;
    arm_timer(m.to, m.from, tx, tx.rto);
  }
  const std::uint64_t head = tx.unacked.begin()->first;
  if (ack.gap && head == ack.cumulative && tx.fast_resent != head && !suspected(m.to, m.from)) {
    // The receiver holds a later segment and still waits for the head, so
    // the head was most likely lost (a duplicate of a delivered segment
    // sets no gap bit). Resend it now, once: the timer could take a whole
    // rto_max, since a healed partition leaves the backoff at its cap.
    // The timer keeps running.
    tx.fast_resent = head;
    transmit(m.to, m.from, tx, head);
    ++stats_.retransmissions;
  }
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
