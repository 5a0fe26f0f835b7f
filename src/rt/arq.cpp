#include "rt/arq.hpp"

#include <utility>

namespace ekbd::rt {

RtArq::RtArq(Runtime& rt, net::ReliableTransport::Params params,
             const ekbd::fd::FailureDetector* detector)
    : rt_(rt),
      inner_(std::make_unique<net::ReliableTransport>(
          static_cast<net::ArqEnv&>(*this), params, detector)) {
  rt_.set_transport(this);
}

RtArq::~RtArq() {
  if (rt_.transport() == this) rt_.set_transport(nullptr);
}

bool RtArq::covers(sim::MsgLayer layer) const { return inner_->covers(layer); }

void RtArq::logical_send(sim::ProcessId from, sim::ProcessId to,
                         const sim::Payload& payload, sim::MsgLayer layer) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  inner_->logical_send(from, to, payload, layer);
}

bool RtArq::on_physical_deliver(const sim::Message& m) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return inner_->on_physical_deliver(m);
}

std::uint64_t RtArq::book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                       const sim::Payload& payload, sim::MsgLayer layer) {
  const std::uint64_t seq = next_logical_seq_++;
  recorder_seq_.emplace(seq, rt_.recorder().on_logical_send(from, to, sim::payload_tag(payload),
                                                            layer, rt_.now()));
  return seq;
}

void RtArq::book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                              const sim::Payload& payload, sim::MsgLayer layer,
                              std::uint64_t logical_seq) {
  rt_.recorder().on_logical_drop(from, to, sim::payload_tag(payload), layer,
                                 take_recorder_seq(logical_seq), rt_.now());
}

std::uint64_t RtArq::take_recorder_seq(std::uint64_t seq) {
  const std::uint64_t rec_seq = recorder_seq_.at(seq);
  recorder_seq_.erase(seq);
  return rec_seq;
}

void RtArq::physical_send(sim::ProcessId from, sim::ProcessId to,
                          const sim::Payload& payload) {
  // Non-blocking under the hood (transport installed ⇒ try_push): the
  // lock holder never waits on a mailbox.
  rt_.raw_send(from, to, payload, sim::MsgLayer::kTransport);
}

void RtArq::deliver_logical(sim::ProcessId from, sim::ProcessId to,
                            const sim::Payload& payload, sim::MsgLayer layer,
                            std::uint64_t logical_seq, sim::Time sent_at) {
  const std::uint64_t rec_seq = take_recorder_seq(logical_seq);
  const sim::Time t = rt_.now();
  rt_.recorder().on_logical_deliver(from, to, sim::payload_tag(payload), layer, rec_seq, t);
  // We are on `to`'s worker thread, inside the dispatch slot that popped
  // the physical segment: calling the actor directly preserves handler
  // atomicity, and `to`'s crash flag cannot flip mid-dispatch (crashes
  // land at dispatch boundaries on this same thread).
  sim::Message m;
  m.from = from;
  m.to = to;
  m.sent_at = sent_at;
  m.deliver_at = t;
  m.layer = layer;
  m.seq = rec_seq;
  m.payload = payload;
  rt_.dispatch_logical(m);
}

void RtArq::schedule_on(sim::ProcessId owner, sim::Time delay, std::function<void()> fn) {
  // All ARQ schedule_on call sites run on `owner`'s worker thread (see the
  // file comment), satisfying call_after's owner-thread contract. The
  // timer closure fires later on that same thread, outside any ARQ entry
  // point, so it takes the lock itself.
  rt_.call_after(owner, delay, [this, fn = std::move(fn)] {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    fn();
  });
}

}  // namespace ekbd::rt
