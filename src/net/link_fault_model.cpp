#include "net/link_fault_model.hpp"

#include <algorithm>

namespace ekbd::net {

std::uint64_t fault_seed(std::uint64_t seed, ProcessId self) {
  constexpr std::uint64_t kFaultSalt = 0x9e3779b97f4a7c15ULL;
  return ekbd::sim::Rng(seed ^ kFaultSalt).fork(static_cast<std::uint64_t>(self) + 1).u64();
}

LinkFaultModel::LinkFaultModel(std::uint64_t seed, LinkFaultParams defaults,
                               std::shared_ptr<CutSchedule> cuts)
    : rng_(seed), defaults_(defaults), cuts_(std::move(cuts)) {}

void LinkFaultModel::set_link_params(ProcessId a, ProcessId b, LinkFaultParams params) {
  per_link_[undirected_key(a, b)] = params;
}

const LinkFaultParams& LinkFaultModel::params_for(ProcessId a, ProcessId b) const {
  const auto it = per_link_.find(undirected_key(a, b));
  return it == per_link_.end() ? defaults_ : it->second;
}

bool LinkFaultModel::cut(ProcessId from, ProcessId to, Time now) const {
  for (const Partition& p : cuts_->partitions) {
    if (now < p.from || (p.until >= 0 && now >= p.until)) continue;
    bool from_inside = false;
    bool to_inside = false;
    for (ProcessId v : p.side) {
      if (v == from) from_inside = true;
      if (v == to) to_inside = true;
    }
    if (from_inside != to_inside) return true;  // the message crosses the cut
  }
  for (const EdgeCut& c : cuts_->edge_cuts) {
    if (now < c.from || (c.until >= 0 && now >= c.until)) continue;
    if ((c.a == from && c.b == to) || (c.a == to && c.b == from)) return true;
  }
  return false;
}

Time LinkFaultModel::last_heal_time() const {
  Time heal = 0;
  for (const Partition& p : cuts_->partitions) {
    if (p.until < 0) return -1;
    heal = std::max(heal, p.until);
  }
  for (const EdgeCut& c : cuts_->edge_cuts) {
    if (c.until < 0) return -1;
    heal = std::max(heal, c.until);
  }
  return heal;
}

void LinkFaultModel::notify(FaultEvent::Kind kind, ProcessId from, ProcessId to, Time at) {
  if (observer_) observer_(FaultEvent{kind, from, to, at});
}

ekbd::sim::FaultDecision LinkFaultModel::on_send(ProcessId from, ProcessId to,
                                                 MsgLayer layer, Time now) {
  (void)layer;  // the adversary is layer-blind: it attacks the wire
  ++sends_seen_;
  ekbd::sim::FaultDecision d;
  if (cut(from, to, now)) {
    d.drop = true;
    d.partitioned = true;
    ++partition_drops_;
    notify(FaultEvent::Kind::kPartitionDrop, from, to, now);
    return d;
  }
  // Draw the coins in a fixed order (drop, dup, reorder) so the schedule
  // is a pure function of (seed, send order, params).
  const LinkFaultParams& p = params_for(from, to);
  const bool drop = rng_.chance(p.drop_prob);
  const bool dup = rng_.chance(p.dup_prob);
  const bool reorder = rng_.chance(p.reorder_prob);
  if (drop) {
    d.drop = true;
    ++drops_;
    notify(FaultEvent::Kind::kDrop, from, to, now);
    return d;
  }
  if (dup) {
    d.duplicate = true;
    ++duplicates_;
    notify(FaultEvent::Kind::kDuplicate, from, to, now);
  }
  if (reorder) {
    d.reorder = true;
    ++reorders_;
    notify(FaultEvent::Kind::kReorder, from, to, now);
  }
  return d;
}

}  // namespace ekbd::net
