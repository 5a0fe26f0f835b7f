#include "sim/network.hpp"

#include <algorithm>

namespace ekbd::sim {

namespace {
int layer_index(MsgLayer layer) { return static_cast<int>(layer); }
}  // namespace

std::uint32_t Network::add_pair(ProcessId from, ProcessId to) {
  const auto pair = static_cast<std::uint32_t>(pairs_.size());
  pairs_.emplace_back();
  if (!has_row(from) || !has_row(to)) {
    spill_.emplace(pair_key(from, to), pair);
    return pair;
  }
  const auto link = [&](ProcessId a, ProcessId b) {
    const auto row_of = static_cast<std::size_t>(a);
    if (row_of >= rows_.size()) rows_.resize(row_of + 1);
    std::vector<Link>& row = rows_[row_of];
    row.insert(row.begin() + static_cast<std::ptrdiff_t>(lower_bound(row, b)), Link{b, pair});
  };
  link(from, to);
  if (from != to) link(to, from);
  return pair;
}

Network::PerTarget& Network::grow_target(int li, ProcessId to) {
  if (!has_row(to)) return target_spill_[li][to];
  per_target_[li].resize(static_cast<std::size_t>(to) + 1);
  return per_target_[li][static_cast<std::size_t>(to)];
}

const Network::PerTarget* Network::find_target(int li, ProcessId to) const {
  if (has_row(to)) {
    const std::vector<PerTarget>& books = per_target_[li];
    return static_cast<std::size_t>(to) < books.size() ? &books[static_cast<std::size_t>(to)]
                                                        : nullptr;
  }
  const auto it = target_spill_[li].find(to);
  return it == target_spill_[li].end() ? nullptr : &it->second;
}

std::uint64_t Network::logical_sent(ProcessId from, ProcessId to, MsgLayer layer, Time now,
                                    bool target_crashed) {
  count_send(books(from, to), layer, from, to, now, target_crashed);
  return next_seq_++;
}

ChannelStats Network::channel(ProcessId a, ProcessId b, MsgLayer layer) const {
  const std::uint32_t pair = find_pair(a, b);
  return pair == kNoPair ? ChannelStats{} : pairs_[pair].stats[layer_index(layer)];
}

int Network::max_in_transit_any(MsgLayer layer) const {
  int best = 0;
  const int li = layer_index(layer);
  for (const PairBooks& pb : pairs_) best = std::max(best, pb.stats[li].max_in_transit);
  return best;
}

std::uint64_t Network::total_sent(MsgLayer layer) const {
  return totals_[layer_index(layer)];
}

Time Network::last_send_to(ProcessId target, MsgLayer layer) const {
  const PerTarget* pt = find_target(layer_index(layer), target);
  return pt == nullptr ? -1 : pt->last_send;
}

std::uint64_t Network::sends_to_crashed(ProcessId target, MsgLayer layer) const {
  const PerTarget* pt = find_target(layer_index(layer), target);
  return pt == nullptr ? 0 : pt->after_crash;
}

void Network::for_each_pair(
    MsgLayer layer,
    const std::function<void(ProcessId, ProcessId, const ChannelStats&)>& fn) const {
  const int li = layer_index(layer);
  // Rows in sender order, each sorted by receiver, give the pairs in
  // ascending pair-key order with no sort; spilled pairs (sorted by the
  // same key) merge in. A kNoProcess end sign-extends into the key's high
  // word, so those pairs come last.
  auto spill = spill_.begin();
  const auto visit_spill_until = [&](auto done) {
    for (; spill != spill_.end() && !done(spill->first); ++spill) {
      const ChannelStats& cs = pairs_[spill->second].stats[li];
      if (cs.total != 0) {
        fn(static_cast<ProcessId>(spill->first >> 32),
           static_cast<ProcessId>(spill->first & 0xFFFFFFFFu), cs);
      }
    }
  };
  for (std::size_t a = 0; a < rows_.size(); ++a) {
    const auto lo = static_cast<ProcessId>(a);
    for (const Link& l : rows_[a]) {
      const ChannelStats& cs = pairs_[l.pair].stats[li];
      if (l.to < lo || cs.total == 0) continue;
      const std::uint64_t key = pair_key(lo, l.to);
      visit_spill_until([key](std::uint64_t k) { return k > key; });
      fn(lo, l.to, cs);
    }
  }
  visit_spill_until([](std::uint64_t) { return false; });
}

}  // namespace ekbd::sim
