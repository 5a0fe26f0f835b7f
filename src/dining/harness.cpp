#include "dining/harness.hpp"

#include <cassert>

namespace ekbd::dining {

using sim::ProcessId;
using sim::Time;

namespace {
/// Salt separating the environment's draw streams from the actor and
/// fault streams.
constexpr std::uint64_t kEnvSalt = 0x4a52ULL;
}  // namespace

Harness::Harness(sim::TransportIface& engine, sim::Simulator* sim, TraceSink* sink,
                 const graph::ConflictGraph& graph, HarnessOptions opt)
    : engine_(engine),
      sim_(sim),
      sink_(sink != nullptr ? *sink : trace_),
      graph_(graph),
      opt_(opt) {
  // Pre-sized for the full vertex set: manage() runs once per vertex, and
  // 10⁵-diner graphs would otherwise pay repeated geometric regrowth.
  diners_.reserve(graph_.size());
  by_id_.resize(graph_.size(), nullptr);
}

Harness::Harness(sim::Simulator& sim, const graph::ConflictGraph& graph, HarnessOptions opt)
    : Harness(sim, &sim, nullptr, graph, opt) {
  draws_.push_back(std::make_unique<sim::Rng>(sim.rng().fork(kEnvSalt)));
}

Harness::Harness(sim::TransportIface& engine, TraceSink& sink, std::uint64_t seed,
                 const graph::ConflictGraph& graph, HarnessOptions opt)
    : Harness(engine, nullptr, &sink, graph, opt) {
  draws_.reserve(graph_.size());
  for (std::size_t p = 0; p < graph_.size(); ++p) {
    draws_.push_back(std::make_unique<sim::Rng>(sim::Rng(seed ^ kEnvSalt).fork(p + 1)));
  }
}

void Harness::manage(Diner* d) {
  assert(d != nullptr);
  assert(static_cast<std::size_t>(d->id()) < graph_.size());
  d->set_recheck_period(opt_.recheck_period);
  d->set_event_callback([this](Diner& diner, TraceEventKind kind) {
    on_diner_event(diner, kind);
  });
  d->set_edge_event_callback([this](Diner& diner, TraceEventKind kind, ProcessId peer) {
    // kEdgeAdded / kEdgeRemoved, recorded by the initiating endpoint with
    // the peer attached — the checkers' DynamicAdjacency overlay replays
    // exactly these records.
    sink_.record(engine_.now(), diner.id(), kind, peer);
  });
  diners_.push_back(d);
  by_id_[static_cast<std::size_t>(d->id())] = d;
  schedule_next_hunger(*d, draws(d->id()).uniform_int(0, opt_.first_hunger_hi));
}

void Harness::set_think_forever(ProcessId p, bool v) {
  if (v) {
    think_forever_.insert(p);
  } else {
    think_forever_.erase(p);
  }
}

void Harness::schedule_next_hunger(Diner& d, Time delay) {
  if (hunger_deadline_ >= 0 && engine_.now() + delay >= hunger_deadline_) return;
  engine_.call_after(d.id(), delay, [this, &d] {
    if (!d.thinking()) return;
    if (!think_forever_.empty() && think_forever_.count(d.id()) != 0) return;
    if (hunger_deadline_ >= 0 && engine_.now() >= hunger_deadline_) return;
    d.become_hungry();
  });
}

void Harness::on_diner_event(Diner& d, TraceEventKind kind) {
  const ProcessId p = d.id();
  const Time now = engine_.now();
  sink_.record(now, p, kind);
  if (!latency_.empty()) track_latency(p, kind, now);
  switch (kind) {
    case TraceEventKind::kStartEating: {
      if (eat_hook_) eat_hook_(p);
      // Correct processes eat for a finite (but not necessarily bounded)
      // period (§2); the environment ends the session.
      const Time duration = draws(p).uniform_int(opt_.eat_lo, opt_.eat_hi);
      engine_.call_after(p, duration, [&d] {
        if (d.eating()) d.finish_eating();
      });
      break;
    }
    case TraceEventKind::kStopEating:
      if (exit_hook_) exit_hook_(p);
      schedule_next_hunger(d, draws(p).uniform_int(opt_.think_lo, opt_.think_hi));
      break;
    case TraceEventKind::kRecovered:
      // The new incarnation re-enters the hunger cycle; the old one's
      // calls died with it.
      if (recover_hook_) recover_hook_(p);
      schedule_next_hunger(d, draws(p).uniform_int(opt_.think_lo, opt_.think_hi));
      break;
    default:
      break;
  }
}

void Harness::attach_metrics(obs::MetricsRegistry& reg) {
  latency_.clear();
  latency_.push_back(std::make_unique<LatencyStripe>());
  latency_.back()->hist = &reg.histogram("dining.hungry_latency", "", kLatencyLo, kLatencyHi,
                                         kLatencyBins);
  meals_ = &reg.counter("dining.meals");
  neighbor_hungry_eats_ = &reg.counter("dining.neighbor_hungry_eats");
  hungry_since_.assign(graph_.size(), -1);
}

void Harness::record_latency() {
  latency_.clear();
  for (std::size_t i = 0; i < kLatencyStripes; ++i) {
    latency_.push_back(std::make_unique<LatencyStripe>());
  }
  hungry_since_.assign(graph_.size(), -1);
}

void Harness::track_latency(ProcessId p, TraceEventKind kind, Time now) {
  const auto idx = static_cast<std::size_t>(p);
  switch (kind) {
    case TraceEventKind::kBecameHungry:
      hungry_since_[idx] = now;
      break;
    case TraceEventKind::kStartEating:
      if (meals_ != nullptr) meals_->inc();
      if (hungry_since_[idx] >= 0) {
        LatencyStripe& s = *latency_[idx & (latency_.size() - 1)];
        std::lock_guard<std::mutex> lock(s.mu);
        s.hist->add(static_cast<double>(now - hungry_since_[idx]));
        hungry_since_[idx] = -1;
      }
      if (neighbor_hungry_eats_ != nullptr) {
        for (const ProcessId q : graph_.neighbors(p)) {
          if (hungry_since_[static_cast<std::size_t>(q)] >= 0) neighbor_hungry_eats_->inc();
        }
      }
      break;
    case TraceEventKind::kCrashed:
    case TraceEventKind::kRecovered:
      // The crash closed the open hungry session; a latency spanning the
      // outage would belong to no incarnation.
      hungry_since_[idx] = -1;
      break;
    default:
      break;
  }
}

obs::Histogram Harness::latency_histogram() const {
  obs::Histogram merged(0.0, 1.0, 1);
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    std::lock_guard<std::mutex> lock(latency_[i]->mu);
    if (i == 0) {
      merged = *latency_[i]->hist;
    } else {
      merged.merge(*latency_[i]->hist);
    }
  }
  return merged;
}

void Harness::run_until(Time t) {
  sim_->run_until(t);
  trace_.set_end_time(t);
}

std::vector<Time> Harness::crash_times() const {
  std::vector<Time> out(sim_->num_processes(), -1);
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p] = sim_->crash_time(static_cast<ProcessId>(p));
  }
  return out;
}

}  // namespace ekbd::dining
