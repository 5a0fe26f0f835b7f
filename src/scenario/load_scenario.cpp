#include "scenario/load_scenario.hpp"

#include <cassert>
#include <stdexcept>

namespace ekbd::scenario {

using ekbd::dining::Diner;
using ekbd::load::ChurnOp;

void validate(const LoadConfig& cfg) {
  if (cfg.base.algorithm != Algorithm::kWaitFree) {
    throw std::invalid_argument(
        "LoadConfig.base.algorithm: churn and rejoin are Algorithm-1 extensions; " +
        to_string(cfg.base.algorithm) + " has no edge handshake");
  }
  if (cfg.base.engine == Engine::kProc) {
    throw std::invalid_argument(
        "LoadConfig.base.engine: the workload harness runs on sim or rt; the proc "
        "engine has no churn transport yet");
  }
}

LoadScenario::LoadScenario(LoadConfig cfg) : cfg_(std::move(cfg)), overload_(cfg_.overload) {
  validate(cfg_);
  cfg_.base.observability = true;  // latency percentiles ride the obs histograms
  for (const RecoverySpec& r : cfg_.recoveries) {
    cfg_.base.crashes.emplace_back(r.p, r.crash_at);
  }

  // Plan churn against the engine-shared initial graph + coloring (both
  // engines derive exactly these from the Config, so the plan's private
  // copy starts in lockstep with the run).
  const ekbd::graph::ConflictGraph g = build_conflict_graph(cfg_.base);
  const ekbd::graph::Coloring colors = ekbd::graph::welsh_powell_coloring(g);
  std::vector<load::CrashWindow> windows;
  windows.reserve(cfg_.recoveries.size());
  for (const RecoverySpec& r : cfg_.recoveries) {
    windows.push_back({r.p, r.crash_at, r.recover_at, cfg_.churn_margin});
  }
  load::ChurnParams churn = cfg_.churn;
  if (churn.mutations > 0 && churn.end <= churn.start) {
    // Default window: the middle of the run, clear of startup and of the
    // drainless tail.
    churn.start = cfg_.base.run_for / 10;
    churn.end = cfg_.base.run_for - cfg_.base.run_for / 10;
  }
  plan_ = load::plan_churn(g, colors, churn, windows, cfg_.base.seed);
  churn_by_actor_.resize(g.size());
  for (const ChurnOp& op : plan_.ops) {
    churn_by_actor_[static_cast<std::size_t>(op.a)].push_back(op);
  }

  book_ = std::make_unique<load::LoadBook>(g.size());

  // Arrival streams: per-actor = one stream per vertex; global = one
  // stream dealt to random targets. The rt engine cannot inject across
  // dispatch claims, so a global spec is realized there as n per-actor
  // streams at rate/n (exact for Poisson by superposition).
  load::ArrivalSpec spec = cfg_.arrivals;
  const bool rt_engine = cfg_.base.engine == Engine::kRt;
  if (!spec.per_actor && rt_engine) spec = spec.split(g.size());
  const std::size_t streams = spec.per_actor ? g.size() : 1;
  ekbd::sim::Rng master(cfg_.base.seed ^ 0x10adc4a1ULL);
  arrivals_.reserve(streams);
  arrival_rngs_.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    arrivals_.emplace_back(spec);
    arrival_rngs_.push_back(master.fork(static_cast<std::uint64_t>(s) + 1));
  }

  if (rt_engine) {
    rt_ = std::make_unique<RtScenario>(cfg_.base);
  } else {
    sim_ = std::make_unique<Scenario>(cfg_.base);
  }
  // Open loop: the environment keeps driving eat durations and recording
  // the trace, but all hunger comes from the arrival streams.
  harness().stop_hunger_after(0);
  harness().set_exit_hook([this](ProcessId p) {
    book_->on_complete();
    // Drain one tick later, in p's context: the hook fires inside
    // finish_eating (before the diner applies its pending churn ops), and
    // become_hungry from there would interleave with them.
    harness().engine().call_after(p, 1, [this, p] { drain(p); });
  });
  if (rt_engine) {
    wire_rt();
  } else {
    wire_sim();
  }
}

ekbd::dining::Harness& LoadScenario::harness() const {
  return sim_ != nullptr ? sim_->harness() : rt_->harness();
}

Diner* LoadScenario::diner(ProcessId p) {
  return sim_ != nullptr ? sim_->diner(p) : rt_->diner(p);
}

Books LoadScenario::books() const { return sim_ != nullptr ? sim_->books() : rt_->books(); }

const ekbd::graph::ConflictGraph& LoadScenario::graph() const { return books().graph; }

const ekbd::dining::Trace& LoadScenario::trace() const { return books().trace; }

void LoadScenario::on_arrival(ProcessId p) {
  if (sim_ != nullptr && sim_->sim().crashed(p)) {
    book_->on_arrival_dropped();  // rt arrivals never run on a corpse
    return;
  }
  Diner* d = diner(p);
  if (book_->on_arrival(static_cast<std::size_t>(p), d->thinking())) {
    d->become_hungry();
  }
}

void LoadScenario::drain(ProcessId p) {
  Diner* d = diner(p);
  if (d->thinking() && book_->try_drain(static_cast<std::size_t>(p))) d->become_hungry();
}

void LoadScenario::sample(Time at) {
  overload_.observe({at, book_->offered(), book_->completed(), book_->total_backlog()});
}

void LoadScenario::issue_churn_op(const ChurnOp& op) {
  // validate() admits only kWaitFree, so every diner is one.
  auto* d = static_cast<ekbd::core::WaitFreeDiner*>(diner(op.a));
  switch (op.kind) {
    case ChurnOp::Kind::kAddEdge:
      d->request_add_edge(op.b);
      break;
    case ChurnOp::Kind::kRemoveEdge:
      d->request_remove_edge(op.b);
      break;
    case ChurnOp::Kind::kRecolor:
      d->request_recolor(op.color);
      break;
  }
  churn_issued_.fetch_add(1, std::memory_order_relaxed);
}

// -- sim wiring -------------------------------------------------------------

void LoadScenario::wire_sim() {
  ekbd::sim::Simulator& sim = sim_->sim();
  for (const RecoverySpec& r : cfg_.recoveries) {
    sim.schedule(r.crash_at + 1, [this, p = r.p] {
      book_->on_crash(static_cast<std::size_t>(p));  // the queue dies with it
    });
    if (r.recover_at >= 0) sim.schedule_recovery(r.p, r.recover_at);
  }

  for (const ChurnOp& op : plan_.ops) {
    sim.schedule(op.at, [this, op] {
      if (sim_->sim().crashed(op.a)) {
        churn_skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      issue_churn_op(op);
    });
  }

  for (std::size_t s = 0; s < arrivals_.size(); ++s) schedule_sim_arrival(s);
}

void LoadScenario::schedule_sim_arrival(std::size_t stream) {
  ekbd::sim::Simulator& sim = sim_->sim();
  const Time t = arrivals_[stream].next_after(sim.now(), arrival_rngs_[stream]);
  if (t >= cfg_.base.run_for) return;
  sim.schedule(t, [this, stream] {
    const ProcessId p =
        arrivals_[stream].spec().per_actor
            ? static_cast<ProcessId>(stream)
            : static_cast<ProcessId>(arrival_rngs_[stream].index(book_->size()));
    on_arrival(p);
    schedule_sim_arrival(stream);
  });
}

void LoadScenario::schedule_sim_sample(Time at) {
  if (at >= cfg_.base.run_for) return;
  sim_->sim().schedule(at, [this, at] {
    sample(at);
    schedule_sim_sample(at + cfg_.sample_period);
  });
}

// -- rt wiring --------------------------------------------------------------

void LoadScenario::wire_rt() {
  ekbd::rt::Runtime& rt = rt_->runtime();
  harness().set_recover_hook([this](ProcessId p) {
    // Everything in the old incarnation's timer heap died with it: shed
    // the queue, restart the arrival chain, re-register the churn ops
    // still ahead of us.
    book_->on_crash(static_cast<std::size_t>(p));
    const Time now = rt_->runtime().now();
    for (const ChurnOp& op : churn_by_actor_[static_cast<std::size_t>(p)]) {
      if (op.at <= now) continue;
      rt_->runtime().call_after(p, op.at - now, [this, op] { issue_churn_op(op); });
    }
    start_rt_chain(p, now);
  });

  for (const RecoverySpec& r : cfg_.recoveries) {
    if (r.recover_at >= 0) rt.schedule_recovery(r.p, r.recover_at);
  }
  for (const auto& ops : churn_by_actor_) {
    for (const ChurnOp& op : ops) {
      rt.call_after(op.a, op.at, [this, op] { issue_churn_op(op); });
    }
  }
  for (std::size_t p = 0; p < graph().size(); ++p) {
    start_rt_chain(static_cast<ProcessId>(p), 0);
  }
}

void LoadScenario::start_rt_chain(ProcessId p, Time from) {
  const auto s = static_cast<std::size_t>(p);
  const Time t = arrivals_[s].next_after(from, arrival_rngs_[s]);
  if (t >= cfg_.base.run_for) return;
  rt_->runtime().call_after(p, t - from, [this, p] {
    on_arrival(p);
    start_rt_chain(p, rt_->runtime().now());
  });
}

// -- run + reports ----------------------------------------------------------

void LoadScenario::run() {
  assert(!ran_);
  ran_ = true;
  if (sim_ != nullptr) {
    schedule_sim_sample(cfg_.sample_period);
    sim_->run();
    sample(cfg_.base.run_for);
    return;
  }
  // rt: the run loop samples on this thread between its sleeps; the
  // book's counters are relaxed atomics.
  rt_->run(cfg_.sample_period, [this](Time at) { sample(at); });
}

ekbd::obs::Histogram LoadScenario::latency() const { return harness().latency_histogram(); }

std::string LoadScenario::telemetry_json() const {
  std::string out = sim_ != nullptr ? sim_->telemetry_json() : rt_->telemetry_json();
  std::string lj = "{\"offered\":" + std::to_string(book_->offered());
  lj += ",\"completed\":" + std::to_string(book_->completed());
  lj += ",\"dropped\":" + std::to_string(book_->dropped());
  lj += ",\"max_actor_backlog\":" + std::to_string(book_->max_backlog());
  lj += ",\"overload\":" + overload_.to_json();
  lj += ",\"churn\":{\"planned\":" + std::to_string(plan_.ops.size());
  lj += ",\"adds\":" + std::to_string(plan_.adds);
  lj += ",\"removes\":" + std::to_string(plan_.removes);
  lj += ",\"recolors\":" + std::to_string(plan_.recolors);
  lj += ",\"issued\":" + std::to_string(churn_issued());
  lj += ",\"skipped\":" + std::to_string(churn_skipped()) + "}";
  lj += ",\"recoveries\":" + std::to_string(cfg_.recoveries.size());
  lj += ",\"latency\":" + latency_json(latency()) + "}";
  assert(!out.empty() && out.back() == '}');
  out.pop_back();
  out += ",\"load\":" + lj + "}";
  return out;
}

}  // namespace ekbd::scenario
