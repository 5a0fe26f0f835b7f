// Crash-recovery integration tests: a killed process comes back, runs the
// rejoin protocol, and re-acquires its fork/token state from the surviving
// neighbors without ever violating P1/P2. Exercised on both engines (the
// sim allows repeated crash/recover cycles; the rt runtime supports one
// cycle per process per run).

#include <gtest/gtest.h>

#include <cstdint>

#include "core/wait_free_diner.hpp"
#include "dining/checkers.hpp"
#include "dining/trace.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"

namespace {

using ekbd::dining::TraceEventKind;
using ekbd::scenario::Algorithm;
using ekbd::scenario::Config;
using ekbd::scenario::DetectorKind;
using ekbd::scenario::Engine;
using ekbd::scenario::RtScenario;
using ekbd::scenario::Scenario;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

/// Eats of `p` that started strictly after `t`.
std::size_t eats_after(const ekbd::dining::Trace& trace, ProcessId p, Time t) {
  std::size_t n = 0;
  for (const auto& ev : trace.events()) {
    if (ev.process == p && ev.kind == TraceEventKind::kStartEating && ev.at > t) ++n;
  }
  return n;
}

Config recovery_config() {
  Config cfg;
  cfg.seed = 11;
  cfg.topology = "ring";
  cfg.n = 8;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.detector = DetectorKind::kPerfect;
  cfg.observability = true;
  cfg.run_for = 60'000;
  return cfg;
}

// ------------------------------------------------------------------- sim

TEST(Recovery, SimRejoinerReacquiresForksCleanly) {
  Config cfg = recovery_config();
  const ProcessId victim = 2;
  const Time crash_at = 10'000;
  const Time recover_at = 20'000;
  cfg.crashes = {{victim, crash_at}};
  Scenario sc(cfg);
  sc.sim().schedule_recovery(victim, recover_at);
  sc.run();

  // P1 holds through the whole run: a perfect detector means nobody ever
  // eats on a false suspicion, and the rejoin complement rule means the
  // recovered incarnation never fabricates a fork its neighbor also holds.
  EXPECT_TRUE(sc.exclusion().violations.empty())
      << "first violation at t=" << sc.exclusion().violations.front().at;

  // The victim actually died, came back, and dined again.
  const auto& trace = sc.trace();
  EXPECT_EQ(trace.count(TraceEventKind::kCrashed, victim), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kRecovered, victim), 1u);
  EXPECT_GE(eats_after(trace, victim, recover_at), 1u);

  // Nobody starves: the survivors were never blocked on the corpse (P3),
  // and the rejoiner resynchronized instead of deadlocking on stale state.
  const auto wf = sc.wait_freedom(10'000);
  EXPECT_TRUE(wf.wait_free()) << wf.starving.size() << " starving";
  EXPECT_GT(wf.sessions_completed, 0u);

  // Rejoin converged: every edge re-synced, incarnation count bumped.
  for (std::size_t p = 0; p < cfg.n; ++p) {
    auto* d = sc.wait_free_diner(static_cast<ProcessId>(p));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->unsynced_edges(), 0u) << "p=" << p;
    EXPECT_EQ(d->lemma11_violations(), 0u) << "p=" << p;
    EXPECT_EQ(d->epoch(), p == static_cast<std::size_t>(victim) ? 1u : 0u);
  }

  // Online monitors and post-hoc checkers tell the same story.
  EXPECT_EQ(sc.monitor_agreement(), "");
}

TEST(Recovery, SimAdjacentDoubleCrashBothRejoin) {
  // Two ring-adjacent victims with overlapping outages: the shared edge is
  // resynchronized by the both-crashed tie-break (higher id is the
  // authority when both endpoints rejoin).
  Config cfg = recovery_config();
  cfg.seed = 23;
  cfg.crashes = {{2, 8'000}, {3, 9'000}};
  Scenario sc(cfg);
  sc.sim().schedule_recovery(2, 18'000);
  sc.sim().schedule_recovery(3, 21'000);
  sc.run();

  EXPECT_TRUE(sc.exclusion().violations.empty());
  for (ProcessId v : {ProcessId{2}, ProcessId{3}}) {
    EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, v), 1u);
    EXPECT_GE(eats_after(sc.trace(), v, 21'000), 1u) << "p=" << v;
  }
  for (std::size_t p = 0; p < cfg.n; ++p) {
    auto* d = sc.wait_free_diner(static_cast<ProcessId>(p));
    EXPECT_EQ(d->unsynced_edges(), 0u) << "p=" << p;
    EXPECT_EQ(d->lemma11_violations(), 0u) << "p=" << p;
  }
  EXPECT_TRUE(sc.wait_freedom(12'000).wait_free());
}

TEST(Recovery, SimRepeatedCyclesBumpEpoch) {
  // The sim engine supports any number of cycles; two crash/recover
  // rounds on the same process must leave it at epoch 2 and still dining.
  Config cfg = recovery_config();
  cfg.seed = 31;
  const ProcessId victim = 5;
  cfg.crashes = {{victim, 8'000}, {victim, 28'000}};
  Scenario sc(cfg);
  sc.sim().schedule_recovery(victim, 16'000);
  sc.sim().schedule_recovery(victim, 36'000);
  sc.run();

  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.trace().count(TraceEventKind::kCrashed, victim), 2u);
  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, victim), 2u);
  EXPECT_EQ(sc.wait_free_diner(victim)->epoch(), 2u);
  EXPECT_GE(eats_after(sc.trace(), victim, 36'000), 1u);
  for (std::size_t p = 0; p < cfg.n; ++p) {
    EXPECT_EQ(sc.wait_free_diner(static_cast<ProcessId>(p))->unsynced_edges(), 0u);
  }
}

TEST(Recovery, SimHeartbeatDetectorConvergesAfterRejoin) {
  // With a real heartbeat ◇P₁ the outage is detected late and the rejoin
  // is un-suspected late: exclusion may wobble around the transition (the
  // paper's guarantee is eventual) but must be clean once the restarted
  // heartbeats have propagated, and nobody may starve.
  Config cfg = recovery_config();
  cfg.seed = 7;
  cfg.detector = DetectorKind::kHeartbeat;
  const ProcessId victim = 4;
  const Time recover_at = 22'000;
  cfg.crashes = {{victim, 12'000}};
  Scenario sc(cfg);
  sc.sim().schedule_recovery(victim, recover_at);
  sc.run();

  EXPECT_EQ(sc.exclusion().violations_after(recover_at + 5'000), 0u);
  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, victim), 1u);
  EXPECT_GE(eats_after(sc.trace(), victim, recover_at), 1u);
  EXPECT_TRUE(sc.wait_freedom(12'000).wait_free());
  for (std::size_t p = 0; p < cfg.n; ++p) {
    EXPECT_EQ(sc.wait_free_diner(static_cast<ProcessId>(p))->unsynced_edges(), 0u);
  }
}

TEST(Recovery, SimCrashWithoutRecoveryStillFencesP3) {
  // Control: the same config minus the recovery keeps the old guarantee —
  // survivors dine past the corpse forever, the victim never reappears.
  Config cfg = recovery_config();
  cfg.seed = 13;
  cfg.crashes = {{2, 10'000}};
  Scenario sc(cfg);
  sc.run();

  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered), 0u);
  EXPECT_EQ(eats_after(sc.trace(), 2, 10'000), 0u);
  EXPECT_TRUE(sc.wait_freedom(10'000).wait_free());
}

TEST(Recovery, SimSeedSweepStaysClean) {
  // Determinism + robustness: several seeds, victim adjacent to the churn
  // of normal dining, always P1-clean and epoch-consistent.
  for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    Config cfg = recovery_config();
    cfg.seed = seed;
    cfg.run_for = 40'000;
    cfg.crashes = {{6, 9'000}};
    Scenario sc(cfg);
    sc.sim().schedule_recovery(6, 17'000);
    sc.run();
    EXPECT_TRUE(sc.exclusion().violations.empty()) << "seed=" << seed;
    EXPECT_TRUE(sc.wait_freedom(9'000).wait_free()) << "seed=" << seed;
    EXPECT_EQ(sc.wait_free_diner(6)->epoch(), 1u) << "seed=" << seed;
    for (std::size_t p = 0; p < cfg.n; ++p) {
      EXPECT_EQ(sc.wait_free_diner(static_cast<ProcessId>(p))->unsynced_edges(), 0u)
          << "seed=" << seed << " p=" << p;
    }
  }
}

// -------------------------------------------------------------------- rt

TEST(Recovery, RtRejoinerReacquiresForksCleanly) {
  Config cfg;
  cfg.seed = 17;
  cfg.engine = Engine::kRt;
  cfg.rt_tick_ns = 100'000;  // 0.4 s wall
  cfg.topology = "ring";
  cfg.n = 8;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.detector = DetectorKind::kPerfect;
  cfg.observability = true;
  cfg.run_for = 4'000;
  const ProcessId victim = 3;
  const Time recover_at = 1'500;
  cfg.crashes = {{victim, 800}};
  RtScenario sc(cfg);
  sc.runtime().schedule_recovery(victim, recover_at);
  sc.run();

  EXPECT_TRUE(sc.exclusion().violations.empty());
  EXPECT_EQ(sc.trace().count(TraceEventKind::kCrashed, victim), 1u);
  EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, victim), 1u);
  EXPECT_GE(eats_after(sc.trace(), victim, recover_at), 1u);
  EXPECT_TRUE(sc.wait_freedom(1'500).wait_free());
  for (std::size_t p = 0; p < cfg.n; ++p) {
    auto* d = dynamic_cast<ekbd::core::WaitFreeDiner*>(sc.diner(static_cast<ProcessId>(p)));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->unsynced_edges(), 0u) << "p=" << p;
    EXPECT_EQ(d->lemma11_violations(), 0u) << "p=" << p;
    EXPECT_EQ(d->epoch(), p == static_cast<std::size_t>(victim) ? 1u : 0u);
  }
  EXPECT_EQ(sc.monitor_agreement(), "");
}

TEST(Recovery, RtTwoVictimsRecoverIndependently) {
  Config cfg;
  cfg.seed = 29;
  cfg.engine = Engine::kRt;
  cfg.rt_tick_ns = 100'000;
  cfg.topology = "ring";
  cfg.n = 10;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.detector = DetectorKind::kPerfect;
  cfg.observability = true;
  cfg.run_for = 4'000;
  cfg.crashes = {{2, 700}, {7, 900}};
  RtScenario sc(cfg);
  sc.runtime().schedule_recovery(2, 1'600);
  sc.runtime().schedule_recovery(7, 2'000);
  sc.run();

  EXPECT_TRUE(sc.exclusion().violations.empty());
  for (ProcessId v : {ProcessId{2}, ProcessId{7}}) {
    EXPECT_EQ(sc.trace().count(TraceEventKind::kRecovered, v), 1u) << "p=" << v;
    EXPECT_GE(eats_after(sc.trace(), v, 2'000), 1u) << "p=" << v;
  }
  for (std::size_t p = 0; p < cfg.n; ++p) {
    auto* d = dynamic_cast<ekbd::core::WaitFreeDiner*>(sc.diner(static_cast<ProcessId>(p)));
    EXPECT_EQ(d->unsynced_edges(), 0u) << "p=" << p;
  }
  EXPECT_EQ(sc.monitor_agreement(), "");
}

// ---------------------------------------------------------- crash fence
//
// The environment's calls die with the incarnation that armed them: a
// recovered process re-enters the hunger cycle from its kRecovered alone.
// Diner::on_recover leaves the diner thinking and only the environment
// makes it hungry, so a first hunger sooner than think_lo after kRecovered
// (or a meal shorter than eat_lo) is a pre-crash closure firing into the
// new incarnation. Each row crashes p1 and recovers it 3 ticks later, at
// several crash times, on the sim and on rt.

Config fence_config(Engine engine, Time crash_at) {
  Config cfg;
  cfg.seed = 1;
  cfg.engine = engine;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.detector = DetectorKind::kPerfect;
  cfg.partial_synchrony = false;  // uniform 1-10 tick delays: p1 eats early and often
  cfg.harness.think_lo = 200;
  cfg.harness.think_hi = 300;
  cfg.harness.eat_lo = 20;
  cfg.harness.eat_hi = 60;
  cfg.crashes = {{1, crash_at}};
  cfg.run_for = crash_at + 1'500;
  return cfg;
}

/// The first breach of the fence by `p` after its kRecovered ("" if none),
/// with `slack` ticks allowed for the rt recorder's monotonic clamp.
std::string fence_breach(const ekbd::dining::Trace& trace, ProcessId p,
                         const ekbd::dining::HarnessOptions& h, Time slack) {
  Time recovered = -1;
  Time eating_since = -1;
  bool hungry_seen = false;
  for (const auto& ev : trace.events()) {
    if (ev.process != p) continue;
    if (ev.kind == TraceEventKind::kRecovered) recovered = ev.at;
    if (recovered < 0) continue;
    if (ev.kind == TraceEventKind::kBecameHungry && !hungry_seen) {
      hungry_seen = true;
      if (ev.at - recovered < h.think_lo - slack) {
        return "hungry at " + std::to_string(ev.at) + ", " +
               std::to_string(ev.at - recovered) + " ticks after kRecovered at " +
               std::to_string(recovered);
      }
    }
    if (ev.kind == TraceEventKind::kStartEating) eating_since = ev.at;
    if (ev.kind == TraceEventKind::kStopEating && eating_since >= 0) {
      if (ev.at - eating_since < h.eat_lo - slack) {
        return "meal of " + std::to_string(ev.at - eating_since) + " ticks ending at " +
               std::to_string(ev.at);
      }
      eating_since = -1;
    }
  }
  if (recovered < 0) return "no kRecovered";
  if (!hungry_seen) return "never hungry after kRecovered";
  return "";
}

TEST(CrashFence, SimRecoveredProcessRunsNoStaleEnvironmentCall) {
  for (const Time crash_at : {1'000, 1'250, 1'500, 1'750, 2'000, 2'250, 2'500}) {
    const Config cfg = fence_config(Engine::kSim, crash_at);
    Scenario sc(cfg);
    sc.sim().schedule_recovery(1, crash_at + 3);
    sc.run();
    EXPECT_EQ(fence_breach(sc.trace(), 1, cfg.harness, 0), "") << "crash at " << crash_at;
  }
}

TEST(CrashFence, RtRecoveredProcessRunsNoStaleEnvironmentCall) {
  for (const Time crash_at : {600, 1'000, 1'400}) {
    const Config cfg = fence_config(Engine::kRt, crash_at);
    RtScenario sc(cfg);
    sc.runtime().schedule_recovery(1, crash_at + 3);
    sc.run();
    EXPECT_EQ(fence_breach(sc.trace(), 1, cfg.harness, 10), "") << "crash at " << crash_at;
  }
}

}  // namespace
