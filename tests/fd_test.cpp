// Failure-detector tests: trivial detectors, scripted ◇P₁, and the real
// heartbeat implementation's completeness/accuracy under partial synchrony.
#include <gtest/gtest.h>

#include <memory>

#include "fd/accrual.hpp"
#include "fd/detector.hpp"
#include "fd/heartbeat.hpp"
#include "fd/pingpong.hpp"
#include "fd/scripted.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::fd::HeartbeatDetector;
using ekbd::fd::HeartbeatModule;
using ekbd::fd::ModuleHost;
using ekbd::fd::NeverSuspect;
using ekbd::fd::PerfectDetector;
using ekbd::fd::ScriptedDetector;
using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Simulator;
using ekbd::sim::Time;
using ekbd::sim::TimerId;

TEST(TrivialDetectors, NeverSuspectsNobody) {
  NeverSuspect d;
  EXPECT_FALSE(d.suspects(0, 1));
  EXPECT_FALSE(d.suspects(1, 0));
}

TEST(TrivialDetectors, PerfectTracksCrashes) {
  Simulator sim(1);
  struct Dummy : ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };
  sim.make_actor<Dummy>();
  sim.make_actor<Dummy>();
  PerfectDetector d(sim);
  sim.start();
  EXPECT_FALSE(d.suspects(0, 1));
  sim.crash(1);
  EXPECT_TRUE(d.suspects(0, 1));   // zero latency
  EXPECT_FALSE(d.suspects(1, 0));  // and zero mistakes
}

TEST(Scripted, CompletenessAfterDetectionDelay) {
  Simulator sim(1);
  struct Dummy : ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };
  auto* a = sim.make_actor<Dummy>();
  auto* b = sim.make_actor<Dummy>();
  (void)a;
  ScriptedDetector det(sim, /*detection_delay=*/50);
  sim.start();
  sim.schedule_crash(b->id(), 100);
  sim.run_until(120);
  EXPECT_FALSE(det.suspects(0, 1));  // crashed at 100, delay 50
  sim.run_until(160);
  EXPECT_TRUE(det.suspects(0, 1));
  sim.run_until(100'000);
  EXPECT_TRUE(det.suspects(0, 1));  // permanent
}

TEST(Scripted, FalsePositiveIntervals) {
  Simulator sim(1);
  struct Dummy : ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };
  sim.make_actor<Dummy>();
  sim.make_actor<Dummy>();
  ScriptedDetector det(sim, 0);
  det.add_false_positive(0, 1, 100, 200);
  sim.start();
  sim.run_until(50);
  EXPECT_FALSE(det.suspects(0, 1));
  sim.run_until(150);
  EXPECT_TRUE(det.suspects(0, 1));
  EXPECT_FALSE(det.suspects(1, 0));  // one-directional
  sim.run_until(250);
  EXPECT_FALSE(det.suspects(0, 1));  // interval over: accuracy restored
  EXPECT_EQ(det.last_false_positive_end(), 200);
}

TEST(Scripted, MutualFalsePositive) {
  Simulator sim(1);
  struct Dummy : ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };
  sim.make_actor<Dummy>();
  sim.make_actor<Dummy>();
  ScriptedDetector det(sim, 0);
  det.add_mutual_false_positive(0, 1, 10, 20);
  sim.start();
  sim.run_until(15);
  EXPECT_TRUE(det.suspects(0, 1));
  EXPECT_TRUE(det.suspects(1, 0));
}

// --- heartbeat detector -----------------------------------------------

/// Host actor that owns a heartbeat module and nothing else.
class HbHost : public ekbd::sim::Actor, public ModuleHost {
 public:
  explicit HbHost(std::vector<ProcessId> neighbors, HeartbeatModule::Params params)
      : module_(std::move(neighbors), params) {}

  void on_start() override { module_.start(*this); }
  void on_message(const Message& m) override { module_.handle_message(*this, m); }
  void on_timer(TimerId id) override { module_.handle_timer(*this, id); }

  void module_send(ProcessId to, ekbd::sim::Payload payload, MsgLayer layer) override {
    send(to, payload, layer);
  }
  TimerId module_set_timer(Time delay) override { return set_timer(delay); }
  [[nodiscard]] Time module_now() const override { return now(); }
  [[nodiscard]] ProcessId module_id() const override { return id(); }

  HeartbeatModule module_;
};

struct HbWorld {
  explicit HbWorld(std::unique_ptr<ekbd::sim::DelayModel> delays,
                   HeartbeatModule::Params params = {}, int n = 3)
      : sim(42, std::move(delays)) {
    for (int i = 0; i < n; ++i) {
      std::vector<ProcessId> neighbors;
      for (int j = 0; j < n; ++j) {
        if (j != i) neighbors.push_back(j);
      }
      hosts.push_back(sim.make_actor<HbHost>(neighbors, params));
      detector.attach(hosts.back()->id(), &hosts.back()->module_);
    }
  }
  Simulator sim;
  HeartbeatDetector detector;
  std::vector<HbHost*> hosts;
};

TEST(Heartbeat, NoSuspicionsInSynchronousCalm) {
  HbWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.run_until(20'000);
  EXPECT_EQ(w.detector.total_false_suspicions(), 0u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j));
      }
    }
  }
}

TEST(Heartbeat, CompletenessCrashedPermanentlySuspected) {
  HbWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.schedule_crash(2, 1'000);
  w.sim.run_until(50'000);
  EXPECT_TRUE(w.detector.suspects(0, 2));
  EXPECT_TRUE(w.detector.suspects(1, 2));
  // Live pair unsuspected.
  EXPECT_FALSE(w.detector.suspects(0, 1));
  EXPECT_FALSE(w.detector.suspects(1, 0));
}

TEST(Heartbeat, EventualAccuracyUnderPartialSynchrony) {
  // Violent pre-GST delays force false suspicions; after GST the adaptive
  // timeout must converge: no suspicions among live processes at the end.
  ekbd::sim::PartialSynchronyDelay::Params dp;
  dp.gst = 20'000;
  dp.pre_lo = 1;
  dp.pre_hi = 200;
  dp.spike_prob = 0.2;
  dp.spike_factor = 30;
  dp.post_lo = 1;
  dp.post_hi = 8;
  HeartbeatModule::Params hp;
  hp.period = 20;
  hp.initial_timeout = 30;  // deliberately aggressive: will misfire pre-GST
  hp.timeout_increment = 25;
  HbWorld w(ekbd::sim::make_partial_synchrony(dp), hp);
  w.sim.start();
  w.sim.run_until(200'000);
  // Mistakes happened (the point of the scenario)...
  EXPECT_GT(w.detector.total_false_suspicions(), 0u);
  // ...but accuracy was eventually restored and held.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j)) << i << "->" << j;
      }
    }
  }
  EXPECT_LT(w.detector.last_retraction(), 200'000);
}

TEST(Heartbeat, TimeoutGrowsOnMistakes) {
  ekbd::sim::PartialSynchronyDelay::Params dp;
  dp.gst = 10'000;
  dp.pre_lo = 50;
  dp.pre_hi = 400;
  dp.post_lo = 1;
  dp.post_hi = 5;
  HeartbeatModule::Params hp;
  hp.period = 20;
  hp.initial_timeout = 25;
  hp.timeout_increment = 10;
  HbWorld w(ekbd::sim::make_partial_synchrony(dp), hp, 2);
  w.sim.start();
  w.sim.run_until(50'000);
  EXPECT_GT(w.hosts[0]->module_.timeout_of(1), 25);
}

TEST(Heartbeat, IgnoresNonNeighborHeartbeats) {
  HbWorld w(ekbd::sim::make_fixed_delay(5), {}, 2);
  // Module of host 0 has only neighbor 1; a heartbeat "from 5" can't occur
  // in practice, but the module must not crash on unknown senders.
  Message m;
  m.from = 5;
  m.to = 0;
  m.payload = ekbd::fd::Heartbeat{};
  w.sim.start();
  EXPECT_TRUE(w.hosts[0]->module_.handle_message(*w.hosts[0], m));
  EXPECT_FALSE(w.detector.suspects(0, 5));
}

TEST(Heartbeat, SuspectsIsFalseForNonNeighbourAndUnattachedOwner) {
  Simulator sim(42, ekbd::sim::make_fixed_delay(5));
  // Neighbours given out of order: the module keeps them sorted.
  auto* a = sim.make_actor<HbHost>(std::vector<ProcessId>{2, 1}, HeartbeatModule::Params{});
  auto* b = sim.make_actor<HbHost>(std::vector<ProcessId>{0}, HeartbeatModule::Params{});
  auto* c = sim.make_actor<HbHost>(std::vector<ProcessId>{0}, HeartbeatModule::Params{});
  HeartbeatDetector det;
  det.attach(a->id(), &a->module_);
  det.attach(c->id(), &c->module_);  // b stays unattached
  sim.schedule_crash(b->id(), 100);
  sim.run_until(2'000);
  EXPECT_TRUE(det.suspects(a->id(), b->id())) << "a crashed neighbour is suspected";
  EXPECT_FALSE(det.suspects(a->id(), c->id()));
  EXPECT_FALSE(det.suspects(c->id(), b->id())) << "b crashed but is no neighbour of c";
  EXPECT_FALSE(det.suspects(c->id(), c->id()));
  EXPECT_FALSE(det.suspects(b->id(), a->id())) << "b's module is not attached";
  EXPECT_FALSE(det.suspects(ekbd::sim::kNoProcess, b->id()));
  EXPECT_FALSE(det.suspects(7, b->id())) << "an owner past every attached id";
  EXPECT_EQ(a->module_.timeout_of(c->id()), HeartbeatModule::Params{}.initial_timeout);
  EXPECT_EQ(a->module_.timeout_of(5), 0) << "no timeout for a non-neighbour";
  EXPECT_EQ(det.total_false_suspicions(), 0u);
}

TEST(Heartbeat, DetectorFacadeUnknownOwner) {
  HeartbeatDetector det;
  EXPECT_FALSE(det.suspects(9, 1));
}

// --- ping-pong detector --------------------------------------------------

/// Host actor owning a ping-pong module.
class PpHost : public ekbd::sim::Actor, public ModuleHost {
 public:
  PpHost(std::vector<ProcessId> neighbors, ekbd::fd::PingPongModule::Params params)
      : module_(std::move(neighbors), params) {}

  void on_start() override { module_.start(*this); }
  void on_message(const Message& m) override { module_.handle_message(*this, m); }
  void on_timer(TimerId id) override { module_.handle_timer(*this, id); }

  void module_send(ProcessId to, ekbd::sim::Payload payload, MsgLayer layer) override {
    send(to, payload, layer);
  }
  TimerId module_set_timer(Time delay) override { return set_timer(delay); }
  [[nodiscard]] Time module_now() const override { return now(); }
  [[nodiscard]] ProcessId module_id() const override { return id(); }

  ekbd::fd::PingPongModule module_;
};

struct PpWorld {
  explicit PpWorld(std::unique_ptr<ekbd::sim::DelayModel> delays,
                   ekbd::fd::PingPongModule::Params params = {}, int n = 3)
      : sim(43, std::move(delays)) {
    for (int i = 0; i < n; ++i) {
      std::vector<ProcessId> neighbors;
      for (int j = 0; j < n; ++j) {
        if (j != i) neighbors.push_back(j);
      }
      hosts.push_back(sim.make_actor<PpHost>(neighbors, params));
      detector.attach(hosts.back()->id(), &hosts.back()->module_);
    }
  }
  Simulator sim;
  ekbd::fd::PingPongDetector detector;
  std::vector<PpHost*> hosts;
};

TEST(PingPong, NoSuspicionsInSynchronousCalm) {
  PpWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.run_until(20'000);
  EXPECT_EQ(w.detector.total_false_suspicions(), 0u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j));
      }
    }
  }
}

TEST(PingPong, RttEstimateConvergesToActual) {
  PpWorld w(ekbd::sim::make_fixed_delay(7));  // RTT = 14
  w.sim.start();
  w.sim.run_until(50'000);
  const Time srtt = w.hosts[0]->module_.srtt_of(1);
  EXPECT_GE(srtt, 12);
  EXPECT_LE(srtt, 16);
}

TEST(PingPong, CompletenessCrashedPermanentlySuspected) {
  PpWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.schedule_crash(2, 1'000);
  w.sim.run_until(50'000);
  EXPECT_TRUE(w.detector.suspects(0, 2));
  EXPECT_TRUE(w.detector.suspects(1, 2));
  EXPECT_FALSE(w.detector.suspects(0, 1));
}

TEST(PingPong, EventualAccuracyUnderPartialSynchrony) {
  ekbd::sim::PartialSynchronyDelay::Params dp;
  dp.gst = 20'000;
  dp.pre_lo = 1;
  dp.pre_hi = 200;
  dp.spike_prob = 0.2;
  dp.spike_factor = 30;
  dp.post_lo = 1;
  dp.post_hi = 8;
  ekbd::fd::PingPongModule::Params pp;
  pp.period = 20;
  pp.initial_rtt = 10;
  pp.initial_slack = 10;  // aggressive: will misfire pre-GST
  PpWorld w(ekbd::sim::make_partial_synchrony(dp), pp);
  w.sim.start();
  w.sim.run_until(200'000);
  EXPECT_GT(w.detector.total_false_suspicions(), 0u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j)) << i << "->" << j;
      }
    }
  }
  EXPECT_LT(w.detector.last_retraction(), 200'000);
}

TEST(PingPong, StaleEchoIgnored) {
  // An echo whose seq doesn't match the pending probe must not count as a
  // fresh response (it could mask a crash window).
  PpWorld w(ekbd::sim::make_fixed_delay(5), {}, 2);
  w.sim.start();
  Message stale;
  stale.from = 1;
  stale.to = 0;
  stale.payload = ekbd::fd::ProbeEcho{999};
  EXPECT_TRUE(w.hosts[0]->module_.handle_message(*w.hosts[0], stale));
  // No pending probe was satisfied, no estimator update (srtt unchanged
  // from seed 20).
  EXPECT_EQ(w.hosts[0]->module_.srtt_of(1), 20);
}

TEST(PingPong, AnswersProbesFromNonNeighbors) {
  // The responder side must help anyone who asks (scope restriction is
  // about whom we monitor, not whom we answer).
  PpWorld w(ekbd::sim::make_fixed_delay(5), {}, 2);
  w.sim.start();
  Message probe;
  probe.from = 1;
  probe.to = 0;
  probe.payload = ekbd::fd::Probe{5};
  EXPECT_TRUE(w.hosts[0]->module_.handle_message(*w.hosts[0], probe));
}

// --- on-demand ping-pong --------------------------------------------------

TEST(OnDemandPingPong, SilentWhileUnwatched) {
  ekbd::fd::PingPongModule::Params pp;
  pp.on_demand = true;
  PpWorld w(ekbd::sim::make_fixed_delay(5), pp, 2);
  w.sim.start();
  w.sim.run_until(10'000);
  EXPECT_EQ(w.sim.network().total_sent(MsgLayer::kDetector), 0u)
      << "nobody watching: the detector layer must be silent";
}

TEST(OnDemandPingPong, ProbesWhileWatchedAndStopsAfter) {
  ekbd::fd::PingPongModule::Params pp;
  pp.on_demand = true;
  pp.period = 20;
  PpWorld w(ekbd::sim::make_fixed_delay(5), pp, 2);
  w.sim.start();
  w.hosts[0]->module_.set_watching(*w.hosts[0], true);
  w.sim.run_until(2'000);
  const auto during = w.sim.network().total_sent(MsgLayer::kDetector);
  EXPECT_GT(during, 50u);  // ~100 probes + echoes
  w.hosts[0]->module_.set_watching(*w.hosts[0], false);
  w.sim.run_until(2'100);  // drain in-flight echoes
  const auto baseline = w.sim.network().total_sent(MsgLayer::kDetector);
  w.sim.run_until(10'000);
  EXPECT_LE(w.sim.network().total_sent(MsgLayer::kDetector), baseline + 2);
}

TEST(OnDemandPingPong, IdleGapNotMisreadAsCrash) {
  // Watch, go idle for a long time, watch again: the live neighbor must
  // NOT be suspected just because no echo arrived during the idle phase.
  ekbd::fd::PingPongModule::Params pp;
  pp.on_demand = true;
  pp.period = 20;
  PpWorld w(ekbd::sim::make_fixed_delay(5), pp, 2);
  w.sim.start();
  w.hosts[0]->module_.set_watching(*w.hosts[0], true);
  w.sim.run_until(500);
  w.hosts[0]->module_.set_watching(*w.hosts[0], false);
  w.sim.run_until(50'000);  // idle gap far beyond any threshold
  w.hosts[0]->module_.set_watching(*w.hosts[0], true);
  w.sim.run_until(50'200);
  EXPECT_FALSE(w.detector.suspects(0, 1));
}

TEST(OnDemandPingPong, EndToEndWaitFreeDining) {
  ekbd::scenario::Config cfg;
  cfg.seed = 18;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kPingPong;
  cfg.pingpong = {.period = 20, .initial_rtt = 15, .initial_slack = 20, .on_demand = true};
  cfg.partial_synchrony = false;
  cfg.crashes = {{2, 20'000}};
  cfg.run_for = 80'000;
  ekbd::scenario::Scenario s(cfg);
  s.harness().stop_hunger_after(60'000);
  s.run();
  EXPECT_TRUE(s.wait_freedom(20'000).wait_free());
  // Once everyone drained to thinking, monitoring ceased: the last
  // detector message predates the end of the run by a wide margin.
  ekbd::sim::Time last_probe = -1;
  for (std::size_t p = 0; p < cfg.n; ++p) {
    last_probe = std::max(last_probe, s.sim().network().last_send_to(
                                          static_cast<int>(p), MsgLayer::kDetector));
  }
  EXPECT_LT(last_probe, 65'000) << "detector layer failed to go quiescent";
}

// --- φ-accrual detector --------------------------------------------------

/// Host actor owning an accrual module.
class AcHost : public ekbd::sim::Actor, public ModuleHost {
 public:
  AcHost(std::vector<ProcessId> neighbors, ekbd::fd::AccrualModule::Params params)
      : module_(std::move(neighbors), params) {}

  void on_start() override { module_.start(*this); }
  void on_message(const Message& m) override { module_.handle_message(*this, m); }
  void on_timer(TimerId id) override { module_.handle_timer(*this, id); }

  void module_send(ProcessId to, ekbd::sim::Payload payload, MsgLayer layer) override {
    send(to, payload, layer);
  }
  TimerId module_set_timer(Time delay) override { return set_timer(delay); }
  [[nodiscard]] Time module_now() const override { return now(); }
  [[nodiscard]] ProcessId module_id() const override { return id(); }

  ekbd::fd::AccrualModule module_;
};

struct AcWorld {
  explicit AcWorld(std::unique_ptr<ekbd::sim::DelayModel> delays,
                   ekbd::fd::AccrualModule::Params params = {}, int n = 3)
      : sim(44, std::move(delays)) {
    for (int i = 0; i < n; ++i) {
      std::vector<ProcessId> neighbors;
      for (int j = 0; j < n; ++j) {
        if (j != i) neighbors.push_back(j);
      }
      hosts.push_back(sim.make_actor<AcHost>(neighbors, params));
      detector.attach(hosts.back()->id(), &hosts.back()->module_);
    }
  }
  Simulator sim;
  ekbd::fd::AccrualDetector detector;
  std::vector<AcHost*> hosts;
};

TEST(Accrual, NoSuspicionsInSynchronousCalm) {
  AcWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.run_until(30'000);
  EXPECT_EQ(w.detector.total_false_suspicions(), 0u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j));
      }
    }
  }
  // With regular arrivals, φ right after a heartbeat is tiny.
  EXPECT_LT(w.hosts[0]->module_.phi_of(1), 2.0);
}

TEST(Accrual, CompletenessPhiDivergesAfterCrash) {
  AcWorld w(ekbd::sim::make_fixed_delay(5));
  w.sim.start();
  w.sim.schedule_crash(2, 2'000);
  w.sim.run_until(60'000);
  EXPECT_TRUE(w.detector.suspects(0, 2));
  EXPECT_TRUE(w.detector.suspects(1, 2));
  EXPECT_FALSE(w.detector.suspects(0, 1));
  EXPECT_GE(w.hosts[0]->module_.phi_of(2), w.hosts[0]->module_.threshold_of(2));
}

TEST(Accrual, EventualAccuracyUnderPartialSynchrony) {
  ekbd::sim::PartialSynchronyDelay::Params dp;
  dp.gst = 20'000;
  dp.pre_lo = 1;
  dp.pre_hi = 200;
  dp.spike_prob = 0.2;
  dp.spike_factor = 30;
  dp.post_lo = 1;
  dp.post_hi = 8;
  ekbd::fd::AccrualModule::Params ap;
  ap.period = 20;
  ap.threshold = 2.0;  // deliberately jumpy: will misfire pre-GST
  AcWorld w(ekbd::sim::make_partial_synchrony(dp), ap);
  w.sim.start();
  w.sim.run_until(250'000);
  EXPECT_GT(w.detector.total_false_suspicions(), 0u);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(w.detector.suspects(i, j)) << i << "->" << j;
      }
    }
  }
  EXPECT_LT(w.detector.last_retraction(), 250'000);
}

TEST(Accrual, WindowAdaptsToSlowerRhythm) {
  // A network that is consistently slow is not suspicious: after the
  // window fills with ~50-tick inter-arrivals, φ stays low even though a
  // naive 25-tick-period detector would scream.
  AcWorld w(ekbd::sim::make_fixed_delay(50), {}, 2);
  w.sim.start();
  w.sim.run_until(40'000);
  EXPECT_LT(w.hosts[0]->module_.phi_of(1), w.hosts[0]->module_.threshold_of(1));
}

TEST(Accrual, EndToEndDiningScenario) {
  ekbd::scenario::Config cfg;
  cfg.seed = 9;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kAccrual;
  cfg.partial_synchrony = true;
  cfg.delay = {.gst = 8'000, .pre_lo = 1, .pre_hi = 80,
               .spike_prob = 0.08, .spike_factor = 15,
               .post_lo = 1, .post_hi = 6};
  cfg.accrual = {.period = 25, .window = 64, .threshold = 6.0};
  cfg.crashes = {{2, 30'000}};
  cfg.run_for = 100'000;
  ekbd::scenario::Scenario s(cfg);
  s.run();
  EXPECT_TRUE(s.wait_freedom(25'000).wait_free());
  EXPECT_EQ(s.exclusion().violations_after(s.fd_convergence_estimate()), 0u);
}

TEST(PingPong, ThresholdGrowsOnMistakes) {
  ekbd::sim::PartialSynchronyDelay::Params dp;
  dp.gst = 10'000;
  dp.pre_lo = 50;
  dp.pre_hi = 500;
  dp.post_lo = 1;
  dp.post_hi = 5;
  ekbd::fd::PingPongModule::Params pp;
  pp.period = 20;
  pp.initial_rtt = 5;
  pp.initial_slack = 5;
  PpWorld w(ekbd::sim::make_partial_synchrony(dp), pp, 2);
  w.sim.start();
  w.sim.run_until(50'000);
  EXPECT_GT(w.hosts[0]->module_.threshold_of(1), 5 + 4 * 2 + 5);
}

}  // namespace
