// Tests for the real-threads runtime (src/rt/): mailbox FIFO and MPSC
// stress (the TSan targets), cross-engine rng parity, generic actors on
// real threads, crash semantics, the full RtScenario acceptance run, the
// rt fuzz sweep (monitor agreement on every run), the P6 mailbox bound and
// replay determinism.
//
// All tests carry the ctest label `rt`; CI runs them under TSan and
// ASan+UBSan. Horizons are sized for wall-clock runs: ticks here are
// 100 µs (or less in the tight tests), so a 3000-tick scenario is ~0.3 s.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/wait_free_diner.hpp"
#include "dining/harness.hpp"
#include "graph/coloring.hpp"
#include "graph/topology.hpp"
#include "obs/monitors.hpp"
#include "rt/mailbox.hpp"
#include "rt/recorder.hpp"
#include "rt/replay.hpp"
#include "rt/runtime.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/payload.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

Message make_msg(ProcessId from, std::uint64_t seq) {
  Message m;
  m.from = from;
  m.to = 0;
  m.layer = MsgLayer::kOther;
  m.seq = seq;
  return m;
}

// ---------------------------------------------------------------- mailbox

TEST(MailboxTest, FifoSingleThread) {
  auto mb = std::make_unique<ekbd::rt::MpscRingMailbox>(8);
  EXPECT_FALSE(mb->maybe_nonempty());
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mb->try_push(make_msg(1, i)));
  }
  EXPECT_FALSE(mb->try_push(make_msg(1, 99)));  // full
  EXPECT_TRUE(mb->maybe_nonempty());
  Message out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mb->try_pop(out));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(mb->try_pop(out));
  EXPECT_FALSE(mb->maybe_nonempty());
  // Slots recycle: a full lap later the ring still works.
  ASSERT_TRUE(mb->try_push(make_msg(1, 100)));
  ASSERT_TRUE(mb->try_pop(out));
  EXPECT_EQ(out.seq, 100u);
}

TEST(MailboxTest, CapacityRoundsUpToPowerOfTwo) {
  ekbd::rt::MpscRingMailbox mb(100);
  EXPECT_EQ(mb.capacity(), 128u);
  EXPECT_EQ(ekbd::rt::MpscRingMailbox(1).capacity(), 2u);  // minimum 2
  EXPECT_EQ(ekbd::rt::MpscRingMailbox(2).capacity(), 2u);
  EXPECT_EQ(ekbd::rt::MpscRingMailbox(3).capacity(), 4u);
  EXPECT_EQ(ekbd::rt::MpscRingMailbox(64).capacity(), 64u);  // exact power stays
  EXPECT_EQ(ekbd::rt::MpscRingMailbox(65).capacity(), 128u);
}

// Batched drain edge cases: empty pop_n, partial batches, full-ring
// backpressure with slot recycling, and cursor wraparound across many
// laps of a small ring.
TEST(MailboxTest, PopNDrainsFifoAcrossWraparoundAndBackpressure) {
  auto mb = std::make_unique<ekbd::rt::MpscRingMailbox>(8);
  Message out[8];
  EXPECT_EQ(mb->pop_n(out, 8), 0u);  // empty drain is a no-op

  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;

  // Partial batches: 6 in, two drains of at-most 4 → 4 then 2.
  for (int k = 0; k < 6; ++k) ASSERT_TRUE(mb->try_push(make_msg(1, pushed++)));
  ASSERT_EQ(mb->pop_n(out, 4), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].seq, popped++);
  ASSERT_EQ(mb->pop_n(out, 4), 2u);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out[i].seq, popped++);

  // Full-ring backpressure: fill to capacity, verify refusal, free exactly
  // three slots with a batched drain, verify exactly three pushes fit.
  while (mb->try_push(make_msg(1, pushed))) ++pushed;
  EXPECT_FALSE(mb->try_push(make_msg(1, 999'999)));
  ASSERT_EQ(mb->pop_n(out, 3), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].seq, popped++);
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(mb->try_push(make_msg(1, pushed++)));
  EXPECT_FALSE(mb->try_push(make_msg(1, 999'999)));

  // Wraparound: many laps of the 8-slot ring (full at this point) with
  // alternating batch sizes so drains straddle the boundary at varying
  // offsets; FIFO must hold the whole way.
  for (int lap = 0; lap < 50; ++lap) {
    const std::size_t n = mb->pop_n(out, (lap % 2 == 0) ? 5 : 3);
    ASSERT_GT(n, 0u);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i].seq, popped++);
    for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(mb->try_push(make_msg(1, pushed++)));
  }
  while (true) {
    const std::size_t n = mb->pop_n(out, 8);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i].seq, popped++);
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_FALSE(mb->maybe_nonempty());
}

// The TSan target for the batched drain: producers race try_push against a
// consumer draining in bursts; per-producer FIFO must survive the batch
// cursor's once-per-batch publication.
TEST(MailboxTest, MpscStressBatchedDrainPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 10'000;
  auto mb = std::make_unique<ekbd::rt::MpscRingMailbox>(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!mb->try_push(make_msg(static_cast<ProcessId>(p), i))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::uint64_t next_seq[kProducers] = {};
  std::uint64_t total = 0;
  Message buf[16];
  while (total < kProducers * kPerProducer) {
    const std::size_t n = mb->pop_n(buf, 16);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::size_t>(buf[i].from);
      ASSERT_EQ(buf[i].seq, next_seq[p]) << "per-producer FIFO broken for producer " << p;
      ++next_seq[p];
    }
    total += n;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mb->pop_n(buf, 16), 0u);
}

// The TSan stress target: many producers, one consumer, per-producer FIFO.
TEST(MailboxTest, MpscStressPerProducerFifo) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 20'000;
  auto mb = std::make_unique<ekbd::rt::MpscRingMailbox>(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!mb->try_push(make_msg(static_cast<ProcessId>(p), i))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::uint64_t next_seq[kProducers] = {};
  std::uint64_t total = 0;
  Message out;
  while (total < kProducers * kPerProducer) {
    if (!mb->try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<std::size_t>(out.from);
    ASSERT_EQ(out.seq, next_seq[p]) << "per-producer FIFO broken for producer " << p;
    ++next_seq[p];
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(mb->try_pop(out));
}

// -------------------------------------------------------------- rng parity

// The TransportIface contract: actor_rng(p) derives identically in every
// engine — Rng(seed).fork(p + 1) — so seeded protocol decisions replay
// across engines.
TEST(RtRuntimeTest, ActorRngMatchesSimulator) {
  constexpr std::uint64_t kSeed = 123457;
  ekbd::sim::Simulator sim(kSeed);
  ekbd::rt::Recorder rec;
  ekbd::rt::Options opt;
  opt.seed = kSeed;
  ekbd::rt::Runtime rt(opt, rec);

  class Idle final : public ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };
  for (int i = 0; i < 3; ++i) {
    sim.add_actor(std::make_unique<Idle>());
    rt.add_actor(std::make_unique<Idle>());
  }
  for (ProcessId p = 0; p < 3; ++p) {
    for (int draw = 0; draw < 64; ++draw) {
      ASSERT_EQ(sim.actor_rng(p).u64(), rt.actor_rng(p).u64())
          << "stream diverged at p=" << p << " draw=" << draw;
    }
  }
}

// ------------------------------------------------------ generic rt actors

// Polls `done` until it holds or a generous safety deadline passes, and
// returns whether it held: wall-clock tests wait for their work, not for
// a horizon sized for an idle host.
bool wait_for(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// A pair of plain sim::Actors ping-ponging on real threads: proves the
// engine runs arbitrary actors (not just diners), that per-channel FIFO
// holds at the actor level, and that timers fire.
class PingPonger final : public ekbd::sim::Actor {
 public:
  PingPonger(ProcessId peer, int rounds) : peer_(peer), rounds_(rounds) {}

  void on_start() override {
    if (id() < peer_) send_ping();  // lower id serves
  }

  void on_message(const Message& m) override {
    const auto* ping = m.as<ekbd::sim::Datum>();
    ASSERT_NE(ping, nullptr);
    // Per-channel FIFO: the round counters must arrive in order.
    EXPECT_EQ(ping->value, expected_round_);
    ++expected_round_;
    // Atomic: a test thread may poll received() while the run is live.
    const int received = received_.fetch_add(1) + 1;
    if (received < rounds_) {
      // Reply after a short timer, exercising the timer path.
      reply_armed_ = set_timer(1);
    }
  }

  void on_timer(ekbd::sim::TimerId id) override {
    if (id == reply_armed_) send_ping();
  }

  [[nodiscard]] int received() const { return received_.load(); }

 private:
  void send_ping() {
    ekbd::sim::Datum p;
    p.value = sent_++;
    send(peer_, p, MsgLayer::kOther);
  }

  ProcessId peer_;
  int rounds_;
  std::int64_t sent_ = 0;
  std::atomic<int> received_{0};
  std::int64_t expected_round_ = 0;
  ekbd::sim::TimerId reply_armed_ = 0;
};

TEST(RtRuntimeTest, GenericActorsPingPongWithTimers) {
  ekbd::rt::Recorder rec;
  ekbd::rt::Options opt;
  opt.seed = 7;
  opt.tick_ns = 50'000;  // 50 µs ticks: timers fire fast
  ekbd::rt::Runtime rt(opt, rec);
  auto* a = rt.make_actor<PingPonger>(1, 50);
  auto* b = rt.make_actor<PingPonger>(0, 50);
  // Run until the exchanges are in rather than for a fixed wall-clock
  // horizon, which a loaded host may not fit them into.
  rt.start();
  wait_for([a, b] { return a->received() + b->received() >= 50; });
  rt.stop_and_join();
  EXPECT_GE(a->received() + b->received(), 50);
  // Every recorded send was either delivered or is still in flight; the
  // books never go negative (agreement with the recorder's network).
  EXPECT_GE(rec.network().total_sent(MsgLayer::kOther), 50u);
}

// ---------------------------------------------------------------- crashes

class CrashProbe final : public ekbd::sim::Actor {
 public:
  void on_message(const Message&) override { ++handled_; }
  void on_crash() override { crashed_flag_ = true; }
  [[nodiscard]] int handled() const { return handled_; }
  [[nodiscard]] bool saw_crash() const { return crashed_flag_; }

 private:
  int handled_ = 0;
  bool crashed_flag_ = false;
};

class Flooder final : public ekbd::sim::Actor {
 public:
  explicit Flooder(ProcessId target) : target_(target) {}
  void on_start() override { timer_ = set_timer(5); }
  void on_message(const Message&) override {}
  void on_timer(ekbd::sim::TimerId) override {
    send(target_, ekbd::core::Ping{}, MsgLayer::kOther);
    timer_ = set_timer(5);
  }

 private:
  ProcessId target_;
  ekbd::sim::TimerId timer_ = 0;
};

TEST(RtRuntimeTest, CrashStopsHandlersAndDropsDeliveries) {
  ekbd::sim::EventLog log;
  ekbd::rt::Recorder rec;
  rec.set_event_log(&log);
  ekbd::rt::Options opt;
  opt.seed = 11;
  opt.tick_ns = 50'000;
  ekbd::rt::Runtime rt(opt, rec);
  auto* victim = rt.make_actor<CrashProbe>();
  rt.make_actor<Flooder>(0);
  rt.schedule_crash(0, 500);
  rt.run_for(1'500);

  EXPECT_TRUE(rt.crashed(0));
  EXPECT_TRUE(victim->saw_crash());
  EXPECT_GE(rt.crash_time(0), 500);
  ASSERT_EQ(log.count(ekbd::sim::LoggedEvent::Kind::kCrash), 1u);
  // The corpse keeps draining: messages sent at it after the crash are
  // recorded as kDrop, never handled.
  EXPECT_GT(log.count(ekbd::sim::LoggedEvent::Kind::kDrop), 0u);
  bool saw_drop_after_crash = false;
  Time crash_at = -1;
  for (const auto& ev : log.events()) {
    if (ev.kind == ekbd::sim::LoggedEvent::Kind::kCrash) crash_at = ev.at;
    if (ev.kind == ekbd::sim::LoggedEvent::Kind::kDeliver && ev.to == 0) {
      EXPECT_LE(ev.at, crash_at < 0 ? ev.at : crash_at)
          << "a delivery to the victim was handled after its crash";
    }
    if (ev.kind == ekbd::sim::LoggedEvent::Kind::kDrop && crash_at >= 0) {
      saw_drop_after_crash = true;
    }
  }
  EXPECT_TRUE(saw_drop_after_crash);
}

// ------------------------------------------------------------- rt scenario

ekbd::scenario::Config rt_config(std::uint64_t seed) {
  ekbd::scenario::Config cfg;
  cfg.engine = ekbd::scenario::Engine::kRt;
  cfg.seed = seed;
  cfg.topology = "ring";
  cfg.n = 8;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kHeartbeat;
  cfg.observability = true;
  cfg.rt_tick_ns = 100'000;
  cfg.run_for = 3'000;  // 0.3 s wall
  return cfg;
}

// The PR's acceptance scenario: a crash-faulted lossy dining run on 8 OS
// threads with live monitors — zero monitor agreement failures, and the
// crash victims' neighbors keep eating (wait-freedom past the fault).
TEST(RtScenarioTest, CrashFaultedLossyDiningOnEightThreads) {
  ekbd::scenario::Config cfg = rt_config(42);
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;  // drop/dup under the ARQ
  cfg.crashes = {{2, 800}, {5, 1'200}};
  ekbd::scenario::RtScenario s(cfg);
  s.run();

  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_TRUE(s.runtime().crashed(2));
  EXPECT_TRUE(s.runtime().crashed(5));
  // The run made progress: somebody ate, and the trace is well-formed.
  EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
  const auto wf = s.wait_freedom(/*starvation_horizon=*/1'500);
  EXPECT_GT(wf.sessions_completed, 0u);
  // P1 holds outright (fork uniqueness is crash- and loss-proof here:
  // forks ride the ARQ's reliable FIFO channels).
  EXPECT_TRUE(s.monitors()->forks().violations().empty());
}

// With the perfect oracle there are no false suspicions, so the paper's
// perpetual weak exclusion holds: the monitors must be spotless.
TEST(RtScenarioTest, PerfectDetectorRunsClean) {
  ekbd::scenario::Config cfg = rt_config(77);
  cfg.detector = ekbd::scenario::DetectorKind::kPerfect;
  cfg.crashes = {{3, 1'000}};
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_TRUE(s.monitors()->clean())
      << "exclusion violations under a perfect detector:\n"
      << s.trace().to_string();
  EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
}

// rt fuzz sweep: seeds × {ideal, lossy} × {waitfree, chandy-misra}; the
// online monitors must agree with the post-hoc checkers on every run.
TEST(RtScenarioTest, FuzzSweepMonitorAgreementOnEveryRun) {
  std::vector<ekbd::scenario::Config> configs;
  for (std::uint64_t seed : {1001u, 2002u, 3003u}) {
    for (const bool lossy : {false, true}) {
      ekbd::scenario::Config cfg = rt_config(seed);
      cfg.n = 6;
      cfg.run_for = 1'500;
      if (lossy) {
        cfg.net_mode = ekbd::scenario::NetMode::kLossy;
        cfg.crashes = {{1, 600}};
      }
      configs.push_back(cfg);
      cfg.algorithm = ekbd::scenario::Algorithm::kChandyMisra;
      cfg.detector = ekbd::scenario::DetectorKind::kNever;
      cfg.crashes.clear();
      configs.push_back(cfg);
    }
  }
  ekbd::scenario::SweepOptions sweep;
  sweep.threads = 2;  // each job spawns n=6 actor threads of its own
  ekbd::scenario::sweep<ekbd::scenario::RtScenario>(
      configs, [](std::size_t i, ekbd::scenario::RtScenario& s) {
        SCOPED_TRACE("config " + std::to_string(i));
        EXPECT_EQ(s.monitor_agreement(), "");
        EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
      },
      sweep);
}

// ------------------------------------------------------- P6 mailbox sizing

// The runtime sizes each diner's ring from the paper's channel bound
// (Runtime::mailbox_bound): on the ideal network a diner of degree deg
// never has more than 4·deg + kMailboxSlack messages waiting, for every
// algorithm, with and without detector traffic, and no push ever finds
// its ring full. The bound assumes a host that keeps pace with the
// detector: 1 ms ticks give a 20 ms heartbeat period, which a sanitizer
// build still drains in time (at 100 µs, sparse n=256 sends ~500k
// heartbeats per second, more than a sanitizer build consumes, and the
// rings fill and fall back on push_blocking as designed).
TEST(RtMailboxTest, HighWaterStaysWithinP6BoundOnIdealNetwork) {
  using ekbd::scenario::Algorithm;
  using ekbd::scenario::DetectorKind;
  std::vector<ekbd::scenario::Config> configs;
  for (const auto& [topology, n] : {std::pair<const char*, std::size_t>{"ring", 6},
                                    std::pair<const char*, std::size_t>{"sparse", 256}}) {
    for (const Algorithm algorithm :
         {Algorithm::kWaitFree, Algorithm::kChoySingh, Algorithm::kChoySinghSingleAck,
          Algorithm::kHierarchical, Algorithm::kChandyMisra}) {
      for (const DetectorKind detector : {DetectorKind::kPerfect, DetectorKind::kHeartbeat}) {
        ekbd::scenario::Config cfg = rt_config(5150);
        cfg.topology = topology;
        cfg.n = n;
        cfg.algorithm = algorithm;
        cfg.detector = detector;
        cfg.rt_tick_ns = 1'000'000;
        cfg.run_for = 400;  // 0.4 s wall
        configs.push_back(cfg);
      }
    }
  }
  ekbd::scenario::SweepOptions sweep;
  sweep.threads = 1;
  ekbd::scenario::sweep<ekbd::scenario::RtScenario>(
      configs,
      [&configs](std::size_t i, ekbd::scenario::RtScenario& s) {
        const ekbd::scenario::Config& cfg = configs[i];
        SCOPED_TRACE(cfg.topology + "/" + ekbd::scenario::to_string(cfg.algorithm) + "/" +
                     ekbd::scenario::to_string(cfg.detector));
        EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
        for (std::size_t v = 0; v < s.graph().size(); ++v) {
          const auto p = static_cast<ProcessId>(v);
          const std::size_t bound =
              ekbd::rt::Runtime::mailbox_bound(s.graph().neighbors(p).size());
          const ekbd::rt::MailboxStats mb = s.runtime().mailbox_stats(p);
          EXPECT_GE(mb.capacity, bound) << "p=" << p;
          EXPECT_LE(mb.high_water, bound) << "p=" << p;
          EXPECT_EQ(mb.full_pushes, 0u) << "p=" << p;
        }
      },
      sweep);
}

// ----------------------------------------------------------------- replay

// A concurrent run can't be re-executed, but its recorded linearization
// can: replaying the log + trace into fresh hubs must reproduce the live
// monitor verdicts exactly, every time.
TEST(RtReplayTest, ReplayReproducesLiveMonitorVerdicts) {
  ekbd::scenario::Config cfg = rt_config(1234);
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;
  cfg.crashes = {{4, 900}};
  ekbd::scenario::RtScenario s(cfg);
  s.run();
  ASSERT_NE(s.event_log(), nullptr);
  ASSERT_EQ(s.monitor_agreement(), "");

  ekbd::obs::MonitorHub replayed(s.graph());
  ekbd::rt::replay(*s.event_log(), s.trace(), replayed);
  EXPECT_EQ(replayed.to_json(), s.monitors()->to_json());
  // And against the post-hoc sources of truth, like the live hub.
  EXPECT_EQ(replayed.agreement_failures(s.trace(), s.graph(), s.recorder().network()), "");

  ekbd::obs::MonitorHub again(s.graph());
  ekbd::rt::replay(*s.event_log(), s.trace(), again);
  EXPECT_EQ(again.to_json(), replayed.to_json()) << "replay is not deterministic";
}

// ------------------------------------------------------------ ARQ over rt

// The rt lossy network, wired by hand: with one ARQ per actor installed,
// dining traffic rides the ARQ while the senders' fault models attack its
// physical kTransport segments, so the faults reach the dining layer
// without violating the paper's reliable-channel assumption, and the
// monitors must stay in full agreement.
TEST(RtArqTest, DiningTrafficRidesArqUnderDropDupCoins) {
  const ekbd::graph::ConflictGraph g = ekbd::graph::ring(6);
  const ekbd::graph::Coloring colors = ekbd::graph::welsh_powell_coloring(g);

  ekbd::rt::Recorder rec;
  ekbd::sim::EventLog log;
  ekbd::obs::MonitorHub hub(g);
  rec.set_event_log(&log);
  rec.set_event_sink(&hub);
  rec.set_watch(&hub);
  rec.set_trace_observer(&hub);

  ekbd::rt::Options opt;
  opt.seed = 606;
  opt.tick_ns = 100'000;
  opt.link_faults.drop_prob = 0.15;
  opt.link_faults.dup_prob = 0.1;
  ekbd::rt::Runtime rt(opt, rec);
  const ekbd::rt::RtPerfectDetector detector(rt);

  ekbd::dining::Harness env(rt, rec, opt.seed, g);
  for (std::size_t v = 0; v < g.size(); ++v) {
    const auto p = static_cast<ProcessId>(v);
    std::vector<ProcessId> neighbors = g.neighbors(p);
    std::vector<int> ncolors;
    ncolors.reserve(neighbors.size());
    for (const ProcessId j : neighbors) ncolors.push_back(colors[static_cast<std::size_t>(j)]);
    env.manage(rt.make_actor<ekbd::core::WaitFreeDiner>(
        std::move(neighbors), colors[v], std::move(ncolors), detector,
        ekbd::core::WaitFreeDiner::Options{}));
  }
  rt.schedule_crash(2, 800);

  const auto arqs = ekbd::scenario::install_arqs(rt, g.size(),
                                                 ekbd::net::ReliableTransport::Params{}, &detector);
  rt.run_for(2'500);

  // The coins were live and the ARQ actually repaired their damage.
  const ekbd::net::ArqStats stats = ekbd::net::sum_stats(arqs);
  EXPECT_GT(stats.retransmissions, 0u) << "drop coins never hit the ARQ";
  EXPECT_GT(stats.duplicates_suppressed, 0u) << "dup coins never hit the ARQ";
  // Dining traffic went through: logical dining books and physical
  // transport books both populated.
  EXPECT_GT(rec.network().total_sent(MsgLayer::kDining), 0u);
  EXPECT_GT(rec.network().total_sent(MsgLayer::kTransport), 0u);
  EXPECT_GT(rec.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);

  // Zero monitor disagreement: online monitors, post-hoc checkers and the
  // network books all tell the same story despite loss and duplication on
  // the dining layer's physical segments.
  EXPECT_EQ(hub.agreement_failures(rec.trace(), g, rec.network()), "");
}

// ------------------------------------------------------- shard invariance

// Shard counts under test: {1, 2, C, 2C} where C = hardware cores, plus n
// (which reproduces the old thread-per-actor layout exactly).
std::vector<std::size_t> shard_counts_under_test(std::size_t n) {
  const auto hw = static_cast<std::size_t>(
      std::max(2u, std::thread::hardware_concurrency()));
  std::vector<std::size_t> counts = {1, 2, hw, 2 * hw, n};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// The TransportIface contract must be shard-blind: actor_rng(p) derives
// from (seed, p) alone, so every shard count yields bit-identical
// per-actor streams.
TEST(RtShardTest, ActorRngStreamsIdenticalAcrossShardCounts) {
  constexpr std::uint64_t kSeed = 9091;
  constexpr int kActors = 6;

  class Idle final : public ekbd::sim::Actor {
    void on_message(const Message&) override {}
  };

  std::vector<std::uint64_t> reference;
  for (const std::size_t shards : shard_counts_under_test(kActors)) {
    ekbd::rt::Recorder rec;
    ekbd::rt::Options opt;
    opt.seed = kSeed;
    opt.shards = shards;
    ekbd::rt::Runtime rt(opt, rec);
    for (int i = 0; i < kActors; ++i) rt.add_actor(std::make_unique<Idle>());

    std::vector<std::uint64_t> draws;
    for (ProcessId p = 0; p < kActors; ++p) {
      for (int d = 0; d < 32; ++d) draws.push_back(rt.actor_rng(p).u64());
    }
    if (reference.empty()) {
      reference = std::move(draws);
    } else {
      EXPECT_EQ(draws, reference) << "rng streams diverged at shards=" << shards;
    }
  }
}

// Full scenario sweep over shard counts with lossy coins and crash
// injection: every count must finish with zero monitor disagreement, the
// scheduled crashes executed, and real dining progress. (Traces differ —
// wall-clock interleavings are not reproducible — but every safety verdict
// and the crash plan must be shard-invariant.)
TEST(RtShardTest, MonitorAgreementAndCrashPlanInvariantAcrossShardCounts) {
  for (const std::size_t shards : shard_counts_under_test(8)) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ekbd::scenario::Config cfg = rt_config(4242);
    cfg.rt_shards = shards;
    cfg.net_mode = ekbd::scenario::NetMode::kLossy;
    cfg.crashes = {{2, 700}, {6, 1'100}};
    cfg.run_for = 2'000;
    ekbd::scenario::RtScenario s(cfg);
    s.run();

    EXPECT_EQ(s.runtime().shard_count(), std::min<std::size_t>(shards, cfg.n));
    EXPECT_EQ(s.monitor_agreement(), "");
    EXPECT_TRUE(s.runtime().crashed(2));
    EXPECT_TRUE(s.runtime().crashed(6));
    EXPECT_GE(s.runtime().crash_time(2), 700);
    EXPECT_GE(s.runtime().crash_time(6), 1'100);
    EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating), 0u);
  }
}

// ------------------------------------------------------- helping/stealing

// An actor that wedges its home shard's worker inside a dispatch until the
// test's `done` hook holds, or until wait_for's safety deadline passes. It
// records which of the two released it.
class Staller final : public ekbd::sim::Actor {
 public:
  explicit Staller(std::function<bool()> done) : done_(std::move(done)) {}

  void on_start() override {
    released_by_completion_.store(wait_for(done_));
    released_.store(true);
  }
  void on_message(const Message&) override {}

  [[nodiscard]] bool released() const { return released_.load(); }
  [[nodiscard]] bool released_by_completion() const { return released_by_completion_.load(); }

 private:
  std::function<bool()> done_;
  std::atomic<bool> released_{false};
  std::atomic<bool> released_by_completion_{false};
};

// Ben-David–Blelloch-style helping, observably: with 2 shards, actor 0
// (home shard 0) wedges its worker until actors 1 (shard 1) and 2
// (shard 0) have ping-ponged 30 times. Every dispatch of actor 2 during
// the stall must be claimed by shard 1 — work stealing — and actor 2's
// reply timers live in shard 0's registry, serviceable only through timer
// helping. The stall ending by completion, not by its safety deadline,
// proves dispatches of a stalled shard complete via neighbors.
TEST(RtShardTest, StalledShardDispatchesCompleteViaNeighbors) {
  ekbd::rt::Recorder rec;
  ekbd::rt::Options opt;
  opt.seed = 31337;
  opt.tick_ns = 50'000;  // 50 µs ticks: the reply timers fire fast
  opt.shards = 2;
  ekbd::rt::Runtime rt(opt, rec);
  PingPonger* a = nullptr;
  PingPonger* b = nullptr;
  // id 0 → home shard 0; holds it until the ping-pong has counted its 30
  // exchanges (a and b are set before start(), which publishes them).
  auto* staller =
      rt.make_actor<Staller>([&a, &b] { return a->received() + b->received() >= 30; });
  a = rt.make_actor<PingPonger>(2, 30);  // id 1 → home shard 1
  b = rt.make_actor<PingPonger>(1, 30);  // id 2 → home shard 0
  rt.start();
  while (!staller->released()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rt.stop_and_join();

  ASSERT_EQ(rt.shard_count(), 2u);
  ASSERT_EQ(rt.shard_of(0), 0u);  // staller and actor 2 share shard 0
  ASSERT_EQ(rt.shard_of(2), 0u);

  EXPECT_TRUE(staller->released_by_completion())
      << "the safety deadline ended the stall: the ping-pong never finished";
  EXPECT_GE(a->received() + b->received(), 30)
      << "ping-pong starved while shard 0 was wedged";
  const ekbd::rt::ExecutorStats st = rt.stats();
  EXPECT_GT(st.steals + st.helps + st.timer_helps, 0u)
      << "progress without any cross-shard claim: stealing/helping never engaged";
}

}  // namespace
