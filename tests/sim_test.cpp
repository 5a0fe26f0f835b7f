// Unit tests for the discrete-event simulator: ordering, FIFO channels,
// timers, crash semantics, determinism, delay models, network accounting,
// and the tick-wheel queue against a reference (at, seq) heap (SimHotPath).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/link_fault_model.hpp"
#include "scenario/scenario.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Rng;
using ekbd::sim::Simulator;
using ekbd::sim::Time;
using ekbd::sim::TimerId;

// Payload is a closed variant now; tests send the generic Datum value.
using Note = ekbd::sim::Datum;

/// Records everything it receives.
class Recorder : public ekbd::sim::Actor {
 public:
  void on_message(const Message& m) override {
    received.push_back(*m.as<Note>());
    receive_times.push_back(now());
    froms.push_back(m.from);
  }
  void on_timer(TimerId id) override { timers.push_back(id); }

  using Actor::send;       // widen for tests
  using Actor::set_timer;  // widen for tests
  using Actor::cancel_timer;

  std::vector<Note> received;
  std::vector<Time> receive_times;
  std::vector<ProcessId> froms;
  std::vector<TimerId> timers;
};

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(7);
  Rng c1 = a.fork(1);
  Rng a2(7);
  Rng c2 = a2.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.u64() == c2.u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ExponentialNonNegative) {
  Rng r(1);
  for (int i = 0; i < 100; ++i) EXPECT_GE(r.exponential(10.0), 0);
}

TEST(DelayModels, FixedAlwaysSame) {
  ekbd::sim::FixedDelay d(5);
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(0, 1, 100, r), 5);
}

TEST(DelayModels, UniformWithinBounds) {
  ekbd::sim::UniformDelay d(2, 7);
  Rng r(1);
  for (int i = 0; i < 200; ++i) {
    Time t = d.sample(0, 1, 0, r);
    EXPECT_GE(t, 2);
    EXPECT_LE(t, 7);
  }
}

TEST(DelayModels, PartialSynchronyBoundedAfterGst) {
  ekbd::sim::PartialSynchronyDelay::Params p;
  p.gst = 1000;
  p.pre_lo = 1;
  p.pre_hi = 100;
  p.spike_prob = 0.5;
  p.spike_factor = 50;
  p.post_lo = 1;
  p.post_hi = 10;
  ekbd::sim::PartialSynchronyDelay d(p);
  Rng r(1);
  Time max_pre = 0;
  for (int i = 0; i < 500; ++i) max_pre = std::max(max_pre, d.sample(0, 1, 0, r));
  EXPECT_GT(max_pre, 100);  // spikes exceeded the base range
  for (int i = 0; i < 500; ++i) {
    Time t = d.sample(0, 1, p.gst, r);
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 10);
  }
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim(1);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, MessageDeliveredWithDelay) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(7));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{42}, MsgLayer::kOther);
  sim.run_until(100);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].value, 42);
  EXPECT_EQ(b->receive_times[0], 7);
  EXPECT_EQ(b->froms[0], a->id());
}

TEST(Simulator, FifoPreservedDespiteRandomDelays) {
  // With highly variable delays, per-channel FIFO must still hold.
  Simulator sim(3, ekbd::sim::make_uniform_delay(1, 50));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->received[static_cast<size_t>(i)].value, i);
}

TEST(Simulator, FifoAcrossInterleavedSends) {
  Simulator sim(9, ekbd::sim::make_uniform_delay(1, 30));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  sim.start();
  // a and c both send to b; per-channel order must hold independently.
  for (int i = 0; i < 50; ++i) {
    a->send(b->id(), Note{i}, MsgLayer::kOther);
    c->send(b->id(), Note{1000 + i}, MsgLayer::kOther);
  }
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  int last_a = -1, last_c = 999;
  for (const Note& n : b->received) {
    if (n.value < 1000) {
      EXPECT_GT(n.value, last_a);
      last_a = n.value;
    } else {
      EXPECT_GT(n.value, last_c);
      last_c = n.value;
    }
  }
}

TEST(Simulator, TimerFiresOnce) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  TimerId id = a->set_timer(25);
  sim.run_until(1000);
  ASSERT_EQ(a->timers.size(), 1u);
  EXPECT_EQ(a->timers[0], id);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  TimerId id = a->set_timer(25);
  a->cancel_timer(id);
  sim.run_until(1000);
  EXPECT_TRUE(a->timers.empty());
}

TEST(Simulator, CrashedProcessReceivesNothing) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.schedule_crash(b->id(), 5);
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // delivery at 10 > crash at 5
  sim.run_until(1000);
  EXPECT_TRUE(b->received.empty());
  EXPECT_TRUE(sim.crashed(b->id()));
  EXPECT_EQ(sim.crash_time(b->id()), 5);
}

TEST(Simulator, MessagesSentBeforeCrashStillDelivered) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // sent at 0, delivered at 10
  sim.schedule_crash(a->id(), 1);               // sender crashes after sending
  sim.run_until(1000);
  ASSERT_EQ(b->received.size(), 1u);  // the message was already in flight
}

TEST(Simulator, CrashedProcessCannotSend) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.crash(a->id());
  a->send(b->id(), Note{1}, MsgLayer::kOther);  // silently dropped
  sim.run_until(1000);
  EXPECT_TRUE(b->received.empty());
}

TEST(Simulator, CrashedProcessTimersDropped) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  sim.start();
  a->set_timer(50);
  sim.schedule_crash(a->id(), 10);
  sim.run_until(1000);
  EXPECT_TRUE(a->timers.empty());
}

TEST(Simulator, LiveProcessesExcludesCrashed) {
  Simulator sim(1);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  (void)a;
  (void)c;
  sim.start();
  sim.crash(b->id());
  auto live = sim.live_processes();
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], 0);
  EXPECT_EQ(live[1], 2);
}

TEST(Simulator, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed, ekbd::sim::make_uniform_delay(1, 40));
    auto* a = sim.make_actor<Recorder>();
    auto* b = sim.make_actor<Recorder>();
    sim.start();
    for (int i = 0; i < 50; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
    sim.run_until(10'000);
    return b->receive_times;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(Network, InTransitAccounting) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(100));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 5; ++i) a->send(b->id(), Note{i}, MsgLayer::kDining);
  // All five in flight now.
  auto cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.in_transit, 5);
  EXPECT_EQ(cs.max_in_transit, 5);
  EXPECT_EQ(cs.total, 5u);
  sim.run_until(10'000);
  cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.in_transit, 0);
  EXPECT_EQ(cs.max_in_transit, 5);
}

TEST(Network, LayersAreSeparate) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  a->send(b->id(), Note{2}, MsgLayer::kDetector);
  a->send(b->id(), Note{3}, MsgLayer::kDetector);
  sim.run_until(100);
  EXPECT_EQ(sim.network().total_sent(MsgLayer::kDining), 1u);
  EXPECT_EQ(sim.network().total_sent(MsgLayer::kDetector), 2u);
  EXPECT_EQ(sim.network().channel(0, 1, MsgLayer::kDetector).total, 2u);
}

TEST(Network, SendsToCrashedCounted) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(10));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.crash(b->id());
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  sim.run_until(50);
  a->send(b->id(), Note{2}, MsgLayer::kDining);
  sim.run_until(1000);
  EXPECT_EQ(sim.network().sends_to_crashed(b->id(), MsgLayer::kDining), 2u);
  EXPECT_EQ(sim.network().last_send_to(b->id(), MsgLayer::kDining), 50);
}

TEST(Network, MaxInTransitAnyScansAllPairs) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(100));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  auto* c = sim.make_actor<Recorder>();
  sim.start();
  a->send(b->id(), Note{1}, MsgLayer::kDining);
  a->send(c->id(), Note{1}, MsgLayer::kDining);
  a->send(c->id(), Note{2}, MsgLayer::kDining);
  EXPECT_EQ(sim.network().max_in_transit_any(MsgLayer::kDining), 2);
  sim.run_until(1000);
}

TEST(ChannelFaults, DuplicationDeliversTwice) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(5));
  ekbd::net::LinkFaultModel faults(1, {.dup_prob = 1.0});
  sim.set_adversary(&faults);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 10; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(1'000);
  EXPECT_EQ(b->received.size(), 20u);  // every message twice
}

TEST(ChannelFaults, ReorderingViolatesFifo) {
  // With reorder probability 1 and wildly variable delays, some later
  // message must arrive before an earlier one (that's the point).
  Simulator sim(5, ekbd::sim::make_uniform_delay(1, 60));
  ekbd::net::LinkFaultModel faults(5, {.reorder_prob = 1.0});
  sim.set_adversary(&faults);
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  bool inverted = false;
  for (std::size_t i = 1; i < b->received.size(); ++i) {
    if (b->received[i].value < b->received[i - 1].value) inverted = true;
  }
  EXPECT_TRUE(inverted) << "expected at least one FIFO inversion";
}

TEST(ChannelFaults, DefaultOffPreservesModel) {
  Simulator sim(5, ekbd::sim::make_uniform_delay(1, 60));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  for (int i = 0; i < 100; ++i) a->send(b->id(), Note{i}, MsgLayer::kOther);
  sim.run_until(10'000);
  ASSERT_EQ(b->received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->received[static_cast<size_t>(i)].value, i);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim(1);
  sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  sim.run_until(10);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Network, OccupancySettlesToZeroAfterCrashDrops) {
  // Regression (ChannelStats accounting): messages addressed to a crashed
  // process are dropped *at delivery time*, and that drop must decrement
  // in_transit exactly like a delivery — otherwise the §7 channel-bound
  // reader sees phantom occupancy forever after any crash.
  Simulator sim(3, ekbd::sim::make_uniform_delay(5, 30));
  auto* a = sim.make_actor<Recorder>();
  auto* b = sim.make_actor<Recorder>();
  sim.start();
  sim.schedule_crash(b->id(), 10);
  // Sends straddling the crash: some deliver, some drop at a dead target.
  for (int i = 0; i < 12; ++i) {
    sim.schedule(1 + 2 * i, [&sim, a, b] {
      sim.send(a->id(), b->id(), Note{0}, MsgLayer::kDining);
    });
  }
  sim.run_until(1'000);
  ASSERT_GT(sim.network().sends_to_crashed(b->id(), MsgLayer::kDining), 0u);
  const auto cs = sim.network().channel(a->id(), b->id(), MsgLayer::kDining);
  EXPECT_EQ(cs.total, 12u);
  EXPECT_EQ(cs.in_transit, 0) << "drop-at-crashed-target leaked channel occupancy";
}

TEST(Network, StampWithoutFifoMayUndercutTheHorizon) {
  // Direct unit test of the fifo=false stamping path (adversarial
  // reordering): a message stamped non-FIFO takes its sampled latency
  // verbatim, undercutting an earlier slow message on the same channel.
  ekbd::sim::Network net;
  Message slow;
  slow.from = 0;
  slow.to = 1;
  net.stamp(slow, /*now=*/0, /*latency=*/100, /*target_crashed=*/false);
  EXPECT_EQ(slow.deliver_at, 100);

  Message fifo;
  fifo.from = 0;
  fifo.to = 1;
  net.stamp(fifo, /*now=*/10, /*latency=*/5, /*target_crashed=*/false);
  EXPECT_EQ(fifo.deliver_at, slow.deliver_at) << "FIFO stamp clamps to the horizon";

  Message rogue;
  rogue.from = 0;
  rogue.to = 1;
  net.stamp(rogue, /*now=*/10, /*latency=*/5, /*target_crashed=*/false, /*fifo=*/false);
  EXPECT_EQ(rogue.deliver_at, 15) << "non-FIFO stamp must take the raw latency";
  EXPECT_LT(rogue.deliver_at, slow.deliver_at);
  // Sequence numbers stay globally increasing either way.
  EXPECT_GT(rogue.seq, fifo.seq);

  // All three settle the books on delivery.
  net.delivered(slow);
  net.delivered(fifo);
  net.delivered(rogue);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kOther).in_transit, 0);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kOther).max_in_transit, 3);
}

TEST(Network, LogicalBooksMirrorPhysicalBooks) {
  // The ARQ's logical accounting must read through the same API as raw
  // stamped traffic: occupancy, totals, quiescence counters.
  ekbd::sim::Network net;
  const std::uint64_t s1 = net.logical_sent(0, 1, MsgLayer::kDining, 10, false);
  const std::uint64_t s2 = net.logical_sent(1, 0, MsgLayer::kDining, 12, false);
  EXPECT_GT(s2, s1);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).in_transit, 2);
  EXPECT_EQ(net.total_sent(MsgLayer::kDining), 2u);
  EXPECT_EQ(net.last_send_to(1, MsgLayer::kDining), 10);
  net.logical_delivered(0, 1, MsgLayer::kDining);
  net.logical_dropped(1, 0, MsgLayer::kDining);  // abandon settles identically
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).in_transit, 0);
  EXPECT_EQ(net.channel(0, 1, MsgLayer::kDining).max_in_transit, 2);
  // Sends to an already-crashed target book the quiescence counter.
  net.logical_sent(0, 2, MsgLayer::kDining, 20, /*target_crashed=*/true);
  EXPECT_EQ(net.sends_to_crashed(2, MsgLayer::kDining), 1u);
  net.logical_dropped(0, 2, MsgLayer::kDining);
  EXPECT_EQ(net.channel(0, 2, MsgLayer::kDining).in_transit, 0);
}

// -- differential queue test -------------------------------------------------
//
// Drives a simulator with random timers, sends, schedule()/call_after calls
// and cancellations — with delays from 0 (same tick) to four times the
// 1024-tick wheel, same-tick bursts, horizons that stop between two events
// of one tick, step() calls, and a crash followed by recover() — while a
// reference std::priority_queue keyed by (at, push order) predicts every
// pop. The simulator assigns one seq per queued event in push order, so
// the reference's order is the (at, seq) contract. Pops the simulator
// runs silently (a timer or delivery at a crashed process, a message
// from before the recovery, a fenced call_after) are checked by count.

/// Latency chosen by the test before each send.
struct ChosenLatency final : ekbd::sim::DelayModel {
  Time next = 1;
  Time sample(ProcessId, ProcessId, Time, ekbd::sim::Rng&) override { return next; }
};

class QueueOracle {
 public:
  QueueOracle(Simulator& sim, ChosenLatency& latency, std::size_t n)
      : sim_(sim), latency_(latency), crashed_(n, false), last_recover_(n, -1),
        incarnation_(n, 0) {}

  /// Up to two random pushes or cancellations on behalf of live `p`, 0.7
  /// on average: the traffic each event begets dies out on its own.
  void act(ProcessId p) {
    const std::uint64_t roll = rng_() % 10;
    for (int k = roll < 5 ? 0 : roll < 8 ? 1 : 2; k > 0; --k) act_once(p);
  }

  /// A burst of same-tick pushes, then random ones, from outside any handler.
  void burst() {
    const ProcessId p = live_process();
    for (int i = 0; i < 5; ++i) {
      timer(p, 0);
      callback(p, 0, /*fenced=*/i % 2 == 0);
    }
    for (int i = 0; i < 8; ++i) act_once(live_process());
  }

  void crash(ProcessId p) {
    sim_.crash(p);
    crashed_[static_cast<std::size_t>(p)] = true;
    ++incarnation_[static_cast<std::size_t>(p)];
  }

  void recover(ProcessId p) {
    for (auto it = timers_.begin(); it != timers_.end();) {
      it = it->second.owner == p ? timers_.erase(it) : std::next(it);
    }
    sim_.recover(p);
    crashed_[static_cast<std::size_t>(p)] = false;
    last_recover_[static_cast<std::size_t>(p)] = sim_.now();
  }

  /// The simulator ran a visible event: it must be the reference's next.
  void observe(std::uint64_t label) {
    for (;;) {
      ASSERT_FALSE(ref_.empty()) << "simulator ran an event the reference lacks";
      const Ref e = pop_counted();
      if (e.kind == Ref::kCancelled) continue;
      if (silent(e)) continue;
      EXPECT_EQ(e.label, label) << "pop order differs from (at, seq) at t=" << sim_.now();
      EXPECT_EQ(e.at, sim_.now());
      return;
    }
  }
  void on_timer(TimerId id) {
    const auto it = timers_.find(id);
    ASSERT_NE(it, timers_.end()) << "fired a cancelled timer";
    observe(it->second.label);
  }

  /// After run_until(h): every reference event due by h was popped.
  void settle(Time h) {
    while (!ref_.empty() && ref_.top().at <= h) {
      const Ref e = pop_counted();
      if (e.kind != Ref::kCancelled) {
        EXPECT_TRUE(silent(e)) << "event " << e.label << " at " << e.at << " never ran";
      }
    }
    EXPECT_EQ(sim_.events_processed(), processed_);
  }
  /// After step(): the reference pops as many events as the simulator did.
  void settle_step() {
    while (processed_ < sim_.events_processed()) {
      ASSERT_FALSE(ref_.empty());
      const Ref e = pop_counted();
      if (e.kind != Ref::kCancelled) {
        EXPECT_TRUE(silent(e));
      }
    }
    EXPECT_EQ(sim_.events_processed(), processed_);
  }

  [[nodiscard]] bool empty() const { return ref_.empty(); }
  std::uint64_t draw(std::uint64_t bound) { return rng_() % bound; }
  [[nodiscard]] ProcessId live_process() {
    for (;;) {
      const auto p = static_cast<ProcessId>(rng_() % crashed_.size());
      if (!crashed_[static_cast<std::size_t>(p)]) return p;
    }
  }

 private:
  struct Ref {
    enum Kind { kMessage, kTimer, kCallback, kCancelled } kind = kMessage;
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint64_t label = 0;
    ProcessId who = ekbd::sim::kNoProcess;  ///< recipient, timer owner or call_after owner
    Time sent_at = 0;
    std::uint64_t incarnation = 0;
    TimerId timer = 0;
    bool operator>(const Ref& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  struct LiveTimer {
    ProcessId owner;
    std::uint64_t label;
  };

  /// Delays across the wheel: same tick, near, around its 1024-tick
  /// window, and far past it.
  Time delay(Time min) {
    Time d = 0;
    switch (rng_() % 4) {
      case 0: d = 0; break;
      case 1: d = static_cast<Time>(1 + rng_() % 16); break;
      case 2: d = static_cast<Time>(1000 + rng_() % 60); break;
      default: d = static_cast<Time>(1024 + rng_() % 3072); break;
    }
    return d < min ? min : d;
  }

  void act_once(ProcessId p) {
    switch (rng_() % 5) {
      case 0: send(p); break;
      case 1: timer(p, delay(0)); break;
      case 2: cancel(p); break;
      default: callback(p, delay(0), rng_() % 2 == 0); break;
    }
  }

  void push(Ref e) {
    e.seq = next_seq_++;
    ref_.push(e);
  }

  void send(ProcessId p) {
    const auto n = static_cast<ProcessId>(crashed_.size());
    const auto to = static_cast<ProcessId>((p + 1 + static_cast<ProcessId>(rng_() % (n - 1))) % n);
    latency_.next = delay(1);
    // The Network's FIFO contract: never undercut the channel's horizon.
    Time& horizon = horizon_[{p, to}];
    const Time at = std::max(sim_.now() + latency_.next, horizon);
    horizon = at;
    const std::uint64_t label = next_label_++;
    sim_.send(p, to, ekbd::fd::Probe{label}, MsgLayer::kOther);
    Ref e;
    e.kind = Ref::kMessage;
    e.at = at;
    e.label = label;
    e.who = to;
    e.sent_at = sim_.now();
    push(e);
  }

  void timer(ProcessId p, Time d) {
    const TimerId id = sim_.set_timer(p, d);
    const std::uint64_t label = next_label_++;
    timers_[id] = LiveTimer{p, label};
    Ref e;
    e.kind = Ref::kTimer;
    e.at = sim_.now() + d;
    e.label = label;
    e.who = p;
    e.timer = id;
    push(e);
  }

  void cancel(ProcessId p) {
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->second.owner == p && rng_() % 2 == 0) {
        sim_.cancel_timer(it->first);
        timers_.erase(it);
        return;
      }
    }
  }

  /// schedule() when `fenced` is false, else call_after(p, ...).
  void callback(ProcessId p, Time d, bool fenced) {
    const std::uint64_t label = next_label_++;
    Ref e;
    e.kind = Ref::kCallback;
    e.at = sim_.now() + d;
    e.label = label;
    if (fenced) {
      e.who = p;
      e.incarnation = incarnation_[static_cast<std::size_t>(p)];
      sim_.call_after(p, d, [this, label, p] {
        observe(label);
        act(p);
      });
    } else {
      sim_.schedule(e.at, [this, label] {
        observe(label);
        act(live_process());
      });
    }
    push(e);
  }

  /// Pop the reference's next event; a cancelled timer comes back as
  /// kCancelled and is not counted (the simulator prunes it silently).
  Ref pop_counted() {
    Ref e = ref_.top();
    ref_.pop();
    if (e.kind == Ref::kTimer) {
      if (timers_.erase(e.timer) == 0) {
        e.kind = Ref::kCancelled;
        return e;
      }
    }
    ++processed_;
    return e;
  }

  [[nodiscard]] bool silent(const Ref& e) const {
    const auto who = static_cast<std::size_t>(e.who);
    switch (e.kind) {
      case Ref::kMessage:
        return crashed_[who] || e.sent_at < last_recover_[who];
      case Ref::kTimer:
        return crashed_[who];
      case Ref::kCallback:
        return e.who != ekbd::sim::kNoProcess &&
               (crashed_[who] || incarnation_[who] != e.incarnation);
      case Ref::kCancelled:
        return true;
    }
    return true;
  }

  Simulator& sim_;
  ChosenLatency& latency_;
  std::mt19937_64 rng_{2024};
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref_;
  std::map<TimerId, LiveTimer> timers_;  ///< pending, not cancelled
  std::map<std::pair<ProcessId, ProcessId>, Time> horizon_;
  std::vector<bool> crashed_;
  std::vector<Time> last_recover_;
  std::vector<std::uint64_t> incarnation_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_label_ = 0;
  std::uint64_t processed_ = 0;
};

/// Reports every message and timer to the oracle, then acts.
struct OracleNode : ekbd::sim::Actor {
  QueueOracle* oracle = nullptr;
  void on_message(const Message& m) override {
    oracle->observe(m.as<ekbd::fd::Probe>()->seq);
    oracle->act(id());
  }
  void on_timer(TimerId t) override {
    oracle->on_timer(t);
    oracle->act(id());
  }
};

TEST(SimHotPath, WheelPopsInTheSameOrderAsAnAtSeqHeap) {
  constexpr std::size_t kN = 6;
  auto latency = std::make_unique<ChosenLatency>();
  ChosenLatency& chosen = *latency;
  Simulator sim(5, std::move(latency));
  QueueOracle oracle(sim, chosen, kN);
  for (std::size_t i = 0; i < kN; ++i) sim.make_actor<OracleNode>()->oracle = &oracle;
  sim.start();

  const ProcessId victim = 3;
  for (int round = 0; round < 1'500; ++round) {
    oracle.burst();
    if (round == 400) oracle.crash(victim);
    if (round == 700) oracle.recover(victim);
    if (round % 7 == 3) {
      for (int i = 0; i < 5; ++i) sim.step();
      oracle.settle_step();
    }
    // Horizons from 0 (the same tick again) to past the wheel's window.
    const Time h = sim.now() + static_cast<Time>(oracle.draw(4) == 0 ? 0 : oracle.draw(1500));
    sim.run_until(h);
    oracle.settle(h);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "round " << round;
  }
  // Drain: with nothing left to push, everything pending eventually runs.
  while (!oracle.empty()) {
    const Time h = sim.now() + 5000;
    sim.run_until(h);
    oracle.settle(h);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(sim.events_processed(), 30'000u);
}

// -- dense books -------------------------------------------------------------
//
// The books keep one sorted row of receivers per sender, so any id works:
// these tests use ids far past the n the paper's experiments run, a
// kNoProcess sender, and a pair that first talks mid-run (churn).

std::vector<std::pair<ProcessId, ProcessId>> visited_pairs(const ekbd::sim::Network& net,
                                                            MsgLayer layer) {
  std::vector<std::pair<ProcessId, ProcessId>> out;
  net.for_each_pair(layer, [&](ProcessId a, ProcessId b, const ekbd::sim::ChannelStats&) {
    out.emplace_back(a, b);
  });
  return out;
}

Message stamped(ekbd::sim::Network& net, ProcessId from, ProcessId to, Time now, Time latency,
                bool target_crashed = false) {
  Message m;
  m.from = from;
  m.to = to;
  m.layer = MsgLayer::kDining;
  net.stamp(m, now, latency, target_crashed);
  return m;
}

TEST(Network, DenseBooksServeIdsUpTo4096) {
  ekbd::sim::Network net;
  // Each direction keeps its own FIFO horizon, ids past 512 included.
  const Message slow = stamped(net, 600, 700, 0, 50);
  const Message back = stamped(net, 700, 600, 0, 5);
  const Message fast = stamped(net, 600, 700, 1, 5);
  EXPECT_EQ(slow.deliver_at, 50);
  EXPECT_EQ(back.deliver_at, 5) << "the reverse direction has its own horizon";
  EXPECT_EQ(fast.deliver_at, 50) << "FIFO: never undercut an earlier send";
  const Message far = stamped(net, 4096, 0, 2, 3, /*target_crashed=*/true);
  const Message edge = stamped(net, 5, 4095, 3, 4);

  EXPECT_EQ(net.channel(700, 600, MsgLayer::kDining).in_transit, 3);
  EXPECT_EQ(net.channel(600, 700, MsgLayer::kDining).total, 3u);
  EXPECT_EQ(net.channel(0, 4096, MsgLayer::kDining).total, 1u);
  EXPECT_EQ(net.channel(4095, 5, MsgLayer::kDining).total, 1u);
  EXPECT_EQ(net.channel(600, 4095, MsgLayer::kDining).total, 0u);
  EXPECT_EQ(net.channel(600, 700, MsgLayer::kDetector).total, 0u);
  EXPECT_EQ(net.max_in_transit_any(MsgLayer::kDining), 3);
  EXPECT_EQ(net.last_send_to(700, MsgLayer::kDining), 1);
  EXPECT_EQ(net.last_send_to(4095, MsgLayer::kDining), 3);
  EXPECT_EQ(net.last_send_to(4000, MsgLayer::kDining), -1);
  EXPECT_EQ(net.sends_to_crashed(0, MsgLayer::kDining), 1u);
  EXPECT_EQ(net.sends_to_crashed(4095, MsgLayer::kDining), 0u);
  EXPECT_EQ(net.active_pairs(MsgLayer::kDining), 3u);
  EXPECT_EQ(net.active_pairs(MsgLayer::kDetector), 0u);

  for (const Message& m : {slow, back, fast, far, edge}) net.delivered(m);
  EXPECT_EQ(net.channel(600, 700, MsgLayer::kDining).in_transit, 0);
  EXPECT_EQ(net.channel(600, 700, MsgLayer::kDining).max_in_transit, 3);
  EXPECT_EQ(net.channel(0, 4096, MsgLayer::kDining).in_transit, 0);
  using Pairs = std::vector<std::pair<ProcessId, ProcessId>>;
  EXPECT_EQ(visited_pairs(net, MsgLayer::kDining), (Pairs{{0, 4096}, {5, 4095}, {600, 700}}));
}

TEST(Network, NoProcessAndDamagedIdsSpillInKeyOrder) {
  ekbd::sim::Network net;
  // An id no engine hands out, as a damaged log record could carry: it
  // must neither size the dense books nor break the visiting order.
  constexpr ProcessId kHuge = ProcessId{1} << 30;
  stamped(net, 2, 1, 0, 1);
  const std::uint64_t seq = net.logical_sent(ekbd::sim::kNoProcess, 3, MsgLayer::kDining, 7,
                                             /*target_crashed=*/false);
  EXPECT_EQ(seq, 1u);
  net.logical_sent(kHuge, 5, MsgLayer::kDining, 8, /*target_crashed=*/false);
  net.logical_sent(5, kHuge, MsgLayer::kDining, 9, /*target_crashed=*/true);
  stamped(net, 7, 2, 10, 1);
  EXPECT_EQ(net.channel(ekbd::sim::kNoProcess, 3, MsgLayer::kDining).in_transit, 1);
  EXPECT_EQ(net.channel(3, ekbd::sim::kNoProcess, MsgLayer::kDining).total, 1u);
  EXPECT_EQ(net.channel(5, kHuge, MsgLayer::kDining).in_transit, 2);
  EXPECT_EQ(net.last_send_to(3, MsgLayer::kDining), 7);
  EXPECT_EQ(net.last_send_to(kHuge, MsgLayer::kDining), 9);
  EXPECT_EQ(net.sends_to_crashed(kHuge, MsgLayer::kDining), 1u);
  EXPECT_EQ(net.active_pairs(MsgLayer::kDining), 4u);
  using Pairs = std::vector<std::pair<ProcessId, ProcessId>>;
  EXPECT_EQ(visited_pairs(net, MsgLayer::kDining),
            (Pairs{{1, 2}, {2, 7}, {5, kHuge}, {ekbd::sim::kNoProcess, 3}}));
  net.logical_delivered(ekbd::sim::kNoProcess, 3, MsgLayer::kDining);
  EXPECT_EQ(net.channel(ekbd::sim::kNoProcess, 3, MsgLayer::kDining).in_transit, 0);
  EXPECT_EQ(net.channel(ekbd::sim::kNoProcess, 3, MsgLayer::kDining).max_in_transit, 1);
}

TEST(Network, ChurnAddedPairJoinsTheRowsInOrder) {
  ekbd::sim::Network net;
  // Rows of 2 hold {1, 30} when the churned-in pair {2, 9} first talks:
  // it lands between them, and the books already kept stay put.
  std::vector<Message> inflight = {stamped(net, 2, 30, 0, 5), stamped(net, 30, 2, 0, 5),
                                   stamped(net, 1, 2, 0, 5)};
  net.delivered(inflight[2]);
  inflight.push_back(stamped(net, 9, 2, 1, 5));
  inflight.push_back(stamped(net, 2, 9, 2, 5));
  EXPECT_EQ(net.channel(2, 30, MsgLayer::kDining).in_transit, 2);
  EXPECT_EQ(net.channel(2, 30, MsgLayer::kDining).max_in_transit, 2);
  EXPECT_EQ(net.channel(1, 2, MsgLayer::kDining).in_transit, 0);
  EXPECT_EQ(net.channel(9, 2, MsgLayer::kDining).in_transit, 2);
  EXPECT_EQ(inflight.back().deliver_at, 7);
  using Pairs = std::vector<std::pair<ProcessId, ProcessId>>;
  EXPECT_EQ(visited_pairs(net, MsgLayer::kDining), (Pairs{{1, 2}, {2, 9}, {2, 30}}));
}

/// FNV-1a over every book a checker reads: each layer's pairs with their
/// occupancy and totals, the layer's high-water mark, and every target's
/// quiescence books.
std::uint64_t books_digest(const ekbd::sim::Network& net, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (int l = 0; l < ekbd::sim::kNumMsgLayers; ++l) {
    const auto layer = static_cast<MsgLayer>(l);
    net.for_each_pair(layer, [&](ProcessId a, ProcessId b, const ekbd::sim::ChannelStats& cs) {
      mix(static_cast<std::uint64_t>(a));
      mix(static_cast<std::uint64_t>(b));
      mix(static_cast<std::uint64_t>(cs.in_transit));
      mix(static_cast<std::uint64_t>(cs.max_in_transit));
      mix(cs.total);
    });
    mix(static_cast<std::uint64_t>(net.max_in_transit_any(layer)));
    mix(net.total_sent(layer));
    for (std::size_t p = 0; p < n; ++p) {
      const auto target = static_cast<ProcessId>(p);
      mix(net.sends_to_crashed(target, layer));
      mix(static_cast<std::uint64_t>(net.last_send_to(target, layer)));
    }
  }
  return h;
}

// Golden values of a sparse(1024) run on a lossy network (drops,
// duplicates, reordering, the ARQ on top) with one crash, read through
// every book query. First recorded with the hash-map books the dense rows
// replaced; re-recorded when the ARQ became one instance per process (a
// crashed sender's retransmission timers now die with it) and its acks
// gained the gap bit (a duplicate no longer resends the head), which
// change this run's schedule.
TEST(Network, BooksOfASparse1024LossyRunMatchTheHashMapBooks) {
  ekbd::scenario::Config cfg;
  cfg.seed = 11;
  cfg.topology = "sparse";
  cfg.n = 1024;
  cfg.detector = ekbd::scenario::DetectorKind::kHeartbeat;
  cfg.partial_synchrony = true;
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;
  cfg.crashes = {{700, 1'000}};
  cfg.run_for = 2'500;
  ekbd::scenario::Scenario s(cfg);
  s.run();
  const ekbd::sim::Network& net = s.sim().network();
  const ProcessId peer = s.graph().neighbors(700).front();
  const ekbd::sim::ChannelStats cs = net.channel(700, peer, MsgLayer::kDining);
  EXPECT_EQ(cs.total, 8u);
  EXPECT_EQ(cs.max_in_transit, 3);
  EXPECT_EQ(net.channel(peer, 700, MsgLayer::kTransport).total, 30u);
  EXPECT_EQ(net.max_in_transit_any(MsgLayer::kDining), 4);
  EXPECT_EQ(net.max_in_transit_any(MsgLayer::kTransport), 34);
  EXPECT_EQ(net.sends_to_crashed(700, MsgLayer::kDining), 4u);
  EXPECT_EQ(net.sends_to_crashed(700, MsgLayer::kDetector), 321u);
  EXPECT_EQ(books_digest(net, cfg.n), 0x7C46D49371152808ULL);
}

}  // namespace
