// Unit tests for the discrete-event simulator: ordering, FIFO channels,
// timers, crash semantics, determinism, delay models, network accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/link_fault_model.hpp"
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

}  // namespace
