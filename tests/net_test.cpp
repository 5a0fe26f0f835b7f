// Unit tests for the net/ subsystem: LinkFaultModel decision logic and
// seed determinism, partition/edge-cut semantics, and the ReliableTransport
// ARQ shim (exactly-once in-order delivery under loss/duplication/
// reordering, duplicate suppression, logical channel accounting, and
// identical event logs for identical seeds).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "net/link_fault_model.hpp"
#include "net/reliable_transport.hpp"
#include "scenario/scenario.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_log.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::net::EdgeCut;
using ekbd::net::LinkFaultModel;
using ekbd::net::LinkFaultParams;
using ekbd::net::Partition;
using ekbd::net::ReliableTransport;
using ekbd::scenario::install_arqs;
using ekbd::sim::EventLog;
using ekbd::sim::FaultDecision;
using ekbd::sim::LoggedEvent;
using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Simulator;
using ekbd::sim::Time;

/// Records int payloads it receives (logical deliveries).
class IntSink : public ekbd::sim::Actor {
 public:
  void on_message(const Message& m) override {
    if (const int* v = m.as<int>()) {
      got.push_back(*v);
      times.push_back(now());
    }
  }
  std::vector<int> got;
  std::vector<Time> times;
};

// ---------------------------------------------------------------- adversary

TEST(LinkFaultModel, EqualSeedsReplayIdenticalFaultSchedules) {
  const LinkFaultParams p{.drop_prob = 0.3, .dup_prob = 0.2, .reorder_prob = 0.15};
  LinkFaultModel a(42, p);
  LinkFaultModel b(42, p);
  for (int i = 0; i < 500; ++i) {
    const FaultDecision da = a.on_send(0, 1, MsgLayer::kOther, i);
    const FaultDecision db = b.on_send(0, 1, MsgLayer::kOther, i);
    ASSERT_EQ(da.drop, db.drop) << "send " << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << "send " << i;
    ASSERT_EQ(da.reorder, db.reorder) << "send " << i;
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.duplicates(), b.duplicates());
  EXPECT_EQ(a.reorders(), b.reorders());
  EXPECT_GT(a.drops(), 0u);       // 500 sends at 30% — statistically certain
  EXPECT_GT(a.duplicates(), 0u);
  EXPECT_GT(a.reorders(), 0u);
}

TEST(LinkFaultModel, DifferentSeedsDiverge) {
  const LinkFaultParams p{.drop_prob = 0.3, .dup_prob = 0.2, .reorder_prob = 0.15};
  LinkFaultModel a(42, p);
  LinkFaultModel b(43, p);
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) {
    const FaultDecision da = a.on_send(0, 1, MsgLayer::kOther, i);
    const FaultDecision db = b.on_send(0, 1, MsgLayer::kOther, i);
    diverged = da.drop != db.drop || da.duplicate != db.duplicate;
  }
  EXPECT_TRUE(diverged);
}

TEST(LinkFaultModel, PerLinkOverridesBeatDefaults) {
  LinkFaultModel m(7, LinkFaultParams{});  // default: fault-free
  m.set_link_params(2, 5, LinkFaultParams{.drop_prob = 1.0});
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(m.on_send(2, 5, MsgLayer::kOther, i).drop);
    EXPECT_TRUE(m.on_send(5, 2, MsgLayer::kOther, i).drop);  // undirected
    EXPECT_FALSE(m.on_send(0, 1, MsgLayer::kOther, i).drop);
  }
}

TEST(LinkFaultModel, PartitionCutsOnlyCrossingLinksDuringInterval) {
  LinkFaultModel m(1);
  m.add_partition(Partition{.side = {0, 1}, .from = 100, .until = 200});
  // Crossing link, inside the window: cut (both directions).
  EXPECT_TRUE(m.cut(0, 2, 150));
  EXPECT_TRUE(m.cut(2, 0, 150));
  // Same side: never cut.
  EXPECT_FALSE(m.cut(0, 1, 150));
  EXPECT_FALSE(m.cut(2, 3, 150));
  // Outside [from, until): not cut (end exclusive — heal takes effect at 200).
  EXPECT_FALSE(m.cut(0, 2, 99));
  EXPECT_FALSE(m.cut(0, 2, 200));
}

TEST(LinkFaultModel, EdgeCutIsUndirectedAndWindowed) {
  LinkFaultModel m(1);
  m.add_edge_cut(EdgeCut{.a = 3, .b = 4, .from = 10, .until = 20});
  EXPECT_TRUE(m.cut(3, 4, 10));
  EXPECT_TRUE(m.cut(4, 3, 19));
  EXPECT_FALSE(m.cut(3, 4, 20));
  EXPECT_FALSE(m.cut(3, 5, 15));
}

TEST(LinkFaultModel, LastHealTimeReportsPermanentCuts) {
  LinkFaultModel m(1);
  EXPECT_EQ(m.last_heal_time(), 0);
  m.add_partition(Partition{.side = {0}, .from = 50, .until = 300});
  m.add_edge_cut(EdgeCut{.a = 1, .b = 2, .from = 10, .until = 400});
  EXPECT_EQ(m.last_heal_time(), 400);
  m.add_partition(Partition{.side = {5}, .from = 0, .until = -1});  // permanent
  EXPECT_EQ(m.last_heal_time(), -1);
}

TEST(LinkFaultModel, PartitionDropWinsOverCoinFlips) {
  // A cut link drops everything, deterministically, and books it as a
  // partition drop (not a probabilistic one).
  LinkFaultModel m(9, LinkFaultParams{.drop_prob = 0.0});
  m.add_partition(Partition{.side = {0}, .from = 0, .until = -1});
  for (int i = 0; i < 10; ++i) {
    const FaultDecision d = m.on_send(0, 1, MsgLayer::kDining, i);
    EXPECT_TRUE(d.drop);
    EXPECT_TRUE(d.partitioned);
  }
  EXPECT_EQ(m.partition_drops(), 10u);
  EXPECT_EQ(m.drops(), 0u);
}

// -------------------------------------------------------------------- ARQ

/// 0 → 1 over a hostile link; returns the receiving sink and the stats.
struct ArqRun {
  std::vector<int> got;
  std::vector<Time> times;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t physical_data_sends = 0;
  std::uint64_t logical_total = 0;
  int logical_in_transit_end = 0;
  std::uint64_t transport_total = 0;
};

ArqRun run_arq(std::uint64_t sim_seed, std::uint64_t fault_seed, LinkFaultParams faults,
               int messages, Time spacing, Time horizon) {
  Simulator sim(sim_seed);
  sim.make_actor<IntSink>();                  // process 0: sender only
  IntSink* sink = sim.make_actor<IntSink>();  // process 1: receiver
  LinkFaultModel adversary(fault_seed, faults);
  sim.set_adversary(&adversary);
  const auto arqs = install_arqs(sim, 2, ReliableTransport::Params{}, nullptr);
  sim.start();
  for (int i = 0; i < messages; ++i) {
    sim.schedule(1 + spacing * i, [&sim, i] { sim.send(0, 1, i, MsgLayer::kOther); });
  }
  sim.run_until(horizon);

  ArqRun out;
  out.got = sink->got;
  out.times = sink->times;
  const ekbd::net::ArqStats stats = ekbd::net::sum_stats(arqs);
  out.retransmissions = stats.retransmissions;
  out.duplicates_suppressed = stats.duplicates_suppressed;
  out.physical_data_sends = stats.physical_data_sends;
  const auto logical = sim.network().channel(0, 1, MsgLayer::kOther);
  out.logical_total = logical.total;
  out.logical_in_transit_end = logical.in_transit;
  out.transport_total = sim.network().total_sent(MsgLayer::kTransport);
  return out;
}

TEST(ReliableTransport, ExactlyOnceInOrderUnderLossDupReorder) {
  const LinkFaultParams hostile{.drop_prob = 0.3, .dup_prob = 0.2, .reorder_prob = 0.2};
  const int kMessages = 80;
  const ArqRun r = run_arq(11, 12, hostile, kMessages, 25, 120'000);

  // Every logical message delivered exactly once, in send order — the
  // reliable FIFO channel the paper assumes, rebuilt over a hostile link.
  ASSERT_EQ(r.got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(r.got[static_cast<std::size_t>(i)], i);

  // The hostility was real and the ARQ actually worked for it.
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GT(r.duplicates_suppressed, 0u);
  EXPECT_GT(r.physical_data_sends, static_cast<std::uint64_t>(kMessages));

  // Logical books: all accepted, all settled, none stranded.
  EXPECT_EQ(r.logical_total, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(r.logical_in_transit_end, 0);
  // Physical segments live on their own layer.
  EXPECT_GT(r.transport_total, static_cast<std::uint64_t>(kMessages));
}

TEST(ReliableTransport, CleanLinkAddsNoRetransmissions) {
  const ArqRun r = run_arq(3, 4, LinkFaultParams{}, 40, 30, 20'000);
  ASSERT_EQ(r.got.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(r.got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.physical_data_sends, 40u);  // one segment per logical message
}

TEST(ReliableTransport, EqualSeedsProduceIdenticalDeliverySchedules) {
  const LinkFaultParams hostile{.drop_prob = 0.25, .dup_prob = 0.15, .reorder_prob = 0.1};
  const ArqRun a = run_arq(21, 22, hostile, 50, 20, 80'000);
  const ArqRun b = run_arq(21, 22, hostile, 50, 20, 80'000);
  EXPECT_EQ(a.got, b.got);
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.physical_data_sends, b.physical_data_sends);
}

// A lost head segment is resent as soon as the receiver acks a later one,
// not when the retransmission timer fires: the duplicate ack says the
// receiver still waits for the head. A healed partition leaves the timer
// backed off to rto_max, so waiting for it could starve the diners.
TEST(ReliableTransport, DuplicateAckForTheHeadResendsItAtOnce) {
  /// Drops the first physical segment 0 sends (data segment 0) and
  /// nothing else.
  class DropFirstData final : public ekbd::sim::ChannelAdversary {
   public:
    FaultDecision on_send(ProcessId from, ProcessId, MsgLayer layer, Time) override {
      FaultDecision d;
      d.drop = !dropped_ && from == 0 && layer == MsgLayer::kTransport;
      dropped_ = dropped_ || d.drop;
      return d;
    }

   private:
    bool dropped_ = false;
  };

  Simulator sim(1, ekbd::sim::make_fixed_delay(5));
  sim.make_actor<IntSink>();
  IntSink* sink = sim.make_actor<IntSink>();
  DropFirstData adversary;
  sim.set_adversary(&adversary);
  ReliableTransport::Params params;
  params.rto_initial = 1'000;
  params.rto_max = 1'000;
  const auto arqs = install_arqs(sim, 2, params, nullptr);
  sim.start();
  sim.schedule(1, [&sim] { sim.send(0, 1, 0, MsgLayer::kOther); });
  sim.schedule(2, [&sim] { sim.send(0, 1, 1, MsgLayer::kOther); });
  sim.run_until(2'500);

  ASSERT_EQ(sink->got, (std::vector<int>{0, 1}));
  EXPECT_LT(sink->times[0], 100) << "the head waited for the retransmission timer";
  EXPECT_EQ(arqs[0]->stats().retransmissions, 1u);
}

// The converse: a duplicate of a segment the receiver already delivered
// draws a repeat of the same cumulative ack, but no later segment waits in
// the receiver's buffer, so the ack's gap bit is clear and the head still
// in flight is not resent.
TEST(ReliableTransport, DuplicateOfADeliveredSegmentDrawsNoResend) {
  /// Duplicates the first physical segment 0 sends (data segment 0).
  class DuplicateFirstData final : public ekbd::sim::ChannelAdversary {
   public:
    FaultDecision on_send(ProcessId from, ProcessId, MsgLayer layer, Time) override {
      FaultDecision d;
      d.duplicate = !duplicated_ && from == 0 && layer == MsgLayer::kTransport;
      duplicated_ = duplicated_ || d.duplicate;
      return d;
    }

   private:
    bool duplicated_ = false;
  };

  Simulator sim(1, ekbd::sim::make_fixed_delay(5));
  sim.make_actor<IntSink>();
  IntSink* sink = sim.make_actor<IntSink>();
  DuplicateFirstData adversary;
  sim.set_adversary(&adversary);
  const auto arqs = install_arqs(sim, 2, ReliableTransport::Params{}, nullptr);
  sim.start();
  // Segment 0 and its copy land at t=6 and draw two acks of 1, which
  // return at t=11 while segment 1 (sent at t=7) is still in flight.
  sim.schedule(1, [&sim] { sim.send(0, 1, 0, MsgLayer::kOther); });
  sim.schedule(7, [&sim] { sim.send(0, 1, 1, MsgLayer::kOther); });
  sim.run_until(2'000);

  ASSERT_EQ(sink->got, (std::vector<int>{0, 1}));
  const ekbd::net::ArqStats stats = ekbd::net::sum_stats(arqs);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.retransmissions, 0u) << "a duplicate ack resent a head still in flight";
  EXPECT_EQ(stats.physical_data_sends, 2u);
}

TEST(ReliableTransport, DetectorLayerStaysRaw) {
  Simulator sim(5);
  sim.make_actor<IntSink>();
  IntSink* sink = sim.make_actor<IntSink>();
  const auto arqs = install_arqs(sim, 2, ReliableTransport::Params{}, nullptr);
  sim.start();
  sim.schedule(1, [&sim] { sim.send(0, 1, 7, MsgLayer::kDetector); });
  sim.run_until(1'000);
  ASSERT_EQ(sink->got.size(), 1u);  // delivered — but not via the ARQ
  const ekbd::net::ArqStats stats = ekbd::net::sum_stats(arqs);
  EXPECT_EQ(stats.logical_sends, 0u);
  EXPECT_EQ(stats.physical_data_sends, 0u);
  EXPECT_EQ(sim.network().total_sent(MsgLayer::kTransport), 0u);
}

// --------------------------------------------- end-to-end determinism audit

std::vector<std::string> scenario_event_log(const ekbd::scenario::Config& cfg) {
  ekbd::scenario::Scenario s(cfg);
  EventLog log;
  s.sim().set_event_log(&log);
  s.run();
  std::vector<std::string> lines;
  lines.reserve(log.size());
  for (const LoggedEvent& ev : log.events()) lines.push_back(ev.describe());
  return lines;
}

TEST(NetDeterminism, EqualSeedsProduceIdenticalEventLogs) {
  ekbd::scenario::Config cfg;
  cfg.seed = 97;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.partial_synchrony = false;
  cfg.detector = ekbd::scenario::DetectorKind::kScripted;
  cfg.net_mode = ekbd::scenario::NetMode::kLossyPartition;
  cfg.link_faults = LinkFaultParams{.drop_prob = 0.2, .dup_prob = 0.1, .reorder_prob = 0.1};
  cfg.partitions.push_back(Partition{.side = {0, 1}, .from = 5'000, .until = 9'000});
  cfg.crashes = {{3, 12'000}};
  cfg.run_for = 20'000;

  const std::vector<std::string> a = scenario_event_log(cfg);
  const std::vector<std::string> b = scenario_event_log(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "event " << i;
  EXPECT_GT(a.size(), 100u);  // the run actually did something

  ekbd::scenario::Config other = cfg;
  other.seed = 98;
  EXPECT_NE(a, scenario_event_log(other));
}

TEST(NetDeterminism, NetSeedAloneChangesOnlyTheFaultSchedule) {
  // Same master seed, different net seed: a different fault schedule must
  // emerge (the coins are NOT drawn from the simulator's master stream).
  ekbd::scenario::Config cfg;
  cfg.seed = 55;
  cfg.topology = "ring";
  cfg.n = 5;
  cfg.partial_synchrony = false;
  cfg.detector = ekbd::scenario::DetectorKind::kScripted;
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;
  cfg.link_faults = LinkFaultParams{.drop_prob = 0.25, .dup_prob = 0.1, .reorder_prob = 0.0};
  cfg.run_for = 15'000;

  ekbd::scenario::Scenario s1(cfg);
  s1.run();
  ekbd::scenario::Config cfg2 = cfg;
  cfg2.net_seed = 777;
  ekbd::scenario::Scenario s2(cfg2);
  s2.run();
  ASSERT_NE(s1.fault_model(), nullptr);
  ASSERT_NE(s2.fault_model(), nullptr);
  EXPECT_NE(std::make_tuple(s1.fault_model()->drops(), s1.fault_model()->duplicates()),
            std::make_tuple(s2.fault_model()->drops(), s2.fault_model()->duplicates()));
}

// ------------------------------------------------------------- RTO jitter

/// One sender, two receivers, every datagram dropped: the ARQ backs off
/// forever on both edges, and `armed_delays` records the schedule.
std::pair<std::vector<Time>, std::vector<Time>> backoff_schedules(
    ReliableTransport::Params params, std::uint64_t sim_seed) {
  Simulator sim(sim_seed);
  sim.make_actor<IntSink>();
  sim.make_actor<IntSink>();
  sim.make_actor<IntSink>();
  LinkFaultModel blackhole(1, LinkFaultParams{.drop_prob = 1.0});
  sim.set_adversary(&blackhole);
  const auto arqs = install_arqs(sim, 3, params, nullptr);
  sim.start();
  sim.schedule(1, [&sim] {
    sim.send(0, 1, 7, MsgLayer::kOther);
    sim.send(0, 2, 7, MsgLayer::kOther);
  });
  sim.run_until(40'000);
  return {arqs[0]->armed_delays(0, 1), arqs[0]->armed_delays(0, 2)};
}

TEST(RtoJitter, DisabledJitterArmsBothEdgesInLockstep) {
  ReliableTransport::Params params;
  params.rto_jitter = 0.0;
  const auto [e1, e2] = backoff_schedules(params, 42);
  ASSERT_GT(e1.size(), 4u);
  // Without jitter the two edges run the identical exponential schedule —
  // the synchronized post-heal retransmit storm this knob exists to break.
  EXPECT_EQ(e1, e2);
  // And it is the exact legacy backoff: rto_initial doubling up to rto_max.
  Time expect = params.rto_initial;
  for (const Time d : e1) {
    EXPECT_EQ(d, expect);
    expect = std::min(static_cast<Time>(static_cast<double>(expect) * params.rto_backoff),
                      params.rto_max);
  }
}

TEST(RtoJitter, JitterDesynchronizesEdgesButStaysSeedDeterministic) {
  ReliableTransport::Params params;
  params.rto_jitter = 0.35;
  params.jitter_seed = 9;
  const auto [e1, e2] = backoff_schedules(params, 42);
  ASSERT_GT(e1.size(), 4u);
  ASSERT_GT(e2.size(), 4u);

  // Desynchronization: the per-edge streams decorrelate the schedules.
  EXPECT_NE(e1, e2);

  // Every armed delay stays inside the stretch envelope [base, base*1.35].
  Time base = params.rto_initial;
  for (const Time d : e1) {
    EXPECT_GE(d, base);
    EXPECT_LE(d, static_cast<Time>(static_cast<double>(base) * (1.0 + params.rto_jitter)) + 1);
    base = std::min(static_cast<Time>(static_cast<double>(base) * params.rto_backoff),
                    params.rto_max);
  }

  // Bit determinism: the same (jitter_seed, edge) reproduces the same
  // schedule, run after run.
  const auto [f1, f2] = backoff_schedules(params, 42);
  EXPECT_EQ(e1, f1);
  EXPECT_EQ(e2, f2);

  // A different jitter seed reshuffles the stretches.
  params.jitter_seed = 10;
  const auto [g1, g2] = backoff_schedules(params, 42);
  EXPECT_NE(e1, g1);
}

}  // namespace
