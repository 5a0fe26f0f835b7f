// End-to-end network-fault suite (ctest label: netfault): Algorithm 1 run
// over lossy, duplicating, reordering and partitioned links through the
// net/ ARQ shim. The paper's properties are stated for reliable FIFO
// channels; these tests check that the transport's fair-lossy → reliable
// FIFO reduction preserves them in full —
//   P1  fork uniqueness            (lemma11_violations == 0)
//   P2  eventual weak exclusion    (no violations after FD convergence)
//   P3  wait-freedom               (every correct hungry process eats)
//   P4  eventual (m+1)-bounded waiting
// plus the §7 *logical* channel bound (≤ 4 dining messages per edge) and
// retransmission quiescence toward crashed/suspected peers. A permanent
// partition is exercised last: it violates the fair-lossy premise, so it
// sits outside the paper's guarantee envelope (see docs/MODEL.md) — the
// test pins down what still holds (per-side progress, cross-cut traffic
// quiescence) rather than the full property set.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dining/checkers.hpp"
#include "scenario/scenario.hpp"

namespace {

using ekbd::net::LinkFaultParams;
using ekbd::net::Partition;
using ekbd::scenario::Algorithm;
using ekbd::scenario::Config;
using ekbd::scenario::DetectorKind;
using ekbd::scenario::NetMode;
using ekbd::scenario::Scenario;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Time;

Config lossy_config(std::uint64_t seed, const std::string& topology, std::size_t n) {
  Config cfg;
  cfg.seed = seed;
  cfg.topology = topology;
  cfg.n = n;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.partial_synchrony = false;
  cfg.uniform_delay_lo = 1;
  cfg.uniform_delay_hi = 10;
  cfg.detector = DetectorKind::kScripted;
  cfg.net_mode = NetMode::kLossy;
  cfg.link_faults = LinkFaultParams{.drop_prob = 0.25, .dup_prob = 0.15, .reorder_prob = 0.15};
  cfg.run_for = 60'000;
  return cfg;
}

/// The full property battery every in-envelope run must pass.
/// `conv_floor` pushes the "eventually" cutoff past events the detector
/// estimate cannot see (a partition heal + the ARQ flush that follows it).
void expect_paper_properties(Scenario& s, Time starvation_horizon, Time conv_floor = 0) {
  const Time conv = std::max(s.fd_convergence_estimate(), conv_floor);
  ASSERT_LT(conv, s.config().run_for) << "detector never converged";
  // P3: wait-freedom.
  const auto wf = s.wait_freedom(starvation_horizon);
  EXPECT_TRUE(wf.wait_free()) << wf.starving.size() << " starving";
  // P2: eventual weak exclusion.
  EXPECT_EQ(s.exclusion().violations_after(conv), 0u);
  // P4: eventual (m+1)-bounded waiting.
  EXPECT_LE(ekbd::dining::max_overtakes(s.census(), conv),
            s.config().acks_per_session + 1);
  // §7 channel bound — on *logical* dining messages: the ARQ books them
  // via Network::logical_sent/logical_delivered, so the same reader
  // applies with and without the transport interposed.
  EXPECT_LE(s.sim().network().max_in_transit_any(MsgLayer::kDining), 4);
  // P1: fork uniqueness (Lemma 1.1 counters, per diner).
  for (std::size_t p = 0; p < s.config().n; ++p) {
    EXPECT_EQ(s.wait_free_diner(static_cast<ProcessId>(p))->lemma11_violations(), 0u);
  }
}

TEST(NetFault, LossyLinksKeepEveryPaperProperty) {
  for (const char* topo : {"ring", "grid", "clique"}) {
    SCOPED_TRACE(topo);
    Config cfg = lossy_config(0xA11CE, topo, 8);
    Scenario s(cfg);
    s.run();
    expect_paper_properties(s, 25'000);
    // The link was genuinely hostile and the shim genuinely absorbed it.
    ASSERT_NE(s.fault_model(), nullptr);
    EXPECT_GT(s.fault_model()->drops(), 0u);
    const ekbd::net::ArqStats arq = s.arq_stats();
    EXPECT_GT(arq.retransmissions, 0u);
    EXPECT_GT(arq.overhead(), 1.0);
    // The cutoff catches the system mid-cycle, so a few messages are
    // legitimately in flight — but never more than the §7 logical bound
    // (≤ 4 dining messages per edge) allows in aggregate.
    EXPECT_LE(arq.logical_in_flight(), 4u * s.graph().num_edges());
  }
}

TEST(NetFault, LossyLinksWithCrashesKeepEveryPaperProperty) {
  Config cfg = lossy_config(0xBEA7, "ring", 8);
  cfg.crashes = {{1, 12'000}, {5, 20'000}};
  cfg.detection_delay = 150;
  Scenario s(cfg);
  s.run();
  expect_paper_properties(s, 25'000);
}

TEST(NetFault, FinitePartitionHealsAndPropertiesRecover) {
  // Cut {0,1,2} off a ring of 8 for 8k ticks on top of probabilistic loss.
  // ◇P₁ here must be message-driven (heartbeats): a partition is invisible
  // to the crash-scripted oracle. During the cut, cross-cut peers are
  // (correctly, per ◇P₁ semantics) suspected; after the heal heartbeats
  // resume, suspicions retract, paused retransmissions resume, and every
  // eventual property holds from convergence on.
  Config cfg = lossy_config(0xCAFE, "ring", 8);
  cfg.detector = DetectorKind::kHeartbeat;
  cfg.net_mode = NetMode::kLossyPartition;
  cfg.link_faults = LinkFaultParams{.drop_prob = 0.15, .dup_prob = 0.1, .reorder_prob = 0.1};
  cfg.partitions.push_back(Partition{.side = {0, 1, 2}, .from = 10'000, .until = 18'000});
  cfg.run_for = 90'000;
  Scenario s(cfg);
  s.run();
  // "Eventually" starts no earlier than heal (18k) + ARQ flush slack: the
  // paused retransmission loops idle at rto_max and need one more firing
  // after the heal before cross-cut forks flow again.
  expect_paper_properties(s, 35'000, 18'000 + 6'000);

  ASSERT_NE(s.fault_model(), nullptr);
  EXPECT_GT(s.fault_model()->partition_drops(), 0u);
  EXPECT_EQ(s.fault_model()->last_heal_time(), 18'000);
  // No logical message was lost to a live process: false suspicions pause
  // retransmission, they never abandon the queue.
  EXPECT_EQ(s.arq_stats().abandoned_to_dead, 0u);
  EXPECT_LE(s.arq_stats().logical_in_flight(), 4u * s.graph().num_edges());
  // The partition boundaries are on the record.
  EXPECT_EQ(s.trace().count(ekbd::dining::TraceEventKind::kPartitionCut), 1u);
  EXPECT_EQ(s.trace().count(ekbd::dining::TraceEventKind::kPartitionHeal), 1u);
}

TEST(NetFault, RetransmissionQuiescesTowardCrashedPeer) {
  // §7 quiescence, transport edition: once ◇P₁ suspects the crashed peer,
  // the ARQ stops transmitting toward it — both the logical dining books
  // and the physical data-segment clock freeze.
  Config cfg = lossy_config(0xDEAD, "ring", 6);
  cfg.detector = DetectorKind::kHeartbeat;
  const ProcessId crashed = 2;
  cfg.crashes = {{crashed, 10'000}};
  cfg.run_for = 70'000;
  Scenario s(cfg);

  s.run_until(35'000);  // ample time for heartbeat suspicion to settle
  // The latest data segment any process sent toward the crashed one.
  const auto last_data_send_to = [&s](ProcessId to) {
    Time last = -1;
    for (std::size_t p = 0; p < s.arqs().size(); ++p) {
      last = std::max(last, s.arqs()[p]->last_data_send(static_cast<ProcessId>(p), to));
    }
    return last;
  };
  ASSERT_FALSE(s.arqs().empty());
  const Time phys_mark = last_data_send_to(crashed);
  const Time logical_mark = s.sim().network().last_send_to(crashed, MsgLayer::kDining);
  EXPECT_TRUE(s.detector().suspects((crashed + 1) % 6, crashed));

  s.run_until(70'000);
  // Quiescent: not one more data segment, not one more logical send.
  EXPECT_EQ(last_data_send_to(crashed), phys_mark);
  EXPECT_EQ(s.sim().network().last_send_to(crashed, MsgLayer::kDining), logical_mark);
  // And the freeze happened promptly after the crash, not at the horizon.
  EXPECT_LT(phys_mark, 35'000);

  // The run as a whole still satisfies the paper battery.
  s.harness().trace().set_end_time(70'000);
  expect_paper_properties(s, 30'000);
}

TEST(NetFault, PermanentPartitionIsOutsideTheEnvelopeButDegradesGracefully) {
  // A partition that never heals violates fair-lossiness — the paper's
  // guarantees are NOT claimed across the cut (docs/MODEL.md "Network
  // fault model"). This test documents the degraded contract we *do*
  // provide: ◇P₁ (correctly, by its own semantics) permanently suspects
  // unreachable peers, cross-cut retransmission quiesces instead of
  // retrying forever, and both fragments keep making progress internally.
  Config cfg = lossy_config(0xF00D, "ring", 8);
  cfg.detector = DetectorKind::kHeartbeat;
  cfg.net_mode = NetMode::kLossyPartition;
  cfg.link_faults = LinkFaultParams{.drop_prob = 0.1, .dup_prob = 0.05, .reorder_prob = 0.05};
  // {0,1,2,3} vs {4,5,6,7}: ring edges 3–4 and 7–0 are cut forever.
  cfg.partitions.push_back(Partition{.side = {0, 1, 2, 3}, .from = 15'000, .until = -1});
  cfg.run_for = 100'000;
  Scenario s(cfg);

  s.run_until(60'000);
  // Suspicion across the cut, in both directions.
  EXPECT_TRUE(s.detector().suspects(3, 4));
  EXPECT_TRUE(s.detector().suspects(4, 3));
  EXPECT_TRUE(s.detector().suspects(0, 7));
  EXPECT_TRUE(s.detector().suspects(7, 0));
  // Watch the cut edges themselves: 4 still receives plenty from 5 (same
  // side), so the aggregate per-receiver clock keeps ticking — only the
  // per-edge clocks across the cut must freeze.
  const Time mark_34 = s.arqs()[3]->last_data_send(3, 4);
  const Time mark_07 = s.arqs()[0]->last_data_send(0, 7);

  s.run_until(100'000);
  // Cross-cut transport traffic quiesced (the peer is live — so the queue
  // is retained, not abandoned — but nothing is transmitted while the
  // permanent suspicion stands).
  EXPECT_EQ(s.arqs()[3]->last_data_send(3, 4), mark_34);
  EXPECT_EQ(s.arqs()[0]->last_data_send(0, 7), mark_07);
  // Both fragments keep eating: wait-freedom *per side* survives because
  // Algorithm 1 treats suspected neighbors as crashed and proceeds.
  s.harness().trace().set_end_time(100'000);
  for (ProcessId p = 0; p < 8; ++p) {
    EXPECT_GT(s.trace().count(ekbd::dining::TraceEventKind::kStartEating, p), 0u)
        << "process " << p << " starved after the permanent cut";
  }
  // In-envelope properties still hold *within* each fragment: exclusion
  // violations, if any, may involve only cross-cut pairs.
  const auto ex = s.exclusion();
  for (const auto& v : ex.violations) {
    const bool a_left = v.a < 4;
    const bool b_left = v.b < 4;
    EXPECT_NE(a_left, b_left) << "same-side exclusion violation " << v.a << " vs " << v.b;
  }
  // P1 is structural and survives even this: fork counters stay clean.
  for (std::size_t p = 0; p < cfg.n; ++p) {
    EXPECT_EQ(s.wait_free_diner(static_cast<ProcessId>(p))->lemma11_violations(), 0u);
  }
}

}  // namespace
