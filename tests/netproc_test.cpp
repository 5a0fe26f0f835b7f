// Tests for the multi-process socket engine (src/netproc) and the wire
// codec underneath it (sim/codec): fuzzed round-trips and hostile-frame
// rejection, loopback UDP smoke, orchestrated clusters with real SIGKILL
// crashes and runtime partitions, wedged-node supervision, and the serial
// proc sweep. All sockets bind ephemeral loopback ports (port 0), so the
// suite is safe under `ctest -j`.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "netproc/cluster.hpp"
#include "netproc/control.hpp"
#include "netproc/node.hpp"
#include "netproc/udp.hpp"
#include "scenario/sweep.hpp"
#include "sim/codec.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ekbd;
using namespace ekbd::sim;

// ------------------------------------------------------------------ codec

/// A random payload of the given variant tag, every field drawn from
/// `rng` (within the wire format's packing bounds where it has them).
Payload random_payload(std::size_t tag, Rng& rng) {
  switch (tag) {
    case 0: return std::monostate{};
    case 1: return core::Ping{};
    case 2: return core::Ack{};
    case 3: return core::ForkRequest{static_cast<int>(rng.uniform_int(-1000, 1000))};
    case 4: return core::Fork{};
    case 5: return fd::Heartbeat{};
    case 6: return fd::Probe{rng.u64()};
    case 7: return fd::ProbeEcho{rng.u64()};
    case 8: return drinking::BottleRequest{rng.chance(0.5)};
    case 9: return drinking::Bottle{};
    case 10: return drinking::BottleEscalate{};
    case 11:
      return net::DataSegment(
          rng.u64() & net::DataSegment::kMaxSeq,
          static_cast<MsgLayer>(rng.uniform_int(0, kNumMsgLayers - 1)),
          rng.u64() & net::DataSegment::kMaxLogicalSeq,
          static_cast<Time>(rng.u64() >> 2), static_cast<std::uint8_t>(rng.u64() & 0x3F),
          rng.u64());
    case 12: return net::AckSegment{rng.u64()};
    case 13: return static_cast<int>(rng.uniform_int(-100000, 100000));
    case 14: return Datum{static_cast<std::int64_t>(rng.u64())};
    case 15: return core::EdgeProposal{static_cast<int>(rng.uniform_int(-1000, 1000))};
    case 16:
      return core::EdgeAccept{static_cast<std::int32_t>(rng.uniform_int(-1000, 1000)),
                              static_cast<std::uint32_t>(rng.uniform_int(0, 1))};
    case 17: return core::EdgeDrop{};
    case 18: return core::RejoinRequest{static_cast<std::uint32_t>(rng.u64())};
    case 19:
      return core::RejoinAck{static_cast<std::uint32_t>(rng.u64()),
                             static_cast<std::uint16_t>(rng.uniform_int(0, 1)),
                             static_cast<std::uint16_t>(rng.uniform_int(0, 1))};
    default: ADD_FAILURE() << "unhandled payload tag " << tag; return std::monostate{};
  }
}

Message random_message(std::size_t tag, Rng& rng) {
  Message m;
  m.from = static_cast<ProcessId>(rng.uniform_int(0, 63));
  m.to = static_cast<ProcessId>(rng.uniform_int(0, 63));
  m.sent_at = static_cast<Time>(rng.u64() >> 2);
  m.layer = static_cast<MsgLayer>(rng.uniform_int(0, kNumMsgLayers - 1));
  m.seq = rng.u64();
  m.payload = random_payload(tag, rng);
  return m;
}

// Fuzz: every payload alternative, random field values, many rounds.
// The round-trip criterion is bit-identity of the *encoding* (encode →
// decode → re-encode must reproduce the exact bytes), which is stronger
// than field equality and is the property the log merge relies on.
TEST(Codec, FuzzEveryPayloadTagRoundTripsBitIdentically) {
  Rng rng(20260808);
  for (std::size_t tag = 0; tag < std::variant_size_v<Payload>; ++tag) {
    for (int round = 0; round < 200; ++round) {
      const Message m = random_message(tag, rng);
      std::uint8_t frame[codec::kMaxFrameSize];
      const std::size_t size = codec::encode_message(m, frame, sizeof frame);
      ASSERT_GT(size, 0u) << "tag " << tag;

      std::uint8_t kind = 0;
      const std::uint8_t* body = nullptr;
      std::size_t body_len = 0;
      ASSERT_EQ(codec::open_frame(frame, size, kind, body, body_len),
                codec::DecodeStatus::kOk);
      ASSERT_EQ(kind, static_cast<std::uint8_t>(codec::FrameKind::kMessage));

      Message out;
      ASSERT_EQ(codec::decode_message(body, body_len, out), codec::DecodeStatus::kOk);
      EXPECT_EQ(out.from, m.from);
      EXPECT_EQ(out.to, m.to);
      EXPECT_EQ(out.sent_at, m.sent_at);
      EXPECT_EQ(out.deliver_at, 0) << "deliver_at must not travel on the wire";
      EXPECT_EQ(out.layer, m.layer);
      EXPECT_EQ(out.seq, m.seq);
      EXPECT_EQ(payload_tag(out.payload), payload_tag(m.payload));

      std::uint8_t again[codec::kMaxFrameSize];
      out.deliver_at = m.deliver_at;  // not encoded; normalize before re-encoding
      const std::size_t size2 = codec::encode_message(out, again, sizeof again);
      ASSERT_EQ(size2, size);
      EXPECT_EQ(std::memcmp(frame, again, size), 0)
          << "re-encoding diverged for tag " << tag;
    }
  }
}

TEST(Codec, EventRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    LoggedEvent ev;
    ev.at = static_cast<Time>(rng.u64() >> 2);
    ev.kind = static_cast<LoggedEvent::Kind>(rng.uniform_int(0, 7));
    ev.from = static_cast<ProcessId>(rng.uniform_int(-1, 100));
    ev.to = static_cast<ProcessId>(rng.uniform_int(-1, 100));
    ev.layer = static_cast<MsgLayer>(rng.uniform_int(0, kNumMsgLayers - 1));
    ev.seq = rng.u64();
    ev.payload = static_cast<PayloadTag>(
        rng.uniform_int(0, static_cast<int>(std::variant_size_v<Payload>) - 1));

    std::uint8_t frame[codec::kMaxFrameSize];
    const std::size_t size = codec::encode_event(ev, frame, sizeof frame);
    ASSERT_GT(size, 0u);
    std::uint8_t kind = 0;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    ASSERT_EQ(codec::open_frame(frame, size, kind, body, body_len),
              codec::DecodeStatus::kOk);
    LoggedEvent out;
    ASSERT_EQ(codec::decode_event(body, body_len, out), codec::DecodeStatus::kOk);
    EXPECT_EQ(out.at, ev.at);
    EXPECT_EQ(out.kind, ev.kind);
    EXPECT_EQ(out.from, ev.from);
    EXPECT_EQ(out.to, ev.to);
    EXPECT_EQ(out.layer, ev.layer);
    EXPECT_EQ(out.seq, ev.seq);
    EXPECT_EQ(out.payload, ev.payload);
  }
}

// Every strict prefix of a valid frame must be rejected, not mis-parsed.
TEST(Codec, TruncatedFramesRejected) {
  Rng rng(7);
  const Message m = random_message(11, rng);  // DataSegment: the largest body
  std::uint8_t frame[codec::kMaxFrameSize];
  const std::size_t size = codec::encode_message(m, frame, sizeof frame);
  ASSERT_GT(size, 0u);
  for (std::size_t len = 0; len < size; ++len) {
    std::uint8_t kind = 0;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    EXPECT_NE(codec::open_frame(frame, len, kind, body, body_len),
              codec::DecodeStatus::kOk)
        << "prefix of length " << len << " parsed as a whole frame";
  }
}

// Every single-bit flip lands in a field the checksum covers or in the
// header the parser validates — no flipped frame may open as kOk.
TEST(Codec, BitFlippedFramesRejected) {
  Rng rng(8);
  for (std::size_t tag : {std::size_t{0}, std::size_t{3}, std::size_t{11}}) {
    const Message m = random_message(tag, rng);
    std::uint8_t frame[codec::kMaxFrameSize];
    const std::size_t size = codec::encode_message(m, frame, sizeof frame);
    ASSERT_GT(size, 0u);
    for (std::size_t byte = 0; byte < size; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::uint8_t mutated[codec::kMaxFrameSize];
        std::memcpy(mutated, frame, size);
        mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
        std::uint8_t kind = 0;
        const std::uint8_t* body = nullptr;
        std::size_t body_len = 0;
        EXPECT_NE(codec::open_frame(mutated, size, kind, body, body_len),
                  codec::DecodeStatus::kOk)
            << "flip of byte " << byte << " bit " << bit << " accepted";
      }
    }
  }
}

// Random garbage of every length must be rejected without touching
// out-of-range memory (ASan/UBSan make this assertion meaningful).
TEST(Codec, GarbageNeverParses) {
  Rng rng(9);
  for (int round = 0; round < 2000; ++round) {
    std::uint8_t buf[128];
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 128));
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::uint8_t>(rng.u64());
    }
    std::uint8_t kind = 0;
    const std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    EXPECT_NE(codec::open_frame(buf, len, kind, body, body_len),
              codec::DecodeStatus::kOk);
  }
}

// ---------------------------------------------------------------- control

TEST(Control, FramesRoundTrip) {
  std::uint8_t buf[codec::kMaxFrameSize];
  std::uint8_t kind = 0;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;

  const std::size_t hsize = netproc::encode_hello(netproc::Hello{3, 40001}, buf, sizeof buf);
  ASSERT_GT(hsize, 0u);
  ASSERT_EQ(codec::open_frame(buf, hsize, kind, body, body_len), codec::DecodeStatus::kOk);
  ASSERT_EQ(kind, static_cast<std::uint8_t>(netproc::ControlKind::kHello));
  netproc::Hello hello;
  ASSERT_TRUE(netproc::decode_hello(body, body_len, hello));
  EXPECT_EQ(hello.node, 3);
  EXPECT_EQ(hello.port, 40001);

  netproc::Start start;
  start.epoch_ns = 123456789;
  start.ports = {40001, 40002, 40003, 40004};
  const std::size_t ssize = netproc::encode_start(start, buf, sizeof buf);
  ASSERT_GT(ssize, 0u);
  ASSERT_EQ(codec::open_frame(buf, ssize, kind, body, body_len), codec::DecodeStatus::kOk);
  netproc::Start start2;
  ASSERT_TRUE(netproc::decode_start(body, body_len, start2));
  EXPECT_EQ(start2.epoch_ns, start.epoch_ns);
  EXPECT_EQ(start2.ports, start.ports);
  // A short body (count says 4, bytes carry 3) must be rejected.
  ASSERT_GT(body_len, 2u);
  EXPECT_FALSE(netproc::decode_start(body, body_len - 2, start2));

  const std::size_t csize =
      netproc::encode_cut(netproc::Cut{1, 2, 500, 900}, buf, sizeof buf);
  ASSERT_GT(csize, 0u);
  ASSERT_EQ(codec::open_frame(buf, csize, kind, body, body_len), codec::DecodeStatus::kOk);
  netproc::Cut cut;
  ASSERT_TRUE(netproc::decode_cut(body, body_len, cut));
  EXPECT_EQ(cut.a, 1);
  EXPECT_EQ(cut.b, 2);
  EXPECT_EQ(cut.from, 500);
  EXPECT_EQ(cut.until, 900);

  const std::size_t psize =
      netproc::encode_split(netproc::Split{0x0F, 100, 200}, buf, sizeof buf);
  ASSERT_GT(psize, 0u);
  ASSERT_EQ(codec::open_frame(buf, psize, kind, body, body_len), codec::DecodeStatus::kOk);
  netproc::Split split;
  ASSERT_TRUE(netproc::decode_split(body, body_len, split));
  EXPECT_EQ(split.side_mask, 0x0Fu);
  EXPECT_EQ(split.from, 100);
  EXPECT_EQ(split.until, 200);

  const std::size_t nsize = netproc::encode_crash_notice(netproc::CrashNotice{5}, buf, sizeof buf);
  ASSERT_GT(nsize, 0u);
  ASSERT_EQ(codec::open_frame(buf, nsize, kind, body, body_len), codec::DecodeStatus::kOk);
  netproc::CrashNotice notice;
  ASSERT_TRUE(netproc::decode_crash_notice(body, body_len, notice));
  EXPECT_EQ(notice.node, 5);

  const std::size_t zsize = netproc::encode_stop(buf, sizeof buf);
  ASSERT_GT(zsize, 0u);
  ASSERT_EQ(codec::open_frame(buf, zsize, kind, body, body_len), codec::DecodeStatus::kOk);
  EXPECT_EQ(kind, static_cast<std::uint8_t>(netproc::ControlKind::kStop));
  EXPECT_EQ(body_len, 0u);
}

// -------------------------------------------------------------------- UDP

// Two ephemeral loopback sockets exchange one checksummed frame. Port 0
// binding is what keeps this suite collision-free under `ctest -j`.
TEST(Udp, LoopbackFrameExchangeOnEphemeralPorts) {
  netproc::UdpSocket a;
  netproc::UdpSocket b;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);
  ASSERT_NE(a.port(), b.port());

  Message m;
  m.from = 0;
  m.to = 1;
  m.sent_at = 42;
  m.layer = MsgLayer::kDining;
  m.payload = core::Ping{};
  std::uint8_t frame[codec::kMaxFrameSize];
  const std::size_t size = codec::encode_message(m, frame, sizeof frame);
  ASSERT_GT(size, 0u);
  ASSERT_TRUE(a.send_to(b.port(), frame, size));

  ASSERT_TRUE(b.wait_readable(2000));
  std::uint8_t in[codec::kMaxFrameSize];
  const int got = b.recv(in, sizeof in);
  ASSERT_EQ(static_cast<std::size_t>(got), size);
  std::uint8_t kind = 0;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
  ASSERT_EQ(codec::open_frame(in, static_cast<std::size_t>(got), kind, body, body_len),
            codec::DecodeStatus::kOk);
  Message out;
  ASSERT_EQ(codec::decode_message(body, body_len, out), codec::DecodeStatus::kOk);
  EXPECT_EQ(out.sent_at, 42);
  EXPECT_NE(out.as<core::Ping>(), nullptr);
}

// ---------------------------------------------------------------- cluster

scenario::Config proc_config(std::uint64_t seed) {
  scenario::Config cfg;
  cfg.engine = scenario::Engine::kProc;
  cfg.seed = seed;
  cfg.topology = "ring";
  cfg.detector = scenario::DetectorKind::kPerfect;
  cfg.net_mode = scenario::NetMode::kIdeal;
  cfg.rt_tick_ns = 100'000;  // 100 µs ticks → run_for 5'000 = 0.5 s wall
  cfg.run_for = 5'000;
  return cfg;
}

TEST(Cluster, ThreeNodeCleanRunAgreesEverywhere) {
  scenario::Config cfg = proc_config(21);
  cfg.n = 3;
  scenario::ProcScenario s(cfg);
  s.run();

  ASSERT_TRUE(s.result().ok) << s.result().error;
  for (const auto& node : s.result().nodes) {
    EXPECT_EQ(node.exit_code, 0);
    EXPECT_FALSE(node.timed_out);
  }
  EXPECT_GT(s.trace().count(dining::TraceEventKind::kStartEating), 0u);
  EXPECT_TRUE(s.exclusion().violations.empty());
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_EQ(s.replay_agreement(), "");
}

// The PR's acceptance scenario: 8 nodes over UDP loopback, ≥10% injected
// socket loss plus duplicates, a timed partition that heals, and two
// mid-session SIGKILLs — the books rebuilt from the shipped logs must
// satisfy the paper's safety properties and agree with both the post-hoc
// checkers and a full replay; the survivors must all finish cleanly.
TEST(Cluster, EightNodeLossPartitionCrashAcceptance) {
  scenario::Config cfg = proc_config(4242);
  cfg.n = 8;
  cfg.net_mode = scenario::NetMode::kLossyPartition;
  cfg.link_faults.drop_prob = 0.1;
  cfg.link_faults.dup_prob = 0.05;
  cfg.link_faults.reorder_prob = 0.0;  // the real wire reorders on its own
  cfg.partitions.push_back(net::Partition{{0, 1, 2, 3}, 6'000, 12'000});
  cfg.crashes = {{2, 8'000}, {5, 12'000}};
  cfg.run_for = 20'000;  // 2 s wall
  scenario::ProcScenario s(cfg);
  s.run();

  ASSERT_TRUE(s.result().ok) << s.result().error;
  EXPECT_EQ(s.result().crashes.size(), 2u);
  for (std::size_t p = 0; p < s.result().nodes.size(); ++p) {
    const auto& node = s.result().nodes[p];
    if (p == 2 || p == 5) {
      EXPECT_TRUE(node.killed_by_plan) << "node " << p;
    } else {
      EXPECT_EQ(node.exit_code, 0) << "survivor " << p << " did not finish cleanly";
      EXPECT_FALSE(node.timed_out) << "survivor " << p << " wedged";
    }
  }

  // Safety + agreement on the merged shipped logs.
  EXPECT_TRUE(s.exclusion().violations.empty());
  const auto wf = s.wait_freedom(cfg.run_for / 4);
  EXPECT_TRUE(wf.wait_free());
  EXPECT_GT(wf.sessions_completed, 0u);
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_EQ(s.replay_agreement(), "");
}

// Heartbeats as real datagrams: the ◇P₁ modules ride the same lossy
// socket as the diners and must still converge after a real SIGKILL.
TEST(Cluster, HeartbeatDetectorOverRealDatagrams) {
  scenario::Config cfg = proc_config(77);
  cfg.n = 4;
  cfg.detector = scenario::DetectorKind::kHeartbeat;
  cfg.net_mode = scenario::NetMode::kLossy;
  cfg.link_faults.drop_prob = 0.1;
  cfg.link_faults.dup_prob = 0.0;
  cfg.crashes = {{1, 4'000}};
  cfg.run_for = 12'000;
  scenario::ProcScenario s(cfg);
  s.run();

  ASSERT_TRUE(s.result().ok) << s.result().error;
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_EQ(s.replay_agreement(), "");
  const auto wf = s.wait_freedom(cfg.run_for / 2);
  EXPECT_TRUE(wf.wait_free());
}

// Supervision: a node that finishes its run but never exits (the `wedge`
// hook) must be caught by the per-node timeout — reaped, flagged, and
// never allowed to hang the orchestrator or the survivors.
TEST(Cluster, WedgedNodeIsReapedNotWaitedForForever) {
  struct Quiet final : sim::Actor {
    void on_message(const Message&) override {}
  };

  netproc::ClusterOptions opt;
  opt.n = 2;
  opt.seed = 5;
  opt.tick_ns = 1;
  opt.horizon = 50'000'000;  // 50 ms
  opt.log_dir = "ekbd_wedge_test_logs";
  opt.node_timeout_ms = 1'000;
  opt.wedge_node = 1;
  ::mkdir(opt.log_dir.c_str(), 0755);

  const netproc::ClusterResult res =
      netproc::run_cluster(opt, [](netproc::NodeEngine& eng) {
        eng.make_actor<Quiet>();
      });

  ASSERT_EQ(res.nodes.size(), 2u);
  EXPECT_EQ(res.nodes[0].exit_code, 0);
  EXPECT_FALSE(res.nodes[0].timed_out);
  EXPECT_TRUE(res.nodes[1].timed_out) << "supervisor never caught the wedge";
  EXPECT_FALSE(res.ok) << "a wedged node must fail the run";
  EXPECT_NE(res.error.find("node 1"), std::string::npos) << res.error;

  for (const auto& node : res.nodes) {
    if (!node.log_path.empty()) (void)std::remove(node.log_path.c_str());
  }
  (void)::rmdir(opt.log_dir.c_str());
}

// Determinism at the fault layer: two clusters with the same seed draw
// the same socket-boundary coin schedule (the wall-clock interleaving
// differs, but the injected-fault counters come from the same streams —
// so a fault plan reproduces across runs at the seed level).
TEST(Cluster, SameSeedSameFaultPlanShapesBooks) {
  scenario::Config cfg = proc_config(333);
  cfg.n = 3;
  cfg.net_mode = scenario::NetMode::kLossy;
  cfg.link_faults.drop_prob = 0.15;
  cfg.link_faults.dup_prob = 0.1;
  cfg.run_for = 4'000;

  scenario::ProcScenario a(cfg);
  a.run();
  ASSERT_TRUE(a.result().ok) << a.result().error;
  EXPECT_EQ(a.monitor_agreement(), "");

  scenario::ProcScenario b(cfg);
  b.run();
  ASSERT_TRUE(b.result().ok) << b.result().error;
  EXPECT_EQ(b.monitor_agreement(), "");

  // Both runs injected faults (the coins are real) and both rebuilt
  // self-consistent books; exact event counts differ with timing, but
  // loss must be present in both (drop_prob 0.15 over thousands of
  // datagrams cannot produce a lossless run).
  std::size_t losses_a = 0;
  std::size_t losses_b = 0;
  for (const auto& ev : a.event_log().events()) {
    losses_a += ev.kind == LoggedEvent::Kind::kLoss ? 1 : 0;
  }
  for (const auto& ev : b.event_log().events()) {
    losses_b += ev.kind == LoggedEvent::Kind::kLoss ? 1 : 0;
  }
  EXPECT_GT(losses_a, 0u);
  EXPECT_GT(losses_b, 0u);
}

// ------------------------------------------------------------------ sweep

TEST(Sweep, RunProcScenariosIsSerialAndEmitsTelemetry) {
  std::vector<scenario::Config> configs;
  for (std::uint64_t seed : {51u, 52u}) {
    scenario::Config cfg = proc_config(seed);
    cfg.n = 3;
    cfg.run_for = 3'000;
    configs.push_back(cfg);
  }
  scenario::SweepOptions sweep;
  sweep.telemetry_path = "ekbd_proc_sweep_telemetry.jsonl";
  std::size_t inspected = 0;
  scenario::sweep<scenario::ProcScenario>(
      configs,
      [&](std::size_t i, scenario::ProcScenario& s) {
        SCOPED_TRACE("config " + std::to_string(i));
        EXPECT_EQ(i, inspected++);  // serial, in order
        EXPECT_TRUE(s.result().ok) << s.result().error;
        EXPECT_EQ(s.monitor_agreement(), "");
      },
      sweep);
  EXPECT_EQ(inspected, configs.size());

  std::ifstream in(sweep.telemetry_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"engine\":\"proc\""), std::string::npos);
    EXPECT_NE(line.find("\"cluster\":{\"ok\":true"), std::string::npos);
    ++lines;
  }
  in.close();
  EXPECT_EQ(lines, configs.size());
  (void)std::remove(sweep.telemetry_path.c_str());
}

}  // namespace
