// Payload tests: the closed wire-type universe (sim/payload.hpp).
//
// Every alternative of sim::Payload must survive a real send→deliver
// round trip, the (tag, bits) nesting used by net::DataSegment must be
// lossless for every packable type, and the event log must still report
// the unqualified type names the debugging tools key on.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <variant>

#include "sim/event_log.hpp"
#include "sim/payload.hpp"
#include "sim/simulator.hpp"

namespace {

using ekbd::sim::Datum;
using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::Payload;
using ekbd::sim::Simulator;

namespace core = ekbd::core;
namespace fd = ekbd::fd;
namespace drinking = ekbd::drinking;
namespace net = ekbd::net;

// The size budget is part of the contract (§7: constant-size records, so
// the envelope stays one cache line); restated here so a violation fails
// the test suite and not just the library build.
static_assert(sizeof(Payload) <= 32, "Payload must stay a small flat union");
static_assert(std::is_trivially_copyable_v<Message>,
              "Message must be trivially copyable (zero-allocation hot path)");

struct Capture : ekbd::sim::Actor {
  std::vector<Message> got;
  void on_message(const Message& m) override { got.push_back(m); }
  void on_timer(ekbd::sim::TimerId) override {}
  using Actor::send;
};

TEST(Payload, EveryWireTypeRoundTripsThroughSendAndDeliver) {
  Simulator sim(1, ekbd::sim::make_fixed_delay(1));
  auto* a = sim.make_actor<Capture>();
  auto* b = sim.make_actor<Capture>();
  sim.start();
  // One send per variant alternative, in tag order. Fixed delay + FIFO
  // channels guarantee delivery order == send order.
  a->send(b->id(), Payload{}, MsgLayer::kOther);  // monostate
  a->send(b->id(), core::Ping{}, MsgLayer::kDining);
  a->send(b->id(), core::Ack{}, MsgLayer::kDining);
  a->send(b->id(), core::ForkRequest{7}, MsgLayer::kDining);
  a->send(b->id(), core::Fork{}, MsgLayer::kDining);
  a->send(b->id(), fd::Heartbeat{}, MsgLayer::kDetector);
  a->send(b->id(), fd::Probe{11}, MsgLayer::kDetector);
  a->send(b->id(), fd::ProbeEcho{11}, MsgLayer::kDetector);
  a->send(b->id(), drinking::BottleRequest{true}, MsgLayer::kDining);
  a->send(b->id(), drinking::Bottle{}, MsgLayer::kDining);
  a->send(b->id(), drinking::BottleEscalate{}, MsgLayer::kDining);
  a->send(b->id(),
          net::DataSegment{/*seq=*/5, MsgLayer::kDining, /*logical_seq=*/9,
                           /*sent_at=*/123, /*inner_tag=*/1, /*bits=*/0},
          MsgLayer::kTransport);
  a->send(b->id(), net::AckSegment{42}, MsgLayer::kTransport);
  a->send(b->id(), 1234, MsgLayer::kOther);
  a->send(b->id(), Datum{-5}, MsgLayer::kOther);
  a->send(b->id(), core::EdgeProposal{3}, MsgLayer::kDining);
  a->send(b->id(), core::EdgeAccept{9, 1}, MsgLayer::kDining);
  a->send(b->id(), core::EdgeDrop{}, MsgLayer::kDining);
  a->send(b->id(), core::RejoinRequest{2}, MsgLayer::kDining);
  a->send(b->id(), core::RejoinAck{2, 1, 0}, MsgLayer::kDining);
  sim.run_until(100);

  ASSERT_EQ(b->got.size(), std::variant_size_v<Payload>);
  for (std::size_t i = 0; i < b->got.size(); ++i) {
    EXPECT_EQ(b->got[i].payload.index(), i) << "delivery " << i;
  }
  EXPECT_TRUE(std::holds_alternative<std::monostate>(b->got[0].payload));
  EXPECT_NE(b->got[1].as<core::Ping>(), nullptr);
  EXPECT_NE(b->got[2].as<core::Ack>(), nullptr);
  ASSERT_NE(b->got[3].as<core::ForkRequest>(), nullptr);
  EXPECT_EQ(b->got[3].as<core::ForkRequest>()->color, 7);
  EXPECT_NE(b->got[4].as<core::Fork>(), nullptr);
  EXPECT_NE(b->got[5].as<fd::Heartbeat>(), nullptr);
  ASSERT_NE(b->got[6].as<fd::Probe>(), nullptr);
  EXPECT_EQ(b->got[6].as<fd::Probe>()->seq, 11u);
  ASSERT_NE(b->got[7].as<fd::ProbeEcho>(), nullptr);
  EXPECT_EQ(b->got[7].as<fd::ProbeEcho>()->seq, 11u);
  ASSERT_NE(b->got[8].as<drinking::BottleRequest>(), nullptr);
  EXPECT_TRUE(b->got[8].as<drinking::BottleRequest>()->requester_eating);
  EXPECT_NE(b->got[9].as<drinking::Bottle>(), nullptr);
  EXPECT_NE(b->got[10].as<drinking::BottleEscalate>(), nullptr);
  ASSERT_NE(b->got[11].as<net::DataSegment>(), nullptr);
  EXPECT_EQ(b->got[11].as<net::DataSegment>()->seq(), 5u);
  EXPECT_EQ(b->got[11].as<net::DataSegment>()->logical_seq(), 9u);
  ASSERT_NE(b->got[12].as<net::AckSegment>(), nullptr);
  EXPECT_EQ(b->got[12].as<net::AckSegment>()->cumulative, 42u);
  ASSERT_NE(b->got[13].as<int>(), nullptr);
  EXPECT_EQ(*b->got[13].as<int>(), 1234);
  ASSERT_NE(b->got[14].as<Datum>(), nullptr);
  EXPECT_EQ(b->got[14].as<Datum>()->value, -5);
  ASSERT_NE(b->got[15].as<core::EdgeProposal>(), nullptr);
  EXPECT_EQ(b->got[15].as<core::EdgeProposal>()->color, 3);
  ASSERT_NE(b->got[16].as<core::EdgeAccept>(), nullptr);
  EXPECT_EQ(b->got[16].as<core::EdgeAccept>()->color, 9);
  EXPECT_EQ(b->got[16].as<core::EdgeAccept>()->acceptor_has_fork, 1u);
  EXPECT_NE(b->got[17].as<core::EdgeDrop>(), nullptr);
  ASSERT_NE(b->got[18].as<core::RejoinRequest>(), nullptr);
  EXPECT_EQ(b->got[18].as<core::RejoinRequest>()->epoch, 2u);
  ASSERT_NE(b->got[19].as<core::RejoinAck>(), nullptr);
  EXPECT_EQ(b->got[19].as<core::RejoinAck>()->has_fork, 1);
  EXPECT_EQ(b->got[19].as<core::RejoinAck>()->has_token, 0);
  // as<T> on the wrong alternative says "not that type", never garbage.
  EXPECT_EQ(b->got[1].as<core::Ack>(), nullptr);
}

template <typename T>
void expect_packs_losslessly(T v) {
  const Payload p{v};
  std::uint8_t tag = 0;
  std::uint64_t bits = 0;
  ASSERT_TRUE(ekbd::sim::pack_payload(p, tag, bits));
  EXPECT_EQ(tag, p.index());
  const Payload q = ekbd::sim::unpack_payload(tag, bits);
  ASSERT_TRUE(std::holds_alternative<T>(q));
  if constexpr (!std::is_empty_v<T> && !std::is_same_v<T, std::monostate>) {
    // Empty types carry no state — their one placeholder byte is
    // indeterminate and not copied, so only stateful types byte-compare.
    EXPECT_EQ(std::memcmp(&std::get<T>(q), &v, sizeof(T)), 0);
  }
}

TEST(Payload, PackUnpackRoundTripsEveryPackableType) {
  expect_packs_losslessly(std::monostate{});
  expect_packs_losslessly(core::Ping{});
  expect_packs_losslessly(core::Ack{});
  expect_packs_losslessly(core::ForkRequest{-3});
  expect_packs_losslessly(core::Fork{});
  expect_packs_losslessly(fd::Heartbeat{});
  expect_packs_losslessly(fd::Probe{0xFFFFFFFFFFFFFFFFULL});
  expect_packs_losslessly(fd::ProbeEcho{17});
  expect_packs_losslessly(drinking::BottleRequest{true});
  expect_packs_losslessly(drinking::Bottle{});
  expect_packs_losslessly(drinking::BottleEscalate{});
  expect_packs_losslessly(net::AckSegment{0x123456789ABCDEFULL});
  expect_packs_losslessly(1234567);
  expect_packs_losslessly(Datum{-99});
  expect_packs_losslessly(core::EdgeProposal{-7});
  expect_packs_losslessly(core::EdgeAccept{-3, 1});
  expect_packs_losslessly(core::EdgeDrop{});
  expect_packs_losslessly(core::RejoinRequest{0xFFFFFFFFU});
  expect_packs_losslessly(core::RejoinAck{17, 1, 1});
  // DataSegment is the one oversize alternative; it never nests (the
  // transport does not cover MsgLayer::kTransport) and pack says so.
  std::uint8_t tag = 0;
  std::uint64_t bits = 0;
  EXPECT_FALSE(ekbd::sim::pack_payload(Payload{net::DataSegment{}}, tag, bits));
}

TEST(Payload, DataSegmentBitFieldsRoundTrip) {
  using net::DataSegment;
  const DataSegment ds(/*seq=*/12345, MsgLayer::kDining, /*logical_seq=*/678901,
                       /*sent_at=*/424242, /*inner_tag=*/13, /*bits=*/0xDEADBEEFULL);
  EXPECT_EQ(ds.seq(), 12345u);
  EXPECT_EQ(ds.logical_seq(), 678901u);
  EXPECT_EQ(ds.layer(), MsgLayer::kDining);
  EXPECT_EQ(ds.inner_tag(), 13);
  EXPECT_EQ(ds.inner_bits, 0xDEADBEEFULL);
  EXPECT_EQ(ds.logical_sent_at, 424242);
  // Extremes of every packed field simultaneously — no cross-field bleed.
  const DataSegment hi(DataSegment::kMaxSeq, MsgLayer::kTransport,
                       DataSegment::kMaxLogicalSeq, /*sent_at=*/1, /*inner_tag=*/63,
                       /*bits=*/~0ULL);
  EXPECT_EQ(hi.seq(), DataSegment::kMaxSeq);
  EXPECT_EQ(hi.logical_seq(), DataSegment::kMaxLogicalSeq);
  EXPECT_EQ(hi.layer(), MsgLayer::kTransport);
  EXPECT_EQ(hi.inner_tag(), 63);
  const DataSegment lo(0, MsgLayer::kDining, 0, 0, 0, 0);
  EXPECT_EQ(lo.seq(), 0u);
  EXPECT_EQ(lo.logical_seq(), 0u);
  EXPECT_EQ(lo.layer(), MsgLayer::kDining);
  EXPECT_EQ(lo.inner_tag(), 0);
}

TEST(Payload, DataSegmentRefusesOutOfRangeSeqsInsteadOfTruncating) {
  using net::DataSegment;
  // One past each field, and a streamed-recorder-shaped seq
  // ((segment << 40) | local), which masking would have truncated to
  // `local` and booked against another message.
  EXPECT_THROW(DataSegment(0, MsgLayer::kDining, DataSegment::kMaxLogicalSeq + 1, 0, 0, 0),
               std::out_of_range);
  EXPECT_THROW(DataSegment(0, MsgLayer::kDining, (3ULL << 40) | 7, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(DataSegment(DataSegment::kMaxSeq + 1, MsgLayer::kDining, 0, 0, 0, 0),
               std::out_of_range);
  EXPECT_NO_THROW(DataSegment(DataSegment::kMaxSeq, MsgLayer::kDining,
                              DataSegment::kMaxLogicalSeq, 0, 0, 0));
}

TEST(Payload, EventLogStillReportsUnqualifiedTypeNames) {
  using ekbd::sim::LoggedEvent;
  const auto name_of = [](const Payload& p) {
    LoggedEvent e;
    e.payload = ekbd::sim::payload_tag(p);
    return e.payload_name();
  };
  EXPECT_EQ(name_of(Payload{core::Ping{}}), "Ping");
  EXPECT_EQ(name_of(Payload{core::ForkRequest{}}), "ForkRequest");
  EXPECT_EQ(name_of(Payload{core::Fork{}}), "Fork");
  EXPECT_EQ(name_of(Payload{fd::Heartbeat{}}), "Heartbeat");
  EXPECT_EQ(name_of(Payload{drinking::BottleRequest{}}), "BottleRequest");
  EXPECT_EQ(name_of(Payload{net::DataSegment{}}), "DataSegment");
  EXPECT_EQ(name_of(Payload{net::AckSegment{}}), "AckSegment");
  EXPECT_EQ(name_of(Payload{Datum{}}), "Datum");
  EXPECT_EQ(name_of(Payload{42}), "int");
  EXPECT_EQ(name_of(Payload{core::EdgeProposal{}}), "EdgeProposal");
  EXPECT_EQ(name_of(Payload{core::RejoinAck{}}), "RejoinAck");
  // monostate is the "no payload" tag, matching timers and crashes.
  EXPECT_EQ(ekbd::sim::payload_tag(Payload{}), ekbd::sim::kNoPayloadTag);
  EXPECT_EQ(name_of(Payload{}), "");
}

TEST(Payload, TagsAreTheVariantIndexAndResolveAtCompileTime) {
  using ekbd::sim::kPayloadTagOf;
  using ekbd::sim::payload_tag;
  using ekbd::sim::payload_tag_name;
  // The compile-time tag of each type equals the runtime tag of a Payload
  // holding it — the streaming-observer fast path matches the log.
  static_assert(kPayloadTagOf<std::monostate> == ekbd::sim::kNoPayloadTag);
  EXPECT_EQ(kPayloadTagOf<core::Fork>, payload_tag(Payload{core::Fork{}}));
  EXPECT_EQ(kPayloadTagOf<core::Ping>, payload_tag(Payload{core::Ping{}}));
  EXPECT_EQ(kPayloadTagOf<net::DataSegment>, payload_tag(Payload{net::DataSegment{}}));
  EXPECT_EQ(kPayloadTagOf<Datum>, payload_tag(Payload{Datum{}}));
  // Every alternative has a table name; out-of-range tags degrade safely.
  for (std::size_t i = 1; i < std::variant_size_v<Payload>; ++i) {
    EXPECT_STRNE(payload_tag_name(static_cast<ekbd::sim::PayloadTag>(i)), "")
        << "tag " << i;
  }
  EXPECT_STREQ(payload_tag_name(255), "?");
}

}  // namespace
