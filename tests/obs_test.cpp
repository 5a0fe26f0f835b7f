// Observability tests: metrics registry, online invariant monitors,
// telemetry JSON and the Perfetto exporter.
//
// The load-bearing property is *agreement*: every online monitor verdict
// must match the corresponding post-hoc checker/book on the same run
// (MonitorHub::agreement_failures == ""). The fuzz suite asserts this on
// every fuzzed configuration; here we pin it on deterministic scenarios
// and unit-test each monitor's violation detection on hand-built inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dining/checkers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitors.hpp"
#include "obs/perfetto.hpp"
#include "obs/telemetry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/event_log.hpp"
#include "sim/network.hpp"

namespace {

namespace obs = ekbd::obs;
namespace json = ekbd::obs::json;
using ekbd::sim::LoggedEvent;
using ekbd::sim::MsgLayer;
using Kind = ekbd::sim::LoggedEvent::Kind;

// -- counters / gauges ------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);

  obs::Gauge g;
  g.set(5);
  g.set(2);
  EXPECT_EQ(g.get(), 2);
  EXPECT_EQ(g.max(), 5);  // high-water survives the drop
  g.add(10);
  EXPECT_EQ(g.get(), 12);
  EXPECT_EQ(g.max(), 12);
  g.add(-12);
  EXPECT_EQ(g.get(), 0);
  EXPECT_EQ(g.max(), 12);
}

// -- histograms -------------------------------------------------------------

TEST(Metrics, HistogramBucketBoundariesAndClamping) {
  obs::Histogram h(0.0, 10.0, 5);  // buckets [0,2) [2,4) [4,6) [6,8) [8,10)
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);

  h.add(0.0);    // lower edge → bucket 0
  h.add(1.999);  // still bucket 0
  h.add(2.0);    // boundary → bucket 1 (inclusive-exclusive)
  h.add(9.999);  // bucket 4
  h.add(-5.0);   // clamps into bucket 0
  h.add(10.0);   // hi is exclusive: clamps into bucket 4
  h.add(1e9);    // clamps into bucket 4
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[4], 3u);
  // Clamping never corrupts sum/mean: they use the raw samples.
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 1.999 + 2.0 + 9.999 - 5.0 + 10.0 + 1e9);
}

TEST(Metrics, HistogramCountsOutOfRangeSamples) {
  obs::Histogram h(0.0, 10.0, 5);
  h.add(5.0);
  EXPECT_EQ(h.under(), 0u);
  EXPECT_EQ(h.over(), 0u);
  h.add(-1.0);  // clamps into bucket 0 AND counts as under
  h.add(10.0);  // hi is exclusive: clamps into bucket 4 AND counts as over
  h.add(1e9);
  EXPECT_EQ(h.under(), 1u);
  EXPECT_EQ(h.over(), 2u);
  // under/over are an overlay: the buckets still sum to count().
  std::uint64_t in_buckets = 0;
  for (auto b : h.buckets()) in_buckets += b;
  EXPECT_EQ(in_buckets, h.count());

  // They merge, round-trip through JSON, and default to 0 when absent
  // (pre-existing snapshots).
  obs::Histogram other(0.0, 10.0, 5);
  other.add(-2.0);
  ASSERT_TRUE(h.merge(other));
  EXPECT_EQ(h.under(), 2u);
  const auto back = obs::histogram_from_json(h.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->under(), 2u);
  EXPECT_EQ(back->over(), 2u);
  EXPECT_EQ(back->to_json(), h.to_json());
  const auto legacy = obs::histogram_from_json(
      "{\"lo\":0,\"hi\":10,\"count\":1,\"sum\":3,\"buckets\":[1,0,0,0,0]}");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->under(), 0u);
  EXPECT_EQ(legacy->over(), 0u);
}

TEST(Metrics, HistogramQuantileBucketMidpoints) {
  obs::Histogram h(0.0, 100.0, 10);  // 10-wide buckets
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty → 0
  for (int i = 0; i < 99; ++i) h.add(5.0);   // bucket [0,10)
  h.add(95.0);                               // bucket [90,100)
  // Ranks 1..99 land in the first bucket, rank 100 in the last.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 95.0);
}

TEST(Metrics, HistogramMergeSameShapeIsExact) {
  obs::Histogram a(0.0, 10.0, 5);
  obs::Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  b.add(9.0);
  b.add(3.0);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 13.0);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[4], 1u);

  // Empty mismatched sources flag the approximate path but have nothing
  // to resample.
  obs::Histogram wrong_bins(0.0, 10.0, 4);
  obs::Histogram wrong_range(0.0, 20.0, 5);
  EXPECT_FALSE(a.merge(wrong_bins));
  EXPECT_FALSE(a.merge(wrong_range));
  EXPECT_EQ(a.count(), 3u);
}

TEST(Metrics, HistogramMergeMismatchedShapeResamples) {
  // Regression: merging across shapes used to be a silent no-op, so
  // shard-local histograms sized independently (or snapshots from an
  // older config) quietly vanished from the merged percentiles. Now the
  // source is resampled at bucket midpoints: count and sum stay exact,
  // placement degrades by at most one source-bucket width.
  obs::Histogram dst(0.0, 100.0, 10);   // width 10
  obs::Histogram src(0.0, 50.0, 25);    // width 2 — finer and narrower
  dst.add(95.0);
  src.add(1.0);    // src bucket [0,2)  → midpoint 1  → dst bucket 0
  src.add(13.0);   // src bucket [12,14)→ midpoint 13 → dst bucket 1
  src.add(13.5);
  src.add(49.0);   // src bucket [48,50)→ midpoint 49 → dst bucket 4

  EXPECT_FALSE(dst.merge(src));  // false = approximate path taken
  EXPECT_EQ(dst.count(), 5u);
  EXPECT_DOUBLE_EQ(dst.sum(), 95.0 + 1.0 + 13.0 + 13.5 + 49.0);
  EXPECT_EQ(dst.buckets()[0], 1u);
  EXPECT_EQ(dst.buckets()[1], 2u);
  EXPECT_EQ(dst.buckets()[4], 1u);
  EXPECT_EQ(dst.buckets()[9], 1u);
  EXPECT_EQ(dst.under(), 0u);
  EXPECT_EQ(dst.over(), 0u);
  std::uint64_t in_buckets = 0;
  for (auto b : dst.buckets()) in_buckets += b;
  EXPECT_EQ(in_buckets, dst.count());

  // Out-of-range midpoints clamp into the edge buckets and the under/over
  // tallies, exactly like live adds.
  obs::Histogram wide(-100.0, 300.0, 4);  // width 100
  wide.add(-50.0);   // bucket [-100,0) → midpoint -50 → under dst.lo
  wide.add(250.0);   // bucket [200,300)→ midpoint 250 → over dst.hi
  EXPECT_FALSE(dst.merge(wide));
  EXPECT_EQ(dst.count(), 7u);
  EXPECT_EQ(dst.under(), 1u);
  EXPECT_EQ(dst.over(), 1u);
  EXPECT_EQ(dst.buckets()[0], 2u);  // clamped under
  EXPECT_EQ(dst.buckets()[9], 2u);  // clamped over
}

TEST(Metrics, HistogramJsonRoundTrip) {
  obs::Histogram h(0.0, 100.0, 10);
  h.add(5.0);
  h.add(5.0);
  h.add(55.5);
  h.add(99.0);
  const std::string text = h.to_json();
  const auto back = obs::histogram_from_json(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_DOUBLE_EQ(back->lo(), h.lo());
  EXPECT_DOUBLE_EQ(back->hi(), h.hi());
  EXPECT_EQ(back->bins(), h.bins());
  EXPECT_EQ(back->count(), h.count());
  EXPECT_DOUBLE_EQ(back->sum(), h.sum());
  EXPECT_EQ(back->buckets(), h.buckets());
  // And the round-trip is a fixed point: re-serialization is identical.
  EXPECT_EQ(back->to_json(), text);

  EXPECT_FALSE(obs::histogram_from_json("not json").has_value());
  EXPECT_FALSE(obs::histogram_from_json("{\"lo\":0}").has_value());
}

// -- registry ---------------------------------------------------------------

TEST(Metrics, RegistryHandlesAreGetOrCreateAndPointerStable) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("sim.events");
  c1.inc(7);
  // Force rebalancing traffic, then re-resolve: same node.
  for (int i = 0; i < 100; ++i) reg.counter("x", std::to_string(i));
  obs::Counter& c2 = reg.counter("sim.events");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.get(), 7u);

  // Labels distinguish instances of the same instrument.
  reg.gauge("net.in_transit", "p0-p1").set(3);
  reg.gauge("net.in_transit", "p1-p2").set(1);
  ASSERT_NE(reg.find_gauge("net.in_transit", "p0-p1"), nullptr);
  EXPECT_EQ(reg.find_gauge("net.in_transit", "p0-p1")->get(), 3);
  EXPECT_EQ(reg.find_gauge("net.in_transit", "p1-p2")->get(), 1);
  EXPECT_EQ(reg.find_gauge("net.in_transit", "p9-p9"), nullptr);
  EXPECT_EQ(reg.find_counter("no.such"), nullptr);
  EXPECT_EQ(reg.find_histogram("no.such"), nullptr);
}

TEST(Metrics, RegistryJsonIsParseableAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("b.second").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("level").set(-4);
  reg.histogram("lat", "", 0.0, 10.0, 2).add(3.0);
  const auto doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->arr.size(), 2u);
  // Sorted by (name, label): "a.first" precedes "b.second".
  EXPECT_EQ(counters->arr[0].find("name")->str, "a.first");
  EXPECT_EQ(counters->arr[1].find("name")->str, "b.second");
  EXPECT_DOUBLE_EQ(counters->arr[1].num_or("value", 0), 2.0);
  const json::Value* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_EQ(gauges->arr.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges->arr[0].num_or("value", 0), -4.0);
  const json::Value* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->arr.size(), 1u);
  EXPECT_DOUBLE_EQ(hists->arr[0].find("data")->num_or("count", 0), 1.0);
}

// -- json helpers -----------------------------------------------------------

TEST(Json, ParserHandlesTheGrammarWeEmit) {
  const auto v = json::parse(R"({"a":[1,2.5,-3],"s":"x\"y","t":true,"n":null})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("a")->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(v->find("a")->arr[1].number, 2.5);
  EXPECT_EQ(v->find("s")->str, "x\"y");
  EXPECT_TRUE(v->find("t")->boolean);
  EXPECT_EQ(v->find("n")->kind, json::Value::Kind::kNull);
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("{").has_value());
}

TEST(Json, QuoteEscapesAndFormatDoubleRoundTrips) {
  EXPECT_EQ(json::quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json::format_double(3.0), "3");
  EXPECT_EQ(json::format_double(-17.0), "-17");
  for (double v : {0.1, 1.0 / 3.0, 12345.6789, -2.5e-7}) {
    const std::string s = json::format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

// -- monitors: unit-level violation detection -------------------------------

LoggedEvent fork_event(Kind kind, ekbd::sim::Time at, ekbd::sim::ProcessId from,
                       ekbd::sim::ProcessId to) {
  LoggedEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.from = from;
  ev.to = to;
  ev.layer = MsgLayer::kDining;
  ev.payload = ekbd::sim::kPayloadTagOf<ekbd::core::Fork>;
  return ev;
}

TEST(Monitors, ForkUniquenessFlagsTwoForksOnOneEdge) {
  ekbd::graph::ConflictGraph g(4);
  g.add_edge(0, 1);
  obs::ForkUniquenessMonitor m(g);
  m.on_event(fork_event(Kind::kSend, 10, 0, 1));
  EXPECT_TRUE(m.violations().empty());
  EXPECT_EQ(m.in_transit(0, 1), 1);
  EXPECT_EQ(m.in_transit(1, 0), 1);  // undirected
  m.on_event(fork_event(Kind::kDeliver, 15, 0, 1));
  EXPECT_EQ(m.in_transit(0, 1), 0);
  // Two live forks on the same edge (one per direction) is the P1 break.
  m.on_event(fork_event(Kind::kSend, 20, 0, 1));
  m.on_event(fork_event(Kind::kSend, 21, 1, 0));
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].at, 21);
  EXPECT_EQ(m.violations()[0].in_transit, 2);
  EXPECT_EQ(m.fork_sends(), 3u);
  // Non-fork traffic and timers never touch the books.
  LoggedEvent ping = fork_event(Kind::kSend, 30, 2, 3);
  ping.payload = ekbd::sim::kPayloadTagOf<ekbd::core::Ping>;
  m.on_event(ping);
  EXPECT_EQ(m.in_transit(2, 3), 0);
}

TEST(Monitors, ExclusionMonitorMatchesPostHocCheckerOnHandBuiltTrace) {
  // Triangle: everyone conflicts with everyone.
  ekbd::graph::ConflictGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  obs::ExclusionMonitor m(g);
  ekbd::dining::Trace t;
  t.set_observer(nullptr);  // we drive the monitor by hand
  using TK = ekbd::dining::TraceEventKind;
  const auto feed = [&](ekbd::sim::Time at, ekbd::sim::ProcessId p, TK k) {
    t.record(at, p, k);
    m.on_trace_event(ekbd::dining::TraceEvent{at, p, k});
  };
  feed(1, 0, TK::kBecameHungry);
  feed(2, 0, TK::kStartEating);
  feed(3, 1, TK::kStartEating);  // violation: 0 still eating
  feed(4, 0, TK::kStopEating);
  feed(5, 2, TK::kStartEating);  // fine: only 1 eating, but 1∦2... edge(1,2) → violation
  feed(6, 1, TK::kStopEating);
  feed(7, 2, TK::kStopEating);
  const auto post = ekbd::dining::check_exclusion(t, g);
  ASSERT_EQ(m.violations().size(), post.violations.size());
  for (std::size_t i = 0; i < post.violations.size(); ++i) {
    EXPECT_EQ(m.violations()[i].at, post.violations[i].at) << i;
    EXPECT_EQ(m.violations()[i].a, post.violations[i].a) << i;
    EXPECT_EQ(m.violations()[i].b, post.violations[i].b) << i;
  }
  EXPECT_GE(post.violations.size(), 2u);
  EXPECT_EQ(m.eating_now(), 0u);
}

TEST(Monitors, ChannelBoundMonitorFlagsDiningExcessOnly) {
  ekbd::graph::ConflictGraph g(2);
  g.add_edge(0, 1);
  obs::ChannelBoundMonitor m(g);
  m.on_high_water(MsgLayer::kDining, 0, 1, 4, 10);
  EXPECT_TRUE(m.violations().empty());  // 4 is the bound, not a breach
  m.on_high_water(MsgLayer::kDining, 1, 0, 5, 11);
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].in_transit, 5);
  EXPECT_EQ(m.violations()[0].at, 11);
  EXPECT_EQ(m.max_in_transit(MsgLayer::kDining, 0, 1), 5);
  // Transport-layer occupancy is unbounded by design (ARQ retransmits).
  m.on_high_water(MsgLayer::kTransport, 0, 1, 40, 12);
  EXPECT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.max_in_transit_any(MsgLayer::kTransport), 40);
  EXPECT_EQ(m.max_in_transit(MsgLayer::kDetector, 0, 1), 0);
}

TEST(Monitors, QuiescenceMonitorTracksLastSendAndPostCrashSends) {
  obs::QuiescenceMonitor m(4);
  EXPECT_EQ(m.last_send_to(3, MsgLayer::kDining), -1);
  m.on_send(MsgLayer::kDining, 3, 100, /*target_crashed=*/false);
  m.on_send(MsgLayer::kDining, 3, 250, /*target_crashed=*/true);
  m.on_send(MsgLayer::kDetector, 3, 300, /*target_crashed=*/true);
  EXPECT_EQ(m.last_send_to(3, MsgLayer::kDining), 250);
  EXPECT_EQ(m.sends_to_crashed(3, MsgLayer::kDining), 1u);
  EXPECT_EQ(m.sends_to_crashed(3, MsgLayer::kDetector), 1u);
  EXPECT_EQ(m.sends_to_crashed(2, MsgLayer::kDining), 0u);
}

// -- monitors: pairs outside the initial graph ------------------------------
//
// The fork and channel monitors keep one dense slot per edge of the graph
// they were built with; every other pair (a churn-added edge, an external
// kNoProcess sender) lands in a spill map and must count all the same.

TEST(Monitors, ForkUniquenessCountsForksOnPairsOutsideTheGraph) {
  ekbd::graph::ConflictGraph g(3);  // path 0-1-2; {0, 2} joins by churn
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  obs::ForkUniquenessMonitor m(g);
  m.on_event(fork_event(Kind::kSend, 10, 0, 2));
  EXPECT_EQ(m.in_transit(2, 0), 1);
  EXPECT_TRUE(m.violations().empty());
  m.on_event(fork_event(Kind::kDuplicate, 11, 2, 0));
  EXPECT_EQ(m.in_transit(0, 2), 2);
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].at, 11);
  EXPECT_EQ(m.violations()[0].a, 2);
  EXPECT_EQ(m.violations()[0].b, 0);
  EXPECT_EQ(m.violations()[0].in_transit, 2);
  EXPECT_EQ(m.fork_sends(), 2u);
  // The spill never leaks into the graph's own edges.
  EXPECT_EQ(m.in_transit(0, 1), 0);
  EXPECT_EQ(m.in_transit(1, 2), 0);
  m.on_event(fork_event(Kind::kDeliver, 12, 0, 2));
  m.on_event(fork_event(Kind::kLoss, 13, 2, 0));
  EXPECT_EQ(m.in_transit(0, 2), 0);
}

TEST(Monitors, ChannelBoundTracksPairsOutsideTheGraphAndExternalSenders) {
  ekbd::graph::ConflictGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  obs::ChannelBoundMonitor m(g);
  m.on_high_water(MsgLayer::kDining, 2, 0, 3, 10);  // churn-added pair
  EXPECT_EQ(m.max_in_transit(MsgLayer::kDining, 0, 2), 3);
  EXPECT_EQ(m.max_in_transit(MsgLayer::kDining, 0, 1), 0);
  EXPECT_EQ(m.max_in_transit_any(MsgLayer::kDining), 3);
  m.on_high_water(MsgLayer::kDining, 0, 2, 5, 11);
  ASSERT_EQ(m.violations().size(), 1u);
  EXPECT_EQ(m.violations()[0].a, 0);
  EXPECT_EQ(m.violations()[0].b, 2);
  EXPECT_EQ(m.max_in_transit_any(MsgLayer::kDining), 5);
  m.on_high_water(MsgLayer::kOther, ekbd::sim::kNoProcess, 1, 7, 12);
  EXPECT_EQ(m.max_in_transit(MsgLayer::kOther, ekbd::sim::kNoProcess, 1), 7);
  EXPECT_EQ(m.max_in_transit(MsgLayer::kOther, 1, ekbd::sim::kNoProcess), 7);
  EXPECT_EQ(m.max_in_transit_any(MsgLayer::kOther), 7);
  EXPECT_EQ(m.max_in_transit_any(MsgLayer::kDetector), 0);
}

TEST(Monitors, HubAgreesWithNetworkBooksOnPairsOutsideTheGraph) {
  ekbd::graph::ConflictGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  obs::MonitorHub hub(g);
  ekbd::sim::Network net;
  net.set_watch(&hub);
  net.logical_sent(0, 1, MsgLayer::kDining, 5, false);
  net.logical_sent(0, 2, MsgLayer::kDining, 6, false);  // churn-added pair
  net.logical_sent(2, 0, MsgLayer::kDining, 7, false);
  net.logical_sent(ekbd::sim::kNoProcess, 1, MsgLayer::kOther, 8, false);
  net.logical_delivered(0, 2, MsgLayer::kDining);
  net.set_watch(nullptr);
  EXPECT_EQ(hub.channels().max_in_transit(MsgLayer::kDining, 0, 2), 2);
  EXPECT_EQ(hub.channels().max_in_transit_any(MsgLayer::kOther), 1);
  EXPECT_EQ(hub.quiescence().last_send_to(1, MsgLayer::kOther), 8);
  const ekbd::dining::Trace trace;
  EXPECT_EQ(hub.agreement_failures(trace, g, net), "");
}

TEST(Monitors, ExclusionMonitorEatingNowFollowsStopAndCrash) {
  ekbd::graph::ConflictGraph g(4);  // path 0-1-2-3
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  obs::ExclusionMonitor m(g);
  using TK = ekbd::dining::TraceEventKind;
  const auto feed = [&](ekbd::sim::Time at, ekbd::sim::ProcessId p, TK k) {
    m.on_trace_event(ekbd::dining::TraceEvent{at, p, k});
  };
  feed(1, 0, TK::kStartEating);
  feed(2, 2, TK::kStartEating);
  EXPECT_EQ(m.eating_now(), 2u);
  feed(3, 0, TK::kStopEating);
  EXPECT_EQ(m.eating_now(), 1u);
  feed(4, 0, TK::kStopEating);  // stopping twice clears nothing more
  feed(5, 3, TK::kCrashed);     // a crash of a non-eater changes nothing
  EXPECT_EQ(m.eating_now(), 1u);
  feed(6, 2, TK::kCrashed);
  EXPECT_EQ(m.eating_now(), 0u);
  // A crashed eater no longer conflicts: its neighbor eats cleanly.
  feed(7, 1, TK::kStartEating);
  feed(8, 1, TK::kStartEating);  // a repeated start counts once
  EXPECT_EQ(m.eating_now(), 1u);
  EXPECT_TRUE(m.violations().empty());
}

// -- monitors wired into a real scenario ------------------------------------

ekbd::scenario::Config observed_config(std::uint64_t seed) {
  ekbd::scenario::Config cfg;
  cfg.seed = seed;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.observability = true;
  cfg.run_for = 20'000;
  cfg.crashes = {{2, 9'000}};
  return cfg;
}

TEST(Monitors, OnlineVerdictsAgreeWithPostHocCheckersOnScenarioRun) {
  ekbd::scenario::Scenario s(observed_config(0x0B5));
  ASSERT_NE(s.monitors(), nullptr);
  ASSERT_NE(s.metrics(), nullptr);
  s.run();
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_TRUE(s.monitors()->clean());
  // The monitors actually saw the run: forks moved, sessions completed.
  EXPECT_GT(s.monitors()->forks().fork_sends(), 0u);
  EXPECT_GT(s.monitors()->channels().max_in_transit_any(MsgLayer::kDining), 0);
  EXPECT_LE(s.monitors()->channels().max_in_transit_any(MsgLayer::kDining),
            obs::ChannelBoundMonitor::kDiningBound);
  // Harness instrumentation fed the registry.
  const auto* meals = s.metrics()->find_counter("dining.meals");
  ASSERT_NE(meals, nullptr);
  EXPECT_GT(meals->get(), 0u);
  const auto* lat = s.metrics()->find_histogram("dining.hungry_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), meals->get());
  // Simulator metrics moved too.
  EXPECT_GT(s.metrics()->find_counter("sim.events")->get(), 0u);
  EXPECT_GT(s.metrics()->find_counter("sim.sends")->get(), 0u);
  EXPECT_GT(s.metrics()->find_gauge("sim.queue_depth")->max(), 0);
}

TEST(Monitors, AgreementHoldsUnderLossyNetworkWithArq) {
  ekbd::scenario::Config cfg = observed_config(0x0B6);
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;
  ekbd::scenario::Scenario s(cfg);
  s.run();
  EXPECT_EQ(s.monitor_agreement(), "");
  EXPECT_TRUE(s.monitors()->clean());
  // ARQ telemetry flows through telemetry_json's collection path.
  const std::string line = s.telemetry_json();
  const auto doc = json::parse(line);
  ASSERT_TRUE(doc.has_value()) << line;
  EXPECT_EQ(doc->find("config")->find("net_mode")->str, "lossy");
  const auto monitors = doc->find("monitors");
  ASSERT_NE(monitors, nullptr);
  EXPECT_DOUBLE_EQ(monitors->num_or("p1_violations", -1), 0.0);
  ASSERT_NE(monitors->find("clean"), nullptr);
  EXPECT_TRUE(monitors->find("clean")->boolean);
}

TEST(Monitors, TelemetryJsonWithoutObservabilityIsEmptyObject) {
  ekbd::scenario::Config cfg = observed_config(1);
  cfg.observability = false;
  cfg.crashes.clear();
  cfg.run_for = 2'000;
  ekbd::scenario::Scenario s(cfg);
  EXPECT_EQ(s.monitors(), nullptr);
  s.run();
  EXPECT_EQ(s.telemetry_json(), "{}");
}

// -- telemetry collectors ---------------------------------------------------

TEST(Telemetry, CollectorsSnapshotNetworkLogAndMcNumbers) {
  ekbd::scenario::Config cfg = observed_config(0x0B7);
  cfg.net_mode = ekbd::scenario::NetMode::kLossy;
  ekbd::scenario::Scenario s(cfg);
  ekbd::sim::EventLog log(/*cap=*/500);
  s.sim().set_event_log(&log);
  s.run();

  obs::MetricsRegistry reg;
  obs::collect_network_metrics(s.sim().network(), reg);
  const auto* dining_sent = reg.find_counter("net.sent", "dining");
  const auto* transport_sent = reg.find_counter("net.sent", "transport");
  ASSERT_NE(dining_sent, nullptr);
  ASSERT_NE(transport_sent, nullptr);
  EXPECT_GT(dining_sent->get(), 0u);
  // Retransmissions make physical ≥ logical on the covered layer.
  EXPECT_GE(transport_sent->get(), dining_sent->get());

  obs::collect_transport_metrics(*s.transport(), reg);
  EXPECT_GT(reg.find_counter("arq.logical_sends")->get(), 0u);
  EXPECT_GT(reg.find_counter("arq.retransmissions")->get(), 0u);

  obs::collect_event_log_metrics(log, reg);
  EXPECT_EQ(reg.find_counter("log.events")->get(), log.size());
  EXPECT_EQ(reg.find_counter("log.dropped")->get(), log.dropped());
  EXPECT_GT(log.dropped(), 0u);  // cap 500 is far below a 20k-tick run

  obs::collect_mc_metrics(/*nodes_executed=*/1000, /*sleep_pruned=*/500,
                          /*wall_seconds=*/2.0, reg);
  EXPECT_EQ(reg.find_counter("mc.nodes_executed")->get(), 1000u);
  EXPECT_EQ(reg.find_gauge("mc.states_per_sec")->get(), 500);
  EXPECT_EQ(reg.find_gauge("mc.sleep_hit_rate_pct")->get(), 33);
  // Degenerate inputs stay finite.
  obs::MetricsRegistry reg2;
  obs::collect_mc_metrics(0, 0, 0.0, reg2);
  EXPECT_EQ(reg2.find_gauge("mc.states_per_sec")->get(), 0);
  EXPECT_EQ(reg2.find_gauge("mc.sleep_hit_rate_pct")->get(), 0);
}

// -- sweep JSONL ------------------------------------------------------------

TEST(Telemetry, SweepEmitsOneParseableJsonlLinePerScenarioInConfigOrder) {
  const std::string path = ::testing::TempDir() + "/obs_sweep_telemetry.jsonl";
  std::vector<ekbd::scenario::Config> configs;
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    ekbd::scenario::Config cfg = observed_config(seed);
    cfg.run_for = 8'000;
    cfg.crashes.clear();
    configs.push_back(cfg);
  }
  ekbd::scenario::SweepOptions opt;
  opt.threads = 3;
  opt.telemetry_path = path;
  std::size_t inspected = 0;
  ekbd::scenario::sweep<ekbd::scenario::Scenario>(
      configs, [&](std::size_t, ekbd::scenario::Scenario&) { ++inspected; }, opt);
  EXPECT_EQ(inspected, configs.size());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), configs.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto doc = json::parse(lines[i]);
    ASSERT_TRUE(doc.has_value()) << "line " << i << ": " << lines[i];
    // Line order matches config order regardless of pool scheduling.
    EXPECT_DOUBLE_EQ(doc->find("config")->num_or("seed", 0),
                     static_cast<double>(configs[i].seed));
    const auto* metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr) << "line " << i;
    EXPECT_FALSE(metrics->find("counters")->arr.empty());
    EXPECT_TRUE(doc->find("monitors")->find("clean")->boolean);
    // Every line carries the sweep object: worker wall-clock plus the
    // trace's offered/completed session counts, round-tripped via json.
    const auto* sweep = doc->find("sweep");
    ASSERT_NE(sweep, nullptr) << "line " << i;
    EXPECT_GT(sweep->num_or("wall_seconds", -1), 0.0);
    EXPECT_GT(sweep->num_or("offered", 0), 0.0);
    EXPECT_GT(sweep->num_or("completed", 0), 0.0);
    // Closed-loop runs complete what they offer, up to in-flight tails.
    EXPECT_LE(sweep->num_or("completed", 0), sweep->num_or("offered", 0));
  }
  std::remove(path.c_str());
}

TEST(Telemetry, SweepObjectAppearsOnObservabilityOffPlaceholderLines) {
  const std::string path = ::testing::TempDir() + "/obs_sweep_placeholder.jsonl";
  ekbd::scenario::Config cfg;
  cfg.seed = 77;
  cfg.n = 6;
  cfg.run_for = 6'000;
  cfg.observability = false;  // telemetry_json() alone would be "{}"
  ekbd::scenario::SweepOptions opt;
  opt.threads = 2;
  opt.telemetry_path = path;
  ekbd::scenario::sweep<ekbd::scenario::Scenario>(
      {cfg, cfg}, [](std::size_t, ekbd::scenario::Scenario&) {}, opt);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->find("metrics"), nullptr);  // still no registry snapshot
    const auto* sweep = doc->find("sweep");
    ASSERT_NE(sweep, nullptr) << line;
    EXPECT_GT(sweep->num_or("wall_seconds", -1), 0.0);
    EXPECT_GT(sweep->num_or("offered", 0), 0.0);
  }
  std::remove(path.c_str());
}

// -- perfetto ---------------------------------------------------------------

TEST(Perfetto, ExportsSpansFlowsAndThreadNamesFromARealRun) {
  ekbd::scenario::Config cfg = observed_config(0x0B8);
  cfg.run_for = 5'000;
  cfg.crashes = {{1, 2'500}};
  ekbd::scenario::Scenario s(cfg);
  ekbd::sim::EventLog log;
  s.sim().set_event_log(&log);
  s.run();

  const std::string text = obs::chrome_trace_json(&log, &s.trace());
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->arr.empty());
  std::size_t spans = 0, flow_starts = 0, flow_ends = 0, instants = 0, meta = 0;
  std::size_t eat_spans = 0, hungry_spans = 0;
  for (const auto& ev : events->arr) {
    const std::string ph = ev.find("ph")->str;
    if (ph == "X") {
      ++spans;
      const std::string name = ev.find("name")->str;
      if (name == "eat") ++eat_spans;
      if (name == "hungry") ++hungry_spans;
      EXPECT_GE(ev.num_or("dur", -1), 0.0);
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_ends;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M") {
      ++meta;
      EXPECT_EQ(ev.find("name")->str, "thread_name");
    }
  }
  EXPECT_GT(eat_spans, 0u);
  EXPECT_GT(hungry_spans, 0u);
  EXPECT_GT(flow_starts, 0u);
  // Every flow arrow that ends somewhere started somewhere; deliveries
  // can be outstanding at the horizon, so ends ≤ starts.
  EXPECT_LE(flow_ends, flow_starts);
  EXPECT_GT(instants, 0u);  // the crash at t=2500 at minimum
  EXPECT_EQ(meta, cfg.n);   // one thread_name record per process
  // Sessions-only export works without an event log and vice versa.
  EXPECT_TRUE(json::parse(obs::chrome_trace_json(nullptr, &s.trace())).has_value());
  EXPECT_TRUE(json::parse(obs::chrome_trace_json(&log, nullptr)).has_value());
  EXPECT_TRUE(json::parse(obs::chrome_trace_json(nullptr, nullptr)).has_value());
}

}  // namespace
