// Property-checker tests on hand-crafted traces — including traces that
// *violate* each property, proving the checkers can detect violations.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "dining/checkers.hpp"
#include "graph/topology.hpp"
#include "sim/rng.hpp"

namespace {

using ekbd::dining::check_exclusion;
using ekbd::dining::check_wait_freedom;
using ekbd::dining::k_bound_establishment;
using ekbd::dining::max_overtakes;
using ekbd::dining::overtake_census;
using ekbd::dining::Trace;
using ekbd::dining::TraceEventKind;
using ekbd::sim::Time;

constexpr auto kHungry = TraceEventKind::kBecameHungry;
constexpr auto kEat = TraceEventKind::kStartEating;
constexpr auto kExit = TraceEventKind::kStopEating;
constexpr auto kCrash = TraceEventKind::kCrashed;

TEST(Exclusion, CleanTraceHasNoViolations) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kHungry);
  t.record(2, 0, kEat);
  t.record(3, 0, kExit);
  t.record(4, 1, kHungry);
  t.record(5, 1, kEat);
  t.record(6, 1, kExit);
  auto r = check_exclusion(t, g);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.last_violation(), -1);
}

TEST(Exclusion, DetectsOverlappingNeighbors) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kEat);
  t.record(2, 1, kEat);  // neighbor of 0 in the ring: violation
  t.record(3, 0, kExit);
  t.record(4, 1, kExit);
  auto r = check_exclusion(t, g);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].at, 2);
  EXPECT_EQ(r.violations[0].a, 1);
  EXPECT_EQ(r.violations[0].b, 0);
  EXPECT_EQ(r.last_violation(), 2);
}

TEST(Exclusion, NonNeighborsMayOverlap) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kEat);
  t.record(2, 2, kEat);  // 0 and 2 are not adjacent in ring(4)
  auto r = check_exclusion(t, g);
  EXPECT_TRUE(r.violations.empty());
}

TEST(Exclusion, CrashEndsEatingForOverlapPurposes) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kEat);
  t.record(2, 0, kCrash);  // 0 dies at the table
  t.record(3, 1, kEat);    // no live overlap
  auto r = check_exclusion(t, g);
  EXPECT_TRUE(r.violations.empty());
}

TEST(Exclusion, ViolationsAfterFiltersByTime) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kEat);
  t.record(2, 1, kEat);
  t.record(3, 0, kExit);
  t.record(4, 1, kExit);
  t.record(10, 2, kEat);
  t.record(11, 3, kEat);
  auto r = check_exclusion(t, g);
  EXPECT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations_after(5), 1u);
  EXPECT_EQ(r.violations_after(11), 0u);
}

TEST(WaitFreedom, AllSessionsCompleteIsWaitFree) {
  Trace t;
  t.record(1, 0, kHungry);
  t.record(5, 0, kEat);
  t.set_end_time(1000);
  auto r = check_wait_freedom(t, {-1, -1}, 100);
  EXPECT_TRUE(r.wait_free());
  EXPECT_EQ(r.sessions_total, 1u);
  EXPECT_EQ(r.sessions_completed, 1u);
  EXPECT_EQ(r.response.count, 1u);
  EXPECT_DOUBLE_EQ(r.response.mean, 4.0);
}

TEST(WaitFreedom, DetectsStarvation) {
  Trace t;
  t.record(1, 0, kHungry);  // never eats
  t.set_end_time(1000);
  auto r = check_wait_freedom(t, {-1}, 100);
  EXPECT_FALSE(r.wait_free());
  ASSERT_EQ(r.starving.size(), 1u);
  EXPECT_EQ(r.starving[0], 0);
}

TEST(WaitFreedom, RecentHungerIsNotStarvation) {
  Trace t;
  t.record(950, 0, kHungry);  // hungry only 50 ticks before the horizon
  t.set_end_time(1000);
  auto r = check_wait_freedom(t, {-1}, 100);
  EXPECT_TRUE(r.wait_free());
}

TEST(WaitFreedom, CrashedProcessIsNotStarving) {
  Trace t;
  t.record(1, 0, kHungry);
  t.record(500, 0, kCrash);
  t.set_end_time(10'000);
  auto r = check_wait_freedom(t, {500}, 100);
  EXPECT_TRUE(r.wait_free());
  EXPECT_EQ(r.sessions_crashed, 1u);
}

TEST(WaitFreedom, CrashedProcessResponsesExcludedFromStats) {
  Trace t;
  t.record(1, 0, kHungry);
  t.record(11, 0, kEat);   // completes, but 0 crashes later
  t.record(20, 0, kExit);
  t.record(30, 0, kCrash);
  t.record(40, 1, kHungry);
  t.record(45, 1, kEat);
  t.set_end_time(1000);
  auto r = check_wait_freedom(t, {30, -1}, 100);
  EXPECT_EQ(r.sessions_completed, 2u);
  EXPECT_EQ(r.response.count, 1u);  // only the correct process's session
  EXPECT_DOUBLE_EQ(r.response.mean, 5.0);
}

/// The session-list reading of the wait-freedom report, which
/// check_wait_freedom computes in one streaming pass.
ekbd::dining::WaitFreedomReport report_from_sessions(const Trace& trace,
                                                     const std::vector<Time>& crash_times,
                                                     Time starvation_horizon) {
  ekbd::dining::WaitFreedomReport r;
  std::vector<double> responses;
  std::set<ekbd::sim::ProcessId> starving;
  for (const auto& s : ekbd::dining::hungry_sessions(trace)) {
    ++r.sessions_total;
    const auto p = static_cast<std::size_t>(s.process);
    const bool correct = p >= crash_times.size() || crash_times[p] < 0;
    if (s.completed()) {
      ++r.sessions_completed;
      if (correct) responses.push_back(static_cast<double>(s.response_time()));
    } else if (s.crashed_during) {
      ++r.sessions_crashed;
    } else if (correct && s.ended - s.became_hungry >= starvation_horizon) {
      starving.insert(s.process);
    }
  }
  r.starving.assign(starving.begin(), starving.end());
  r.response = ekbd::util::summarize(responses);
  return r;
}

TEST(WaitFreedom, StreamingPassMatchesTheSessionList) {
  // Random traces over 12 processes: completed, crashed, re-hungry and
  // still-open sessions, with responses both below and far past the
  // checker's dense tick range (a nanosecond-tick engine's waits).
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr int kN = 12;
    Trace t;
    std::vector<Time> crash_times(kN, -1);
    Time now = 0;
    for (int i = 0; i < 3'000; ++i) {
      now += static_cast<Time>(rng() % 4 == 0 ? 70'000 + rng() % 90'000 : rng() % 30);
      const auto p = static_cast<ekbd::sim::ProcessId>(rng() % kN);
      const std::uint64_t roll = rng() % 100;
      if (roll < 45) {
        t.record(now, p, kHungry);
      } else if (roll < 90) {
        t.record(now, p, kEat);
      } else if (roll < 97) {
        t.record(now, p, kExit);
      } else if (crash_times[static_cast<std::size_t>(p)] < 0) {
        t.record(now, p, kCrash);
        crash_times[static_cast<std::size_t>(p)] = now;
      }
    }
    t.set_end_time(now + 1'000);
    for (const Time horizon : {Time{0}, Time{500}, Time{100'000}}) {
      const auto got = check_wait_freedom(t, crash_times, horizon);
      const auto want = report_from_sessions(t, crash_times, horizon);
      EXPECT_EQ(got.sessions_total, want.sessions_total);
      EXPECT_EQ(got.sessions_completed, want.sessions_completed);
      EXPECT_EQ(got.sessions_crashed, want.sessions_crashed);
      EXPECT_EQ(got.starving, want.starving);
      // Bit-identical, not merely close: same values, same summation order.
      EXPECT_EQ(got.response.count, want.response.count);
      for (const auto& [a, b] : {std::pair{got.response.min, want.response.min},
                                 {got.response.max, want.response.max},
                                 {got.response.mean, want.response.mean},
                                 {got.response.stddev, want.response.stddev},
                                 {got.response.p50, want.response.p50},
                                 {got.response.p95, want.response.p95},
                                 {got.response.p99, want.response.p99},
                                 {got.response.p999, want.response.p999}}) {
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " vs " << b;
      }
    }
  }
}

TEST(Overtakes, CountsEatsDuringNeighborHunger) {
  auto g = ekbd::graph::ring(4);  // 0-1-2-3-0
  Trace t;
  t.record(1, 0, kHungry);
  // Neighbor 1 eats three times while 0 stays hungry.
  for (Time b = 10; b <= 50; b += 20) {
    t.record(b, 1, kHungry);
    t.record(b + 2, 1, kEat);
    t.record(b + 4, 1, kExit);
  }
  t.record(100, 0, kEat);
  auto census = overtake_census(t, g);
  int count_1_over_0 = -1;
  for (const auto& obs : census) {
    if (obs.waiter == 0 && obs.eater == 1) count_1_over_0 = obs.count;
  }
  EXPECT_EQ(count_1_over_0, 3);
  EXPECT_EQ(max_overtakes(census), 3);
}

TEST(Overtakes, SessionBoundariesResetCounts) {
  auto g = ekbd::graph::path(2);
  Trace t;
  // Session A of 0: one overtake by 1.
  t.record(1, 0, kHungry);
  t.record(2, 1, kHungry);
  t.record(3, 1, kEat);
  t.record(4, 1, kExit);
  t.record(5, 0, kEat);
  t.record(6, 0, kExit);
  // Session B of 0: two overtakes by 1.
  t.record(10, 0, kHungry);
  t.record(11, 1, kHungry);
  t.record(12, 1, kEat);
  t.record(13, 1, kExit);
  t.record(14, 1, kHungry);
  t.record(15, 1, kEat);
  t.record(16, 1, kExit);
  t.record(20, 0, kEat);
  auto census = overtake_census(t, g);
  std::vector<int> counts;
  for (const auto& obs : census) {
    if (obs.waiter == 0) counts.push_back(obs.count);
  }
  EXPECT_EQ(counts, (std::vector<int>{1, 2}));
}

TEST(Overtakes, OpenSessionAtHorizonStillCounts) {
  auto g = ekbd::graph::path(2);
  Trace t;
  t.record(1, 0, kHungry);  // 0 never eats
  for (Time b = 10; b <= 90; b += 20) {
    t.record(b, 1, kHungry);
    t.record(b + 1, 1, kEat);
    t.record(b + 2, 1, kExit);
  }
  t.set_end_time(200);
  auto census = overtake_census(t, g);
  EXPECT_EQ(max_overtakes(census), 5);
}

TEST(Overtakes, MaxAfterFiltersBySessionStart) {
  auto g = ekbd::graph::path(2);
  Trace t;
  // Early bad session: 3 overtakes.
  t.record(1, 0, kHungry);
  for (Time b = 2; b <= 10; b += 4) {
    t.record(b, 1, kHungry);
    t.record(b + 1, 1, kEat);
    t.record(b + 2, 1, kExit);
  }
  t.record(20, 0, kEat);
  t.record(21, 0, kExit);
  // Late good session: 1 overtake.
  t.record(100, 0, kHungry);
  t.record(101, 1, kHungry);
  t.record(102, 1, kEat);
  t.record(103, 1, kExit);
  t.record(110, 0, kEat);
  auto census = overtake_census(t, g);
  EXPECT_EQ(max_overtakes(census), 3);
  EXPECT_EQ(max_overtakes(census, 50), 1);
  EXPECT_EQ(k_bound_establishment(census, 2), 2);  // last violating start + 1
  EXPECT_EQ(k_bound_establishment(census, 3), 0);  // whole run 3-bounded
}

TEST(Overtakes, CrashClosesWaiterSession) {
  auto g = ekbd::graph::path(2);
  Trace t;
  t.record(1, 0, kHungry);
  t.record(5, 1, kHungry);
  t.record(6, 1, kEat);
  t.record(7, 1, kExit);
  t.record(8, 0, kCrash);
  // Eats after the waiter crashed do not count.
  t.record(10, 1, kHungry);
  t.record(11, 1, kEat);
  t.set_end_time(100);
  auto census = overtake_census(t, g);
  int count = -1;
  for (const auto& obs : census) {
    if (obs.waiter == 0 && obs.eater == 1) count = obs.count;
  }
  EXPECT_EQ(count, 1);
}

TEST(Concurrency, ProfilesOverlaps) {
  auto g = ekbd::graph::ring(4);  // 0-1-2-3-0; 0 and 2 not adjacent
  Trace t;
  t.record(0, 0, kEat);
  t.record(5, 2, kEat);   // non-neighbor overlap
  t.record(10, 0, kExit);
  t.record(10, 2, kExit);
  t.set_end_time(20);
  auto r = ekbd::dining::concurrency_profile(t, g);
  EXPECT_EQ(r.max_concurrent_eaters, 2);
  EXPECT_EQ(r.nonneighbor_overlaps, 1u);
  // Time-weighted mean: 1 eater over [0,5), 2 over [5,10), 0 over [10,20)
  // = (5*1 + 5*2) / 20 = 0.75.
  EXPECT_DOUBLE_EQ(r.mean_concurrent_eaters, 0.75);
}

TEST(Concurrency, NeighborOverlapNotCountedAsHarmless) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(0, 0, kEat);
  t.record(5, 1, kEat);  // neighbors: a violation, not harmless concurrency
  t.set_end_time(10);
  auto r = ekbd::dining::concurrency_profile(t, g);
  EXPECT_EQ(r.nonneighbor_overlaps, 0u);
  EXPECT_EQ(r.max_concurrent_eaters, 2);
}

TEST(Concurrency, EmptyTrace) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  auto r = ekbd::dining::concurrency_profile(t, g);
  EXPECT_EQ(r.max_concurrent_eaters, 0);
  EXPECT_DOUBLE_EQ(r.mean_concurrent_eaters, 0.0);
}

TEST(Concurrency, CrashEndsOverlap) {
  auto g = ekbd::graph::ring(6);
  Trace t;
  t.record(0, 0, kEat);
  t.record(2, 0, kCrash);
  t.record(3, 2, kEat);
  t.record(4, 4, kEat);
  t.set_end_time(10);
  auto r = ekbd::dining::concurrency_profile(t, g);
  EXPECT_EQ(r.max_concurrent_eaters, 2);  // 2 and 4 (0 died before)
  EXPECT_EQ(r.nonneighbor_overlaps, 1u);  // {2,4} only
}

/// The pairwise definition concurrency_profile counts in O(deg): every new
/// eater against every current eater (itself included, if it is already
/// eating), through ConflictGraph::adjacent.
std::uint64_t pairwise_nonneighbor_overlaps(const Trace& t,
                                            const ekbd::graph::ConflictGraph& g) {
  std::uint64_t overlaps = 0;
  std::set<ekbd::sim::ProcessId> eating;
  for (const auto& e : t.events()) {
    if (e.kind == kEat) {
      for (const ekbd::sim::ProcessId q : eating) overlaps += g.adjacent(e.process, q) ? 0 : 1;
      eating.insert(e.process);
    } else if (e.kind == kExit || e.kind == kCrash) {
      eating.erase(e.process);
    }
  }
  return overlaps;
}

TEST(Concurrency, MatchesThePairwiseCountOnRandomTraces) {
  ekbd::sim::Rng rng(2026);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 44));
    const auto g = ekbd::graph::random_sparse(n, 3.0, rng);
    Trace t;
    Time at = 0;
    // Unchecked traces on purpose: repeated starts and stops without a
    // start must count as the pairwise definition counts them.
    for (int i = 0; i < 400; ++i) {
      at += rng.uniform_int(0, 3);
      const auto p = static_cast<ekbd::sim::ProcessId>(rng.index(n));
      const std::int64_t roll = rng.uniform_int(0, 9);
      t.record(at, p, roll < 5 ? kEat : roll < 9 ? kExit : kCrash);
    }
    t.set_end_time(at + 5);
    const auto r = ekbd::dining::concurrency_profile(t, g);
    EXPECT_EQ(r.nonneighbor_overlaps, pairwise_nonneighbor_overlaps(t, g)) << "round " << round;
    EXPECT_GT(r.max_concurrent_eaters, 0);
  }
}

TEST(Overtakes, ZeroCountObservationsPresent) {
  auto g = ekbd::graph::ring(4);
  Trace t;
  t.record(1, 0, kHungry);
  t.record(2, 0, kEat);
  auto census = overtake_census(t, g);
  // 0 has two ring neighbors; both observations exist with count 0.
  std::size_t zero_obs = 0;
  for (const auto& obs : census) {
    if (obs.waiter == 0) {
      EXPECT_EQ(obs.count, 0);
      ++zero_obs;
    }
  }
  EXPECT_EQ(zero_obs, 2u);
  EXPECT_EQ(k_bound_establishment(census, 0), 0);
}

}  // namespace
