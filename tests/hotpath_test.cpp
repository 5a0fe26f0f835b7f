// Hot-path tests: the zero-allocation guarantee of the typed event queue
// plus the determinism properties the rewrite must not disturb.
//
//  * SimHotPath — a counting global allocator proves the steady-state
//    send→deliver cycle never touches the heap, and cancelled timers are
//    discarded without advancing time or the events_processed counter
//    (the wheel-against-heap order test lives in sim_test.cpp).
//  * SimDeterminism — per-actor RNG streams depend only on (master seed,
//    id), and a fixed-seed E1-style scenario still produces the exact
//    event log it produced before the queue rewrite (golden digest).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EKBD_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EKBD_SANITIZED 1
#endif
#endif

// -- counting global allocator ---------------------------------------------
//
// Counts every operator-new call in the process. Tests reset the counter,
// run the region under scrutiny, and read the delta — a plain count (not
// a ledger), so the overhead inside the region itself is zero beyond one
// relaxed atomic increment per (absent) allocation.

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// Sanitizer runtimes intercept the global allocator themselves (and the
// libstdc++ temporary-buffer machinery frees through those interceptors);
// overriding it here would cause alloc-dealloc mismatches, so sanitized
// builds keep the sanitizer's allocator and skip the counting test.
#ifndef EKBD_SANITIZED
void* operator new(std::size_t sz) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (sz == 0) sz = 1;
  if (void* p = std::malloc(sz)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !EKBD_SANITIZED

namespace {

using ekbd::sim::Message;
using ekbd::sim::MsgLayer;
using ekbd::sim::ProcessId;
using ekbd::sim::Simulator;
using ekbd::sim::TimerId;

/// Replies to every Ping with a Ping: a sustained one-message-in-flight
/// chain that exercises queue pop → deliver → on_message → send →
/// queue push forever.
struct PingPong : ekbd::sim::Actor {
  void on_message(const Message& m) override {
    send(m.from, ekbd::core::Ping{}, MsgLayer::kDining);
  }
  void on_timer(TimerId) override {}
  using Actor::send;
};

TEST(SimHotPath, SteadyStateSendDeliverDoesNotAllocate) {
#ifdef EKBD_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the scenes";
#endif
  Simulator sim(1, ekbd::sim::make_fixed_delay(1));
  auto* a = sim.make_actor<PingPong>();
  auto* b = sim.make_actor<PingPong>();
  sim.start();
  a->send(b->id(), ekbd::core::Ping{}, MsgLayer::kDining);
  // Warm-up: grows the event slab to its steady capacity and creates the
  // Network's per-channel bookkeeping entries for both directions.
  sim.run_until(1'000);
  const auto events_before = sim.events_processed();
  g_new_calls.store(0, std::memory_order_relaxed);
  sim.run_until(5'000);
  const auto allocs = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs, 0u) << "send→deliver hot path touched the heap";
  // Sanity: the measured window really did carry sustained traffic.
  EXPECT_GE(sim.events_processed() - events_before, 2'000u);
}

struct TimerCounter : ekbd::sim::Actor {
  int fired = 0;
  void on_message(const Message&) override {}
  void on_timer(TimerId) override { ++fired; }
  using Actor::cancel_timer;
  using Actor::set_timer;
};

TEST(SimHotPath, CancelledTimerIsSkippedWithoutCounting) {
  Simulator sim(1);
  auto* a = sim.make_actor<TimerCounter>();
  sim.start();
  const TimerId dead = a->set_timer(10);
  a->set_timer(20);  // live
  a->cancel_timer(dead);
  sim.run_until(100);
  EXPECT_EQ(a->fired, 1);
  // The cancelled record is dead weight, not an event: only the live
  // timer may show up in the processed count.
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimHotPath, AllTimersCancelledMeansNothingHappens) {
  Simulator sim(1);
  auto* a = sim.make_actor<TimerCounter>();
  sim.start();
  std::array<TimerId, 8> ids{};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = a->set_timer(static_cast<ekbd::sim::Time>(10 * (i + 1)));
  }
  for (const TimerId id : ids) a->cancel_timer(id);
  sim.run_until(200);
  EXPECT_EQ(a->fired, 0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_TRUE(sim.idle());  // pruning really emptied the queue
  EXPECT_EQ(sim.now(), 200);
}

struct Idle : ekbd::sim::Actor {
  void on_message(const Message&) override {}
  void on_timer(TimerId) override {}
};

TEST(SimDeterminism, ActorRngIndependentOfFirstUseOrder) {
  constexpr std::uint64_t kSeed = 77;
  constexpr int kN = 4;
  Simulator fwd(kSeed), rev(kSeed);
  for (int i = 0; i < kN; ++i) {
    fwd.make_actor<Idle>();
    rev.make_actor<Idle>();
  }
  std::array<std::uint64_t, kN> a{};
  std::array<std::uint64_t, kN> b{};
  for (int p = 0; p < kN; ++p) {
    a[static_cast<std::size_t>(p)] = fwd.actor_rng(p).u64();
  }
  // Different first-use order AND interleaved master-stream draws: neither
  // may shift any actor's stream (the historical bug derived actor RNGs by
  // forking the master, so whoever asked first got a different stream).
  (void)rev.rng().u64();
  for (int p = kN - 1; p >= 0; --p) {
    (void)rev.rng().u64();
    b[static_cast<std::size_t>(p)] = rev.actor_rng(p).u64();
  }
  EXPECT_EQ(a, b);
  // And the derivation is exactly (master seed, id) — reproducible outside
  // any simulator.
  for (int p = 0; p < kN; ++p) {
    ekbd::sim::Rng expect =
        ekbd::sim::Rng(kSeed).fork(static_cast<std::uint64_t>(p) + 1);
    EXPECT_EQ(a[static_cast<std::size_t>(p)], expect.u64()) << "actor " << p;
  }
}

// Golden digest: fixed-seed E1-style run (wait-free diner, scripted ◇P₁,
// ring of 5, one crash, false positives until convergence). The expected
// values were computed on the std::any + std::function implementation the
// typed queue replaced; equality here proves the rewrite preserved the
// (time, seq) event order and every RNG draw bit-for-bit.
TEST(SimDeterminism, GoldenEventDigestUnchangedByQueueRewrite) {
  ekbd::scenario::Config cfg;
  cfg.seed = 42;
  cfg.topology = "ring";
  cfg.n = 5;
  cfg.algorithm = ekbd::scenario::Algorithm::kWaitFree;
  cfg.detector = ekbd::scenario::DetectorKind::kScripted;
  cfg.partial_synchrony = false;
  cfg.detection_delay = 120;
  cfg.fp_count = 10;
  cfg.fp_until = 6'000;
  cfg.run_for = 20'000;
  cfg.crashes = {{2, 9'000}};

  ekbd::scenario::Scenario s(cfg);
  ekbd::sim::EventLog log;
  s.sim().set_event_log(&log);
  s.run();

  const auto fnv = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
    return h;
  };
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& e : log.events()) {
    h = fnv(h, static_cast<std::uint64_t>(e.at));
    h = fnv(h, static_cast<std::uint64_t>(e.kind));
    h = fnv(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.from)));
    h = fnv(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.to)));
    h = fnv(h, static_cast<std::uint64_t>(e.layer));
    h = fnv(h, e.seq);
  }
  EXPECT_EQ(log.size(), 5194u);
  EXPECT_EQ(h, 0xB75E7E73F9A450FBULL);
}

}  // namespace
