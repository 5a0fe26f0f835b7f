// E22 — real-threads runtime wall-clock characteristics.
//
// The rt engine (src/rt/) runs the same protocol code as the simulator on
// a shard-per-core executor. This bench records what that costs on real
// hardware:
//
//  * mailbox mode — raw MPSC mailbox throughput of the lock-free ring:
//    P producer threads blast messages at one consumer thread. Reported
//    as msgs/sec. This is the per-hop floor of everything the rt engine
//    does.
//
//  * e2e mode — a full crash-faulted lossy dining scenario on the rt
//    engine (ring of waitfree diners, heartbeat ◇P₁, live monitors).
//    Reported as recorded events/sec (transport events + trace events per
//    wall second) plus meals completed. The online monitors double as a
//    correctness canary: any disagreement with the post-hoc checkers
//    fails the bench.
//
// Row keys keep their "/lockfree" suffix from when a mutex mailbox ran
// beside the ring, so artifacts stay comparable across versions.
//
// Wall-clock numbers are machine- and load-dependent, so unlike E21 this
// bench is NOT perf-gated in CI — the JSON is recorded as an artifact to
// make trends visible across runners (see EXPERIMENTS.md §E22).
//
// Flags:
//   --smoke       CI-sized run (smaller budgets, shorter horizons)
//   --json PATH   machine-readable results (BENCH_e22.json in CI)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/mailbox.hpp"
#include "scenario/rt_scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::ProcessId;
using sim::Time;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string mode;  // "mailbox" | "e2e"
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t meals = 0;  // e2e only
  [[nodiscard]] std::uint64_t per_sec() const {
    return wall_s <= 0.0 ? 0 : static_cast<std::uint64_t>(static_cast<double>(events) / wall_s);
  }
  [[nodiscard]] std::string key() const { return mode + "/lockfree"; }
};

Result run_mailbox(int producers, std::uint64_t per_producer) {
  rt::MpscRingMailbox mb(1024);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&mb, p, per_producer] {
      sim::Message m;
      m.from = static_cast<ProcessId>(p);
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        m.seq = i;
        while (!mb.try_push(m)) std::this_thread::yield();
      }
    });
  }
  const std::uint64_t total = static_cast<std::uint64_t>(producers) * per_producer;
  std::uint64_t popped = 0;
  sim::Message out;
  while (popped < total) {
    if (mb.try_pop(out)) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : threads) t.join();
  Result r;
  r.mode = "mailbox";
  r.events = total;
  r.wall_s = seconds_since(t0);
  return r;
}

/// Full rt dining scenario; returns the result plus whether the online
/// monitors agreed with the post-hoc checkers (the canary).
Result run_e2e(Time horizon, bool& agreement_ok) {
  scenario::Config cfg;
  cfg.engine = scenario::Engine::kRt;
  cfg.seed = 2026;
  cfg.topology = "ring";
  cfg.n = 8;
  cfg.algorithm = scenario::Algorithm::kWaitFree;
  cfg.detector = scenario::DetectorKind::kHeartbeat;
  cfg.net_mode = scenario::NetMode::kLossy;
  cfg.observability = true;
  cfg.crashes = {{2, horizon / 3}, {5, horizon / 2}};
  cfg.run_for = horizon;

  scenario::RtScenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  Result r;
  r.mode = "e2e";
  r.wall_s = seconds_since(t0);
  r.events = s.event_log()->size() + s.trace().size();
  r.meals = s.trace().count(dining::TraceEventKind::kStartEating);
  const std::string agreement = s.monitor_agreement();
  if (!agreement.empty()) {
    std::fprintf(stderr, "E22 e2e: MONITOR DISAGREEMENT\n%s\n", agreement.c_str());
    agreement_ok = false;
  }
  return r;
}

void write_json(const std::string& path, const std::vector<Result>& results, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e22_rtruntime\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"key\": \"" << r.key() << "\", \"mode\": \"" << r.mode
        << "\", \"events\": " << r.events
        << ", \"wall_s\": " << r.wall_s << ", \"per_sec\": " << r.per_sec()
        << ", \"meals\": " << r.meals << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const int producers = 4;
  const std::uint64_t per_producer = smoke ? 100'000 : 500'000;
  const Time horizon = smoke ? 2'000 : 20'000;  // ticks of 100 µs

  std::printf("E22: rt runtime wall-clock characteristics%s\n",
              smoke ? " (smoke)" : "");

  bool agreement_ok = true;
  const std::vector<Result> results = {run_mailbox(producers, per_producer),
                                       run_e2e(horizon, agreement_ok)};

  util::Table t({"mode", "events", "wall_s", "per_sec", "meals"});
  for (const Result& r : results) {
    t.row()
        .cell(r.mode)
        .cell(r.events)
        .cell(r.wall_s, 3)
        .cell(r.per_sec())
        .cell(r.meals);
  }
  t.print();

  if (!json_path.empty()) {
    write_json(json_path, results, smoke);
    std::printf("results written to %s\n", json_path.c_str());
  }
  if (!agreement_ok) {
    std::fprintf(stderr, "E22: online/post-hoc monitor disagreement (see above)\n");
    return 1;
  }
  return 0;
}
