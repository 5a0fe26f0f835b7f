// E21 — simulator hot-path throughput (perf trajectory baseline).
//
// Every experiment, fuzz sweep and model-checking run in this repository
// executes through sim::Simulator; this bench pins down the substrate's
// raw speed so later PRs can prove (or disprove) that they made it faster:
//
//  * timed mode — a self-sustaining ping/ack echo storm on the dining
//    layer over ring/grid/clique topologies at several sizes. Every
//    delivery triggers exactly one reply, so the in-flight population is
//    constant and the measured quantity is pure per-event cost
//    (envelope construction, FIFO stamping, queue push/pop, dispatch).
//    Reported as events/sec.
//
//  * controlled mode — the model-checking driver loop: enumerate
//    `eligible_events()`, pick one, `execute_event()`. This is exactly
//    the inner loop mc::Explorer multiplies across millions of states;
//    its cost is dominated by per-channel FIFO eligibility. Reported as
//    states/sec (one executed event = one state transition).
//
// Flags:
//   --smoke               CI-sized run (smaller n, shorter horizons)
//   --json PATH           machine-readable results (BENCH_e21.json in CI)
//   --check-against PATH  compare against a previously recorded JSON and
//                         exit non-zero if any matching metric regressed
//                         by more than 15% (perf gate; activates once a
//                         baseline is checked in — see docs/PERF.md)
//   --telemetry PATH      run one extra SMALL instrumented echo storm and
//                         write its metrics-registry snapshot as JSONL
//   --perfetto PATH       same extra run, exported as Chrome trace-event
//                         JSON (open at https://ui.perfetto.dev)
//
// The telemetry/perfetto run is separate from — and never counted in —
// the timed results above, so the perf gate always measures the
// uninstrumented hot path (registry pointers null, zero-cost discipline).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "core/messages.hpp"
#include "graph/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/telemetry.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_log.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::MsgLayer;
using sim::ProcessId;
using sim::Time;

namespace {

/// Replies to every Ping with an Ack and every Ack with a Ping: one send
/// per delivery, forever — constant channel population, pure hot path.
class Echo final : public sim::Actor {
 public:
  explicit Echo(std::vector<ProcessId> neighbors) : neighbors_(std::move(neighbors)) {}

  void on_start() override {
    for (ProcessId n : neighbors_) send(n, core::Ping{}, MsgLayer::kDining);
  }

  void on_message(const sim::Message& m) override {
    if (m.as<core::Ping>() != nullptr) {
      send(m.from, core::Ack{}, MsgLayer::kDining);
    } else if (m.as<core::Ack>() != nullptr) {
      send(m.from, core::Ping{}, MsgLayer::kDining);
    }
  }

 private:
  std::vector<ProcessId> neighbors_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string mode;      // "timed" | "controlled"
  std::string topology;
  std::size_t n = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  [[nodiscard]] std::uint64_t per_sec() const {
    return wall_s <= 0.0 ? 0 : static_cast<std::uint64_t>(static_cast<double>(events) / wall_s);
  }
  [[nodiscard]] std::string key() const {
    return mode + "/" + topology + "/" + std::to_string(n);
  }
};

// Runs until ~`budget` events have been processed (advancing simulated
// time in chunks), so every topology/size pays for the same amount of
// work regardless of how event-dense it is per simulated tick.
Result run_timed(const std::string& topo_name, const graph::ConflictGraph& g,
                 std::uint64_t budget) {
  sim::Simulator sim(/*seed=*/2026, sim::make_uniform_delay(1, 10));
  for (std::size_t p = 0; p < g.size(); ++p) {
    sim.make_actor<Echo>(g.neighbors(static_cast<ProcessId>(p)));
  }
  sim.start();
  const auto t0 = std::chrono::steady_clock::now();
  while (sim.events_processed() < budget) sim.run_until(sim.now() + 50);
  Result r;
  r.mode = "timed";
  r.topology = topo_name;
  r.n = g.size();
  r.events = sim.events_processed();
  r.wall_s = seconds_since(t0);
  return r;
}

Result run_controlled(const std::string& topo_name, const graph::ConflictGraph& g,
                      std::uint64_t steps) {
  sim::Simulator sim(/*seed=*/7, nullptr, sim::ExecMode::kControlled);
  for (std::size_t p = 0; p < g.size(); ++p) {
    sim.make_actor<Echo>(g.neighbors(static_cast<ProcessId>(p)));
  }
  sim.start();
  sim::Rng pick(99);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  for (; done < steps; ++done) {
    const auto evs = sim.eligible_events();
    if (evs.empty()) break;
    sim.execute_event(evs[pick.index(evs.size())].id);
  }
  Result r;
  r.mode = "controlled";
  r.topology = topo_name;
  r.n = g.size();
  r.events = done;
  r.wall_s = seconds_since(t0);
  return r;
}

void write_json(const std::string& path, const std::vector<Result>& results, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e21_simthroughput\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"key\": \"" << r.key() << "\", \"mode\": \"" << r.mode
        << "\", \"topology\": \"" << r.topology << "\", \"n\": " << r.n
        << ", \"events\": " << r.events << ", \"wall_s\": " << r.wall_s
        << ", \"per_sec\": " << r.per_sec() << "}" << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
}

// One deliberately small fully-instrumented run: the same echo storm with
// the metrics registry attached and an EventLog recording every envelope.
// Feeds --telemetry (registry snapshot as one JSONL line) and --perfetto
// (the log rendered as Chrome trace-event JSON). Kept out of `results` so
// instrumentation cost can never leak into the perf gate.
int run_instrumented(const std::string& telemetry_path, const std::string& perfetto_path) {
  const auto g = graph::ring(8);
  sim::Simulator sim(/*seed=*/2026, sim::make_uniform_delay(1, 10));
  sim::EventLog log(/*cap=*/20'000);
  sim.set_event_log(&log);
  obs::MetricsRegistry reg;
  obs::attach_simulator_metrics(sim, reg);
  for (std::size_t p = 0; p < g.size(); ++p) {
    sim.make_actor<Echo>(g.neighbors(static_cast<ProcessId>(p)));
  }
  sim.start();
  while (sim.events_processed() < 5'000) sim.run_until(sim.now() + 50);
  obs::collect_network_metrics(sim.network(), reg);
  obs::collect_event_log_metrics(log, reg);

  if (!telemetry_path.empty()) {
    std::ofstream out(telemetry_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "e21: cannot write %s\n", telemetry_path.c_str());
      return 2;
    }
    out << "{\"experiment\":\"e21_simthroughput\",\"mode\":\"instrumented\",\"metrics\":"
        << reg.to_json() << "}\n";
    std::printf("telemetry written to %s\n", telemetry_path.c_str());
  }
  if (!perfetto_path.empty()) {
    std::ofstream out(perfetto_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "e21: cannot write %s\n", perfetto_path.c_str());
      return 2;
    }
    out << obs::chrome_trace_json(&log, nullptr);
    std::printf("perfetto trace written to %s (open at https://ui.perfetto.dev)\n",
                perfetto_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string baseline_path;
  std::string telemetry_path;
  std::string perfetto_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--check-against PATH]\n"
                   "          [--telemetry PATH] [--perfetto PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("E21 — simulator hot-path throughput%s\n\n", smoke ? " (smoke)" : "");

  std::vector<Result> results;

  // -- timed mode: events/sec over topology x size ------------------------
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16, 64} : std::vector<std::size_t>{16, 64, 256};
  const std::uint64_t budget = smoke ? 300'000 : 2'000'000;
  for (std::size_t n : sizes) {
    results.push_back(run_timed("ring", graph::ring(n), budget));
    std::size_t side = 4;
    while (side * side < n) ++side;
    results.push_back(run_timed("grid", graph::grid(side, side), budget));
    results.push_back(run_timed("clique", graph::clique(n), budget));
  }

  // -- controlled mode: states/sec in the mc driver loop ------------------
  // Sized so the pending-event population (one message per directed edge)
  // matches what Explorer actually sweeps: eligibility cost dominates.
  const std::uint64_t steps = smoke ? 8'000 : 30'000;
  results.push_back(run_controlled("ring", graph::ring(32), steps));
  results.push_back(run_controlled("clique", graph::clique(16), steps));

  util::Table table({"mode", "topology", "n", "events", "wall s", "per sec"});
  for (const Result& r : results) {
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", r.wall_s);
    table.row()
        .cell(r.mode)
        .cell(r.topology)
        .cell(static_cast<std::uint64_t>(r.n))
        .cell(r.events)
        .cell(wall)
        .cell(r.per_sec());
  }
  table.print();

  if (!json_path.empty()) {
    write_json(json_path, results, smoke);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline_rows(baseline_path);
    if (!baseline) {
      std::fprintf(stderr, "e21: cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    int regressions = 0;
    for (const obs::json::Value& row : *baseline) {
      const std::string key = bench::row_key(row);
      const double base = row.num_or("per_sec", 0.0);
      for (const Result& r : results) {
        if (r.key() != key || base <= 0.0) continue;
        const double ratio = static_cast<double>(r.per_sec()) / base;
        if (ratio < 0.85) {
          std::fprintf(stderr, "e21 REGRESSION: %s at %.0f/s vs baseline %.0f/s (%.2fx)\n",
                       key.c_str(), static_cast<double>(r.per_sec()), base, ratio);
          ++regressions;
        }
      }
    }
    if (regressions > 0) return 1;
    std::printf("perf gate: no metric regressed more than 15%% vs %s\n",
                baseline_path.c_str());
  }

  if (!telemetry_path.empty() || !perfetto_path.empty()) {
    std::printf("\n");
    const int rc = run_instrumented(telemetry_path, perfetto_path);
    if (rc != 0) return rc;
  }
  return 0;
}
