// E24 — multi-process socket cluster under loss × crash × partition.
//
// The socket engine (src/netproc/) runs one OS process per philosopher
// over UDP loopback: real datagrams, real SIGKILLs, partitions injected
// at runtime through the orchestrator's control channel. This bench
// drives an 8-node grid through escalating hostility and reports, per
// condition, what the merged shipped logs say the cluster did:
//
//  * msgs/s        — physical datagrams recorded per wall second
//  * retx ratio    — physical ARQ segments (data + cumulative acks) per
//                    logical message carried: ~2 on a lossless link, and
//                    loss pushes it up through retransmission (0 when no
//                    ARQ is installed, i.e. the clean condition)
//  * hungry→eat    — response-latency percentiles (config ticks) of the
//                    completed sessions of never-crashed processes
//  * meals         — completed eating sessions across the cluster
//
// Correctness gates (any failure exits non-zero, like E22): the cluster
// must supervise cleanly (planned SIGKILLs only — a wedged or crashed
// survivor fails the run), the rebuilt monitors must agree with the
// post-hoc checkers, and a full replay of the merged logs must reproduce
// the live verdicts bit-for-bit.
//
// Wall-clock numbers are machine-dependent; the JSON is an artifact for
// cross-runner trends (see EXPERIMENTS.md §E24), not a perf gate.
//
// Flags:
//   --smoke       CI-sized run (shorter horizons)
//   --json PATH   machine-readable results (BENCH_e24.json in CI)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/proc_scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using sim::MsgLayer;
using sim::Time;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string condition;
  std::uint64_t datagrams = 0;   ///< physical sends in the merged books
  double wall_s = 0.0;
  double retx_ratio = 0.0;       ///< transport segments / logical messages
  std::uint64_t meals = 0;
  util::Summary latency;         ///< hungry→eat, config ticks
  std::uint64_t crashes = 0;
  [[nodiscard]] std::uint64_t per_sec() const {
    return wall_s <= 0.0 ? 0
                         : static_cast<std::uint64_t>(static_cast<double>(datagrams) / wall_s);
  }
};

/// One orchestrated cluster run; flips `ok` false on any gate failure.
Result run_condition(const std::string& condition, bool loss, bool crash, bool partition,
                     Time horizon, bool& ok) {
  scenario::Config cfg;
  cfg.engine = scenario::Engine::kProc;
  cfg.seed = 2026;
  cfg.topology = "grid";
  cfg.n = 8;
  cfg.algorithm = scenario::Algorithm::kWaitFree;
  cfg.detector = scenario::DetectorKind::kPerfect;
  cfg.run_for = horizon;
  cfg.link_faults = {};
  if (loss) {
    cfg.net_mode = scenario::NetMode::kLossy;
    cfg.link_faults.drop_prob = 0.1;
    cfg.link_faults.dup_prob = 0.05;
  }
  if (partition) {
    cfg.net_mode = scenario::NetMode::kLossyPartition;
    // Split half the grid off for the middle third of the run, then heal.
    cfg.partitions.push_back(net::Partition{{0, 1, 2, 3}, horizon / 3, 2 * horizon / 3});
  }
  if (crash) {
    cfg.crashes = {{2, horizon / 3}, {5, horizon / 2}};
  }

  scenario::ProcScenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();

  Result r;
  r.condition = condition;
  r.wall_s = seconds_since(t0);
  r.crashes = s.result().crashes.size();

  // Physical datagrams: every layer's sends in the rebuilt books (the
  // detector layer rides raw, dining/other ride the ARQ as kTransport
  // segments when a transport is installed).
  const sim::Network& net = s.books().network;
  for (int layer = 0; layer < sim::kNumMsgLayers; ++layer) {
    r.datagrams += net.total_sent(static_cast<MsgLayer>(layer));
  }
  const std::uint64_t logical =
      net.total_sent(MsgLayer::kDining) + net.total_sent(MsgLayer::kOther);
  const std::uint64_t transport = net.total_sent(MsgLayer::kTransport);
  r.retx_ratio = logical == 0 ? 0.0
                              : static_cast<double>(transport) / static_cast<double>(logical);
  r.meals = s.trace().count(dining::TraceEventKind::kStartEating);

  const auto wf = s.wait_freedom(horizon / 4);
  r.latency = wf.response;

  // -- gates --------------------------------------------------------------
  if (!s.result().ok) {
    std::fprintf(stderr, "E24 %s: cluster failed: %s\n", condition.c_str(),
                 s.result().error.c_str());
    ok = false;
  }
  if (!s.exclusion().violations.empty()) {
    std::fprintf(stderr, "E24 %s: exclusion violated\n", condition.c_str());
    ok = false;
  }
  if (!wf.wait_free()) {
    std::fprintf(stderr, "E24 %s: starvation among correct processes\n", condition.c_str());
    ok = false;
  }
  const std::string agreement = s.monitor_agreement();
  if (!agreement.empty()) {
    std::fprintf(stderr, "E24 %s: MONITOR DISAGREEMENT\n%s\n", condition.c_str(),
                 agreement.c_str());
    ok = false;
  }
  const std::string replay = s.replay_agreement();
  if (!replay.empty()) {
    std::fprintf(stderr, "E24 %s: REPLAY DISAGREEMENT\n%s\n", condition.c_str(),
                 replay.c_str());
    ok = false;
  }
  return r;
}

void write_json(const std::string& path, const std::vector<Result>& results, bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"e24_cluster\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"condition\": \"" << r.condition << "\", \"datagrams\": " << r.datagrams
        << ", \"wall_s\": " << r.wall_s << ", \"msgs_per_sec\": " << r.per_sec()
        << ", \"retx_ratio\": " << r.retx_ratio << ", \"meals\": " << r.meals
        << ", \"crashes\": " << r.crashes << ", \"latency_ticks\": {\"p50\": "
        << r.latency.p50 << ", \"p95\": " << r.latency.p95 << ", \"p99\": " << r.latency.p99
        << ", \"count\": " << r.latency.count << "}}"
        << (i + 1 < results.size() ? "," : "") << "\n";
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

  const Time horizon = smoke ? 9'000 : 45'000;  // ticks of 100 µs

  std::printf("E24: 8-node socket cluster under loss x crash x partition%s\n",
              smoke ? " (smoke)" : "");

  bool ok = true;
  std::vector<Result> results;
  results.push_back(run_condition("clean", false, false, false, horizon, ok));
  results.push_back(run_condition("loss", true, false, false, horizon, ok));
  results.push_back(run_condition("loss+crash", true, true, false, horizon, ok));
  results.push_back(run_condition("loss+crash+partition", true, true, true, horizon, ok));

  util::Table t({"condition", "datagrams", "msgs/s", "retx", "meals", "lat p50", "lat p99",
                 "crashes"});
  for (const Result& r : results) {
    t.row()
        .cell(r.condition)
        .cell(r.datagrams)
        .cell(r.per_sec())
        .cell(r.retx_ratio, 3)
        .cell(r.meals)
        .cell(r.latency.p50, 0)
        .cell(r.latency.p99, 0)
        .cell(r.crashes);
  }
  t.print();

  if (!json_path.empty()) {
    write_json(json_path, results, smoke);
    std::printf("results written to %s\n", json_path.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "E24: correctness gate failed (see above)\n");
    return 1;
  }
  return 0;
}
