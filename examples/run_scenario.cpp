// run_scenario — command-line front end to the whole library.
//
// Builds any experiment from flags, runs it, prints the property reports
// for the paper's theorems, and (optionally) an ASCII Gantt chart of the
// schedule: one row per philosopher, time left to right,
//   '#' eating, '-' hungry, ' ' thinking, 'X' crashed.
//
// Examples:
//   ./run_scenario --topology clique --n 6 --crash 2@10000
//   ./run_scenario --algorithm chandy-misra --detector none --gantt
//   ./run_scenario --topology star --n 9 --detector heartbeat --gantt
//   ./run_scenario --algorithm hierarchical --think 1:8 --eat 40:100 --gantt
//
// Workload harness (any load flag runs scenario::LoadScenario: open-loop
// arrivals instead of the closed think/eat loop):
//   ./run_scenario --rate 4 --churn 30 --recover 2@15000:30000
//   ./run_scenario --arrivals bursty --rate 3 --burst 2000:8000
//   ./run_scenario --sweep 1,2,4,8,16,32 --n 12 --topology sparse
//   ./run_scenario --engine rt --rate 3 --run-for 4000 --n 6
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dining/checkers.hpp"
#include "dining/trace_io.hpp"
#include "scenario/load_scenario.hpp"
#include "scenario/proc_scenario.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using scenario::Algorithm;
using scenario::Config;
using scenario::DetectorKind;
using scenario::Scenario;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --topology NAME      ring|path|clique|star|grid|tree|random|sparse|\n"
      "                       hypercube|torus|bipartite (default ring)\n"
      "  --n N                number of processes (default 8)\n"
      "  --algorithm A        waitfree|choy-singh|choy-singh-1ack|hierarchical|\n"
      "                       chandy-misra (default waitfree)\n"
      "  --detector D         scripted|heartbeat|pingpong|pingpong-ondemand|\n"
      "                       accrual|perfect|none (default scripted; rt and proc\n"
      "                       engines remap scripted to heartbeat)\n"
      "  --engine E           sim|rt|proc (default sim; rt = shard-per-core\n"
      "                       executor over OS threads, wall-clock timers, live\n"
      "                       invariant monitors; proc = one OS process per node\n"
      "                       over UDP loopback, SIGKILL crashes, post-hoc\n"
      "                       monitors over merged shipped logs)\n"
      "  --net M              ideal|lossy (default ideal; rt lossy = detector-layer\n"
      "                       drop/dup coins, sim/proc lossy = link faults + ARQ)\n"
      "  --tick-ns NS         rt/proc engines: wall nanoseconds per tick\n"
      "                       (default 100000)\n"
      "  --shards C           rt engine: worker shards (default 0 = one per\n"
      "                       hardware core; n = thread-per-actor)\n"
      "  --log-cap N          rt engine: cap the recorded EventLog at N events\n"
      "                       (default 0 = unbounded; drops are counted)\n"
      "  --telemetry-every T  rt engine: live JSONL snapshot every T ticks\n"
      "  --telemetry-out F    rt engine: write the live snapshots to F\n"
      "  --seed S             RNG seed (default 1)\n"
      "  --run-for T          time horizon in ticks (default 60000; rt runs\n"
      "                       run-for x tick-ns wall nanoseconds)\n"
      "  --crash P@T          crash process P at time T (repeatable)\n"
      "  --think LO:HI        think-time range (default 50:300)\n"
      "  --eat LO:HI          eat-duration range (default 20:60)\n"
      "  --fp COUNT:UNTIL     scripted false positives (default 0:0)\n"
      "  --acks M             ack budget per session (default 1; k = M+1)\n"
      "\n"
      "Workload harness (sim/rt engines, waitfree only; any of these flags\n"
      "runs open-loop arrivals instead of the closed think/eat loop):\n"
      "  --rate R             R arrivals per 1000 ticks per actor (default 5)\n"
      "  --arrivals K         poisson|uniform|bursty arrival model (default\n"
      "                       poisson)\n"
      "  --global             one global stream dealt across actors instead\n"
      "                       of an independent stream per actor\n"
      "  --gap LO:HI          uniform model: inter-arrival gap bounds\n"
      "  --burst B:I          bursty model: burst/idle phase lengths in ticks\n"
      "  --burst-factor F     bursty model: burst rate multiplier (default 8)\n"
      "  --churn N            N conflict-graph edge mutations spread over the\n"
      "                       run, recolored incrementally\n"
      "  --churn-window A:B   confine churn to [A, B] (default middle 80%%)\n"
      "  --recover P@T1:T2    crash process P at T1 and bring it back at T2\n"
      "                       (repeatable; --crash alone = crash forever)\n"
      "  --sweep R1,R2,...    run once per rate, print the latency curve (the\n"
      "                       knee where p99 leaves p50 is the capacity); exit\n"
      "                       1 on any monitor disagreement\n"
      "\n"
      "Output:\n"
      "  --gantt              print the schedule as an ASCII Gantt chart\n"
      "  --gantt-width W      chart width in columns (default 100)\n"
      "  --dump FILE          write the execution trace as JSON lines\n"
      "\n"
      "Flags are validated against the selected engine: an engine-specific\n"
      "flag combined with a different --engine is an error (this usage), not\n"
      "a silent fallback.\n",
      argv0);
  std::exit(2);
}

bool parse_pair(const char* s, long long& a, long long& b, char sep) {
  char* end = nullptr;
  a = std::strtoll(s, &end, 10);
  if (end == nullptr || *end != sep) return false;
  b = std::strtoll(end + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

// "P@T1:T2" — a crash-recovery cycle for --recover.
bool parse_triple(const char* s, long long& a, long long& b, long long& c) {
  char* end = nullptr;
  a = std::strtoll(s, &end, 10);
  if (end == nullptr || *end != '@') return false;
  b = std::strtoll(end + 1, &end, 10);
  if (end == nullptr || *end != ':') return false;
  c = std::strtoll(end + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

// "R1,R2,..." — the offered rates for --sweep (each > 0).
std::vector<double> parse_rates(const char* s) {
  std::vector<double> rates;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const double r = std::strtod(p, &end);
    if (end == p || r <= 0.0) return {};
    rates.push_back(r);
    p = (*end == ',') ? end + 1 : end;
    if (end == p - 1 && *p == '\0') return {};  // trailing comma
  }
  return rates;
}

Algorithm parse_algorithm(const std::string& s) {
  if (s == "waitfree") return Algorithm::kWaitFree;
  if (s == "choy-singh") return Algorithm::kChoySingh;
  if (s == "choy-singh-1ack") return Algorithm::kChoySinghSingleAck;
  if (s == "hierarchical") return Algorithm::kHierarchical;
  if (s == "chandy-misra") return Algorithm::kChandyMisra;
  std::fprintf(stderr, "unknown algorithm: %s\n", s.c_str());
  std::exit(2);
}

DetectorKind parse_detector(const std::string& s) {
  if (s == "scripted") return DetectorKind::kScripted;
  if (s == "heartbeat") return DetectorKind::kHeartbeat;
  if (s == "pingpong") return DetectorKind::kPingPong;
  if (s == "pingpong-ondemand") return DetectorKind::kPingPong;  // + on_demand below
  if (s == "accrual") return DetectorKind::kAccrual;
  if (s == "perfect") return DetectorKind::kPerfect;
  if (s == "none") return DetectorKind::kNever;
  std::fprintf(stderr, "unknown detector: %s\n", s.c_str());
  std::exit(2);
}

void print_gantt(const dining::Trace& trace, const Config& cfg, int width) {
  const auto n = cfg.n;
  const sim::Time horizon = cfg.run_for;
  const auto w = static_cast<std::size_t>(width);
  const double bucket = static_cast<double>(horizon) / static_cast<double>(width);

  // Time spent per (process, bucket, state): 0 think, 1 hungry, 2 eat, 3 dead.
  std::vector<std::array<std::vector<double>, 4>> spent(n);
  for (auto& a : spent) {
    for (auto& v : a) v.assign(w, 0.0);
  }
  std::vector<int> state(n, 0);
  std::vector<sim::Time> since(n, 0);

  auto credit = [&](std::size_t p, sim::Time from, sim::Time to, int st) {
    if (to <= from) return;
    auto b0 = static_cast<std::size_t>(static_cast<double>(from) / bucket);
    auto b1 = static_cast<std::size_t>(static_cast<double>(to - 1) / bucket);
    b0 = std::min(b0, w - 1);
    b1 = std::min(b1, w - 1);
    for (std::size_t b = b0; b <= b1; ++b) {
      const double lo = std::max(static_cast<double>(from), static_cast<double>(b) * bucket);
      const double hi =
          std::min(static_cast<double>(to), static_cast<double>(b + 1) * bucket);
      if (hi > lo) spent[p][static_cast<std::size_t>(st)][b] += hi - lo;
    }
  };

  for (const auto& e : trace.events()) {
    const auto p = static_cast<std::size_t>(e.process);
    int next = state[p];
    switch (e.kind) {
      case dining::TraceEventKind::kBecameHungry: next = 1; break;
      case dining::TraceEventKind::kStartEating: next = 2; break;
      case dining::TraceEventKind::kStopEating: next = 0; break;
      case dining::TraceEventKind::kCrashed: next = 3; break;
      case dining::TraceEventKind::kRecovered: next = 0; break;
      default: continue;
    }
    credit(p, since[p], e.at, state[p]);
    state[p] = next;
    since[p] = e.at;
  }
  for (std::size_t p = 0; p < n; ++p) credit(p, since[p], horizon, state[p]);

  // Glyph: dominant state in the bucket; eating shown proportionally
  // ('#' majority, '+' some eating) so short meals stay visible.
  static const char kGlyph[4] = {' ', '-', '#', 'X'};
  std::printf(
      "\nschedule (one column = %.0f ticks; '#' mostly eating, '+' some eating,\n"
      "'-' hungry, ' ' thinking, 'X' crashed):\n",
      bucket);
  for (std::size_t p = 0; p < n; ++p) {
    std::string row(w, ' ');
    for (std::size_t b = 0; b < w; ++b) {
      int best = 0;
      for (int st = 1; st < 4; ++st) {
        if (spent[p][static_cast<std::size_t>(st)][b] >
            spent[p][static_cast<std::size_t>(best)][b]) {
          best = st;
        }
      }
      char g = kGlyph[best];
      if (best != 2 && best != 3 && spent[p][2][b] > 0.0) g = '+';
      row[b] = g;
    }
    std::printf("p%-3zu |%s|\n", p, row.c_str());
  }
}

// Property reports every engine answers the same way, over its books.
void print_reports(const scenario::Reports& s, const Config& cfg, sim::Time conv) {
  const scenario::Books b = s.books();
  auto wf = s.wait_freedom(cfg.run_for / 4);
  auto ex = s.exclusion();
  auto census = s.census();
  auto cp = dining::concurrency_profile(b.trace, b.graph);

  util::Table t({"metric", "value"});
  t.row().cell("meals").cell(static_cast<std::uint64_t>(
      b.trace.count(dining::TraceEventKind::kStartEating)));
  t.row().cell("hungry sessions (total/completed)").cell(
      std::to_string(wf.sessions_total) + "/" + std::to_string(wf.sessions_completed));
  t.row().cell("starving processes").cell(static_cast<std::uint64_t>(wf.starving.size()));
  t.row().cell("response time mean/p95").cell(
      std::to_string(static_cast<long long>(wf.response.mean)) + "/" +
      std::to_string(static_cast<long long>(wf.response.p95)));
  t.row().cell("exclusion violations (total)").cell(
      static_cast<std::uint64_t>(ex.violations.size()));
  t.row().cell("violations after FD convergence").cell(
      static_cast<std::uint64_t>(ex.violations_after(conv)));
  t.row().cell("max overtakes (after convergence)").cell(
      dining::max_overtakes(census, conv));
  t.row().cell("max dining msgs in transit per edge").cell(
      b.network.max_in_transit_any(sim::MsgLayer::kDining));
  t.row().cell("mean concurrent eaters").cell(cp.mean_concurrent_eaters, 2);
  t.row().cell("dining / detector messages").cell(
      std::to_string(b.network.total_sent(sim::MsgLayer::kDining)) + " / " +
      std::to_string(b.network.total_sent(sim::MsgLayer::kDetector)));
  t.print();
}

void print_load_reports(const scenario::LoadScenario& s) {
  const obs::Histogram lat = s.latency();
  util::Table lt({"load metric", "value"});
  lt.row().cell("offered / completed / dropped").cell(
      std::to_string(s.book().offered()) + " / " + std::to_string(s.book().completed()) +
      " / " + std::to_string(s.book().dropped()));
  lt.row().cell("backlog high-water").cell(s.overload().backlog_high_water());
  lt.row().cell("overloaded at horizon").cell(
      std::string(s.overload().overloaded() ? "yes" : "no") + " (" +
      std::to_string(s.overload().overloaded_samples()) + "/" +
      std::to_string(s.overload().samples()) + " samples)");
  lt.row().cell("churn planned / issued / skipped").cell(
      std::to_string(s.churn_plan().ops.size()) + " / " + std::to_string(s.churn_issued()) +
      " / " + std::to_string(s.churn_skipped()));
  lt.row().cell("hungry->eat p50/p99/p999").cell(
      std::to_string(static_cast<long long>(lat.quantile(0.50))) + "/" +
      std::to_string(static_cast<long long>(lat.quantile(0.99))) + "/" +
      std::to_string(static_cast<long long>(lat.quantile(0.999))) + " (" +
      std::to_string(lat.count()) + " sessions)");
  lt.print();
}

// Latency/throughput curve: the same workload once per offered rate.
int run_sweep(const scenario::LoadConfig& lc, const std::vector<double>& rates) {
  util::Table t({"rate/kt", "offered", "completed", "dropped", "backlog", "p50", "p99",
                 "p999", "overloaded"});
  bool all_agree = true;
  for (const double rate : rates) {
    scenario::LoadConfig point = lc;
    point.arrivals.rate_per_kilotick = rate;
    scenario::LoadScenario s(point);
    s.run();
    const obs::Histogram lat = s.latency();
    t.row()
        .cell(rate, 2)
        .cell(s.book().offered())
        .cell(s.book().completed())
        .cell(s.book().dropped())
        .cell(s.overload().backlog_high_water())
        .cell(static_cast<std::uint64_t>(lat.quantile(0.50)))
        .cell(static_cast<std::uint64_t>(lat.quantile(0.99)))
        .cell(static_cast<std::uint64_t>(lat.quantile(0.999)))
        .cell(s.overload().overloaded() ? "yes" : "no");
    const std::string agreement = s.monitor_agreement();
    if (!agreement.empty()) {
      all_agree = false;
      std::printf("MONITOR DISAGREEMENT at rate %.2f:\n%s\n", rate, agreement.c_str());
    }
  }
  t.print();
  std::printf(all_agree ? "online monitors agree with post-hoc checkers at every rate\n"
                        : "monitor disagreement — see above\n");
  return all_agree ? 0 : 1;
}

int dump_trace(const dining::Trace& trace, const std::string& dump_path) {
  if (dump_path.empty()) return 0;
  if (ekbd::dining::write_jsonl_file(trace, dump_path)) {
    std::printf("trace written to %s (%zu events)\n", dump_path.c_str(), trace.size());
    return 0;
  }
  std::fprintf(stderr, "failed to write %s\n", dump_path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.run_for = 60'000;
  bool gantt = false;
  int gantt_width = 100;
  std::string dump_path;

  // Workload-harness flags (any of them routes the run through
  // scenario::LoadScenario — open-loop arrivals instead of the closed
  // think/eat loop).
  scenario::LoadConfig lc;
  bool load_mode = false;
  std::vector<double> sweep;

  // Engine-specific flags remembered by name so a mismatched --engine is
  // an explicit error after the loop (flags may precede --engine).
  std::vector<std::string> rt_only_flags;
  bool tick_ns_set = false;  // rt + proc
  bool fp_set = false;       // sim + scripted detector only

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--topology") {
      cfg.topology = next();
    } else if (arg == "--n") {
      cfg.n = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--algorithm") {
      cfg.algorithm = parse_algorithm(next());
    } else if (arg == "--detector") {
      const std::string d = next();
      cfg.detector = parse_detector(d);
      if (d == "pingpong-ondemand") cfg.pingpong.on_demand = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--run-for") {
      cfg.run_for = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--crash") {
      long long p = 0, t = 0;
      if (!parse_pair(next(), p, t, '@')) usage(argv[0]);
      cfg.crashes.emplace_back(static_cast<sim::ProcessId>(p), t);
    } else if (arg == "--think") {
      long long lo = 0, hi = 0;
      if (!parse_pair(next(), lo, hi, ':')) usage(argv[0]);
      cfg.harness.think_lo = lo;
      cfg.harness.think_hi = hi;
    } else if (arg == "--eat") {
      long long lo = 0, hi = 0;
      if (!parse_pair(next(), lo, hi, ':')) usage(argv[0]);
      cfg.harness.eat_lo = lo;
      cfg.harness.eat_hi = hi;
    } else if (arg == "--fp") {
      long long count = 0, until = 0;
      if (!parse_pair(next(), count, until, ':')) usage(argv[0]);
      cfg.fp_count = static_cast<std::size_t>(count);
      cfg.fp_until = until;
      fp_set = true;
    } else if (arg == "--rate") {
      lc.arrivals.rate_per_kilotick = std::strtod(next(), nullptr);
      if (!(lc.arrivals.rate_per_kilotick > 0.0)) {
        std::fprintf(stderr, "--rate must be > 0\n");
        return 2;
      }
      load_mode = true;
    } else if (arg == "--arrivals") {
      const std::string k = next();
      if (k == "poisson") {
        lc.arrivals.kind = load::ArrivalKind::kPoisson;
      } else if (k == "uniform") {
        lc.arrivals.kind = load::ArrivalKind::kUniform;
      } else if (k == "bursty") {
        lc.arrivals.kind = load::ArrivalKind::kBursty;
      } else {
        std::fprintf(stderr, "unknown arrival model: %s\n", k.c_str());
        return 2;
      }
      load_mode = true;
    } else if (arg == "--global") {
      lc.arrivals.per_actor = false;
      load_mode = true;
    } else if (arg == "--gap") {
      long long lo = 0, hi = 0;
      if (!parse_pair(next(), lo, hi, ':')) usage(argv[0]);
      lc.arrivals.gap_lo = lo;
      lc.arrivals.gap_hi = hi;
      load_mode = true;
    } else if (arg == "--burst") {
      long long b = 0, idle = 0;
      if (!parse_pair(next(), b, idle, ':')) usage(argv[0]);
      lc.arrivals.burst_len = b;
      lc.arrivals.idle_len = idle;
      load_mode = true;
    } else if (arg == "--burst-factor") {
      lc.arrivals.burst_factor = std::strtod(next(), nullptr);
      load_mode = true;
    } else if (arg == "--churn") {
      lc.churn.mutations = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
      load_mode = true;
    } else if (arg == "--churn-window") {
      long long a = 0, b = 0;
      if (!parse_pair(next(), a, b, ':')) usage(argv[0]);
      lc.churn.start = a;
      lc.churn.end = b;
      load_mode = true;
    } else if (arg == "--recover") {
      long long p = 0, t1 = 0, t2 = 0;
      if (!parse_triple(next(), p, t1, t2) || t2 <= t1) usage(argv[0]);
      lc.recoveries.push_back({static_cast<sim::ProcessId>(p), t1, t2});
      load_mode = true;
    } else if (arg == "--sweep") {
      sweep = parse_rates(next());
      if (sweep.empty()) usage(argv[0]);
      load_mode = true;
    } else if (arg == "--acks") {
      cfg.acks_per_session = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--engine") {
      const std::string e = next();
      if (e == "sim") {
        cfg.engine = scenario::Engine::kSim;
      } else if (e == "rt") {
        cfg.engine = scenario::Engine::kRt;
      } else if (e == "proc") {
        cfg.engine = scenario::Engine::kProc;
      } else {
        std::fprintf(stderr, "unknown engine: %s (expected sim|rt|proc)\n", e.c_str());
        return 2;
      }
    } else if (arg == "--net") {
      const std::string m = next();
      if (m == "ideal") {
        cfg.net_mode = scenario::NetMode::kIdeal;
      } else if (m == "lossy") {
        cfg.net_mode = scenario::NetMode::kLossy;
      } else {
        std::fprintf(stderr, "unknown net mode: %s\n", m.c_str());
        return 2;
      }
    } else if (arg == "--tick-ns") {
      cfg.rt_tick_ns = std::strtoull(next(), nullptr, 10);
      tick_ns_set = true;
    } else if (arg == "--shards") {
      cfg.rt_shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
      rt_only_flags.push_back(arg);
    } else if (arg == "--log-cap") {
      cfg.rt_event_log_cap = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
      rt_only_flags.push_back(arg);
    } else if (arg == "--telemetry-every") {
      cfg.rt_telemetry_interval = std::strtoll(next(), nullptr, 10);
      rt_only_flags.push_back(arg);
    } else if (arg == "--telemetry-out") {
      cfg.rt_telemetry_path = next();
      rt_only_flags.push_back(arg);
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--gantt-width") {
      gantt_width = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--dump") {
      dump_path = next();
    } else {
      usage(argv[0]);
    }
  }

  // Reject engine-mismatched flag combinations up front: a flag the
  // selected engine would silently ignore is a config mistake, and the
  // run it produces is not the run the user asked for.
  if (cfg.engine != scenario::Engine::kRt && !rt_only_flags.empty()) {
    std::fprintf(stderr, "%s is rt-engine only (got --engine %s)\n",
                 rt_only_flags.front().c_str(), scenario::to_string(cfg.engine).c_str());
    usage(argv[0]);
  }
  if (tick_ns_set && cfg.engine == scenario::Engine::kSim) {
    std::fprintf(stderr,
                 "--tick-ns needs a wall-clock engine (--engine rt or proc); "
                 "sim time is virtual\n");
    usage(argv[0]);
  }
  if (fp_set &&
      (cfg.engine != scenario::Engine::kSim || cfg.detector != DetectorKind::kScripted)) {
    std::fprintf(stderr,
                 "--fp drives the scripted detector, which only the sim engine has "
                 "(got --engine %s, --detector %s)\n",
                 scenario::to_string(cfg.engine).c_str(),
                 scenario::to_string(cfg.detector).c_str());
    usage(argv[0]);
  }

  if (load_mode && cfg.detector == DetectorKind::kScripted) {
    // The scripted oracle neither follows recoveries nor sees churned
    // edges; the perfect detector is the harness default.
    std::printf("note: workload harness uses the perfect detector instead of scripted\n");
    cfg.detector = DetectorKind::kPerfect;
  }

  if (cfg.detector == DetectorKind::kHeartbeat || cfg.detector == DetectorKind::kPingPong) {
    cfg.partial_synchrony = true;
  } else {
    cfg.partial_synchrony = false;
  }

  if (cfg.engine != scenario::Engine::kSim && cfg.detector == DetectorKind::kScripted) {
    // The scripted oracle is written against virtual time; on real
    // threads/processes the natural ◇P₁ stand-in is the heartbeat module.
    std::printf("note: %s engine has no scripted detector; using heartbeat\n",
                scenario::to_string(cfg.engine).c_str());
    cfg.detector = DetectorKind::kHeartbeat;
  }

  std::printf("scenario: %s(%zu), engine=%s, algorithm=%s, detector=%s, seed=%llu, "
              "horizon=%lld\n",
              cfg.topology.c_str(), cfg.n, scenario::to_string(cfg.engine).c_str(),
              scenario::to_string(cfg.algorithm).c_str(),
              scenario::to_string(cfg.detector).c_str(),
              static_cast<unsigned long long>(cfg.seed),
              static_cast<long long>(cfg.run_for));

  // Run on the selected engine; everything after the run reads the books.
  // A Config the engine cannot run (scenario::validate) is a usage error.
  const auto build = [&](auto make) {
    try {
      return make();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
    }
  };
  std::unique_ptr<scenario::Reports> run;
  sim::Time conv = 0;       // FD convergence bound (sim engine only)
  std::string replay;       // proc engine: replayed-verdict agreement
  const scenario::LoadScenario* load = nullptr;
  if (load_mode) {
    // --crash under the harness = a crash that never recovers; fold it
    // into the recovery list so the churn planner sees the window.
    for (const auto& [p, t] : cfg.crashes) lc.recoveries.push_back({p, t, -1});
    cfg.crashes.clear();
    lc.base = cfg;

    char rate[32] = "swept";
    if (sweep.empty()) std::snprintf(rate, sizeof rate, "%.2f", lc.arrivals.rate_per_kilotick);
    std::printf("workload: %s arrivals (%s) at %s/kilotick, %zu churn ops, %zu crash cycles\n",
                load::to_string(lc.arrivals.kind).c_str(),
                lc.arrivals.per_actor ? "per actor" : "global", rate, lc.churn.mutations,
                lc.recoveries.size());
    if (!sweep.empty()) return build([&] { return run_sweep(lc, sweep); });

    auto s = build([&] { return std::make_unique<scenario::LoadScenario>(lc); });
    s->run();
    if (Scenario* sim = s->sim_scenario()) conv = sim->fd_convergence_estimate();
    load = s.get();
    run = std::move(s);
  } else if (cfg.engine == scenario::Engine::kProc) {
    // Must fork before any threads exist — keep this branch first-thing.
    auto s = build([&] { return std::make_unique<scenario::ProcScenario>(cfg); });
    s->run();
    replay = s->replay_agreement();
    run = std::move(s);
  } else if (cfg.engine == scenario::Engine::kRt) {
    cfg.observability = true;  // live monitors are the point of an rt run
    auto s = build([&] { return std::make_unique<scenario::RtScenario>(cfg); });
    s->run();
    run = std::move(s);
  } else {
    auto s = build([&] { return std::make_unique<Scenario>(cfg); });
    s->run();
    conv = s->fd_convergence_estimate();
    run = std::move(s);
  }
  print_reports(*run, cfg, conv);
  if (load != nullptr) print_load_reports(*load);

  const scenario::Books books = run->books();
  const std::string agreement = books.monitors != nullptr ? run->monitor_agreement() : "";
  if (books.monitors != nullptr && agreement.empty() && replay.empty()) {
    std::printf(cfg.engine == scenario::Engine::kProc
                    ? "online monitors and replay agree with post-hoc checkers\n"
                    : "online monitors agree with post-hoc checkers\n");
  }
  if (!agreement.empty()) std::printf("MONITOR DISAGREEMENT:\n%s\n", agreement.c_str());
  if (!replay.empty()) std::printf("REPLAY DISAGREEMENT:\n%s\n", replay.c_str());
  if (gantt) print_gantt(books.trace, cfg, gantt_width);
  const int rc = dump_trace(books.trace, dump_path);
  return rc != 0 ? rc : ((agreement.empty() && replay.empty()) ? 0 : 1);
}
