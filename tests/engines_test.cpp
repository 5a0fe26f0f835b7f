// The layer every engine shares (scenario/scenario.hpp, sweep.hpp): one
// Config check, one Books view with one report set over it, one
// telemetry line and one sweep runner, for the sim, rt and proc engines
// and the workload harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"
#include "scenario/load_scenario.hpp"
#include "scenario/proc_scenario.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace {

namespace sc = ekbd::scenario;
namespace json = ekbd::obs::json;
using sc::Algorithm;
using sc::Config;
using sc::DetectorKind;
using sc::Engine;

// -- validate: every rejected combination throws, in every build type ------

Config config_for(Engine engine) {
  Config cfg;
  cfg.engine = engine;
  cfg.n = 4;
  cfg.detector = DetectorKind::kPerfect;
  return cfg;
}

struct Rejected {
  std::string name;
  std::string field;  ///< the field the message must name
  std::function<void()> build;
};

std::ostream& operator<<(std::ostream& os, const Rejected& r) { return os << r.name; }

template <typename S>
std::function<void()> build(Config cfg) {
  return [cfg] { S s(cfg); };
}

std::function<void()> build_load(Config base) {
  return [base] {
    sc::LoadConfig lc;
    lc.base = base;
    sc::LoadScenario s(lc);
  };
}

Config with(Config cfg, const std::function<void(Config&)>& edit) {
  edit(cfg);
  return cfg;
}

std::vector<Rejected> rejected_configs() {
  return {
      {"SimGivenRtConfig", "Config.engine", build<sc::Scenario>(config_for(Engine::kRt))},
      {"RtGivenSimConfig", "Config.engine", build<sc::RtScenario>(config_for(Engine::kSim))},
      {"ProcGivenSimConfig", "Config.engine", build<sc::ProcScenario>(config_for(Engine::kSim))},
      {"RtScriptedDetector", "Config.detector",
       build<sc::RtScenario>(with(config_for(Engine::kRt),
                                  [](Config& c) { c.detector = DetectorKind::kScripted; }))},
      {"ProcScriptedDetector", "Config.detector",
       build<sc::ProcScenario>(with(config_for(Engine::kProc),
                                    [](Config& c) { c.detector = DetectorKind::kScripted; }))},
      {"ProcPingPongDetector", "Config.detector",
       build<sc::ProcScenario>(with(config_for(Engine::kProc),
                                    [](Config& c) { c.detector = DetectorKind::kPingPong; }))},
      {"ProcAccrualDetector", "Config.detector",
       build<sc::ProcScenario>(with(config_for(Engine::kProc),
                                    [](Config& c) { c.detector = DetectorKind::kAccrual; }))},
      {"LoadBaselineAlgorithm", "LoadConfig.base.algorithm",
       build_load(with(config_for(Engine::kSim),
                       [](Config& c) { c.algorithm = Algorithm::kChandyMisra; }))},
      {"LoadOnProcEngine", "LoadConfig.base.engine", build_load(config_for(Engine::kProc))},
      {"LoadRecoveryOnLossyNetwork", "LoadConfig.base.net_mode",
       [] {
         sc::LoadConfig lc;
         lc.base = with(config_for(Engine::kSim),
                        [](Config& c) { c.net_mode = sc::NetMode::kLossy; });
         lc.recoveries = {{2, 1'000, 2'000}};
         sc::LoadScenario s(lc);
       }},
  };
}

class ValidateTest : public ::testing::TestWithParam<Rejected> {};

TEST_P(ValidateTest, RejectedConfigThrowsNamingTheField) {
  const Rejected& r = GetParam();
  EXPECT_THROW(r.build(), std::invalid_argument);
  try {
    r.build();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(r.field), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Scenario, ValidateTest, ::testing::ValuesIn(rejected_configs()),
                         [](const ::testing::TestParamInfo<Rejected>& info) {
                           return info.param.name;
                         });

// -- one Config, every engine, the same reports -----------------------------

Config cross_engine_config(Engine engine) {
  Config cfg;
  cfg.seed = 7;
  cfg.engine = engine;
  cfg.topology = "ring";
  cfg.n = 6;
  cfg.algorithm = Algorithm::kWaitFree;
  cfg.detector = DetectorKind::kPerfect;
  cfg.observability = true;
  cfg.rt_tick_ns = 100'000;  // rt/proc: 100 µs ticks → 0.4 s wall
  cfg.run_for = 4'000;
  cfg.crashes = {{2, 1'500}};
  return cfg;
}

const std::set<std::string> kSharedConfigKeys = {"seed",      "engine",    "topology",
                                                 "n",         "algorithm", "detector",
                                                 "net_mode",  "run_for"};
/// The documented engine extras of the "config" object.
const std::set<std::string> kEngineConfigKeys = {"tick_ns", "shards"};

/// The same run on a lossy network whose one cut heals: every engine's
/// fault model decides each physical send and its ARQ carries the diners.
Config lossy_partition_config(Engine engine) {
  Config cfg = cross_engine_config(engine);
  cfg.net_mode = sc::NetMode::kLossyPartition;
  cfg.edge_cuts = {{0, 1, 500, 1'200}};
  return cfg;
}

/// The reports every engine must give for both Configs.
template <typename S>
void expect_clean_reports(S& s) {
  EXPECT_EQ(s.monitor_agreement(), "");
  const sc::Books books = s.books();
  ASSERT_NE(books.monitors, nullptr);
  EXPECT_TRUE(ekbd::dining::check_exclusion(books.trace, books.graph).violations.empty());
  EXPECT_TRUE(s.exclusion().violations.empty());
  const std::vector<ekbd::sim::Time> crash_times = books.crash_times();
  ASSERT_EQ(crash_times.size(), 6u);
  EXPECT_GE(crash_times[2], 1'500);
  EXPECT_EQ(crash_times[0], -1);
  EXPECT_GT(books.trace.count(ekbd::dining::TraceEventKind::kStartEating), 0u);
}

template <typename S>
void check_lossy_engine(Engine engine) {
  SCOPED_TRACE("lossy+partition");
  S s(lossy_partition_config(engine));
  ekbd::sim::EventLog sim_log;  // the sim keeps no log of its own
  if constexpr (std::is_same_v<S, sc::Scenario>) s.sim().set_event_log(&sim_log);
  s.run();
  expect_clean_reports(s);
  const sc::Books books = s.books();
  ASSERT_NE(books.event_log, nullptr);
  std::size_t cut = 0;
  for (const ekbd::sim::LoggedEvent& ev : books.event_log->events()) {
    cut += ev.kind == ekbd::sim::LoggedEvent::Kind::kPartitionLoss ? 1 : 0;
  }
  EXPECT_GT(cut, 0u) << "the edge cut dropped nothing";
  EXPECT_GT(books.network.total_sent(ekbd::sim::MsgLayer::kTransport), 0u)
      << "no ARQ segment crossed the wire";
  if constexpr (!std::is_same_v<S, sc::ProcScenario>) {
    // The sim and rt telemetry lines carry the ARQ's counters.
    (void)s.telemetry_json();
    ASSERT_EQ(s.arqs().size(), 6u);
    const auto* sends = s.metrics()->find_counter("arq.logical_sends");
    ASSERT_NE(sends, nullptr);
    EXPECT_GT(sends->get(), 0u);
    EXPECT_EQ(sends->get(), s.arq_stats().logical_sends);
  }
}

/// Every logical message settles at most once: no (from, to, layer, seq)
/// is both delivered and written off. A sender that gives up on a crashed
/// peer drops only what it never sent, so a message whose ack was lost
/// cannot be booked twice — on proc, where the receiver's books live in
/// another process, as on sim and rt.
template <typename S>
void check_settles_once(Engine engine) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("lossy+crash seed " + std::to_string(seed));
    Config cfg = cross_engine_config(engine);
    cfg.seed = seed;
    cfg.net_mode = sc::NetMode::kLossy;
    cfg.link_faults.drop_prob = 0.3;
    S s(cfg);
    ekbd::sim::EventLog sim_log;
    if constexpr (std::is_same_v<S, sc::Scenario>) s.sim().set_event_log(&sim_log);
    s.run();
    const sc::Books books = s.books();
    ASSERT_NE(books.event_log, nullptr);
    using Key = std::tuple<ekbd::sim::ProcessId, ekbd::sim::ProcessId, ekbd::sim::MsgLayer,
                           std::uint64_t>;
    std::set<Key> delivered;
    std::set<Key> dropped;
    for (const ekbd::sim::LoggedEvent& ev : books.event_log->events()) {
      if (ev.layer == ekbd::sim::MsgLayer::kTransport) continue;  // physical segments
      const Key key{ev.from, ev.to, ev.layer, ev.seq};
      if (ev.kind == ekbd::sim::LoggedEvent::Kind::kDeliver) delivered.insert(key);
      if (ev.kind == ekbd::sim::LoggedEvent::Kind::kDrop) dropped.insert(key);
    }
    EXPECT_FALSE(delivered.empty());
    for (const Key& key : dropped) {
      EXPECT_EQ(delivered.count(key), 0u)
          << "message " << std::get<0>(key) << "->" << std::get<1>(key) << " seq "
          << std::get<3>(key) << " booked delivered and dropped";
    }
  }
}

template <typename S>
void check_engine(Engine engine) {
  const std::string path =
      ::testing::TempDir() + "/engines_" + sc::to_string(engine) + ".jsonl";
  sc::SweepOptions opt;
  opt.threads = 1;
  opt.telemetry_path = path;
  std::size_t inspected = 0;
  sc::sweep<S>(
      {cross_engine_config(engine)},
      [&](std::size_t, S& s) {
        ++inspected;
        expect_clean_reports(s);
      },
      opt);
  EXPECT_EQ(inspected, 1u);

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto doc = json::parse(line);
  ASSERT_TRUE(doc.has_value()) << line;
  const json::Value* config = doc->find("config");
  ASSERT_NE(config, nullptr) << line;
  std::set<std::string> keys;
  for (const auto& [key, value] : config->obj) keys.insert(key);
  for (const std::string& key : kSharedConfigKeys) EXPECT_EQ(keys.count(key), 1u) << key;
  for (const std::string& key : keys) {
    EXPECT_TRUE(kSharedConfigKeys.count(key) + kEngineConfigKeys.count(key) == 1u) << key;
  }
  EXPECT_EQ(config->find("engine")->str, sc::to_string(engine));
  ASSERT_NE(doc->find("monitors"), nullptr);
  EXPECT_TRUE(doc->find("monitors")->find("clean")->boolean);
  std::remove(path.c_str());

  check_lossy_engine<S>(engine);
  check_settles_once<S>(engine);
}

TEST(CrossEngine, SimBooksAgree) { check_engine<sc::Scenario>(Engine::kSim); }

TEST(CrossEngine, RtBooksAgree) { check_engine<sc::RtScenario>(Engine::kRt); }

TEST(CrossEngine, ProcBooksAgree) { check_engine<sc::ProcScenario>(Engine::kProc); }

}  // namespace
