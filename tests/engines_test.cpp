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
      {"RtPartitions", "Config.net_mode",
       build<sc::RtScenario>(with(config_for(Engine::kRt), [](Config& c) {
         c.net_mode = sc::NetMode::kLossyPartition;
       }))},
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
}

TEST(CrossEngine, SimBooksAgree) { check_engine<sc::Scenario>(Engine::kSim); }

TEST(CrossEngine, RtBooksAgree) { check_engine<sc::RtScenario>(Engine::kRt); }

TEST(CrossEngine, ProcBooksAgree) { check_engine<sc::ProcScenario>(Engine::kProc); }

}  // namespace
