#include "scenario/rt_scenario.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "obs/json.hpp"

namespace ekbd::scenario {

namespace {

std::string executor_json(const ekbd::rt::ExecutorStats& st) {
  return "{\"dispatches\":" + std::to_string(st.dispatches) +
         ",\"runs\":" + std::to_string(st.runs) + ",\"steals\":" + std::to_string(st.steals) +
         ",\"helps\":" + std::to_string(st.helps) +
         ",\"timer_helps\":" + std::to_string(st.timer_helps) +
         ",\"parks\":" + std::to_string(st.parks) + "}";
}

std::string stream_json(const ekbd::rt::StreamStats& ss) {
  return "{\"collect_passes\":" + std::to_string(ss.collect_passes) +
         ",\"merged_events\":" + std::to_string(ss.merged_events) +
         ",\"merged_trace_events\":" + std::to_string(ss.merged_trace_events) +
         ",\"max_pending\":" + std::to_string(ss.max_pending) +
         ",\"dropped_records\":" + std::to_string(ss.dropped_records) +
         ",\"dropped_windows\":" + std::to_string(ss.dropped_windows) + "}";
}

}  // namespace

RtScenario::RtScenario(Config cfg)
    : cfg_(std::move(cfg)),
      graph_(build_conflict_graph(cfg_)),
      colors_(ekbd::graph::welsh_powell_coloring(graph_)) {
  validate(cfg_, Engine::kRt);

  // -- observability ------------------------------------------------------
  if (cfg_.observability) {
    // Capped log = bounded resident memory at 10⁵⁺ actors; the log counts
    // what it sheds, the Trace and network books stay exact.
    event_log_ = std::make_unique<ekbd::sim::EventLog>(cfg_.rt_event_log_cap);
    metrics_ = std::make_unique<ekbd::obs::MetricsRegistry>();
    monitors_ = std::make_unique<ekbd::obs::MonitorHub>(graph_);
    recorder_.set_event_log(event_log_.get());
    recorder_.set_event_sink(monitors_.get());
    recorder_.set_watch(monitors_.get());
    recorder_.set_trace_observer(monitors_.get());
  }

  // -- runtime ------------------------------------------------------------
  ekbd::rt::Options opt;
  opt.seed = cfg_.seed;
  opt.tick_ns = cfg_.rt_tick_ns;
  opt.shards = cfg_.rt_shards;
  if (cfg_.net_mode != NetMode::kIdeal) {
    // Lossy channels, rt style: seed-deterministic drop/dup coins on the
    // detector layer. The dining layer keeps the reliable in-process
    // channels (the paper's model assumes reliable dining channels; a ◇P₁
    // implementation must survive a lossy wire).
    opt.faults.drop_prob = cfg_.link_faults.drop_prob;
    opt.faults.dup_prob = cfg_.link_faults.dup_prob;
  }
  rt_ = std::make_unique<ekbd::rt::Runtime>(opt, recorder_);

  // -- detector -----------------------------------------------------------
  detectors_ = make_detector(
      cfg_, [this] { return std::make_unique<ekbd::rt::RtPerfectDetector>(*rt_); });

  // -- environment + diners -----------------------------------------------
  harness_ = std::make_unique<ekbd::dining::Harness>(*rt_, recorder_, cfg_.seed, graph_,
                                                     cfg_.harness);
  if (cfg_.observability) harness_->record_latency();
  diners_ = add_diners(cfg_, graph_, colors_, *detectors_.owned, detectors_, *rt_, *harness_);
  for (const auto& [p, at] : cfg_.crashes) {
    rt_->schedule_crash(p, at);
  }
}

void RtScenario::run(Time sample_every, const std::function<void(Time)>& sample) {
  assert(!ran_);
  ran_ = true;
  const Time snapshot_every = cfg_.rt_telemetry_interval;
  std::FILE* out = nullptr;
  if (snapshot_every > 0 && !cfg_.rt_telemetry_path.empty()) {
    out = std::fopen(cfg_.rt_telemetry_path.c_str(), "w");
  }
  // Runtime::run_for's start / sleep-to-horizon / join sequence, with the
  // sleep chopped at every telemetry snapshot and sample tick.
  const auto next = [this](Time every, Time after) {
    return every > 0 ? after + every : cfg_.run_for;
  };
  Time snapshot_at = next(snapshot_every, 0);
  Time sample_at = sample ? next(sample_every, 0) : cfg_.run_for;
  rt_->start();
  for (Time t = std::min(snapshot_at, sample_at); t < cfg_.run_for;
       t = std::min(snapshot_at, sample_at)) {
    std::this_thread::sleep_until(rt_->clock().deadline(t));
    if (t == snapshot_at) {
      snapshot_telemetry(t, out, /*final_snapshot=*/false);
      snapshot_at = next(snapshot_every, t);
    }
    if (t == sample_at) {
      sample(t);
      sample_at = next(sample_every, t);
    }
  }
  std::this_thread::sleep_until(rt_->clock().deadline(cfg_.run_for));
  rt_->stop_and_join();
  recorder_.set_end_time(rt_->now());
  // Final snapshot after the join: exact totals, closing the staircase.
  if (snapshot_every > 0) snapshot_telemetry(rt_->now(), out, /*final_snapshot=*/true);
  if (sample) sample(rt_->now());
  if (out != nullptr) std::fclose(out);
}

void RtScenario::snapshot_telemetry(Time at, std::FILE* out, bool final_snapshot) {
  const std::vector<ekbd::rt::ExecutorStats> shards = rt_->stats_per_shard();
  const ekbd::rt::StreamStats ss = recorder_.stream_stats();
  const ekbd::obs::Histogram lat = harness_->latency_histogram();

  auto track = [&](const std::string& name, double v) {
    counter_samples_.push_back({at, name, v});
  };
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string pre = "shard" + std::to_string(i) + "/";
    track(pre + "dispatches", static_cast<double>(shards[i].dispatches));
    track(pre + "runs", static_cast<double>(shards[i].runs));
    track(pre + "parks", static_cast<double>(shards[i].parks));
  }
  track("latency/p50", lat.quantile(0.50));
  track("latency/p99", lat.quantile(0.99));
  track("latency/p999", lat.quantile(0.999));
  track("stream/merged_events", static_cast<double>(ss.merged_events));
  track("stream/max_pending", static_cast<double>(ss.max_pending));

  if (out == nullptr) return;
  std::string line = "{\"at\":" + std::to_string(at) + ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i != 0) line += ',';
    line += executor_json(shards[i]);
  }
  line += "],\"latency\":" + latency_json(lat);
  line += ",\"stream\":" + stream_json(ss);
  if (final_snapshot && event_log_ != nullptr) {
    line += ",\"event_log\":{\"size\":" + std::to_string(event_log_->size()) +
            ",\"dropped\":" + std::to_string(event_log_->dropped()) + "}";
  }
  line += "}\n";
  std::fputs(line.c_str(), out);
  std::fflush(out);
}

Books RtScenario::books() const {
  return {graph_, recorder_.trace(), recorder_.network(), event_log_.get(), monitors_.get(),
          [this] { return rt_->crash_times(); }};
}

std::string RtScenario::telemetry_json() const {
  if (metrics_ == nullptr) return "{}";
  const std::string config_extras = ",\"tick_ns\":" + std::to_string(cfg_.rt_tick_ns) +
                                    ",\"shards\":" + std::to_string(rt_->shard_count());
  std::string sections = ",\"executor\":" + executor_json(rt_->stats());
  if (harness_->latency_recorded()) {
    const ekbd::obs::Histogram lat = harness_->latency_histogram();
    sections += ",\"latency\":" + latency_json(lat, ",\"hist\":" + lat.to_json());
  }
  sections += ",\"stream\":" + stream_json(recorder_.stream_stats());
  return telemetry_line(cfg_, books(), *metrics_, config_extras, sections);
}

}  // namespace ekbd::scenario
