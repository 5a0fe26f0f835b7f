/// \file sweep.hpp
/// Parallel scenario sweeps, one runner for every engine.
///
/// Fuzz, stress and parameter-sweep suites all have the same shape: many
/// *independent* runs (one engine object per job, nothing shared),
/// followed by per-job property checks. `sweep<S>` shards the runs across
/// the mc work-stealing pool and then hands each finished job back to the
/// caller **serially, in index order, on the calling thread** — so gtest
/// assertions, SCOPED_TRACE and any accumulation stay single-threaded,
/// and a sweep's pass/fail report is identical for every thread count.
///
/// Jobs are inspected (and destroyed) as soon as their turn comes, so the
/// high-water memory is one window of out-of-order completions, not the
/// whole sweep.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/pool.hpp"
#include "obs/json.hpp"
#include "scenario/load_scenario.hpp"
#include "scenario/proc_scenario.hpp"
#include "scenario/rt_scenario.hpp"
#include "scenario/scenario.hpp"

namespace ekbd::scenario {

struct SweepOptions {
  std::size_t threads = 0;  ///< pool width; 0 = hardware concurrency
  /// When non-empty, `sweep` appends one `telemetry_json()` line
  /// per scenario to this file (JSONL), written serially in config order
  /// from the inspect loop — so the file order matches the config order
  /// for any thread count. Every line additionally carries a
  /// `"sweep":{"wall_seconds":..,"offered":..,"completed":..}` object:
  /// wall-clock build+run seconds measured on the worker, plus the
  /// trace's hungry-session (kBecameHungry) and completed-session
  /// (kStopEating) counts. Scenarios without `cfg.observability` emit
  /// the sweep object alone, keeping line `i` ↔ config `i`.
  std::string telemetry_path;
};

/// Run `count` independent jobs on a work-stealing pool; inspect results
/// serially in index order on the calling thread. `run` executes on pool
/// workers and must not touch shared mutable state; exceptions it throws
/// are rethrown from the matching `inspect` turn (so a gtest failure
/// points at the job index that died).
template <typename R>
void parallel_sweep(std::size_t count, std::size_t threads,
                    const std::function<R(std::size_t)>& run,
                    const std::function<void(std::size_t, R&)>& inspect) {
  mc::WorkStealingPool pool(mc::WorkStealingPool::resolve(threads));
  std::mutex mu;
  std::condition_variable done_cv;
  std::map<std::size_t, std::optional<R>> ready;       // completed, not yet inspected
  std::map<std::size_t, std::exception_ptr> failed;
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&, i] {
      std::optional<R> result;
      std::exception_ptr error;
      try {
        result.emplace(run(i));
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (error) failed.emplace(i, error);
      ready.emplace(i, std::move(result));
      done_cv.notify_all();
    });
  }
  for (std::size_t next = 0; next < count; ++next) {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return ready.count(next) > 0; });
    std::optional<R> result = std::move(ready.at(next));
    ready.erase(next);
    const auto fail = failed.find(next);
    const std::exception_ptr error = fail == failed.end() ? nullptr : fail->second;
    lock.unlock();
    if (error) std::rethrow_exception(error);
    inspect(next, *result);
  }
}

namespace detail {

/// `line` with the sweep object spliced in: build+run `wall_seconds`,
/// and the trace's hungry-session (offered) and completed-session counts,
/// so the object means the same thing for every engine and also appears
/// on the `{}` placeholder lines of observability-off scenarios.
inline std::string with_sweep_object(std::string line, double wall_seconds,
                                     const ekbd::dining::Trace& trace) {
  if (line.empty() || line.back() != '}') return line;  // not an object; leave it
  const bool was_empty = line == "{}";
  line.pop_back();
  if (!was_empty) line += ',';
  line += "\"sweep\":{\"wall_seconds\":" + ekbd::obs::json::format_double(wall_seconds) +
          ",\"offered\":" +
          std::to_string(trace.count(ekbd::dining::TraceEventKind::kBecameHungry)) +
          ",\"completed\":" +
          std::to_string(trace.count(ekbd::dining::TraceEventKind::kStopEating)) + "}}";
  return line;
}

}  // namespace detail

/// Build + run one `S` per config, then inspect each serially in config
/// order. `S` is any engine class: `Scenario`, `RtScenario` and
/// `LoadScenario` jobs run in parallel on the pool (mind the width for rt
/// configs: every rt job runs its own shard workers on top of the pool,
/// so rt sweeps usually want a small explicit `threads`). `ProcScenario`
/// jobs run serially on the calling thread, because its `run()` forks and
/// forking from a multithreaded parent is undefined enough to matter;
/// each proc job is its own cluster, so the parallelism lives in the node
/// processes instead, and `options.threads` is ignored.
template <typename S, typename C = Config>
void sweep(const std::vector<C>& configs,
           const std::type_identity_t<std::function<void(std::size_t, S&)>>& inspect,
           const SweepOptions& options = {}) {
  std::ofstream telemetry;
  if (!options.telemetry_path.empty()) telemetry.open(options.telemetry_path, std::ios::trunc);
  using Job = std::pair<std::unique_ptr<S>, double>;
  const std::function<Job(std::size_t)> run = [&configs](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto scenario = std::make_unique<S>(configs[i]);
    scenario->run();
    return Job{std::move(scenario), std::chrono::duration<double>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count()};
  };
  const std::function<void(std::size_t, Job&)> check = [&](std::size_t i, Job& job) {
    // Serial, index-ordered: the JSONL line order is deterministic.
    if (telemetry.is_open()) {
      telemetry << detail::with_sweep_object(job.first->telemetry_json(), job.second,
                                             job.first->trace())
                << '\n';
    }
    inspect(i, *job.first);
  };
  if constexpr (std::is_same_v<S, ProcScenario>) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      Job job = run(i);
      check(i, job);
    }
  } else {
    parallel_sweep<Job>(configs.size(), options.threads, run, check);
  }
}

}  // namespace ekbd::scenario
