#include "rt/recorder.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

#include "rt/log_io.hpp"

namespace ekbd::rt {

namespace {

/// Nanosecond merge key: a raw steady_clock reading. One monotonic
/// coordinate for the whole process, so a causally ordered pair (a send
/// and the delivery it enables) reads nondecreasing keys on any pair of
/// threads; exact ties are broken by SegmentRecord::merge_class.
std::int64_t now_key() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread segment binding, validated against (recorder, stream
/// generation) so a binding never leaks across recorders or across
/// sequential streams of the same recorder.
struct TlsBinding {
  const void* owner = nullptr;
  std::uint64_t gen = 0;
  std::size_t index = 0;
};
thread_local TlsBinding tls_binding;

/// Segment-id bits in a streaming seq. Per-segment counters stay unique
/// across segments; with segments bounded by core counts the combined
/// value also stays well under 2^53 (exact in the JSON exports).
constexpr unsigned kSeqSegmentShift = 40;

}  // namespace

Recorder::Recorder() = default;

Recorder::~Recorder() { end_stream(); }

// -- stream lifecycle -------------------------------------------------------

void Recorder::begin_stream(const StreamOptions& opts) {
  assert(!streaming_.load(std::memory_order_relaxed) && "stream already running");
  sopt_ = opts;
  ++stream_gen_;
  const std::size_t nseg = std::max<std::size_t>(1, opts.segments) + 1;  // + external
  segments_.clear();
  segments_.reserve(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    segments_.push_back(std::make_unique<RecorderSegment>());
  }
  pools_.assign(nseg, SegmentPool{});
  crashed_seen_.clear();
  floor_.store(0, std::memory_order_relaxed);
  shedding_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = StreamStats{};
  }
  collector_stop_ = false;
  streaming_.store(true, std::memory_order_release);
  collector_ = std::thread([this] { collector_loop(); });
}

void Recorder::end_stream() {
  if (!streaming_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(collector_mu_);
    collector_stop_ = true;
  }
  collector_cv_.notify_all();
  if (collector_.joinable()) collector_.join();
  // Final drain, no watermark horizon: every producer has quiesced (the
  // runtime joins its workers first), so everything buffered is merged.
  collect_pass(/*final_drain=*/true);
  streaming_.store(false, std::memory_order_release);
}

void Recorder::bind_segment(std::size_t index) {
  assert(index + 1 < segments_.size() && "bind_segment: not a worker segment");
  tls_binding = TlsBinding{this, stream_gen_, index};
}

void Recorder::heartbeat() {
  RecorderSegment& seg = *segments_[segment_index()];
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  if (raw > seg.last_key) seg.last_key = raw;
  seg.watermark.store(seg.last_key, std::memory_order_release);
}

StreamStats Recorder::stream_stats() const {
  StreamStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  for (const auto& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg->mu);
    out.dropped_records += seg->dropped;
  }
  return out;
}

// -- the producer path ------------------------------------------------------

std::size_t Recorder::segment_index() const {
  if (tls_binding.owner == this && tls_binding.gen == stream_gen_) return tls_binding.index;
  return segments_.size() - 1;  // the external catch-all
}

std::uint64_t Recorder::append(const SegmentRecord& r, bool numbered,
                               std::optional<sim::LoggedEvent::Kind> then) {
  assert(streaming() && "recorder hook called outside begin_stream..end_stream");
  const std::size_t index = segment_index();
  RecorderSegment& seg = *segments_[index];
  const std::int64_t raw = now_key();
  std::lock_guard<std::mutex> lock(seg.mu);
  // Monotonic within the segment, and never below the merge horizon
  // already consumed (which only the external segment can trail).
  const std::int64_t key = std::max({raw, seg.last_key, floor_.load(std::memory_order_acquire)});
  seg.last_key = key;
  const std::uint64_t seq =
      numbered ? (static_cast<std::uint64_t>(index + 1) << kSeqSegmentShift) | seg.next_seq++
               : r.event.seq;
  if (shedding_.load(std::memory_order_relaxed)) {
    seg.dropped += then ? 2 : 1;
  } else {
    SegmentRecord& rec = seg.buf.emplace_back(r);
    rec.key = key;
    rec.event.seq = seq;
    if (then) {
      SegmentRecord second = rec;  // copied first: the next push may reallocate
      second.event.kind = *then;
      seg.buf.push_back(second);
    }
  }
  seg.watermark.store(key, std::memory_order_release);
  return seq;
}

// -- collector --------------------------------------------------------------

void Recorder::collector_loop() {
  const auto window = std::chrono::nanoseconds(
      sopt_.window_ns == 0 ? 1'000'000 : sopt_.window_ns);
  std::unique_lock<std::mutex> lock(collector_mu_);
  while (!collector_stop_) {
    collector_cv_.wait_for(lock, window);
    if (collector_stop_) break;  // end_stream runs the final drain itself
    lock.unlock();
    collect_pass(/*final_drain=*/false);
    lock.lock();
  }
}

void Recorder::collect_pass(bool final_drain) {
  const std::size_t nseg = segments_.size();
  const std::size_t workers = nseg - 1;  // the external segment does not vote

  // Horizon: nothing with a smaller key can ever be appended again — each
  // worker segment is single-producer and clamps its keys monotonic, and
  // external appends are clamped up to the published floor.
  std::int64_t horizon = std::numeric_limits<std::int64_t>::max();
  if (!final_drain) {
    for (std::size_t i = 0; i < workers; ++i) {
      horizon = std::min(horizon, segments_[i]->watermark.load(std::memory_order_acquire));
    }
    if (horizon > floor_.load(std::memory_order_relaxed)) {
      // Publish BEFORE draining: an external append that misses this
      // pass's drain observes the new floor through the segment mutex and
      // clamps its key to >= horizon — it can never slot in below history
      // this pass is about to merge.
      floor_.store(horizon, std::memory_order_release);
    }
  }

  // Swap out every segment's buffer. The common case (the pool drained
  // dry last pass) is a pointer swap; a backlogged pool appends and
  // compacts its consumed prefix when it dominates.
  std::size_t pending = 0;
  for (std::size_t i = 0; i < nseg; ++i) {
    RecorderSegment& seg = *segments_[i];
    SegmentPool& pool = pools_[i];
    std::lock_guard<std::mutex> lock(seg.mu);
    if (pool.head >= pool.recs.size()) {
      pool.recs.clear();
      pool.head = 0;
      std::swap(pool.recs, seg.buf);
    } else {
      if (pool.head > 1024 && pool.head * 2 > pool.recs.size()) {
        pool.recs.erase(pool.recs.begin(),
                        pool.recs.begin() + static_cast<std::ptrdiff_t>(pool.head));
        pool.head = 0;
      }
      pool.recs.insert(pool.recs.end(), seg.buf.begin(), seg.buf.end());
      seg.buf.clear();
    }
    pending += pool.recs.size() - pool.head;
  }

  std::uint64_t events = 0;
  std::uint64_t traces = 0;
  const std::size_t merged = merge_segments(
      pools_, horizon,
      [this, &events, &traces](const SegmentRecord& r) { apply_record(r, events, traces); });

  // Shedding hysteresis: arm past the cap, disarm at half. Producers see
  // the flag on their next append; the windows in between are counted.
  const std::size_t left = pending - merged;
  bool shed = shedding_.load(std::memory_order_relaxed);
  if (sopt_.pending_cap != 0) {
    if (!shed && left > sopt_.pending_cap) {
      shed = true;
      shedding_.store(true, std::memory_order_seq_cst);
    } else if (shed && left <= sopt_.pending_cap / 2) {
      shed = false;
      shedding_.store(false, std::memory_order_seq_cst);
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.collect_passes;
  stats_.merged_events += events;
  stats_.merged_trace_events += traces;
  stats_.max_pending = std::max(stats_.max_pending, pending);
  if (shed) ++stats_.dropped_windows;
}

void Recorder::apply_record(const SegmentRecord& r, std::uint64_t& events,
                            std::uint64_t& traces) {
  if (r.type == SegmentRecord::Type::kEvent) {
    sim::LoggedEvent ev = r.event;
    // Hybrid stamp, final clamp: merge order is by nanosecond key; the
    // sub-tick skew between a producer's tick reading and its key reading
    // can leave tick stamps locally out of order, so the merged stream
    // clamps its tick stamps monotonic.
    if (ev.at < merged_tick_) {
      ev.at = merged_tick_;
    } else {
      merged_tick_ = ev.at;
    }
    emit(ev);
    apply_event(ev, net_, crashed_seen_);
    ++events;
  } else {
    sim::Time at = r.trace.at;
    if (at < merged_tick_) {
      at = merged_tick_;
    } else {
      merged_tick_ = at;
    }
    trace_.record(at, r.trace.process, r.trace.kind, r.trace.peer);
    ++traces;
  }
}

}  // namespace ekbd::rt
