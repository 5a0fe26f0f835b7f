/// \file log_io.hpp
/// Log shipping: streaming on-disk serialization of one proc node's
/// observable history, and the merge/rebuild machinery that turns a set
/// of shipped per-node logs back into the Trace + EventLog + Network
/// books every checker and the MonitorHub consume.
///
/// The socket engine's node processes die for real (SIGKILL), so the
/// writer is streaming and crash-tolerant: one checksummed codec frame
/// per record, flushed as written — killing a node mid-record loses at
/// most that record, and the loader simply stops at the first bad frame
/// and marks the recording truncated. No recovery pass, no index, no
/// rewrite-on-close.
///
/// File layout: a plain concatenation of sim::codec frames —
/// kEvent (one sim::LoggedEvent), kTrace (one dining trace record:
/// at i64, process i32, kind u8), and an optional kEndTime trailer
/// (i64) written by a node that shut down cleanly.
///
/// Merging: per-node recordings are concatenated and stable-sorted by
/// timestamp. All nodes stamp ticks against the *same* orchestrator-
/// chosen CLOCK_MONOTONIC epoch (TickClock::rebase_to_epoch), and the
/// socket engine runs nanosecond ticks, so causally ordered cross-node
/// events (a send and its delivery) carry strictly increasing stamps and
/// the merged order is a linearization of the run. The orchestrator's
/// ground-truth crash times are inserted as kCrash events (and kCrashed
/// trace records) during the merge — a SIGKILLed process cannot write
/// its own obituary.
#pragma once

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dining/trace.hpp"
#include "obs/monitors.hpp"
#include "rt/segment.hpp"
#include "sim/codec.hpp"
#include "sim/event_log.hpp"
#include "sim/network.hpp"

namespace ekbd::rt {

/// One node's shipped history (or the cluster-wide merge of them).
struct Recording {
  std::vector<sim::LoggedEvent> events;
  std::vector<dining::TraceEvent> trace;
  sim::Time end_time = -1;  ///< kEndTime trailer; -1 if the node died
  bool truncated = false;   ///< file ended mid-frame (killed mid-write)
};

/// Streaming log writer: one frame per record, flushed as written, so
/// every record hits the disk before the next dispatch. A proc node hands
/// it its events (`on_event`) and, as the environment's `TraceSink`, its
/// scheduling records.
class LogWriter final : public sim::EventSink, public dining::TraceSink {
 public:
  explicit LogWriter(const std::string& path);
  ~LogWriter() override;

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// False if the file could not be opened or a write (or the final
  /// close) failed; stays meaningful after `close()`.
  [[nodiscard]] bool ok() const { return !failed_; }

  void on_event(const sim::LoggedEvent& ev) override;
  void record(sim::Time at, sim::ProcessId p, dining::TraceEventKind kind,
              sim::ProcessId peer) override;

  /// Clean-shutdown trailer: the run horizon (written once, at exit).
  void append_end_time(sim::Time t);

  void close();

 private:
  void write_frame(std::size_t frame_len);

  std::FILE* file_ = nullptr;
  bool failed_ = false;
  std::uint8_t buf_[sim::codec::kMaxFrameSize] = {};
};

/// Load one shipped log. Unreadable files come back empty and truncated;
/// a file that ends mid-frame (the writer was SIGKILLed) yields every
/// record before the tear with `truncated` set.
[[nodiscard]] Recording load_recording(const std::string& path);

/// Merge per-node recordings into one linearization: concatenate,
/// stable-sort by timestamp (stable — each node's own order is already a
/// valid local history), and insert the orchestrator's ground-truth
/// crash records. `end_time` is the max of the parts' trailers and the
/// last merged record.
[[nodiscard]] Recording merge_recordings(
    const std::vector<Recording>& parts,
    const std::vector<std::pair<sim::ProcessId, sim::Time>>& crashes);

/// Drive a merged recording through the three books exactly as a live
/// run would: every LoggedEvent goes to `hub`'s EventSink hat and to the
/// Network's logical books (which fire the hub's NetworkWatch hat —
/// `net`'s watch is pointed at `hub`), then the trace records replay
/// through `trace` with the hub observing. After this returns,
/// `hub.agreement_failures(trace, graph, net)` compares post-hoc
/// checkers against the rebuilt online verdicts. Optionally also appends
/// every event to `log`.
void rebuild(const Recording& rec, obs::MonitorHub& hub, sim::Network& net,
             dining::Trace& trace, sim::EventLog* log = nullptr);

/// Apply one logged event to the network books exactly as `rebuild` (and
/// the rt recorder's collector) does: sends and injected duplicates
/// book through `logical_sent` — firing the attached NetworkWatch —
/// deliveries/drops/losses settle through `logical_delivered`, and a
/// crash updates `crashed`, the set from which every later send's
/// target-crashed flag is re-derived. This is the shared per-event step
/// of the offline rebuild and the streaming recorder's collector.
void apply_event(const sim::LoggedEvent& ev, sim::Network& net,
                 std::set<sim::ProcessId>& crashed);

/// One segment's pending records: drained from a `RecorderSegment` but
/// not yet merged; `head` is the merge cursor. Records within a pool are
/// already ordered by key (the per-segment monotonic clamp).
struct SegmentPool {
  std::vector<SegmentRecord> recs;
  std::size_t head = 0;
};

/// K-way merge of per-segment pools: invokes `apply` for every record
/// with key <= `horizon` in (key, merge_class, segment index) order,
/// advancing the pool cursors; returns how many records were consumed.
/// The streaming collector calls this once per window with the min
/// worker watermark as the horizon; the final drain passes INT64_MAX.
/// `apply` is a template parameter so the per-record call inlines.
template <typename Apply>
std::size_t merge_segments(std::vector<SegmentPool>& pools, std::int64_t horizon,
                           Apply&& apply) {
  std::size_t merged = 0;
  for (;;) {
    std::size_t best = pools.size();
    for (std::size_t i = 0; i < pools.size(); ++i) {
      const SegmentPool& pool = pools[i];
      if (pool.head >= pool.recs.size()) continue;
      const SegmentRecord& r = pool.recs[pool.head];
      if (r.key > horizon) continue;  // pools are key-sorted: the rest waits too
      if (best == pools.size()) {
        best = i;
        continue;
      }
      const SegmentRecord& b = pools[best].recs[pools[best].head];
      if (r.key < b.key || (r.key == b.key && r.merge_class() < b.merge_class())) best = i;
    }
    if (best == pools.size()) break;
    SegmentPool& win = pools[best];
    apply(win.recs[win.head]);
    ++win.head;
    ++merged;
  }
  return merged;
}

}  // namespace ekbd::rt
