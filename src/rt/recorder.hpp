/// \file recorder.hpp
/// Serialization point of the real-threads runtime.
///
/// The simulator gets its observability for free: it executes one event at
/// a time, so the trace, the event log and the network books are totally
/// ordered by construction. The rt engine has no such luxury — handlers
/// run concurrently on many threads — so every observable transition
/// (send, delivery, timer, crash, scheduling event) must be funneled into
/// one total order: the *linearization* of the concurrent execution that
/// the paper's properties quantify over.
///
/// ## Segmented streaming (`begin_stream` / `end_stream`)
///
/// Each worker thread appends to its OWN `RecorderSegment` — an
/// uncontended lock, no global serialization on the hot path — and a
/// collector thread periodically merges the segments' key-ordered
/// prefixes (bounded by the min worker watermark; see segment.hpp for the
/// hybrid-timestamp and watermark protocol) into the books: EventLog
/// append, EventSink, `log_io::apply_event` network bookkeeping, trace
/// record. That buys three things at once:
///
///  1. a totally ordered `dining::Trace` + `sim::EventLog` stream;
///  2. the unmodified `sim::Network` books, so the post-hoc checkers and
///     `MonitorHub::agreement_failures` consume rt runs byte-for-byte like
///     sim runs;
///  3. a safe place to host the online monitors: the hub's three observer
///     hats (EventSink, NetworkWatch, TraceObserver) are only ever invoked
///     by the collector (or `end_stream`'s final drain), so the monitors
///     need no locking of their own.
///
/// The merge runs *windowed*: every `window_ns` the collector drains and
/// merges, so monitors see events with bounded lag and bounded buffering.
/// With `pending_cap` set, a backlog past the cap sheds new appends
/// (counted per segment, surfaced in `StreamStats` like `EventLog`
/// drops) instead of growing without bound — shedding forfeits exact
/// replay/agreement for that window, which is why the default cap is 0
/// (unbounded buffering, typically a few windows' worth).
///
/// Every hook must run inside `begin_stream` … `end_stream` (the runtime
/// opens the stream before its workers start and closes it after they
/// join); calling one outside a stream breaks the contract and asserts.
/// Mid-run hooks must come from threads bound via `bind_segment` (the
/// runtime binds each worker); unbound threads fall into a shared
/// "external" segment that is safe but contended.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "dining/trace.hpp"
#include "rt/segment.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"

namespace ekbd::rt {

struct SegmentPool;  // log_io.hpp

class Recorder final : public dining::TraceSink {
 public:
  Recorder();
  ~Recorder() override;  // ends the stream (joins the collector) if still streaming

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // -- wiring (single-threaded, before Runtime::start) -------------------

  /// Attach an event log (not owned; nullptr detaches).
  void set_event_log(sim::EventLog* log) { log_ = log; }
  /// Attach a streaming event sink (the MonitorHub's EventSink hat).
  void set_event_sink(sim::EventSink* sink) { sink_ = sink; }
  /// Attach a network watch (the MonitorHub's NetworkWatch hat).
  void set_watch(sim::NetworkWatch* watch) { net_.set_watch(watch); }
  /// Attach a trace observer (the MonitorHub's TraceObserver hat).
  void set_trace_observer(dining::TraceObserver* obs) { trace_.set_observer(obs); }

  // -- the stream ----------------------------------------------------------

  struct StreamOptions {
    /// Worker segments (one per shard); a shared external segment for
    /// unbound threads is always added on top.
    std::size_t segments = 1;
    /// Collector pass period (window). Smaller = fresher monitors and less
    /// buffering; larger = fewer merge passes.
    std::uint64_t window_ns = 5'000'000;
    /// Max records buffered ahead of the merge horizon before the stream
    /// sheds new appends (0 = unbounded). Shedding is counted in
    /// StreamStats and forfeits exact replay/monitor agreement.
    std::size_t pending_cap = 0;
  };

  /// Open a stream: allocate segments, launch the collector. Call before
  /// the producing threads start (the runtime calls it just before
  /// launching workers). The books of an earlier stream on this Recorder
  /// stay ahead of the new one.
  void begin_stream(const StreamOptions& opts);
  /// Join the collector and drain every segment (no watermark horizon:
  /// all producers must have quiesced — the runtime calls this after
  /// joining its workers). Idempotent.
  void end_stream();
  /// Bind the calling thread to segment `index` for the current stream.
  void bind_segment(std::size_t index);
  /// Advance the calling thread's segment watermark to "now" without
  /// appending: an idle worker's promise that nothing earlier is coming,
  /// so one quiet shard cannot stall the merge horizon.
  void heartbeat();

  [[nodiscard]] bool streaming() const {
    return streaming_.load(std::memory_order_acquire);
  }
  /// Collector accounting; callable live (approximate) or after
  /// `end_stream` (exact).
  [[nodiscard]] StreamStats stream_stats() const;

  // -- post-run reads (quiescent: after Runtime::stop_and_join) ----------

  [[nodiscard]] const dining::Trace& trace() const { return trace_; }
  [[nodiscard]] const sim::Network& network() const { return net_; }
  void set_end_time(sim::Time t) { trace_.set_end_time(t); }

  // -- runtime hooks (any thread, inside a stream) -----------------------

  /// A handler (or the driver) handed a message to the transport: stamp it
  /// (seq, sent_at; deliver_at = now + 1 is nominal — the *actual* arrival
  /// tick is written by on_deliver) and emit kSend. With `lost` the fault
  /// layer dropped it at the wire: a kLoss (or, when the loss came from a
  /// partition / edge cut, kPartitionLoss) event follows the kSend,
  /// mirroring the simulator's loss accounting (stamped, never handled).
  /// The seq comes from the segment (globally unique via the segment id in
  /// the high bits); whether the target was already crashed is re-derived
  /// at the merge from the merged kCrash order.
  void on_send(sim::Message& m, sim::Time now, bool lost, bool partitioned = false) {
    m.sent_at = now;
    m.deliver_at = now + 1;
    const sim::LoggedEvent::Kind loss = partitioned ? sim::LoggedEvent::Kind::kPartitionLoss
                                                    : sim::LoggedEvent::Kind::kLoss;
    m.seq = append(event(now, sim::LoggedEvent::Kind::kSend, m), /*numbered=*/true,
                   lost ? std::optional(loss) : std::nullopt);
  }

  /// A stamped message could not be enqueued (a full mailbox, and the
  /// sender has an ARQ, so it does not block): written off as a wire
  /// loss. The ARQ retransmits it; detector traffic is loss-tolerant by
  /// design — either way a dropped-at-the-door message is semantically a
  /// lost datagram.
  void on_congestion_loss(const sim::Message& m, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kLoss, m));
  }

  /// The fault layer injected a duplicate copy: stamp it as its own
  /// in-flight message and emit kDuplicate (the fork-uniqueness monitor
  /// counts duplicates as sends, exactly as under the simulator).
  void on_duplicate(sim::Message& m, sim::Time now) {
    m.sent_at = now;
    m.deliver_at = now + 1;
    m.seq = append(event(now, sim::LoggedEvent::Kind::kDuplicate, m), /*numbered=*/true);
  }

  /// The holder of the target's dispatch claim popped `m` from its
  /// mailbox. Rewrites `m.deliver_at` to the actual arrival tick (the
  /// stamp-time value was a placeholder) so handlers reading it see the
  /// truth. With `target_crashed` the message lands on a corpse: kDrop,
  /// never handled.
  void on_deliver(sim::Message& m, sim::Time now, bool target_crashed) {
    m.deliver_at = now;
    append(event(now,
                 target_crashed ? sim::LoggedEvent::Kind::kDrop
                                : sim::LoggedEvent::Kind::kDeliver,
                 m));
  }

  // -- logical-layer hooks (Runtime's sim::ArqEnv) -----------------------
  //
  // When an ARQ carries a layer, its *logical* messages are recorded on
  // their own layer — the split the simulator's transport mode uses —
  // while the physical kTransport segments go through on_send/on_deliver
  // above. The §7 channel-bound and quiescence monitors read the logical
  // books; retransmit overhead shows up as the gap between the kTransport
  // and logical streams. A logical seq is the sender's own counter, so
  // (sender, seq) pairs a send with its delivery or drop.

  /// The ARQ accepted one logical message: emits kSend on its own layer.
  void on_logical_send(sim::ProcessId from, sim::ProcessId to, sim::PayloadTag tag,
                       sim::MsgLayer layer, std::uint64_t logical_seq, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kSend, from, to, layer, logical_seq, tag));
  }

  /// The ARQ released one logical message, in order, to the receiving
  /// actor.
  void on_logical_deliver(sim::ProcessId from, sim::ProcessId to, sim::PayloadTag tag,
                          sim::MsgLayer layer, std::uint64_t logical_seq, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kDeliver, from, to, layer, logical_seq, tag));
  }

  /// The ARQ wrote off one logical message to a dead peer.
  void on_logical_drop(sim::ProcessId from, sim::ProcessId to, sim::PayloadTag tag,
                       sim::MsgLayer layer, std::uint64_t logical_seq, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kDrop, from, to, layer, logical_seq, tag));
  }

  /// A live actor's timer fired.
  void on_timer(sim::ProcessId owner, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kTimer, owner));
  }

  /// Process `p` crashed (its worker is about to stop dispatching).
  void on_crash(sim::ProcessId p, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kCrash, p));
  }

  /// Process `p` rejoined after a crash (dispatching resumes).
  void on_recover(sim::ProcessId p, sim::Time now) {
    append(event(now, sim::LoggedEvent::Kind::kRecover, p));
  }

  /// A scheduling event (hungry / eating / forks / crash / churn) from a
  /// diner or the driver; merged into the trace, which fans out to the
  /// observer. `peer` is the other endpoint for edge-churn events.
  void on_trace(sim::ProcessId p, sim::Time now, dining::TraceEventKind kind,
                sim::ProcessId peer = sim::kNoProcess) {
    SegmentRecord r;
    r.type = SegmentRecord::Type::kTrace;
    r.trace = dining::TraceEvent{now, p, kind, peer};
    append(r);
  }

  /// The environment's sink (dining::Harness on rt): `on_trace`.
  void record(sim::Time at, sim::ProcessId p, dining::TraceEventKind kind,
              sim::ProcessId peer) override {
    on_trace(p, at, kind, peer);
  }

 private:
  /// An event record. Messages carry their seq and payload tag; process
  /// events (timer, crash, recover) name only `from`.
  static SegmentRecord event(sim::Time at, sim::LoggedEvent::Kind kind, sim::ProcessId from,
                             sim::ProcessId to = sim::kNoProcess,
                             sim::MsgLayer layer = sim::MsgLayer::kOther,
                             std::uint64_t seq = 0, sim::PayloadTag tag = sim::kNoPayloadTag) {
    SegmentRecord r;
    r.type = SegmentRecord::Type::kEvent;
    r.event = {at, kind, from, to, layer, seq, tag};
    return r;
  }
  static SegmentRecord event(sim::Time at, sim::LoggedEvent::Kind kind, const sim::Message& m) {
    return event(at, kind, m.from, m.to, m.layer, m.seq, sim::payload_tag(m.payload));
  }

  /// The one producer path (recorder.cpp): find the calling thread's
  /// segment, read the key clock, clamp the key under the segment lock,
  /// number the record when it is a send (`numbered`: the segment's next
  /// seq, globally unique via the segment id in the high bits), push it —
  /// plus, with `then`, a second event of that kind with the same stamp,
  /// key and seq (a lost send's loss) — and publish the watermark. Returns
  /// the record's seq.
  std::uint64_t append(const SegmentRecord& r, bool numbered = false,
                       std::optional<sim::LoggedEvent::Kind> then = std::nullopt);

  void emit(const sim::LoggedEvent& ev) {
    if (log_ != nullptr) log_->append(ev);
    if (sink_ != nullptr) sink_->on_event(ev);
  }

  /// Index of the calling thread's segment: its bound worker segment in
  /// this stream, else the external catch-all (the last one).
  std::size_t segment_index() const;

  // Collector (recorder.cpp).
  void collector_loop();
  void collect_pass(bool final_drain);
  void apply_record(const SegmentRecord& r, std::uint64_t& events, std::uint64_t& traces);

  // -- the books (written by the collector, read after the run) ----------
  sim::Network net_;
  dining::Trace trace_;
  sim::EventLog* log_ = nullptr;
  sim::EventSink* sink_ = nullptr;

  // -- the stream ----------------------------------------------------------
  std::atomic<bool> streaming_{false};
  StreamOptions sopt_{};
  std::uint64_t stream_gen_ = 0;  ///< invalidates stale thread bindings
  std::vector<std::unique_ptr<RecorderSegment>> segments_;  ///< workers + external (last)
  /// Merge horizon already consumed: external-segment appends clamp their
  /// keys up to this so they can never undercut merged history.
  std::atomic<std::int64_t> floor_{0};
  std::atomic<bool> shedding_{false};
  std::thread collector_;
  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  bool collector_stop_ = false;

  // Collector-owned (only the collector thread — or end_stream's final
  // drain, after the join — touches these).
  std::vector<SegmentPool> pools_;
  std::set<sim::ProcessId> crashed_seen_;
  /// Monotonic clamp on merged tick stamps; a later stream on the same
  /// Recorder continues it.
  sim::Time merged_tick_ = 0;

  mutable std::mutex stats_mu_;
  StreamStats stats_;
};

}  // namespace ekbd::rt
