/// \file event_log.hpp
/// Optional low-level event tracing.
///
/// The dining Trace (dining/trace.hpp) records *scheduling* events; this
/// log records the transport itself — every send, delivery, drop, timer
/// firing and crash — for debugging protocols and for rendering message
/// sequence charts (examples/msc_demo) or Perfetto traces (obs/perfetto).
/// Install with `Simulator::set_event_log`; when none is installed the
/// simulator pays a null-pointer check per event and nothing else.
///
/// For *streaming* consumers (the online invariant monitors in
/// obs/monitors.hpp) the simulator also accepts an `EventSink`: same
/// events, delivered by virtual call as they happen, nothing retained.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace ekbd::sim {

struct LoggedEvent {
  enum class Kind : std::uint8_t {
    kSend,           ///< message handed to the network
    kDeliver,        ///< message handed to the recipient
    kDrop,           ///< message reached a crashed recipient
    kTimer,          ///< a timer fired at `from`
    kCrash,          ///< process `from` crashed
    kLoss,           ///< message lost in flight (link-fault adversary)
    kDuplicate,      ///< adversary injected a duplicate copy
    kPartitionLoss,  ///< message lost because the (from,to) link was cut
    kRecover,        ///< process `from` rejoined after a crash
  };

  Time at = 0;
  Kind kind = Kind::kSend;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  MsgLayer layer = MsgLayer::kOther;
  std::uint64_t seq = 0;             ///< message seq (send/deliver/drop)
  PayloadTag payload = kNoPayloadTag;  ///< payload variant tag (messages only)

  /// Human-readable payload type ("Ping", "Fork", ...): the tag-table
  /// name — deterministic across compilers ("" for no payload).
  [[nodiscard]] std::string payload_name() const { return payload_tag_name(payload); }

  [[nodiscard]] std::string describe() const;
};

/// Streaming consumer of logged events. Installed with
/// `Simulator::set_event_sink`; receives every event the log would, in
/// the same order, as it happens. Implementations must not re-enter the
/// simulator (they observe, they do not schedule).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const LoggedEvent& ev) = 0;
};

/// Ring-buffer-less append log. For long runs prefer installing only
/// around the window of interest (set_event_log(nullptr) detaches).
///
/// Events live in a std::deque: fixed-size blocks, so an append never
/// copies what the log already holds. A doubling vector would, in one
/// pass over the whole log with the old and the new buffer both
/// resident — on a long rt run that pass stalls the collector and its
/// transient sets the process's peak memory.
class EventLog {
 public:
  /// Keep at most `cap` events (0 = unbounded). When full, appends are
  /// counted and dropped — debugging windows should be sized explicitly
  /// rather than silently eating memory; `dropped()` says how much of the
  /// run fell off the end.
  explicit EventLog(std::size_t cap = 0) : cap_(cap) {}

  void append(LoggedEvent ev) {
    if (cap_ != 0 && events_.size() >= cap_) {
      truncated_ = true;
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  [[nodiscard]] const std::deque<LoggedEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Appends refused because the log was at capacity.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    truncated_ = false;
    dropped_ = 0;
  }

  /// Count of events of one kind (convenience for tests/assertions).
  [[nodiscard]] std::size_t count(LoggedEvent::Kind kind) const {
    std::size_t n = 0;
    for (const auto& e : events_) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  /// One-line shape summary, e.g. "event log: 5194 events (cap 8192, 0
  /// dropped)".
  [[nodiscard]] std::string describe() const;

 private:
  std::size_t cap_;
  bool truncated_ = false;
  std::uint64_t dropped_ = 0;
  std::deque<LoggedEvent> events_;
};

}  // namespace ekbd::sim
