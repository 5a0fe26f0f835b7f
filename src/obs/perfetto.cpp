#include "obs/perfetto.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "obs/json.hpp"

namespace ekbd::obs {

namespace {

/// One emitter for every trace-event record: the format repeats the same
/// (ph, ts, pid, tid, name) envelope, so build it in one place.
class Emitter {
 public:
  void event(const char* ph, sim::Time ts, sim::ProcessId tid, const std::string& name,
             const char* cat, const std::string& extra) {
    if (!out_.empty()) out_ += ',';
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"%s\",\"ts\":%lld,\"pid\":0,\"tid\":%d", ph,
                  static_cast<long long>(ts), tid);
    out_ += buf;
    out_ += ",\"name\":" + json::quote(name);
    out_ += ",\"cat\":\"";
    out_ += cat;
    out_ += '"';
    if (!extra.empty()) {
      out_ += ',';
      out_ += extra;
    }
    out_ += '}';
    if (tid >= 0) seen_tid(tid);
  }

  void span(sim::Time ts, sim::Time dur, sim::ProcessId tid, const std::string& name,
            const char* cat) {
    event("X", ts, tid, name, cat, "\"dur\":" + std::to_string(dur < 1 ? 1 : dur));
  }

  void instant(sim::Time ts, sim::ProcessId tid, const std::string& name, const char* cat) {
    event("i", ts, tid, name, cat, "\"s\":\"t\"");
  }

  void flow(const char* ph, sim::Time ts, sim::ProcessId tid, const std::string& name,
            std::uint64_t id) {
    std::string extra = "\"id\":" + std::to_string(id);
    if (ph[0] == 'f') extra += ",\"bp\":\"e\"";
    event(ph, ts, tid, name, "msg", extra);
  }

  void seen_tid(sim::ProcessId tid) {
    if (tid >= 0) tids_.insert(tid);
  }

  [[nodiscard]] std::string finish() const {
    // Thread-name metadata gives every process a labeled track.
    std::string meta;
    for (const sim::ProcessId tid : tids_) {
      if (!meta.empty()) meta += ',';
      meta += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
              ",\"name\":\"thread_name\",\"args\":{\"name\":\"p" + std::to_string(tid) +
              "\"}}";
    }
    std::string doc = "{\"traceEvents\":[";
    doc += meta;
    if (!meta.empty() && !out_.empty()) doc += ',';
    doc += out_;
    doc += "]}";
    return doc;
  }

 private:
  std::string out_;
  std::set<sim::ProcessId> tids_;
};

std::string msg_name(const sim::LoggedEvent& ev) {
  const std::string n = ev.payload_name();
  return n.empty() ? std::string("msg") : n;
}

void render_log(const sim::EventLog& log, Emitter& em) {
  // rt and proc number each sender's messages from 0, so (sender, seq) names
  // a message; each name gets a dense flow id in order of first appearance.
  std::map<std::pair<sim::ProcessId, std::uint64_t>, std::uint64_t> flow_ids;
  const auto flow_id = [&](const sim::LoggedEvent& ev) {
    return flow_ids.try_emplace({ev.from, ev.seq}, flow_ids.size()).first->second;
  };
  for (const sim::LoggedEvent& ev : log.events()) {
    switch (ev.kind) {
      case sim::LoggedEvent::Kind::kSend:
        em.span(ev.at, 1, ev.from, "send " + msg_name(ev), "msg");
        em.flow("s", ev.at, ev.from, msg_name(ev), flow_id(ev));
        break;
      case sim::LoggedEvent::Kind::kDeliver:
        em.span(ev.at, 1, ev.to, "recv " + msg_name(ev), "msg");
        em.flow("f", ev.at, ev.to, msg_name(ev), flow_id(ev));
        break;
      case sim::LoggedEvent::Kind::kDrop:
        em.instant(ev.at, ev.to, "drop " + msg_name(ev), "fault");
        break;
      case sim::LoggedEvent::Kind::kLoss:
        em.instant(ev.at, ev.to, "loss " + msg_name(ev), "fault");
        break;
      case sim::LoggedEvent::Kind::kPartitionLoss:
        em.instant(ev.at, ev.to, "cut " + msg_name(ev), "fault");
        break;
      case sim::LoggedEvent::Kind::kDuplicate:
        em.instant(ev.at, ev.from, "dup " + msg_name(ev), "fault");
        break;
      case sim::LoggedEvent::Kind::kTimer:
        break;  // timers would drown everything else; sessions carry the story
      case sim::LoggedEvent::Kind::kCrash:
        em.instant(ev.at, ev.from, "CRASH", "crash");
        break;
      case sim::LoggedEvent::Kind::kRecover:
        em.instant(ev.at, ev.from, "RECOVER", "crash");
        break;
    }
  }
}

void render_sessions(const dining::Trace& trace, Emitter& em) {
  std::map<sim::ProcessId, sim::Time> hungry_since;
  std::map<sim::ProcessId, sim::Time> eating_since;
  for (const dining::TraceEvent& ev : trace.events()) {
    switch (ev.kind) {
      case dining::TraceEventKind::kBecameHungry:
        hungry_since[ev.process] = ev.at;
        em.seen_tid(ev.process);
        break;
      case dining::TraceEventKind::kStartEating: {
        const auto it = hungry_since.find(ev.process);
        if (it != hungry_since.end()) {
          em.span(it->second, ev.at - it->second, ev.process, "hungry", "session");
          hungry_since.erase(it);
        }
        eating_since[ev.process] = ev.at;
        break;
      }
      case dining::TraceEventKind::kStopEating: {
        const auto it = eating_since.find(ev.process);
        if (it != eating_since.end()) {
          em.span(it->second, ev.at - it->second, ev.process, "eat", "session");
          eating_since.erase(it);
        }
        break;
      }
      case dining::TraceEventKind::kCrashed: {
        em.instant(ev.at, ev.process, "CRASH", "crash");
        // A crash cuts any open episode short at the crash time.
        auto h = hungry_since.find(ev.process);
        if (h != hungry_since.end()) {
          em.span(h->second, ev.at - h->second, ev.process, "hungry", "session");
          hungry_since.erase(h);
        }
        auto e = eating_since.find(ev.process);
        if (e != eating_since.end()) {
          em.span(e->second, ev.at - e->second, ev.process, "eat", "session");
          eating_since.erase(e);
        }
        break;
      }
      default:
        break;  // doorway + network-fault records: not session boundaries
    }
  }
  // Clip episodes still open at the horizon.
  const sim::Time horizon = trace.end_time();
  for (const auto& [p, since] : hungry_since) {
    em.span(since, horizon - since, p, "hungry", "session");
  }
  for (const auto& [p, since] : eating_since) {
    em.span(since, horizon - since, p, "eat", "session");
  }
}

void render_counters(const std::vector<CounterSample>& counters, Emitter& em) {
  for (const CounterSample& c : counters) {
    char args[64];
    std::snprintf(args, sizeof(args), "\"args\":{\"value\":%.6g}", c.value);
    em.event("C", c.at, 0, c.track, "counter", args);
  }
}

}  // namespace

std::string chrome_trace_json(const sim::EventLog* log, const dining::Trace* trace,
                              const PerfettoOptions& opts) {
  return chrome_trace_json(log, trace, std::vector<CounterSample>{}, opts);
}

std::string chrome_trace_json(const sim::EventLog* log, const dining::Trace* trace,
                              const std::vector<CounterSample>& counters,
                              const PerfettoOptions& opts) {
  Emitter em;
  if (opts.sessions && trace != nullptr) render_sessions(*trace, em);
  if (opts.message_flows && log != nullptr) render_log(*log, em);
  render_counters(counters, em);
  return em.finish();
}

}  // namespace ekbd::obs
