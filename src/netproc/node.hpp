/// \file node.hpp
/// One process of the multi-process socket engine.
///
/// `NodeEngine` is the third implementation of `sim::TransportIface` (after
/// `sim::Simulator` and `rt::Runtime`): it hosts exactly ONE actor — this
/// OS process *is* that process of the distributed system — and carries
/// every message over real UDP datagrams on the loopback interface, one
/// checksummed codec frame per datagram. Crashes are real here too: the
/// orchestrator (cluster.hpp) SIGKILLs the process mid-run, which is why
/// the engine writes each record of its history straight to disk as it
/// happens (rt/log_io) instead of keeping it in memory. The cluster-wide
/// books are rebuilt from the merged logs, so a node keeps none itself.
///
/// Layering, bottom to top:
///
///  * `UdpSocket` — genuinely lossy, genuinely reordering wire;
///  * `net::LinkFaultModel` — the *injected* adversary at the socket
///    boundary: seed-deterministic drop/dup coins and partition/edge-cut
///    windows (preloaded from the config or injected at runtime by the
///    orchestrator's control frames), applied before a datagram is handed
///    to the kernel, so fault plans replay per seed exactly like the
///    simulator's;
///  * `net::ReliableTransport` (optional) — the same Stenning ARQ the
///    other engines use, one instance for this node's process, driven
///    through `sim::ArqEnv` from the one main thread;
///  * the actor — an unmodified diner (plus its hosted ◇P₁ module),
///    byte-for-byte the code the simulator runs.
///
/// Single-threadedness is the engine's whole concurrency story: socket
/// pump, timer heap, ARQ and actor handlers all run on the one main
/// thread, so handler atomicity is trivial and the order in which the
/// node writes its records is its local history. Real concurrency happens
/// *between* processes — which is exactly the granularity the paper's
/// model quantifies over.
///
/// Time: every node rebases its `TickClock` to the orchestrator-chosen
/// CLOCK_MONOTONIC epoch (Start frame), and the engine defaults to 1 ns
/// ticks, so causally ordered cross-node events carry strictly increasing
/// stamps and the shipped logs merge into a valid linearization
/// (rt/log_io.hpp). One seq counter numbers the node's physical and
/// logical sends alike, so (sender, seq) names a send cluster-wide and
/// pairs it with its delivery or drop in the merged logs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fd/detector.hpp"
#include "net/link_fault_model.hpp"
#include "net/reliable_transport.hpp"
#include "netproc/control.hpp"
#include "netproc/udp.hpp"
#include "rt/clock.hpp"
#include "rt/log_io.hpp"
#include "sim/actor.hpp"
#include "sim/rng.hpp"
#include "sim/net_hooks.hpp"

namespace ekbd::netproc {

struct NodeConfig {
  sim::ProcessId self = 0;      ///< this process's id (0-based)
  std::size_t n = 0;            ///< cluster size
  std::uint64_t seed = 1;       ///< master seed (same discipline as sim/rt)
  std::uint64_t tick_ns = 1;    ///< nanosecond ticks: merged logs linearize
  sim::Time horizon = 0;        ///< run end, in ticks

  /// Injected socket-boundary faults (drop/dup coins; reorder is what the
  /// real wire already does). Partitions and edge cuts arrive at runtime
  /// as control frames.
  net::LinkFaultParams link_faults{};

  std::string log_path;         ///< shipped log (rt/log_io framing)
  std::uint16_t orch_port = 0;  ///< orchestrator's control socket
  int handshake_timeout_ms = 10'000;

  /// Supervision-test hook: enter an infinite loop instead of finishing,
  /// so the orchestrator's per-node timeout has something to catch.
  bool wedge = false;
};

/// Exit codes NodeEngine::run returns (the orchestrator collects them).
enum NodeExit : int {
  kNodeOk = 0,
  kNodeHandshakeTimeout = 2,
  kNodeSetupFailed = 3,
  kNodeLogFailed = 4,  ///< a log write failed: the shipped log has holes
};

class NodeEngine final : public sim::ArqEnv {
 public:
  explicit NodeEngine(NodeConfig cfg);
  ~NodeEngine() override;

  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  // -- wiring (before run()) ---------------------------------------------

  /// Register this process's actor (bound to id = cfg.self).
  void set_actor(std::unique_ptr<sim::Actor> actor);

  template <typename T, typename... Args>
  T* make_actor(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    set_actor(std::move(owned));
    return raw;
  }

  /// Interpose the ARQ under the dining/other layers (detector traffic
  /// stays raw, as everywhere else). `detector` (may be null) gates
  /// retransmission quiescence; pass the same oracle the diner uses.
  void install_arq(net::ReliableTransport::Params params,
                   const fd::FailureDetector* detector = nullptr);

  /// Run `fn` on the main thread `delay` ticks from now — the node-local
  /// analogue of Runtime::call_after, used by the environment
  /// (dining::Harness). `owner` must be this node's process. Callable
  /// before run() or from handlers; a crash is a SIGKILL, so nothing
  /// outlives its incarnation.
  void call_after(sim::ProcessId owner, sim::Time delay, std::function<void()> fn) override;

  /// Keep child-side wiring (detectors, environment drivers built inside
  /// the NodeSetup callback) alive for the engine's lifetime.
  void retain(std::shared_ptr<void> obj) { retained_.push_back(std::move(obj)); }

  // -- execution ----------------------------------------------------------

  /// Handshake with the orchestrator, run to the horizon (or a Stop
  /// frame), write the clean-shutdown trailer. Returns a NodeExit code.
  int run();

  // -- queries -------------------------------------------------------------

  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  /// The node's log, and the environment's trace sink.
  [[nodiscard]] rt::LogWriter& log_writer() { return writer_; }
  /// Ground truth from the orchestrator's CrashNotice frames.
  [[nodiscard]] bool peer_crashed(sim::ProcessId p) const {
    return p >= 0 && static_cast<std::size_t>(p) < crashed_.size() &&
           crashed_[static_cast<std::size_t>(p)] != 0;
  }
  [[nodiscard]] net::LinkFaultModel& fault_model() { return filter_; }
  [[nodiscard]] net::ReliableTransport* arq() { return arq_.get(); }

  // -- sim::TransportIface -------------------------------------------------

  void send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
            sim::MsgLayer layer) override;
  sim::TimerId set_timer(sim::ProcessId owner, sim::Time delay) override;
  void cancel_timer(sim::ProcessId owner, sim::TimerId id) override;
  [[nodiscard]] sim::Time now() const override {
    return started_ ? clock_.now_ticks() : 0;
  }
  sim::Rng& actor_rng(sim::ProcessId p) override;

  // -- sim::ArqEnv ---------------------------------------------------------

  [[nodiscard]] bool crashed(sim::ProcessId p) const override { return peer_crashed(p); }
  std::uint64_t book_logical_send(sim::ProcessId from, sim::ProcessId to,
                                  const sim::Payload& payload,
                                  sim::MsgLayer layer) override;
  void book_logical_drop(sim::ProcessId from, sim::ProcessId to,
                         const sim::Payload& payload, sim::MsgLayer layer,
                         std::uint64_t logical_seq) override;
  void physical_send(sim::ProcessId from, sim::ProcessId to,
                     const sim::Payload& payload) override;
  void deliver_logical(sim::ProcessId from, sim::ProcessId to,
                       const sim::Payload& payload, sim::MsgLayer layer,
                       std::uint64_t logical_seq, sim::Time sent_at) override;

 private:
  struct TimerEntry {
    sim::Time at = 0;
    sim::TimerId id = 0;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.at > b.at || (a.at == b.at && a.id > b.id);
    }
  };

  /// The raw datagram path: number → fault filter → log → encode → sendto.
  void raw_send(sim::ProcessId from, sim::ProcessId to, const sim::Payload& payload,
                sim::MsgLayer layer);
  void transmit(const sim::Message& m);

  bool handshake();
  void drain_socket();
  void handle_frame(std::uint8_t kind, const std::uint8_t* body, std::size_t len);
  void handle_data(sim::Message m);
  void handle_control(std::uint8_t kind, const std::uint8_t* body, std::size_t len);
  /// Fire every timer due at `now`; returns when the heap's head is in the
  /// future (or a Stop arrived).
  void fire_due_timers();

  NodeConfig cfg_;
  UdpSocket sock_;
  rt::TickClock clock_;
  rt::LogWriter writer_;
  std::uint64_t next_seq_ = 0;  ///< physical and logical sends share it
  net::LinkFaultModel filter_;
  sim::Rng rng_;  ///< actor stream: Rng(seed).fork(self + 1)

  std::vector<std::shared_ptr<void>> retained_;
  std::unique_ptr<sim::Actor> actor_;
  std::unique_ptr<net::ReliableTransport> arq_;
  const fd::FailureDetector* detector_ = nullptr;

  std::vector<std::uint16_t> ports_;  ///< data port of node i (Start frame)
  std::vector<std::uint8_t> crashed_;  ///< CrashNotice ground truth

  // Timer state (main thread only) — mirrors one rt::Runtime Worker.
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timers_;
  std::unordered_set<sim::TimerId> active_;
  std::unordered_map<sim::TimerId, std::function<void()>> calls_;
  sim::TimerId next_timer_id_ = 1;

  bool started_ = false;
  bool stop_ = false;
  std::uint8_t buf_[codec::kMaxFrameSize] = {};
};

/// ◇P₁ backed by the orchestrator's CrashNotice ground truth: suspects
/// exactly the SIGKILLed, as soon as the notice datagram lands. The
/// socket-engine counterpart of `rt::RtPerfectDetector` (accurate, and
/// complete up to one control-frame latency).
class CrashNoticeDetector final : public fd::FailureDetector {
 public:
  explicit CrashNoticeDetector(const NodeEngine& node) : node_(node) {}
  [[nodiscard]] bool suspects(sim::ProcessId, sim::ProcessId target) const override {
    return node_.peer_crashed(target);
  }

 private:
  const NodeEngine& node_;
};

}  // namespace ekbd::netproc
