#include "netproc/cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "rt/clock.hpp"

namespace ekbd::netproc {

namespace {

using Clock = std::chrono::steady_clock;

/// Wall lead for runtime partition commands: broadcast this much before
/// the window's `from` tick so the frame is in every filter when the
/// window opens (the window itself is tick-exact regardless).
constexpr std::int64_t kInjectLeadNs = 5'000'000;  // 5 ms
/// Margin between the Start broadcast and the shared epoch: every node
/// should hold the port table before tick 0.
constexpr std::int64_t kEpochMarginNs = 25'000'000;  // 25 ms

struct Action {
  enum class Kind { kKill, kCut, kSplit };
  std::int64_t wall_ns = 0;  ///< CLOCK_MONOTONIC deadline
  Kind kind = Kind::kKill;
  std::size_t index = 0;  ///< into crashes / edge_cuts / partitions
};

void decode_status(NodeOutcome& out, int status) {
  if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  }
}

/// Broadcast one already-sealed control frame to every live node, twice
/// (idempotent receivers; two independent loopback datagrams make a lost
/// command vanishingly unlikely).
void broadcast(UdpSocket& orch, const std::vector<std::uint16_t>& ports,
               const std::vector<bool>& reaped, const std::uint8_t* frame,
               std::size_t len) {
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (!reaped[i] && ports[i] != 0) (void)orch.send_to(ports[i], frame, len);
    }
  }
}

std::uint64_t side_mask_of(const net::Partition& p) {
  std::uint64_t mask = 0;
  for (const sim::ProcessId id : p.side) {
    if (id >= 0 && id < 64) mask |= 1ULL << id;
  }
  return mask;
}

}  // namespace

ClusterResult run_cluster(const ClusterOptions& opt, const NodeSetup& setup) {
  ClusterResult res;
  res.nodes.resize(opt.n);

  UdpSocket orch;
  if (!orch.ok()) {
    res.error = "orchestrator socket failed";
    return res;
  }

  // -- fork the nodes ------------------------------------------------------
  std::vector<bool> reaped(opt.n, false);
  for (std::size_t i = 0; i < opt.n; ++i) {
    NodeConfig cfg;
    cfg.self = static_cast<sim::ProcessId>(i);
    cfg.n = opt.n;
    cfg.seed = opt.seed;
    cfg.tick_ns = opt.tick_ns;
    cfg.horizon = opt.horizon;
    cfg.link_faults = opt.link_faults;
    cfg.log_path = opt.log_dir + "/node_" + std::to_string(i) + ".log";
    cfg.orch_port = orch.port();
    cfg.handshake_timeout_ms = opt.handshake_timeout_ms;
    cfg.wedge = (opt.wedge_node == cfg.self);
    res.nodes[i].log_path = cfg.log_path;

    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: this process IS node i from here on. _Exit skips atexit
      // handlers and sanitizer leak reporting — the parent owns those.
      NodeEngine engine(std::move(cfg));
      setup(engine);
      std::_Exit(engine.run());
    }
    if (pid < 0) {
      res.error = "fork failed";
      for (std::size_t j = 0; j < i; ++j) {
        ::kill(static_cast<pid_t>(res.nodes[j].pid), SIGKILL);
        int status = 0;
        ::waitpid(static_cast<pid_t>(res.nodes[j].pid), &status, 0);
        decode_status(res.nodes[j], status);
        reaped[j] = true;
      }
      return res;
    }
    res.nodes[i].pid = pid;
  }

  auto kill_and_reap = [&](std::size_t i) {
    if (reaped[i]) return;
    ::kill(static_cast<pid_t>(res.nodes[i].pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(res.nodes[i].pid), &status, 0);
    decode_status(res.nodes[i], status);
    reaped[i] = true;
  };

  // -- handshake: collect one Hello per node -------------------------------
  std::vector<std::uint16_t> ports(opt.n, 0);
  std::size_t have = 0;
  std::uint8_t buf[codec::kMaxFrameSize];
  const auto hs_deadline = Clock::now() + std::chrono::milliseconds(opt.handshake_timeout_ms);
  while (have < opt.n && Clock::now() < hs_deadline) {
    orch.wait_readable(20);
    int len = 0;
    while ((len = orch.recv(buf, sizeof buf)) > 0) {
      std::uint8_t kind = 0;
      const std::uint8_t* body = nullptr;
      std::size_t body_len = 0;
      if (codec::open_frame(buf, static_cast<std::size_t>(len), kind, body, body_len) !=
          codec::DecodeStatus::kOk) {
        continue;
      }
      if (kind != static_cast<std::uint8_t>(ControlKind::kHello)) continue;
      Hello h;
      if (!decode_hello(body, body_len, h)) continue;
      if (h.node < 0 || static_cast<std::size_t>(h.node) >= opt.n) continue;
      auto& slot = ports[static_cast<std::size_t>(h.node)];
      if (slot == 0) {
        slot = h.port;
        ++have;
      }
    }
  }
  if (have < opt.n) {
    res.error = "handshake timeout (" + std::to_string(have) + "/" +
                std::to_string(opt.n) + " nodes reported)";
    for (std::size_t i = 0; i < opt.n; ++i) kill_and_reap(i);
    return res;
  }

  // -- Start: shared epoch + port table ------------------------------------
  const std::int64_t epoch_ns = rt::TickClock::epoch_now_ns() + kEpochMarginNs;
  {
    Start start;
    start.epoch_ns = epoch_ns;
    start.ports = ports;
    const std::size_t len = encode_start(start, buf, sizeof buf);
    broadcast(orch, ports, reaped, buf, len);
  }

  // -- action schedule ------------------------------------------------------
  const auto tick_wall = [&](sim::Time t) {
    return epoch_ns + t * static_cast<std::int64_t>(opt.tick_ns);
  };
  std::vector<Action> actions;
  for (std::size_t i = 0; i < opt.crashes.size(); ++i) {
    actions.push_back({tick_wall(opt.crashes[i].second), Action::Kind::kKill, i});
  }
  for (std::size_t i = 0; i < opt.edge_cuts.size(); ++i) {
    const std::int64_t w = tick_wall(opt.edge_cuts[i].from) - kInjectLeadNs;
    actions.push_back({std::max(w, epoch_ns), Action::Kind::kCut, i});
  }
  for (std::size_t i = 0; i < opt.partitions.size(); ++i) {
    const std::int64_t w = tick_wall(opt.partitions[i].from) - kInjectLeadNs;
    actions.push_back({std::max(w, epoch_ns), Action::Kind::kSplit, i});
  }
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) { return a.wall_ns < b.wall_ns; });

  // -- supervise to the horizon ---------------------------------------------
  const std::int64_t horizon_wall = tick_wall(opt.horizon);
  std::size_t next_action = 0;
  for (;;) {
    const std::int64_t now_ns = rt::TickClock::epoch_now_ns();

    while (next_action < actions.size() && actions[next_action].wall_ns <= now_ns) {
      const Action& a = actions[next_action++];
      switch (a.kind) {
        case Action::Kind::kKill: {
          const sim::ProcessId node = opt.crashes[a.index].first;
          const auto ni = static_cast<std::size_t>(node);
          if (ni < opt.n && !reaped[ni]) {
            kill_and_reap(ni);
            // The supervisor may wake after the planned tick, and the node
            // logs until it dies: stamp the crash once it is reaped, on the
            // nodes' shared clock, so no record of the node comes after it.
            const sim::Time tick = (rt::TickClock::epoch_now_ns() - epoch_ns) /
                                   static_cast<std::int64_t>(opt.tick_ns);
            res.nodes[ni].killed_by_plan = true;
            res.nodes[ni].crash_tick = tick;
            res.crashes.emplace_back(node, tick);
            CrashNotice notice{node};
            const std::size_t len = encode_crash_notice(notice, buf, sizeof buf);
            broadcast(orch, ports, reaped, buf, len);
          }
          break;
        }
        case Action::Kind::kCut: {
          const net::EdgeCut& c = opt.edge_cuts[a.index];
          Cut cmd{c.a, c.b, c.from, c.until};
          const std::size_t len = encode_cut(cmd, buf, sizeof buf);
          broadcast(orch, ports, reaped, buf, len);
          break;
        }
        case Action::Kind::kSplit: {
          const net::Partition& p = opt.partitions[a.index];
          Split cmd{side_mask_of(p), p.from, p.until};
          const std::size_t len = encode_split(cmd, buf, sizeof buf);
          broadcast(orch, ports, reaped, buf, len);
          break;
        }
      }
    }

    // Reap early deaths without blocking (a node that crashed on its own
    // — setup failure, handshake timeout — must not stall the schedule).
    for (std::size_t i = 0; i < opt.n; ++i) {
      if (reaped[i]) continue;
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(res.nodes[i].pid), &status, WNOHANG);
      if (r > 0) {
        decode_status(res.nodes[i], status);
        reaped[i] = true;
      }
    }

    if (now_ns >= horizon_wall) break;

    std::int64_t next_ns = horizon_wall;
    if (next_action < actions.size()) next_ns = std::min(next_ns, actions[next_action].wall_ns);
    int wait_ms = static_cast<int>((next_ns - now_ns) / 1'000'000);
    wait_ms = std::max(1, std::min(wait_ms, 20));
    if (orch.wait_readable(wait_ms)) {
      // Drain late handshake duplicates so the socket never stays hot.
      while (orch.recv(buf, sizeof buf) > 0) {
      }
    }
  }

  // -- shutdown: Stop, then bounded reap ------------------------------------
  {
    const std::size_t len = encode_stop(buf, sizeof buf);
    broadcast(orch, ports, reaped, buf, len);
  }
  const auto grace_deadline = Clock::now() + std::chrono::milliseconds(opt.node_timeout_ms);
  for (std::size_t i = 0; i < opt.n; ++i) {
    while (!reaped[i]) {
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(res.nodes[i].pid), &status, WNOHANG);
      if (r > 0) {
        decode_status(res.nodes[i], status);
        reaped[i] = true;
        break;
      }
      if (Clock::now() >= grace_deadline) {
        // Wedged (or just too slow): the supervisor guarantee — a stuck
        // node fails the run, it never hangs it.
        kill_and_reap(i);
        res.nodes[i].timed_out = true;
        break;
      }
      ::usleep(2'000);
    }
  }

  // -- ship + merge the logs ------------------------------------------------
  res.parts.reserve(opt.n);
  for (std::size_t i = 0; i < opt.n; ++i) {
    res.parts.push_back(rt::load_recording(res.nodes[i].log_path));
  }
  res.merged = rt::merge_recordings(res.parts, res.crashes);

  res.ok = true;
  for (std::size_t i = 0; i < opt.n; ++i) {
    const NodeOutcome& o = res.nodes[i];
    if (o.killed_by_plan) continue;
    if (o.timed_out || o.signaled || o.exit_code != 0) {
      res.ok = false;
      if (res.error.empty()) {
        res.error = "node " + std::to_string(i) +
                    (o.timed_out ? " timed out"
                     : o.signaled
                         ? " died on signal " + std::to_string(o.term_signal)
                         : " exited with code " + std::to_string(o.exit_code));
      }
    }
  }
  return res;
}

}  // namespace ekbd::netproc
