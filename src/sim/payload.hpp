/// \file payload.hpp
/// The closed universe of wire types, as one `std::variant`.
///
/// The paper's channel-capacity analysis (§7) is what makes this closure
/// sound: between any pair of neighbors at most one fork, one token and
/// two ping/acks are ever in transit, and every message is one of a small
/// fixed set of constant-size records (the only payload data is a color —
/// hence the O(log n) message size of §7 / P5). A dynamically typed
/// envelope (`std::any`) therefore buys nothing and costs an allocation
/// plus RTTI on every send; `sim::Payload` replaces it with a flat
/// 32-byte tagged union, which is what keeps the simulator's
/// send→deliver path allocation-free (see docs/PERF.md).
///
/// Every protocol's wire structs are *defined* here (their home headers
/// include this file) because the variant must see complete types. To add
/// a wire type: define the struct in its home namespace below, append it
/// to the `Payload` alternative list (append — the tag order is part of
/// the DataSegment wire encoding), and keep it trivially copyable and
/// within the size budget enforced by the static_asserts at the bottom.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "sim/time.hpp"

namespace ekbd::sim {

/// Which subsystem a message belongs to, for per-layer accounting.
enum class MsgLayer : std::uint8_t {
  kDining,     ///< ping/ack/fork/token traffic of a dining algorithm
  kDetector,   ///< failure-detector heartbeats
  kOther,      ///< anything else (tests, examples)
  kTransport,  ///< ARQ segments/acks of net::ReliableTransport (physical)
};

/// Number of MsgLayer values (per-layer bookkeeping array sizes).
inline constexpr int kNumMsgLayers = 4;

/// Generic value payload — the escape hatch for tests, examples and
/// harness plumbing that need to send "some number" without minting a
/// protocol wire type.
struct Datum {
  std::int64_t value = 0;
};

}  // namespace ekbd::sim

// -- core: Algorithm 1 wire format (paper §3 / §7) -------------------------
//
// Four message types, matching the paper's channel-capacity analysis.
// Sender identity comes from the simulator's message envelope; the only
// payload data is the requester's color inside a fork request.

namespace ekbd::core {

/// Doorway ack solicitation (Action 2 → Action 3).
struct Ping {};

/// Doorway permission (Action 3/10 → Action 4).
struct Ack {};

/// Fork request; sending it passes the shared token to the fork holder
/// (Action 6 → Action 7). Carries the requester's static color, which the
/// holder compares against its own (higher color wins).
struct ForkRequest {
  int color = 0;
};

/// The shared fork itself (Action 7/10 → Action 8).
struct Fork {};

// -- dynamic-graph extension (load harness: churn + crash-recovery) --------
//
// Five control messages layered on top of Algorithm 1 for scenarios whose
// conflict graph changes mid-run. All are constant-size (§7 still holds)
// and only ever travel on reliable FIFO channels: the safety arguments in
// docs/LOADGEN.md lean on FIFO ordering between these and the dining
// messages they fence.

/// Edge addition, initiator → acceptor: "we now conflict; my color is
/// `color`". Sent while the initiator is thinking.
struct EdgeProposal {
  int color = 0;
};

/// Edge addition, acceptor → initiator. The acceptor placed the initial
/// fork/token (higher color holds the fork, ties broken toward the higher
/// id) and reports its color plus which side got the fork so both ends
/// agree. Fields sized to leave no padding (raw bytes travel through
/// pack_payload).
struct EdgeAccept {
  std::int32_t color = 0;
  std::uint32_t acceptor_has_fork = 0;
};

/// Edge removal (either direction). The sender has already dropped the
/// edge; the receiver drops it on delivery and FIFO guarantees no dining
/// message for the dead edge arrives afterwards.
struct EdgeDrop {};

/// Rejoin solicitation from a recovered process. `epoch` counts the
/// sender's incarnations; stale acks from a previous incarnation echo an
/// older epoch and are ignored.
struct RejoinRequest {
  std::uint32_t epoch = 0;
};

/// Rejoin answer: the surviving neighbor reports who holds the shared
/// fork and token so the recovered process rebuilds its half of the edge
/// state without ever minting a second fork. Fields are sized to leave no
/// padding (the raw bytes travel through pack_payload).
struct RejoinAck {
  std::uint32_t epoch = 0;
  std::uint16_t has_fork = 0;
  std::uint16_t has_token = 0;
};

}  // namespace ekbd::core

// -- fd: failure-detector wire format --------------------------------------

namespace ekbd::fd {

/// Wire format of a heartbeat (sender comes from the envelope).
struct Heartbeat {};

/// Probe and its echo. `seq` matches responses to requests (stale echoes
/// from a previous probe round are ignored, not misread as fresh).
struct Probe {
  std::uint64_t seq = 0;
};
struct ProbeEcho {
  std::uint64_t seq = 0;
};

}  // namespace ekbd::fd

// -- drinking: bottle wire format ------------------------------------------

namespace ekbd::drinking {

/// Bottle wire format (mirrors core::ForkRequest / core::Fork). The
/// request carries whether the requester was eating when it asked: under
/// ◇WX two neighbors may *co-eat* before the detector converges, and both
/// deferring the shared bottle would deadlock — the tie-break (lower
/// color yields to a co-eating higher color) breaks exactly that case and
/// never fires once exclusion holds.
struct BottleRequest {
  bool requester_eating = false;
};
struct Bottle {};
/// Sent when a requester with an outstanding (possibly deferred) request
/// *starts eating*: its earlier request may carry a stale
/// `requester_eating = false`, and the co-eating tie-break must still see
/// the escalated priority. FIFO guarantees the escalation arrives after
/// the request it upgrades.
struct BottleEscalate {};

}  // namespace ekbd::drinking

// -- net: ARQ segment wire format ------------------------------------------

namespace ekbd::net {

/// Physical wire format of the ARQ shim: one logical message per data
/// segment. The carried logical payload cannot be a `sim::Payload` member
/// (the variant would be recursive), so it is nested as its variant tag
/// plus its raw bytes — every payload the transport covers is trivially
/// copyable and at most 8 bytes (enforced via `sim::pack_payload`), the
/// same constant-size-record property §7 rests on. Bookkeeping fields are
/// bit-packed into one word; the widths bound a single run at 2^26 ARQ
/// segments per directed edge and 2^30 logical sends per ARQ, far above
/// any experiment in this repository. A sequence number past its field
/// is refused with std::out_of_range in every build type: masked, it
/// would book the delivery against another message.
struct DataSegment {
  // header: [ seq:26 | logical_seq:30 | layer:2 | inner_tag:6 ]
  std::uint64_t header = 0;
  std::uint64_t inner_bits = 0;      ///< raw bytes of the logical payload
  ekbd::sim::Time logical_sent_at = 0;  ///< sender hand-off time to the ARQ

  static constexpr std::uint64_t kMaxSeq = (1ULL << 26) - 1;
  static constexpr std::uint64_t kMaxLogicalSeq = (1ULL << 30) - 1;

  DataSegment() = default;
  DataSegment(std::uint64_t seq, ekbd::sim::MsgLayer layer, std::uint64_t logical_seq,
              ekbd::sim::Time sent_at, std::uint8_t inner_tag, std::uint64_t bits)
      : header((checked(seq, kMaxSeq) << 38) | (checked(logical_seq, kMaxLogicalSeq) << 8) |
               (static_cast<std::uint64_t>(layer) << 6) | (inner_tag & 0x3F)),
        inner_bits(bits),
        logical_sent_at(sent_at) {}

  [[nodiscard]] std::uint64_t seq() const { return header >> 38; }
  [[nodiscard]] std::uint64_t logical_seq() const { return (header >> 8) & kMaxLogicalSeq; }
  [[nodiscard]] ekbd::sim::MsgLayer layer() const {
    return static_cast<ekbd::sim::MsgLayer>((header >> 6) & 0x3);
  }
  [[nodiscard]] std::uint8_t inner_tag() const {
    return static_cast<std::uint8_t>(header & 0x3F);
  }

 private:
  static std::uint64_t checked(std::uint64_t value, std::uint64_t max) {
    if (value > max) throw std::out_of_range("DataSegment: sequence number exceeds its field");
    return value;
  }
};

/// Cumulative acknowledgement: "I have delivered everything < cumulative".
struct AckSegment {
  std::uint64_t cumulative = 0;
};

}  // namespace ekbd::net

namespace ekbd::sim {

/// The closed set of everything that travels on a channel. `monostate`
/// is the empty envelope; `int` and `Datum` serve tests/examples. Append
/// new alternatives at the end: the index is the wire tag DataSegment
/// uses to nest logical payloads.
using Payload = std::variant<std::monostate,
                             core::Ping,
                             core::Ack,
                             core::ForkRequest,
                             core::Fork,
                             fd::Heartbeat,
                             fd::Probe,
                             fd::ProbeEcho,
                             drinking::BottleRequest,
                             drinking::Bottle,
                             drinking::BottleEscalate,
                             net::DataSegment,
                             net::AckSegment,
                             int,
                             Datum,
                             core::EdgeProposal,
                             core::EdgeAccept,
                             core::EdgeDrop,
                             core::RejoinRequest,
                             core::RejoinAck>;

namespace detail {
template <typename V>
struct AllTriviallyCopyable;
template <typename... Ts>
struct AllTriviallyCopyable<std::variant<Ts...>>
    : std::conjunction<std::is_trivially_copyable<Ts>...> {};
}  // namespace detail

// The whole point: a Payload is a flat value — copying one is a memcpy,
// destroying one is free, and none of it ever touches the heap.
static_assert(sizeof(Payload) <= 32, "keep the message envelope small (§7: O(log n))");
static_assert(detail::AllTriviallyCopyable<Payload>::value,
              "wire types must be trivially copyable (zero-allocation hot path)");
static_assert(std::variant_size_v<Payload> <= 64,
              "DataSegment packs the tag into 6 bits");

/// Payload discriminator for the event log and the telemetry layer: the
/// variant index, a single byte. Tag 0 (monostate) doubles as "no
/// payload" — timers and crashes carry it instead of a fake type.
using PayloadTag = std::uint8_t;

/// The empty-envelope tag (monostate).
inline constexpr PayloadTag kNoPayloadTag = 0;

/// Tag of the held alternative.
[[nodiscard]] inline PayloadTag payload_tag(const Payload& p) {
  return static_cast<PayloadTag>(p.index());
}

namespace detail {
template <typename T, std::size_t I = 0>
constexpr std::size_t payload_index_of() {
  static_assert(I < std::variant_size_v<Payload>, "T is not a Payload alternative");
  if constexpr (std::is_same_v<std::variant_alternative_t<I, Payload>, T>) {
    return I;
  } else {
    return payload_index_of<T, I + 1>();
  }
}
}  // namespace detail

/// Compile-time tag of a specific wire type — lets streaming observers
/// match e.g. core::Fork events without constructing a Payload.
template <typename T>
inline constexpr PayloadTag kPayloadTagOf =
    static_cast<PayloadTag>(detail::payload_index_of<T>());

/// Deterministic human-readable name of a tag ("Ping", "Fork", ...;
/// monostate reads as "" — "no payload"). Unlike RTTI demangling, the
/// table below is identical on every compiler and toolchain.
[[nodiscard]] inline const char* payload_tag_name(PayloadTag tag) {
  static constexpr const char* kNames[] = {
      "",          "Ping",          "Ack",    "ForkRequest",    "Fork",
      "Heartbeat", "Probe",         "ProbeEcho",
      "BottleRequest", "Bottle",    "BottleEscalate",
      "DataSegment",   "AckSegment", "int",   "Datum",
      "EdgeProposal",  "EdgeAccept", "EdgeDrop",
      "RejoinRequest", "RejoinAck"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == std::variant_size_v<Payload>,
                "add the new alternative's name (same position as in the variant)");
  return tag < std::variant_size_v<Payload> ? kNames[tag] : "?";
}

/// True for alternatives DataSegment can nest: at most one word of raw
/// bytes. The transport never covers MsgLayer::kTransport, so DataSegment
/// itself (the only oversize alternative) never needs to pack.
template <typename T>
inline constexpr bool is_packable_payload_v =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t);

/// Encode `p` as (variant tag, raw bytes) for nesting inside a
/// DataSegment. Returns false for the (never transported) oversize
/// alternatives.
[[nodiscard]] inline bool pack_payload(const Payload& p, std::uint8_t& tag,
                                       std::uint64_t& bits) {
  tag = static_cast<std::uint8_t>(p.index());
  bits = 0;
  return std::visit(
      [&bits](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_empty_v<T>) {
          // An empty wire struct's single byte is padding, not data:
          // copying it would leak an indeterminate byte into the encoding
          // (and into the model checker's state keys, where it breaks
          // state dedup). Canonical form is bits == 0.
          (void)v;
          return true;
        } else if constexpr (is_packable_payload_v<T>) {
          std::memcpy(&bits, static_cast<const void*>(&v), sizeof(T));
          return true;
        } else {
          (void)v;
          return false;
        }
      },
      p);
}

namespace detail {
template <std::size_t I>
Payload unpack_at(std::size_t tag, std::uint64_t bits) {
  if constexpr (I < std::variant_size_v<Payload>) {
    if (tag == I) {
      using T = std::variant_alternative_t<I, Payload>;
      if constexpr (is_packable_payload_v<T>) {
        T v{};
        // void* casts: the types are trivially copyable (static_assert
        // above); NSDMIs alone trip gcc's -Wclass-memaccess.
        std::memcpy(static_cast<void*>(&v), &bits, sizeof(T));
        return Payload{std::in_place_index<I>, v};
      } else {
        return Payload{};  // oversize tags never appear on the wire
      }
    }
    return unpack_at<I + 1>(tag, bits);
  } else {
    (void)bits;
    return Payload{};  // unknown tag: empty envelope
  }
}
}  // namespace detail

/// Inverse of `pack_payload`.
[[nodiscard]] inline Payload unpack_payload(std::uint8_t tag, std::uint64_t bits) {
  return detail::unpack_at<0>(tag, bits);
}

}  // namespace ekbd::sim
