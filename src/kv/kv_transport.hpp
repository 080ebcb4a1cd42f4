// Transport abstraction for the mini-memcached client.
//
// A client only needs "send these bytes to server s, give me the response
// bytes"; everything else (placement, bundling, fallback) is
// transport-agnostic. Two implementations ship: LoopbackTransport
// (in-process, deterministic, used by simulators and most tests) and
// TcpClientTransport (real sockets, used by the proof-of-concept and the
// TCP micro-benchmarks).
//
// Besides the blocking roundtrip(), a transport offers a split-phase pair
// so one caller can have frames to several servers in flight at once:
// issue() hands a frame over and returns a ticket, collect() returns that
// frame's reply, cancel() discards it. The default is lazy — issue() only
// records the frame and collect() runs roundtrip() — so a transport that
// overrides nothing sees exactly the roundtrip() calls a sequential caller
// would make, in the same order. TcpClientTransport overrides the pair: it
// writes at issue() and reads replies in per-connection order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace rnb::kv {

/// What happened to one roundtrip attempt, as far as the transport can
/// tell. kOk only promises that *some* bytes came back — the client still
/// validates the frame (a faulty link may deliver truncated garbage).
enum class TransportStatus : std::uint8_t {
  kOk,
  kDropped,     // request or response lost in flight
  kServerDown,  // endpoint refused / crashed
  kTimeout,     // transport-level wait expired
};

struct TransportResult {
  TransportStatus status = TransportStatus::kOk;
  /// Virtual (fault-injected) or measured seconds this attempt took; 0 for
  /// transports that model no time. Failure policies (hedging, deadlines)
  /// consume this instead of a wall clock so runs stay deterministic.
  double latency = 0.0;

  bool ok() const noexcept { return status == TransportStatus::kOk; }
};

const char* to_string(TransportStatus status) noexcept;

/// One frame handed to KvTransport::issue(), which names it by `server`
/// and `frame`. Redeem it exactly once, with collect() or cancel(), on the
/// transport that issued it. The frame must stay unchanged and in place
/// until then.
struct Ticket {
  ServerId server = 0;
  std::string_view frame;
  /// Transport-defined; the lazy default leaves both 0. TCP keeps the
  /// frame's position in its connection's reply stream and its send time.
  std::uint64_t seq = 0;
  std::int64_t issued_ns = 0;
};

class KvTransport {
 public:
  virtual ~KvTransport() = default;

  virtual ServerId num_servers() const noexcept = 0;

  /// Send one request frame to server `s`; fill `response` with the
  /// complete response frame and report the attempt's outcome. On any
  /// non-kOk status `response` is cleared. Implementations must be safe for
  /// concurrent calls targeting different transports, and may serialize per
  /// server.
  virtual TransportResult roundtrip(ServerId s, std::string_view request,
                                    std::string& response) = 0;

  /// Start one roundtrip without waiting for it. Tickets may be collected
  /// in any order; roundtrip() calls may interleave with open tickets. One
  /// thread at a time drives a transport's tickets.
  virtual Ticket issue(ServerId s, std::string_view frame) {
    return Ticket{s, frame, 0, 0};
  }

  /// The issued frame's reply, with the same contract as roundtrip().
  virtual TransportResult collect(const Ticket& ticket,
                                  std::string& response) {
    return roundtrip(ticket.server, ticket.frame, response);
  }

  /// Give up on an issued frame: its reply, if one comes, is dropped.
  virtual void cancel(const Ticket& /*ticket*/) {}
};

}  // namespace rnb::kv
