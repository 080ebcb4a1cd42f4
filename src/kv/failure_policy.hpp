// Failure policy and the per-transaction exchange engine shared by
// everything that talks to kv servers.
//
// The policy is bounded retries with decorrelated jitter, quantile hedging
// and virtual deadlines. The cluster client (dserve's KvClusterClient)
// runs it for every operation, and the membership controller and the
// migration driver for theirs, so the machinery lives here once:
// KvExchange owns the jitter stream, the recent-latency window, and the
// lifetime counters, and runs one transaction end to end — trace-tagging
// the frame, applying retries and hedges, validating the response. A
// transaction can also run in two steps, begin() then finish(), so a
// client can issue a wave of frames to several servers before it waits for
// any reply. All timing is virtual (transports report each roundtrip's
// latency and the engine accumulates it, plus computed backoff waits, into
// the caller's elapsed total), so runs stay reproducible under fault
// injection.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kv/kv_transport.hpp"
#include "kv/protocol.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {

/// Failure policy for every client operation. All timing is virtual: the
/// transport reports each roundtrip's latency and the client accumulates it
/// (plus computed backoff waits) into a per-operation elapsed total — no
/// wall clock is ever read, so runs are reproducible under fault injection.
struct KvFailurePolicy {
  /// Total sends per transaction, first try included. 1 disables retries.
  std::uint32_t max_attempts = 3;
  /// Decorrelated-jitter exponential backoff (seeded, deterministic):
  /// wait_k = min(max_backoff, uniform(base_backoff, 3 * wait_{k-1})).
  double base_backoff = 1e-4;
  double max_backoff = 5e-2;
  /// Per-operation virtual deadline in seconds; 0 disables it. When the
  /// accumulated elapsed time crosses the deadline, the operation stops
  /// issuing transactions and reports what it has.
  double deadline = 0.0;
  /// Hedged duplicate sends: when a delivered response was slower than the
  /// `hedge_quantile` of recently observed latencies, a duplicate of the
  /// same request is issued and the faster answer wins. Emulates "send a
  /// backup request after the p-th percentile delay" synchronously: the
  /// winner's cost is min(primary, threshold + hedge latency).
  bool hedging = false;
  double hedge_quantile = 0.95;
  /// Observed-latency window feeding the hedge threshold; hedging stays
  /// idle until the window holds at least 16 samples.
  std::size_t latency_window = 128;
  /// Cover re-planning rounds in multi_get when a server eats all attempts.
  std::uint32_t max_recover_rounds = 2;
  /// Seed for the backoff jitter stream (independent of placement).
  std::uint64_t rng_seed = 0xb0ffULL;
};

/// Cumulative failure-handling counters across a client's lifetime.
struct KvFailureStats {
  std::uint64_t attempts = 0;       // every transaction send
  std::uint64_t retries = 0;        // attempts beyond each first send
  std::uint64_t transport_errors = 0;  // dropped / down / timeout results
  std::uint64_t malformed_responses = 0;  // delivered but unparseable
  std::uint64_t empty_responses = 0;  // delivered zero-byte (peer died)
  std::uint64_t hedged_sends = 0;   // duplicate sends issued
  std::uint64_t hedge_wins = 0;     // duplicates that beat the primary
  std::uint64_t deadline_misses = 0;  // operations cut short
  std::uint64_t recover_rounds = 0;   // multi_get cover re-plans
};

/// One transaction with the failure policy applied, reusable by any client
/// built over a KvTransport. Not thread-safe: one KvExchange per client,
/// one client per worker thread (the web-tier model).
class KvExchange {
 public:
  KvExchange(KvTransport& transport, const KvFailurePolicy& policy);

  /// One transaction between begin() and finish(): the ticket its first
  /// attempt went out on (which names its server and frame; retries resend
  /// that frame), and its trace span.
  struct Pending {
    Ticket ticket;
    obs::OpenSpan span;
  };

  /// Start one transaction: open its "transaction" span (inside a traced
  /// operation it joins that trace, otherwise it roots its own), tag
  /// `request` with it when a tracer is installed, and issue the frame.
  /// `request` must stay in place until finish() or cancel().
  void begin(Pending& txn, ServerId server, std::string& request);

  /// Finish a begun transaction. Its first attempt is the issued frame's
  /// reply; bounded retries with decorrelated-jitter backoff, a hedged
  /// duplicate on a slow response, and virtual-deadline accounting via
  /// `elapsed` follow as roundtrips. Success means the response in
  /// `response` was delivered, is non-empty (a zero-byte "response" is a
  /// dead peer, never a valid frame), and passes `valid` when given.
  /// `valid` may keep what it derives from a frame (say, parsed views of
  /// it): on success its most recent call was on `response` as returned.
  /// `allow_hedge` must be false for non-idempotent frames (CAS): a hedged
  /// duplicate that loses the race would report EXISTS for its own twin.
  bool finish(Pending& txn, std::string& response, double& elapsed,
              const std::function<bool(const std::string&)>& valid = {},
              bool allow_hedge = true);

  /// finish() whose validity check is "parses as a VALUE frame" — a
  /// truncated frame counts as a transport error and is retried. Returns
  /// the parsed values on success.
  std::optional<std::vector<Value>> finish_values(Pending& txn,
                                                  std::string& response,
                                                  bool with_versions,
                                                  double& elapsed);

  /// Drop a begun transaction unfinished (a deadline cut it): its frame's
  /// reply is discarded and its span closes as cancelled.
  void cancel(Pending& txn);

  /// begin() then finish(): one transaction start to finish. Sends
  /// nothing, and fails, once `elapsed` is past the deadline.
  bool exchange(ServerId server, std::string& request, std::string& response,
                double& elapsed,
                const std::function<bool(const std::string&)>& valid = {},
                bool allow_hedge = true);

  /// True when `elapsed` crossed the policy deadline. Does not count the
  /// miss — callers account deadline_misses per operation, not per check.
  bool deadline_exceeded(double elapsed) const;

  const KvFailurePolicy& policy() const noexcept { return policy_; }
  KvFailureStats& stats() noexcept { return stats_; }
  const KvFailureStats& stats() const noexcept { return stats_; }

 private:
  double hedge_threshold() const;
  void observe_latency(double latency);

  KvTransport& transport_;
  KvFailurePolicy policy_;
  // Failure-policy state: jitter stream, recent-latency ring, counters.
  Xoshiro256 backoff_rng_;
  std::vector<double> latency_window_;
  std::size_t latency_next_ = 0;
  bool latency_full_ = false;
  KvFailureStats stats_;
};

}  // namespace rnb::kv
