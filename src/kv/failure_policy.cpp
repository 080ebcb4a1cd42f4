#include "kv/failure_policy.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {

KvExchange::KvExchange(KvTransport& transport, const KvFailurePolicy& policy)
    : transport_(transport), policy_(policy), backoff_rng_(policy.rng_seed) {
  RNB_REQUIRE(policy.hedge_quantile >= 0.0 && policy.hedge_quantile <= 1.0);
  // Filled one sample per exchange; sized up front so it never grows
  // inside an operation.
  latency_window_.reserve(policy.latency_window);
}

bool KvExchange::deadline_exceeded(double elapsed) const {
  const double deadline = policy_.deadline;
  return deadline > 0.0 && elapsed >= deadline;
}

double KvExchange::hedge_threshold() const {
  // Quantile of the recent-latency ring; only meaningful once the window
  // has a baseline (16 samples), which keeps cold starts from hedging on
  // the very first slightly-slow response.
  const std::size_t n =
      latency_full_ ? latency_window_.size() : latency_next_;
  if (n < 16) return std::numeric_limits<double>::infinity();
  std::vector<double> sorted(latency_window_.begin(),
                             latency_window_.begin() +
                                 static_cast<std::ptrdiff_t>(n));
  std::sort(sorted.begin(), sorted.end());
  const double pos = policy_.hedge_quantile * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void KvExchange::observe_latency(double latency) {
  if (policy_.latency_window == 0) return;
  if (latency_window_.size() < policy_.latency_window) {
    latency_window_.push_back(latency);
    latency_next_ = latency_window_.size();
    return;
  }
  if (latency_next_ >= latency_window_.size()) {
    latency_next_ = 0;
    latency_full_ = true;
  }
  latency_window_[latency_next_++] = latency;
}

void KvExchange::begin(Pending& txn, ServerId server, std::string& request) {
  // Inside a multi_get the transaction joins the request's trace; a bare
  // single-key operation roots its own, so every frame that leaves the
  // client carries an identity whenever a tracer is installed.
  txn.span.open("transaction", "kv_client",
                obs::Tracer::ambient_context().valid()
                    ? obs::SpanKind::kChild
                    : obs::SpanKind::kRoot);
  txn.span.arg("server", static_cast<std::int64_t>(server));
  const obs::TraceContext ctx = txn.span.context();
  if (ctx.valid())
    append_trace_tag(request,
                     TraceTag{ctx.trace_id, ctx.span_id, ctx.sampled});
  txn.ticket = transport_.issue(server, request);
}

void KvExchange::cancel(Pending& txn) {
  transport_.cancel(txn.ticket);
  txn.span.note("outcome", "cancelled");
  txn.span.close();
}

bool KvExchange::exchange(
    ServerId server, std::string& request, std::string& response,
    double& elapsed, const std::function<bool(const std::string&)>& valid,
    bool allow_hedge) {
  // Nothing goes out once the deadline has passed: a late CAS would land
  // while its caller reports it failed.
  if (deadline_exceeded(elapsed)) return false;
  Pending txn;
  begin(txn, server, request);
  return finish(txn, response, elapsed, valid, allow_hedge);
}

bool KvExchange::finish(Pending& txn, std::string& response, double& elapsed,
                        const std::function<bool(const std::string&)>& valid,
                        bool allow_hedge) {
  const KvFailurePolicy& fp = policy_;
  const ServerId server = txn.ticket.server;
  const std::string_view request = txn.ticket.frame;
  // Retries, hedges and (in-process) server work run under the
  // transaction's span.
  const obs::ScopedTraceContext adopt(txn.span.context());
  const std::uint32_t attempts = std::max(1u, fp.max_attempts);
  double backoff = fp.base_backoff;
  for (std::uint32_t a = 0; a < attempts; ++a) {
    if (a > 0) {
      // Decorrelated jitter: each wait is uniform between the base and
      // three times the previous wait, capped. Seeded stream, no clock.
      const double hi = std::min(fp.max_backoff, 3.0 * backoff);
      backoff = fp.base_backoff +
                (hi - fp.base_backoff) * backoff_rng_.uniform01();
      elapsed += backoff;
      ++stats_.retries;
      if (obs::Tracer* t = obs::Tracer::current())
        t->instant("retry", "kv_client",
                   {{"server", static_cast<std::int64_t>(server)},
                    {"attempt", static_cast<std::int64_t>(a)}});
    }
    if (deadline_exceeded(elapsed)) {
      if (a == 0) transport_.cancel(txn.ticket);
      txn.span.close();
      return false;
    }
    ++stats_.attempts;
    // The first attempt is the issued frame's reply; later ones resend.
    const TransportResult r =
        a == 0 ? transport_.collect(txn.ticket, response)
               : transport_.roundtrip(server, request, response);
    double cost = r.latency;
    bool ok = r.ok();
    if (!ok) {
      ++stats_.transport_errors;
    } else if (response.empty()) {
      // A zero-byte response is a closed or dying peer, never a valid
      // frame (every reply ends in a verb line or END) — treat it as a
      // transport error, not a clean miss.
      ++stats_.empty_responses;
      ok = false;
    } else if (valid && !valid(response)) {
      ++stats_.malformed_responses;
      ok = false;
    }
    if (fp.hedging && allow_hedge) {
      const double threshold = hedge_threshold();
      if (!ok || r.latency > threshold) {
        // The duplicate would have been launched `threshold` after the
        // primary; synchronously, the winner costs min(primary, threshold
        // + hedge). Same server, same frame — duplicates are idempotent.
        ++stats_.hedged_sends;
        if (obs::Tracer* t = obs::Tracer::current())
          t->instant("hedge", "kv_client",
                     {{"server", static_cast<std::int64_t>(server)},
                      {"attempt", static_cast<std::int64_t>(a)}});
        std::string hedge_response;
        const TransportResult h =
            transport_.roundtrip(server, request, hedge_response);
        const double hedge_cost =
            std::min(threshold, r.latency) + h.latency;
        const bool hedge_delivered = h.ok() && !hedge_response.empty();
        const bool hedge_ok =
            hedge_delivered && (!valid || valid(hedge_response));
        if (hedge_ok && (!ok || hedge_cost < cost)) {
          ++stats_.hedge_wins;
          response = std::move(hedge_response);
          cost = ok ? std::min(cost, hedge_cost) : hedge_cost;
          ok = true;
        }
        // The validator last looked at the hedge's bytes; show it the frame
        // actually kept, so state it derived (parsed views) matches it.
        if (ok && hedge_delivered && valid) valid(response);
      }
    }
    elapsed += cost;
    if (ok) {
      observe_latency(cost);
      txn.span.close();
      return true;
    }
  }
  txn.span.note("outcome", "failed");
  txn.span.close();
  return false;
}

std::optional<std::vector<Value>> KvExchange::finish_values(
    Pending& txn, std::string& response, bool with_versions,
    double& elapsed) {
  // The validity check's parse is the result: the validator's last call
  // always saw the frame finish() kept.
  std::optional<std::vector<Value>> values;
  const bool ok = finish(txn, response, elapsed,
                         [&values, with_versions](const std::string& resp) {
                           values = parse_values(resp, with_versions);
                           return values.has_value();
                         });
  if (!ok) return std::nullopt;
  return values;
}

}  // namespace rnb::kv
