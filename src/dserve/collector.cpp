#include "dserve/collector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "kv/protocol.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/trace.hpp"

namespace rnb::dserve {
namespace {

constexpr std::string_view kEndFrame = "END\r\n";
// Trace-id-labelled gauges: every sample is a fresh one-point series, so
// ingesting them would grow the key space without bound.
constexpr std::string_view kSkipFamily = "rnb_kv_slow_transaction_cost";

std::string series_key(const std::string& prefix,
                       const obs::PromSample& sample) {
  std::string key = prefix;
  key += sample.name;
  if (!sample.labels.empty()) {
    key += '{';
    key += sample.label_body();
    key += '}';
  }
  return key;
}

double ring_rate(const obs::SeriesStore& store, const std::string& key) {
  const obs::TimeSeries* ts = store.find(key);
  return ts == nullptr ? 0.0 : ts->rate_last_per_s();
}

double ring_last(const obs::SeriesStore& store, const std::string& key) {
  const obs::TimeSeries* ts = store.find(key);
  return ts == nullptr ? 0.0 : ts->last();
}

double ring_delta_last(const obs::SeriesStore& store, const std::string& key) {
  const obs::TimeSeries* ts = store.find(key);
  return ts == nullptr ? 0.0 : ts->delta_last();
}

}  // namespace

MetricsCollector::MetricsCollector(kv::KvTransport& transport,
                                   CollectorConfig config)
    : transport_(transport),
      config_(std::move(config)),
      store_(config_.samples_per_series),
      detector_(config_.health),
      recorder_(&store_, config_.verdict_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

MetricsCollector::~MetricsCollector() { stop(); }

void MetricsCollector::add_local_source(std::string instance,
                                        std::function<std::string()> render) {
  std::lock_guard<std::mutex> lock(mutex_);
  locals_.emplace_back(std::move(instance), std::move(render));
}

bool MetricsCollector::ingest(const std::string& prefix, std::string_view text,
                              std::uint64_t now_us, obs::PromScrape& parsed) {
  if (!obs::parse_prometheus(text, parsed)) return false;
  for (const obs::PromFamily& fam : parsed.families) {
    if (fam.name == kSkipFamily) continue;
    for (const obs::PromSample& s : fam.samples)
      store_.series(series_key(prefix, s)).append(now_us, s.value);
  }
  return true;
}

obs::HealthVerdict MetricsCollector::scrape_once(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mutex_);

  obs::ClusterSample sample;
  sample.t_us = now_us;
  const ServerId fleet = transport_.num_servers();
  sample.servers_total = fleet;
  sample.up.assign(fleet, 0);
  sample.server_txns_per_s.assign(fleet, 0.0);

  // Each sweep is one trace when a tracer is installed: the stats frames
  // carry the sweep's root span, so every server's stats transaction
  // stitches under it instead of rooting a context-free tree.
  obs::SpanScope scrape_span("scrape", "collector",
                             obs::SpanScope::Kind::kRoot);
  const obs::TraceContext ctx = scrape_span.context();
  obs::Histogram merged(7);
  std::string request;
  kv::encode_stats(request,
                   kv::TraceTag{ctx.trace_id, ctx.span_id, ctx.sampled});

  for (ServerId s = 0; s < fleet; ++s) {
    std::string response;
    const kv::TransportResult result =
        transport_.roundtrip(s, request, response);
    if (result.status != kv::TransportStatus::kOk) continue;  // down: a mark
    std::string_view text = response;
    if (text.size() >= kEndFrame.size() &&
        text.substr(text.size() - kEndFrame.size()) == kEndFrame)
      text.remove_suffix(kEndFrame.size());

    std::string prefix = "s" + std::to_string(s) + ":";
    obs::PromScrape parsed;
    if (!ingest(prefix, text, now_us, parsed)) continue;  // garbled: a mark
    sample.up[s] = 1;
    ++sample.servers_up;

    sample.server_txns_per_s[s] =
        ring_rate(store_, prefix + "rnb_kv_transactions_total");
    sample.txns_per_s += sample.server_txns_per_s[s];
    sample.items_per_s +=
        ring_rate(store_, prefix + "rnb_kv_keys_returned_total");

    if (const obs::PromFamily* fam =
            parsed.family("rnb_kv_shard_lock_contended_total")) {
      for (const obs::PromSample& shard_sample : fam->samples) {
        const std::string* shard = shard_sample.label("shard");
        if (shard == nullptr) continue;
        obs::ShardLoad load;
        load.server = s;
        load.shard =
            static_cast<std::uint32_t>(std::strtoul(shard->c_str(), nullptr, 10));
        load.contended_per_s =
            ring_rate(store_, series_key(prefix, shard_sample));
        load.acquisitions_per_s = ring_rate(
            store_, prefix + "rnb_kv_shard_lock_acquisitions_total{shard=\"" +
                        *shard + "\"}");
        sample.shards.push_back(load);
      }
    }

    if (const obs::PromFamily* fam = parsed.family(config_.latency_family)) {
      if (auto h = obs::assemble_histogram(*fam, "", config_.latency_scale))
        merged.merge(*h);
    }
  }

  if (!merged.empty()) {
    sample.p50_us = static_cast<double>(merged.quantile(0.5));
    sample.p99_us = static_cast<double>(merged.quantile(0.99));
    sample.latency_count = merged.count();
  }

  for (const auto& [instance, render] : locals_) {
    const std::string prefix = instance + ":";
    obs::PromScrape parsed;
    if (!ingest(prefix, render(), now_us, parsed)) continue;
    sample.elastic_epoch = std::max(
        sample.elastic_epoch, ring_last(store_, prefix + "rnb_elastic_epoch"));
    sample.migration_entries_scanned +=
        ring_last(store_, prefix + "rnb_elastic_entries_scanned_total");
    sample.migration_replicas_copied +=
        ring_last(store_, prefix + "rnb_elastic_replicas_copied_total");
    sample.migration_pinned_moved +=
        ring_last(store_, prefix + "rnb_elastic_pinned_moved_total");
    if (ring_delta_last(store_, prefix + "rnb_elastic_entries_scanned_total") >
            0.0 ||
        ring_delta_last(store_,
                        prefix + "rnb_elastic_replicas_copied_total") > 0.0 ||
        ring_delta_last(store_, prefix + "rnb_elastic_pinned_moved_total") >
            0.0)
      sample.migration_active = true;
  }

  const obs::HealthVerdict verdict = detector_.assess(sample);

  // Synthetic rollup series: the flight recorder's cluster-level rings.
  store_.series("cluster:txns_per_s").append(now_us, sample.txns_per_s);
  store_.series("cluster:items_per_s").append(now_us, sample.items_per_s);
  store_.series("cluster:servers_up")
      .append(now_us, static_cast<double>(sample.servers_up));
  store_.series("cluster:p99_us").append(now_us, sample.p99_us);
  store_.series("cluster:load_cov").append(now_us, verdict.load_cov);
  store_.series("cluster:load_max_mean").append(now_us, verdict.load_max_mean);
  store_.series("cluster:health_score").append(now_us, verdict.score);

  last_sample_ = std::move(sample);
  ++scrapes_;
  recorder_.record(verdict);
  recorder_.refresh_snapshot();
  return verdict;
}

void MetricsCollector::start(std::uint64_t period_ms) {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this, period_ms] {
    while (running_.load(std::memory_order_acquire)) {
      scrape_once(elapsed_us());
      // Sleep in small slices so stop() returns promptly.
      std::uint64_t slept = 0;
      while (slept < period_ms && running_.load(std::memory_order_acquire)) {
        const std::uint64_t slice = std::min<std::uint64_t>(10, period_ms - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        slept += slice;
      }
    }
  });
}

void MetricsCollector::stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

std::uint64_t MetricsCollector::elapsed_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint64_t MetricsCollector::scrapes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scrapes_;
}

obs::ClusterSample MetricsCollector::last_sample() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_sample_;
}

obs::HealthVerdict MetricsCollector::last_verdict() const {
  return recorder_.last_verdict();
}

void MetricsCollector::write_top(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const obs::ClusterSample& s = last_sample_;
  const obs::HealthVerdict v = recorder_.last_verdict();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "[rnbtop] t=%.3fs up=%u/%u txns/s=%.1f items/s=%.1f "
                "p50=%.0fus p99=%.0fus cov=%.3f max/mean=%.3f score=%.1f\n",
                static_cast<double>(s.t_us) / 1e6, s.servers_up,
                s.servers_total, s.txns_per_s, s.items_per_s, s.p50_us,
                s.p99_us, v.load_cov, v.load_max_mean, v.score);
  os << buf;
  const double mean =
      s.servers_up > 0 ? s.txns_per_s / static_cast<double>(s.servers_up) : 0.0;
  for (std::size_t i = 0; i < s.server_txns_per_s.size(); ++i) {
    if (i < s.up.size() && s.up[i] == 0) {
      std::snprintf(buf, sizeof(buf), "  s%zu DOWN\n", i);
      os << buf;
      continue;
    }
    const double share =
        s.txns_per_s > 0.0 ? 100.0 * s.server_txns_per_s[i] / s.txns_per_s : 0.0;
    const int bars =
        mean > 0.0
            ? std::clamp(
                  static_cast<int>(10.0 * s.server_txns_per_s[i] / mean + 0.5),
                  0, 40)
            : 0;
    std::snprintf(buf, sizeof(buf), "  s%zu %8.1f txns/s %5.1f%% %.*s\n", i,
                  s.server_txns_per_s[i], share, bars,
                  "||||||||||||||||||||||||||||||||||||||||");
    os << buf;
  }
  for (const obs::ShardLoad& h : v.hot_shards) {
    std::snprintf(buf, sizeof(buf),
                  "  HOT shard s%u/%u contended=%.1f/s acquisitions=%.1f/s\n",
                  h.server, h.shard, h.contended_per_s, h.acquisitions_per_s);
    os << buf;
  }
  if (s.elastic_epoch > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  elastic epoch=%.0f %s scanned=%.0f copied=%.0f "
                  "pinned_moved=%.0f\n",
                  s.elastic_epoch, s.migration_active ? "MIGRATING" : "idle",
                  s.migration_entries_scanned, s.migration_replicas_copied,
                  s.migration_pinned_moved);
    os << buf;
  }
}

}  // namespace rnb::dserve
