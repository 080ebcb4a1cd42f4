// MetricsCollector: the cluster telemetry plane's scrape loop.
//
// The serving tier already answers `stats` with a Prometheus exposition;
// this is the other half — a collector that periodically round-trips that
// verb to every member of a ServerGroup over the ordinary wire (loopback
// or TCP, through the same KvTransport clients use), parses the text with
// obs/promtext, and feeds per-series ring buffers (obs/timeseries). On
// top of the rings it computes cluster rollups each sweep:
//
//   * aggregate txns/s and items/s (reset-aware counter rates),
//   * per-server load shares — the live view of the paper's per-server
//     skew — plus CoV and max/mean,
//   * merged fleet latency histogram (assemble_histogram per server, then
//     the HDR associative merge) with p50/p99,
//   * per-shard lock-contention rates for hot-shard detection,
//   * elastic migration progress from rnb_elastic_* series contributed by
//     a local source (the MembershipController's registry — those series
//     live on the controller, not on any server).
//
// Each rollup becomes a ClusterSample, scored by the BottleneckDetector
// and recorded (with synthetic `cluster:*` series) into the
// FlightRecorder.
//
// Fault tolerance: a down server (non-kOk roundtrip, or unparseable
// response) is a *mark* — up=0 in the sample, rates drop out of the
// rollup — never an error. Scraping must keep working while the fleet is
// dying; that is the whole point of a flight recorder.
//
// Clocking: scrape_once(now_us) takes caller-supplied microseconds, so
// sims drive it from virtual time and get byte-identical flight-recorder
// dumps across identical runs (the determinism acceptance test). start()
// spawns a wall-clock thread that feeds scrape_once from
// steady-clock-since-construction for live benches.
//
// Cardinality: every scraped sample is ingested as series key
// "s<id>:<name>{<canonical label body>}" except the trace-id-labelled
// slow-transaction gauges, whose keys would grow without bound (each is a
// one-point series); slow requests are correlated through the slow log's
// own dump instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "kv/kv_transport.hpp"
#include "obs/health.hpp"
#include "obs/promtext.hpp"
#include "obs/timeseries.hpp"

namespace rnb::dserve {

struct CollectorConfig {
  /// Ring capacity per series (the flight recorder's last-K window).
  std::size_t samples_per_series = 128;
  /// Health-verdict ring capacity.
  std::size_t verdict_capacity = 64;
  obs::HealthConfig health;
  /// Histogram family merged across servers for fleet latency quantiles,
  /// and the exposition scale to undo (the registry exposes this family
  /// with scale 1e6: recorded units are microseconds).
  std::string latency_family = "rnb_kv_handle_latency_seconds";
  double latency_scale = 1e6;
};

class MetricsCollector {
 public:
  /// `transport` is the collector's own connection to the fleet (e.g. a
  /// fresh ServerGroup::connect()); it must outlive the collector.
  explicit MetricsCollector(kv::KvTransport& transport,
                            CollectorConfig config = {});
  ~MetricsCollector();

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Register a local (not-over-the-wire) exposition source, e.g. a
  /// MembershipController's registry. Scraped every sweep; series are
  /// ingested under "<instance>:<name>...". Call before the first scrape.
  void add_local_source(std::string instance,
                        std::function<std::string()> render);

  /// One sweep at caller-supplied time: scrape every server + local
  /// source, ingest, roll up, assess, record. Returns the verdict. Under
  /// a tracer the sweep is a root `scrape` span, and the stats frames
  /// carry its trace tag.
  obs::HealthVerdict scrape_once(std::uint64_t now_us);

  /// Spawn the wall-clock scrape thread (idempotent). Timestamps are
  /// steady-clock microseconds since construction.
  void start(std::uint64_t period_ms);
  /// Join the scrape thread (no-op when not started).
  void stop();

  /// Microseconds of steady clock since construction (the wall-mode
  /// timestamp source, exposed so callers can line other events up).
  std::uint64_t elapsed_us() const;

  std::uint64_t scrapes() const;
  obs::ClusterSample last_sample() const;
  obs::HealthVerdict last_verdict() const;

  const obs::SeriesStore& store() const noexcept { return store_; }
  obs::FlightRecorder& recorder() noexcept { return recorder_; }
  const obs::BottleneckDetector& detector() const noexcept {
    return detector_;
  }

  /// One rnbtop-style text frame: fleet line, per-server load shares,
  /// migration progress when active.
  void write_top(std::ostream& os) const;

 private:
  /// Parse `text` and append every sample (minus the trace-id-labelled
  /// family) under `prefix`. False when the text does not parse.
  bool ingest(const std::string& prefix, std::string_view text,
              std::uint64_t now_us, obs::PromScrape& parsed);

  kv::KvTransport& transport_;
  CollectorConfig config_;

  mutable std::mutex mutex_;
  obs::SeriesStore store_;
  obs::BottleneckDetector detector_;
  obs::FlightRecorder recorder_;
  std::vector<std::pair<std::string, std::function<std::string()>>> locals_;
  obs::ClusterSample last_sample_;
  std::uint64_t scrapes_ = 0;

  std::chrono::steady_clock::time_point epoch_;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace rnb::dserve
