#include "dserve/collector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dserve/server_group.hpp"
#include "kv/kv_transport.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rnb::dserve {
namespace {

/// A fleet whose `stats` answers are scripted by the test: per-server
/// counter values the test advances between scrapes, rendered through a
/// real MetricsRegistry so the exposition bytes are exactly what a server
/// would emit. Fully deterministic — the substrate for the byte-identical
/// flight-recorder acceptance test.
class ScriptedTransport final : public kv::KvTransport {
 public:
  explicit ScriptedTransport(ServerId n)
      : txns(n, 0), keys(n, 0), contended(n, 0), acquisitions(n, 0),
        latency_us(n), down(n, 0), garbled(n, 0) {}

  ServerId num_servers() const noexcept override {
    return static_cast<ServerId>(txns.size());
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    EXPECT_TRUE(request.starts_with("stats")) << request;
    response.clear();
    if (down[s]) return {kv::TransportStatus::kServerDown, 0.0};
    if (garbled[s]) {
      response = "not prometheus \x01 at all";
      return {};
    }
    obs::MetricsRegistry registry;
    registry.counter("rnb_kv_transactions_total", "txns").inc(txns[s]);
    registry.counter("rnb_kv_keys_returned_total", "keys").inc(keys[s]);
    registry
        .counter("rnb_kv_shard_lock_contended_total", "contended",
                 obs::format_label("shard", "0"))
        .inc(contended[s]);
    registry
        .counter("rnb_kv_shard_lock_acquisitions_total", "acquisitions",
                 obs::format_label("shard", "0"))
        .inc(acquisitions[s]);
    obs::Histogram& h = registry.histogram("rnb_kv_handle_latency_seconds",
                                           "latency", "", 7, 1e6);
    for (const std::uint64_t us : latency_us[s]) h.record(us);
    std::ostringstream os;
    registry.write_prometheus(os);
    response = os.str();
    response += "END\r\n";
    return {};
  }

  std::vector<std::uint64_t> txns;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> contended;
  std::vector<std::uint64_t> acquisitions;
  std::vector<std::vector<std::uint64_t>> latency_us;
  std::vector<std::uint8_t> down;
  std::vector<std::uint8_t> garbled;
};

TEST(MetricsCollector, RollsUpRatesSharesAndShards) {
  ScriptedTransport wire(4);
  MetricsCollector collector(wire);
  collector.scrape_once(0);  // baseline sample for the counter deltas

  for (ServerId s = 0; s < 4; ++s) {
    wire.txns[s] += 100ull * (s + 1);  // 100/200/300/400 over one second
    wire.keys[s] += 1000;
    wire.contended[s] += 20;
    wire.acquisitions[s] += 200;
  }
  const obs::HealthVerdict verdict = collector.scrape_once(1000000);

  const obs::ClusterSample sample = collector.last_sample();
  EXPECT_EQ(sample.servers_total, 4u);
  EXPECT_EQ(sample.servers_up, 4u);
  ASSERT_EQ(sample.server_txns_per_s.size(), 4u);
  for (ServerId s = 0; s < 4; ++s)
    EXPECT_DOUBLE_EQ(sample.server_txns_per_s[s], 100.0 * (s + 1));
  EXPECT_DOUBLE_EQ(sample.txns_per_s, 1000.0);
  EXPECT_DOUBLE_EQ(sample.items_per_s, 4000.0);
  EXPECT_DOUBLE_EQ(verdict.load_max_mean, 400.0 / 250.0);
  ASSERT_EQ(sample.shards.size(), 4u);
  EXPECT_DOUBLE_EQ(sample.shards[0].contended_per_s, 20.0);
  EXPECT_DOUBLE_EQ(sample.shards[0].acquisitions_per_s, 200.0);

  // Per-server and synthetic cluster series landed in the store.
  EXPECT_NE(collector.store().find("s3:rnb_kv_transactions_total"), nullptr);
  const obs::TimeSeries* rollup = collector.store().find("cluster:txns_per_s");
  ASSERT_NE(rollup, nullptr);
  EXPECT_DOUBLE_EQ(rollup->last(), 1000.0);
  EXPECT_EQ(collector.scrapes(), 2u);
}

TEST(MetricsCollector, DownOrGarbledServersAreMarksNotErrors) {
  ScriptedTransport wire(4);
  MetricsCollector collector(wire);
  collector.scrape_once(0);

  wire.down[1] = 1;
  wire.garbled[2] = 1;
  for (ServerId s = 0; s < 4; ++s) wire.txns[s] += 100;
  obs::HealthVerdict verdict = collector.scrape_once(1000000);
  EXPECT_EQ(verdict.servers_up, 2u);
  EXPECT_TRUE(verdict.fleet_degraded);
  const obs::ClusterSample sample = collector.last_sample();
  EXPECT_EQ(sample.up[1], 0u);
  EXPECT_EQ(sample.up[2], 0u);
  EXPECT_DOUBLE_EQ(sample.server_txns_per_s[1], 0.0);
  EXPECT_DOUBLE_EQ(sample.txns_per_s, 200.0);  // survivors only

  // Recovery: the next scrape folds the marked servers back in, and the
  // reset-aware delta (counter kept advancing while unscraped) does not
  // produce a negative rate.
  wire.down[1] = 0;
  wire.garbled[2] = 0;
  for (ServerId s = 0; s < 4; ++s) wire.txns[s] += 100;
  verdict = collector.scrape_once(2000000);
  EXPECT_EQ(verdict.servers_up, 4u);
  EXPECT_FALSE(verdict.fleet_degraded);
  EXPECT_GE(collector.last_sample().server_txns_per_s[1], 0.0);
}

TEST(MetricsCollector, FlightDumpIsByteIdenticalAcrossIdenticalRuns) {
  // The determinism acceptance test: two fresh collectors driven through
  // the same scripted schedule at the same virtual timestamps must dump
  // byte-identical flight-recorder JSON.
  const auto run = [] {
    ScriptedTransport wire(4);
    MetricsCollector collector(wire);
    std::uint64_t t = 0;
    for (int step = 0; step < 6; ++step) {
      for (ServerId s = 0; s < 4; ++s) {
        wire.txns[s] += 50ull * (s + 1) + static_cast<std::uint64_t>(step);
        wire.keys[s] += 400;
        wire.contended[s] += 3 * s;
        wire.acquisitions[s] += 100;
        wire.latency_us[s].push_back(100 + 10 * s);
      }
      wire.down[2] = step == 3 ? 1 : 0;  // one crash window mid-run
      collector.scrape_once(t);
      t += 250000;
    }
    std::ostringstream os;
    collector.recorder().write_json(os, "determinism");
    return std::move(os).str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(MetricsCollector, MergesHistogramsAcrossLiveServersEndToEnd) {
  // Cross-server histogram merge through the real path: per-server
  // registries -> `stats` exposition over the group wire -> promtext
  // parse -> assemble -> HDR merge. Bucket-exact injected values make the
  // merged quantiles exactly equal a locally merged histogram's.
  ServerGroupConfig config;
  config.num_servers = 4;
  config.wire = GroupWire::kLoopback;
  ServerGroup group(config);

  const obs::Histogram shape(7);
  obs::Histogram expected(7);
  for (ServerId s = 0; s < 4; ++s) {
    std::vector<std::uint64_t> values;
    for (std::uint64_t i = 1; i <= 40; ++i) {
      const std::uint64_t raw = (s + 1) * 997 * i % 500000 + 1;
      values.push_back(shape.bucket_upper(shape.bucket_index(raw)));
      expected.record(values.back());
    }
    group.server(s).set_stats_hook(
        [values](obs::MetricsRegistry& registry) {
          obs::Histogram& h = registry.histogram("rnb_test_latency_seconds",
                                                 "injected", "", 7, 1.0);
          for (const std::uint64_t v : values) h.record(v);
        });
  }

  const auto connection = group.connect();
  CollectorConfig cc;
  cc.latency_family = "rnb_test_latency_seconds";
  cc.latency_scale = 1.0;
  MetricsCollector collector(*connection, cc);
  collector.scrape_once(0);

  const obs::ClusterSample sample = collector.last_sample();
  EXPECT_EQ(sample.latency_count, expected.count());
  EXPECT_DOUBLE_EQ(sample.p50_us,
                   static_cast<double>(expected.quantile(0.5)));
  EXPECT_DOUBLE_EQ(sample.p99_us,
                   static_cast<double>(expected.quantile(0.99)));
}

TEST(MetricsCollector, SurvivesAServerCrashMidScrapeSequence) {
  ServerGroupConfig config;
  config.num_servers = 4;
  config.max_servers = 4;  // elastic wire: stop_server marks the member down
  config.wire = GroupWire::kLoopback;
  ServerGroup group(config);
  const auto connection = group.connect();
  MetricsCollector collector(*connection);

  EXPECT_EQ(collector.scrape_once(0).servers_up, 4u);
  group.stop_server(1);
  const obs::HealthVerdict verdict = collector.scrape_once(1000000);
  EXPECT_EQ(verdict.servers_up, 3u);
  EXPECT_TRUE(verdict.fleet_degraded);
  // The flight dump still serializes, with the dead server's series
  // frozen at their last scraped values.
  std::ostringstream os;
  collector.recorder().write_json(os, "server_crash");
  EXPECT_NE(os.str().find("\"s1:"), std::string::npos);
}

/// One traced sweep over a live 2-server group: a single root `scrape`
/// span, and under it one server transaction per member with the standard
/// parse, dispatch > handle and format breakdown — no span left without
/// its parent. Over TCP the servers' spans can join only through the
/// stats frames' trace tag.
void expect_traced_sweep_stitches(GroupWire wire) {
  obs::Tracer tracer(obs::Tracer::ClockMode::kWall);
  obs::Tracer::set_current(&tracer);
  {
    ServerGroupConfig config;
    config.num_servers = 2;
    config.wire = wire;
    config.view.replication = 2;
    ServerGroup group(config);
    const auto connection = group.connect();
    MetricsCollector collector(*connection);
    EXPECT_EQ(collector.scrape_once(0).servers_up, 2u);
  }  // the group joins its server threads before the trace is read
  obs::Tracer::set_current(nullptr);

  const std::vector<obs::TraceEvent> events = tracer.snapshot_events();
  const auto is = [](const obs::TraceEvent& e, std::string_view name,
                     std::string_view cat) {
    return e.phase == 'X' && e.name == name && e.cat == cat;
  };
  std::set<std::uint64_t> span_ids;
  std::vector<const obs::TraceEvent*> scrapes, transactions;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'X') continue;
    span_ids.insert(e.span_id);
    if (is(e, "scrape", "collector")) scrapes.push_back(&e);
    if (is(e, "transaction", "server")) transactions.push_back(&e);
  }
  ASSERT_EQ(scrapes.size(), 1u);
  const obs::TraceEvent& scrape = *scrapes[0];
  EXPECT_NE(scrape.trace_id, 0u);
  EXPECT_EQ(scrape.parent_id, 0u);
  ASSERT_EQ(transactions.size(), 2u);
  for (const obs::TraceEvent* txn : transactions) {
    EXPECT_EQ(txn->trace_id, scrape.trace_id);
    EXPECT_EQ(txn->parent_id, scrape.span_id);
    std::size_t parse = 0, dispatch = 0, handle = 0, format = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.phase != 'X') continue;
      if (e.parent_id == txn->span_id) {
        parse += is(e, "parse", "server");
        format += is(e, "format", "server");
        if (is(e, "dispatch", "server")) {
          ++dispatch;
          for (const obs::TraceEvent& h : events)
            handle += h.parent_id == e.span_id && is(h, "handle", "server");
        }
      }
    }
    EXPECT_EQ(parse, 1u);
    EXPECT_EQ(dispatch, 1u);
    EXPECT_EQ(handle, 1u);
    EXPECT_EQ(format, 1u);
  }
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'X' && e.parent_id != 0) {
      EXPECT_EQ(span_ids.count(e.parent_id), 1u)
          << e.name << " span " << e.span_id << " is an orphan";
    }
  }
}

TEST(MetricsCollector, TracedSweepStitchesUnderOneScrapeSpan) {
  expect_traced_sweep_stitches(GroupWire::kLoopback);
  expect_traced_sweep_stitches(GroupWire::kTcp);
}

TEST(MetricsCollector, LocalSourceDrivesElasticRollup) {
  ScriptedTransport wire(1);
  MetricsCollector collector(wire);
  std::uint64_t scanned = 0;
  collector.add_local_source("controller", [&scanned] {
    obs::MetricsRegistry registry;
    registry.gauge("rnb_elastic_epoch", "epoch").set(2.0);
    registry.counter("rnb_elastic_entries_scanned_total", "scanned")
        .inc(scanned);
    std::ostringstream os;
    registry.write_prometheus(os);
    return std::move(os).str();
  });

  collector.scrape_once(0);
  scanned = 500;  // migration progressing between scrapes
  collector.scrape_once(1000000);
  obs::ClusterSample sample = collector.last_sample();
  EXPECT_DOUBLE_EQ(sample.elastic_epoch, 2.0);
  EXPECT_DOUBLE_EQ(sample.migration_entries_scanned, 500.0);
  EXPECT_TRUE(sample.migration_active);
  EXPECT_NE(collector.store().find("controller:rnb_elastic_epoch"), nullptr);

  collector.scrape_once(2000000);  // no progress: migration is done
  EXPECT_FALSE(collector.last_sample().migration_active);
}

TEST(MetricsCollector, WriteTopRendersAFleetFrame) {
  ScriptedTransport wire(2);
  MetricsCollector collector(wire);
  collector.scrape_once(0);
  wire.txns[0] += 300;
  wire.txns[1] += 100;
  wire.down[1] = 1;
  collector.scrape_once(1000000);
  std::ostringstream os;
  collector.write_top(os);
  const std::string top = os.str();
  EXPECT_NE(top.find("[rnbtop]"), std::string::npos) << top;
  EXPECT_NE(top.find("up=1/2"), std::string::npos) << top;
  EXPECT_NE(top.find("s1 DOWN"), std::string::npos) << top;
}

}  // namespace
}  // namespace rnb::dserve
