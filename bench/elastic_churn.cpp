// elastic_churn: availability and bundling cost of live membership churn.
//
// Two scenarios over the same preloaded elastic ServerGroup (default: 4
// TCP servers with one spare slot, pinned seed):
//
//   static   client threads run bundled multi-gets with no churn — the
//            baseline availability / throughput / transactions-per-request
//            this fleet delivers at rest,
//   churn    the same closed loop while a MembershipController performs a
//            full join -> drain -> leave cycle under it: the spare slot
//            boots and joins (background replica migration + epoch bump),
//            then a founding member is drained and stopped.
//
// The bench enforces the elastic subsystem's headline claims and exits
// nonzero when they do not hold:
//   * availability during churn >= --min-availability (default 0.99),
//   * p99 transactions-per-request during churn <= --max-tpr-ratio x the
//     static baseline's p99 (default 2.0),
//   * zero keys lost: after the cycle every preloaded key is still
//     retrievable through the post-churn ring.
//
// A third row family pins the ring ablation: for each placement scheme
// (RCH vs multi-probe) the fraction of items whose distinguished copy or
// replica set moves on the same join/leave — consistent hashing promises
// the fair share, and the JSON keeps both schemes honest.
//
// `--collector=MS` attaches the cluster telemetry plane during each
// scenario: a dserve::MetricsCollector scrapes every server over its own
// connection and the MembershipController's registry as a local source,
// so the rnb_elastic_* migration series land in the same flight recorder
// as the per-server load. `--collector-json=FILE` dumps the recorder
// there (scenario teardown, SIGTERM, faultsim crash hooks); rows gain
// scrape-side rollups (load CoV, max/mean skew, health score, whether a
// migration was observed in-flight).
//
//   build/bench/elastic_churn --wire=tcp --json=BENCH_elastic_churn.json
//   build/bench/elastic_churn --wire=loopback --requests=200
//   build/bench/elastic_churn --trace=churn_trace.json
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/collector.hpp"
#include "dserve/server_group.hpp"
#include "elastic/controller.hpp"
#include "elastic/member_ring.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rnb::dserve {
namespace {

struct Params {
  unsigned threads = 0;
  std::uint64_t requests = 0;  // measured requests per thread (minimum)
  std::uint64_t keys = 0;
  double zipf = 0.0;
  std::uint64_t value_bytes = 0;
  std::uint64_t seed = 0;
  ServerId servers = 0;
  std::uint32_t replication = 0;
  std::uint64_t shards = 0;
  std::uint64_t batch = 0;
  GroupWire wire = GroupWire::kTcp;
};

std::string key_name(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "c%09" PRIu64, id);
  return buf;
}

struct ScenarioResult {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t items_requested = 0;
  std::uint64_t items_returned = 0;
  std::uint64_t wire_txns = 0;
  std::uint64_t recover_txns = 0;
  std::uint64_t epoch_replans = 0;
  std::uint64_t servers_marked_down = 0;
  std::uint64_t retries = 0;
  obs::Histogram latency;  // request latency, ns
  obs::Histogram tpr;      // wire transactions per request
  // Post-run sweep over every preloaded key (fresh client, final ring).
  std::uint64_t lost_keys = 0;
  // Controller-side accounting (churn scenario only).
  std::uint64_t epoch = 0;
  std::uint64_t pinned_moved = 0;
  std::uint64_t replicas_copied = 0;
  std::uint64_t migration_pages = 0;
  std::uint64_t failed_transitions = 0;
  double churn_window_s = 0.0;  // wall time of join -> drain -> leave
  // Scrape-side rollups, filled when --collector is on.
  bool collector_on = false;
  std::uint64_t collector_scrapes = 0;
  double cluster_txns_per_s = 0.0;
  double load_cov = 0.0;
  double load_max_mean = 0.0;
  double health_score = 0.0;
  bool migration_observed = false;  // any scrape caught migration in flight
};

/// Closed loop of bundled multi-gets on `p.threads` workers; when `churn`
/// is set, a controller thread runs a join -> drain -> leave cycle once the
/// loop is warm, and every worker keeps issuing requests until the cycle
/// completes (so the measured window always covers the whole transition).
ScenarioResult run_scenario(const Params& p, bool churn,
                            const std::vector<std::string>& universe,
                            const std::string& value, obs::Tracer* tracer,
                            std::uint64_t collector_ms,
                            const std::string& collector_json) {
  ServerGroupConfig config;
  config.num_servers = p.servers;
  config.max_servers = p.servers + 1;  // one spare slot for the joiner
  config.wire = p.wire;
  config.shards_per_server = p.shards;
  config.view.replication = p.replication;
  config.view.placement_seed = p.seed;
  ServerGroup group(config);
  group.load(universe, [&](std::string_view) { return value; },
             /*preinstall_replicas=*/true);

  struct Worker {
    ScenarioResult partial;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<Worker> workers(p.threads);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> churn_done{!churn};
  const auto arm_tracer = [tracer]() noexcept {
    if (tracer != nullptr) obs::Tracer::set_current(tracer);
  };
  std::barrier start_line(static_cast<std::ptrdiff_t>(p.threads) + 1,
                          arm_tracer);

  std::vector<std::thread> threads;
  threads.reserve(p.threads);
  for (unsigned tid = 0; tid < p.threads; ++tid) {
    threads.emplace_back([&, tid] {
      Worker& w = workers[tid];
      const auto connection = group.connect();
      KvClusterClient client(*connection, group.view(), {});
      Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + tid + 1);
      const ZipfSampler zipf(p.keys, p.zipf);
      std::vector<std::string> batch(p.batch);

      start_line.arrive_and_wait();
      w.start = std::chrono::steady_clock::now();
      // Run at least p.requests and never stop mid-churn: the churn window
      // must sit entirely inside the measured interval.
      for (std::uint64_t i = 0;
           i < p.requests || !churn_done.load(std::memory_order_acquire);
           ++i) {
        for (auto& key : batch) key = universe[zipf(rng)];
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = client.multi_get(batch);
        const auto t1 = std::chrono::steady_clock::now();
        ++w.partial.requests;
        w.partial.items_requested += batch.size();
        for (const std::string& key : batch)
          if (result.values.contains(key)) ++w.partial.items_returned;
        w.partial.wire_txns += result.transactions();
        w.partial.recover_txns += result.recover_transactions;
        w.partial.epoch_replans += result.epoch_replans;
        w.partial.servers_marked_down += result.servers_marked_down;
        w.partial.latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        w.partial.tpr.record(result.transactions());
        completed.fetch_add(1, std::memory_order_release);
      }
      w.end = std::chrono::steady_clock::now();
      w.partial.retries = client.failure_stats().retries;
    });
  }

  ScenarioResult total;
  const auto controller_connection = group.connect();
  elastic::MembershipController controller(*controller_connection,
                                           group.epochs(), {});
  controller.set_publish(
      [&group](std::shared_ptr<const elastic::RingEpoch> ring) {
        group.view().install_ring(std::move(ring));
      });

  // Telemetry plane: scrape the fleet over an ordinary connection, and
  // the controller's registry as a local source — the rnb_elastic_*
  // migration series live on the controller, not on any server.
  std::unique_ptr<GroupConnection> monitor;
  std::unique_ptr<MetricsCollector> collector;
  if (collector_ms > 0) {
    monitor = group.connect();
    collector = std::make_unique<MetricsCollector>(*monitor);
    collector->add_local_source("controller", [&controller] {
      obs::MetricsRegistry registry;
      controller.export_metrics(registry);
      std::ostringstream os;
      registry.write_prometheus(os);
      return std::move(os).str();
    });
    if (!collector_json.empty())
      collector->recorder().install_dump(collector_json, SIGTERM);
  }

  start_line.arrive_and_wait();
  // The collector scrapes inside the tracer's window only: a scrape that
  // straddled the install or the removal would leave a half-traced stats
  // transaction on the server.
  if (collector != nullptr) collector->start(collector_ms);
  if (churn) {
    const std::uint64_t warm = p.threads * p.requests / 4;
    while (completed.load(std::memory_order_acquire) < warm)
      std::this_thread::yield();
    const auto churn_start = std::chrono::steady_clock::now();
    const ServerId joiner = p.servers;
    group.start_server(joiner);
    const bool joined = controller.join(joiner);
    // Let the post-join placement serve for a stretch before draining.
    const std::uint64_t mid = completed.load() + warm;
    while (completed.load(std::memory_order_acquire) < mid)
      std::this_thread::yield();
    const bool left = joined && controller.leave(0);
    if (left) group.stop_server(0);
    total.churn_window_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - churn_start)
                               .count();
    if (!joined || !left)
      std::fprintf(stderr, "elastic_churn: transition failed (join=%d "
                           "leave=%d)\n", joined, left);
    churn_done.store(true, std::memory_order_release);
  }
  for (auto& t : threads) t.join();
  if (collector != nullptr) collector->stop();
  if (tracer != nullptr) obs::Tracer::set_current(nullptr);
  if (collector != nullptr) {
    collector->scrape_once(collector->elapsed_us());  // closing rollup
    const obs::ClusterSample sample = collector->last_sample();
    const obs::HealthVerdict verdict = collector->last_verdict();
    total.collector_on = true;
    total.collector_scrapes = collector->scrapes();
    total.cluster_txns_per_s = sample.txns_per_s;
    total.load_cov = verdict.load_cov;
    total.load_max_mean = verdict.load_max_mean;
    total.health_score = verdict.score;
    for (const obs::HealthVerdict& v : collector->recorder().verdicts())
      if (v.migration_active) total.migration_observed = true;
    if (!collector_json.empty()) {
      std::ofstream out(collector_json);
      collector->recorder().write_json(out, "scenario_end");
    }
  }

  auto first = workers.front().start;
  auto last = workers.front().end;
  for (const Worker& w : workers) {
    total.requests += w.partial.requests;
    total.items_requested += w.partial.items_requested;
    total.items_returned += w.partial.items_returned;
    total.wire_txns += w.partial.wire_txns;
    total.recover_txns += w.partial.recover_txns;
    total.epoch_replans += w.partial.epoch_replans;
    total.servers_marked_down += w.partial.servers_marked_down;
    total.retries += w.partial.retries;
    total.latency.merge(w.partial.latency);
    total.tpr.merge(w.partial.tpr);
    if (w.start < first) first = w.start;
    if (w.end > last) last = w.end;
  }
  total.wall_s = std::chrono::duration<double>(last - first).count();
  if (total.wall_s <= 0.0) total.wall_s = 1e-9;

  // Zero-key-loss sweep: a fresh client against the final ring must find
  // every preloaded key (the churn scenario ran a full migration; the
  // static one simply re-reads the fleet).
  {
    const auto connection = group.connect();
    KvClusterClient client(*connection, group.view(), {});
    std::vector<std::string> sweep;
    sweep.reserve(64);
    for (std::size_t at = 0; at < universe.size(); at += 64) {
      sweep.assign(universe.begin() + static_cast<std::ptrdiff_t>(at),
                   universe.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(universe.size(), at + 64)));
      total.lost_keys += client.multi_get(sweep).missing.size();
    }
  }

  total.epoch = group.view().epoch();
  total.pinned_moved = controller.migration_stats().pinned_moved;
  total.replicas_copied = controller.migration_stats().replicas_copied;
  total.migration_pages = controller.migration_stats().pages;
  total.failed_transitions = controller.failed_transitions();
  return total;
}

void movement_rows(const Params& p, bench::JsonResult& json) {
  constexpr std::size_t kItems = 20000;
  for (const elastic::RingScheme scheme :
       {elastic::RingScheme::kRch, elastic::RingScheme::kMultiProbe}) {
    elastic::MemberRingConfig config;
    config.scheme = scheme;
    config.replication = p.replication;
    config.seed = p.seed;
    std::vector<ServerId> members(p.servers);
    for (ServerId s = 0; s < p.servers; ++s) members[s] = s;
    const elastic::MemberRing before(config, members);
    const char* name =
        scheme == elastic::RingScheme::kRch ? "rch" : "multiprobe";
    const auto emit = [&](const char* event, const elastic::MemberRing& after,
                          double fair_share) {
      std::size_t moved_distinguished = 0, moved_any = 0;
      for (std::size_t i = 0; i < kItems; ++i) {
        const ItemId item = fnv1a64("move:" + std::to_string(i));
        const auto old_set = before.replicas(item);
        const auto new_set = after.replicas(item);
        if (old_set[0] != new_set[0]) ++moved_distinguished;
        if (old_set != new_set) ++moved_any;
      }
      json.add_row();
      json.field("scheme", std::string(name));
      json.field("event", std::string(event));
      json.field("moved_distinguished_fraction",
                 static_cast<double>(moved_distinguished) / kItems);
      json.field("moved_any_fraction",
                 static_cast<double>(moved_any) / kItems);
      json.field("fair_share", fair_share);
      std::printf("%-11s %-6s moved: distinguished %.4f any %.4f "
                  "(fair share %.4f)\n",
                  name, event,
                  static_cast<double>(moved_distinguished) / kItems,
                  static_cast<double>(moved_any) / kItems, fair_share);
    };
    emit("join", before.with_member(p.servers),
         1.0 / static_cast<double>(p.servers + 1));
    emit("leave", before.without_member(0),
         1.0 / static_cast<double>(p.servers));
  }
}

int run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  Params p;
  p.threads = static_cast<unsigned>(flags.u64("threads", 2));
  p.requests = flags.u64("requests", 600);
  p.keys = flags.u64("keys", 4000);
  p.zipf = flags.f64("zipf", 0.99);
  p.value_bytes = flags.u64("value-bytes", 100);
  p.seed = flags.u64("seed", 42);
  p.servers = static_cast<ServerId>(flags.u64("servers", 4));
  p.replication = static_cast<std::uint32_t>(flags.u64("replication", 2));
  p.shards = flags.u64("shards", 2);
  p.batch = flags.u64("batch", 8);
  const std::string wire_name = flags.str("wire", "tcp");
  p.wire = wire_name == "loopback" ? GroupWire::kLoopback : GroupWire::kTcp;
  const double min_availability = flags.f64("min-availability", 0.99);
  const double max_tpr_ratio = flags.f64("max-tpr-ratio", 2.0);
  const std::string trace_path = flags.str("trace", "");
  const std::uint64_t collector_ms = flags.u64("collector", 0);
  const std::string collector_json = flags.str("collector-json", "");

  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) {
    const std::size_t ring_capacity = static_cast<std::size_t>(
        p.requests * std::max(1u, p.threads) * (p.batch + 8) * 16 + 4096);
    tracer = std::make_unique<obs::Tracer>(obs::Tracer::ClockMode::kWall,
                                           ring_capacity);
  }

  std::vector<std::string> universe;
  universe.reserve(p.keys);
  for (std::uint64_t id = 0; id < p.keys; ++id)
    universe.push_back(key_name(id));
  const std::string value(p.value_bytes, 'v');

  bench::JsonResult json("elastic_churn");
  json.param("wire", wire_name);
  json.param("threads", static_cast<std::uint64_t>(p.threads));
  json.param("requests_per_thread", p.requests);
  json.param("keys", p.keys);
  json.param("zipf", p.zipf);
  json.param("value_bytes", p.value_bytes);
  json.param("servers", static_cast<std::uint64_t>(p.servers));
  json.param("replication", static_cast<std::uint64_t>(p.replication));
  json.param("batch", p.batch);
  json.param("seed", p.seed);
  if (collector_ms > 0) {
    json.param("collector_ms", collector_ms);
    if (!collector_json.empty()) json.param("collector_json", collector_json);
  }

  std::printf("%-8s %10s %10s %8s %8s %10s %8s %8s\n", "scenario", "reqs_s",
              "avail", "tpr_p99", "replans", "lost_keys", "epoch", "p99_us");
  double tpr_p99_by_scenario[2] = {0.0, 0.0};
  std::uint64_t lost_total = 0;
  double churn_availability = 1.0;
  for (const bool churn : {false, true}) {
    const ScenarioResult r = run_scenario(p, churn, universe, value,
                                          tracer.get(), collector_ms,
                                          collector_json);
    const double availability =
        r.items_requested == 0
            ? 1.0
            : static_cast<double>(r.items_returned) /
                  static_cast<double>(r.items_requested);
    const double tpr_p99 = r.tpr.quantile(0.99);
    tpr_p99_by_scenario[churn ? 1 : 0] = tpr_p99;
    lost_total += r.lost_keys;
    if (churn) churn_availability = availability;
    std::printf("%-8s %10.0f %10.4f %8.1f %8" PRIu64 " %10" PRIu64
                " %8" PRIu64 " %8.1f\n",
                churn ? "churn" : "static",
                static_cast<double>(r.requests) / r.wall_s, availability,
                tpr_p99, r.epoch_replans, r.lost_keys, r.epoch,
                r.latency.quantile(0.99) / 1e3);
    json.add_row();
    json.field("scenario", std::string(churn ? "churn" : "static"));
    json.field("txns_per_s",
               static_cast<double>(r.requests) / r.wall_s);
    json.field("items_per_s",
               static_cast<double>(r.items_returned) / r.wall_s);
    json.field("availability", availability);
    json.field("inv_p99_tpr", tpr_p99 > 0.0 ? 1.0 / tpr_p99 : 0.0);
    json.field("tpr_p99", tpr_p99);
    json.field("tpr_mean",
               r.requests == 0 ? 0.0
                               : static_cast<double>(r.wire_txns) /
                                     static_cast<double>(r.requests));
    json.field("wall_s", r.wall_s);
    json.field("requests", r.requests);
    json.field("recover_txns", r.recover_txns);
    json.field("epoch_replans", r.epoch_replans);
    json.field("servers_marked_down", r.servers_marked_down);
    json.field("retries", r.retries);
    json.field("lost_keys", r.lost_keys);
    json.field("final_epoch", r.epoch);
    json.field("pinned_moved", r.pinned_moved);
    json.field("replicas_copied", r.replicas_copied);
    json.field("migration_pages", r.migration_pages);
    json.field("failed_transitions", r.failed_transitions);
    json.field("churn_window_s", r.churn_window_s);
    json.field("p50_ns", r.latency.quantile(0.50));
    json.field("p99_ns", r.latency.quantile(0.99));
    if (r.collector_on) {
      json.field("collector_scrapes", r.collector_scrapes);
      json.field("cluster_txns_per_s", r.cluster_txns_per_s);
      json.field("load_cov", r.load_cov);
      json.field("load_max_mean", r.load_max_mean);
      json.field("health_score", r.health_score);
      json.field("migration_observed",
                 static_cast<std::uint64_t>(r.migration_observed ? 1 : 0));
    }
  }

  movement_rows(p, json);

  if (tracer != nullptr) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write --trace=%s\n", trace_path.c_str());
      return 1;
    }
    tracer->export_chrome_json(trace_out);
    std::fprintf(stderr,
                 "wrote Chrome trace to %s (%" PRIu64 " events, %" PRIu64
                 " dropped)\n",
                 trace_path.c_str(), tracer->events_recorded(),
                 tracer->events_dropped());
    json.param("trace_file", trace_path);
  }
  if (!bench::maybe_write_json(flags, json)) return 1;

  // The headline claims are enforced here, not just recorded: a run whose
  // churn cycle costs availability, loses keys, or doubles the bundling
  // work is a failing run.
  int failures = 0;
  if (lost_total != 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " keys lost\n", lost_total);
    ++failures;
  }
  if (churn_availability < min_availability) {
    std::fprintf(stderr, "FAIL: churn availability %.4f < %.4f\n",
                 churn_availability, min_availability);
    ++failures;
  }
  if (tpr_p99_by_scenario[0] > 0.0 &&
      tpr_p99_by_scenario[1] > max_tpr_ratio * tpr_p99_by_scenario[0]) {
    std::fprintf(stderr, "FAIL: churn p99 TPR %.2f > %.1fx static %.2f\n",
                 tpr_p99_by_scenario[1], max_tpr_ratio,
                 tpr_p99_by_scenario[0]);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rnb::dserve

int main(int argc, char** argv) { return rnb::dserve::run(argc, argv); }
