// live_multiget: the paper's multi-get figures measured from a live
// multi-server fleet instead of the simulator — real frames, real servers
// (in-process loopback or TCP sockets), the real cover/bundle/recover
// client (dserve::KvClusterClient).
//
// Three fetch strategies over the same preloaded ServerGroup:
//
//   perkey   one distinguished-copy get per requested key — the unbundled
//            baseline whose per-request roundtrip count grows with M (the
//            multi-get hole's cause, Fig. 3),
//   naive    keys grouped by distinguished server, one MGET per distinct
//            server — stock memcached multiget without replication,
//   rnb      KvClusterClient bundled greedy-cover multi-get with recover
//            rounds and distinguished-copy fallback.
//
// Sweeps (`--sweep=`):
//   batch     (default, Fig. 3) request size M over --batches, all three
//             strategies; the hole closes when rnb's requests/s stays high
//             as M grows while perkey's collapses.
//   replicas  (Fig. 6) replication factor over --replicas, rnb only,
//             unlimited memory: wire transactions-per-request vs replicas.
//   memory    (Fig. 8) total memory over --memories (in copies of the
//             data), rnb only: replicas start cold and are filled by
//             write-backs, so TPR falls toward the unlimited curve as the
//             replica class grows.
//
// `--faults=SPEC` (faultsim grammar) injects faults into every client
// connection — crash/restore epochs run against the live group; rows then
// carry availability (items returned / requested), recover rounds, and the
// view's down-mark/recovery counters.
//
// `--trace=FILE` exports a Chrome trace of the measured phase; client
// transaction spans stitch to server parse/dispatch/handle/format trees
// across the wire exactly as loadgen_kv's do (scripts/check_trace_stitching.py).
//
//   build/bench/live_multiget --wire=tcp --json=BENCH_live_multiget.json
//   build/bench/live_multiget --sweep=memory --memories=1.25,1.5,2,3
//   build/bench/live_multiget --faults='crash@0=100:400' --batches=16
// `--collector=MS` attaches the cluster telemetry plane (a
// dserve::MetricsCollector on its own group connection) scraping every
// server each MS milliseconds during the measured phase; rows then carry
// scrape-side rollups (cluster txns/s, load CoV, max/mean skew, health
// score). `--collector-json=FILE` dumps the flight recorder there — at
// row teardown, on SIGTERM, and from faultsim crash hooks mid-run.
// `--collector-top` prints an rnbtop frame per row on stderr.
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
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/collector.hpp"
#include "dserve/server_group.hpp"
#include "kv/failure_policy.hpp"
#include "kv/protocol.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/trace.hpp"

namespace rnb::dserve {
namespace {

struct Params {
  unsigned threads = 0;
  std::uint64_t requests = 0;  // measured requests per thread
  std::uint64_t warmup = 0;    // untimed requests per thread
  std::uint64_t keys = 0;      // key universe size
  double zipf = 0.0;
  std::uint64_t value_bytes = 0;
  std::uint64_t seed = 0;
  ServerId servers = 0;
  std::uint32_t replication = 0;
  std::uint64_t shards = 0;
  std::uint64_t batch = 0;  // keys per request (M)
  bool hitchhiking = false;
};

std::string key_name(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "i%09" PRIu64, id);
  return buf;
}

std::vector<double> f64_list(const bench::Flags& flags,
                             const std::string& key,
                             const std::vector<double>& fallback) {
  const std::string raw = flags.str(key, "");
  if (raw.empty()) return fallback;
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const std::size_t comma = raw.find(',', pos);
    const std::string tok =
        raw.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::stod(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct StrategyResult {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t items_requested = 0;
  std::uint64_t items_returned = 0;
  /// Client-planned wire transactions (bundles / gets), retries excluded.
  std::uint64_t wire_txns = 0;
  std::uint64_t round2_txns = 0;
  std::uint64_t recover_txns = 0;
  std::uint64_t retries = 0;
  std::uint64_t recover_rounds = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_down_rejections = 0;
  obs::Histogram latency;  // request latency, ns
};

/// Closed loop of `p.requests` requests per thread against `group` with
/// the given strategy; warmup is untimed and untraced (the tracer, if any,
/// is installed process-wide by the start barrier, as loadgen_kv does).
StrategyResult run_strategy(ServerGroup& group, const Params& p,
                            const std::string& strategy,
                            const std::vector<std::string>& universe,
                            obs::Tracer* tracer, MetricsCollector* collector,
                            std::uint64_t collector_ms) {
  struct Worker {
    StrategyResult partial;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<Worker> workers(p.threads);
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
      KvClusterClientConfig client_config;
      client_config.hitchhiking = p.hitchhiking;
      KvClusterClient client(*connection, group.view(), client_config);
      // The naive strategy speaks raw MGETs through the same failure
      // engine the cluster client uses (retries, tracing), minus the
      // cover planning and recovery it exists to be compared against.
      kv::KvExchange naive_exchange(*connection, client_config.failure);

      Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + tid + 1);
      const ZipfSampler zipf(p.keys, p.zipf);
      std::vector<std::string> batch(p.batch);
      std::vector<std::string> frames;
      std::vector<kv::KvExchange::Pending> txns;
      std::string response;
      const auto build = [&] {
        for (auto& key : batch) key = universe[zipf(rng)];
      };
      const auto run_one = [&](StrategyResult& acc) {
        ++acc.requests;
        acc.items_requested += batch.size();
        if (strategy == "rnb") {
          const auto result = client.multi_get(batch);
          // Zipf batches contain duplicates; multi_get dedups, so count
          // availability per requested key, not per distinct value.
          for (const std::string& key : batch)
            if (result.values.contains(key)) ++acc.items_returned;
          acc.wire_txns += result.transactions();
          acc.round2_txns += result.round2_transactions;
          acc.recover_txns += result.recover_transactions;
        } else if (strategy == "perkey") {
          for (const std::string& key : batch) {
            ++acc.wire_txns;
            if (client.get(key)) ++acc.items_returned;
          }
        } else {  // naive: one MGET per distinct distinguished server
          std::unordered_map<ServerId, std::vector<std::string>> by_server;
          for (const std::string& key : batch)
            by_server[group.view().distinguished(key)].push_back(key);
          // One wave, like rnb's: every MGET goes out before the first
          // reply is read, so naive vs rnb compares bundling, not
          // concurrency.
          if (frames.size() < by_server.size()) {
            frames.resize(by_server.size());
            txns.resize(by_server.size());
          }
          std::size_t n = 0;
          for (auto& [server, keys] : by_server) {
            frames[n].clear();
            kv::encode_get(keys, /*with_versions=*/false, frames[n]);
            naive_exchange.begin(txns[n], server, frames[n]);
            ++n;
          }
          double elapsed = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            ++acc.wire_txns;
            const auto values = naive_exchange.finish_values(
                txns[j], response, /*with_versions=*/false, elapsed);
            if (values) acc.items_returned += values->size();
          }
        }
      };

      StrategyResult warmup_sink;
      for (std::uint64_t i = 0; i < p.warmup; ++i) {
        build();
        run_one(warmup_sink);
      }
      const std::uint64_t retries_before =
          client.failure_stats().retries + naive_exchange.stats().retries;
      const std::uint64_t recovers_before =
          client.failure_stats().recover_rounds;
      start_line.arrive_and_wait();
      w.start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < p.requests; ++i) {
        build();
        const auto t0 = std::chrono::steady_clock::now();
        run_one(w.partial);
        const auto t1 = std::chrono::steady_clock::now();
        w.partial.latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      w.end = std::chrono::steady_clock::now();
      w.partial.retries = client.failure_stats().retries +
                          naive_exchange.stats().retries - retries_before;
      w.partial.recover_rounds =
          client.failure_stats().recover_rounds - recovers_before;
      if (const auto* faults = connection->faults()) {
        w.partial.fault_drops = faults->stats().drops;
        w.partial.fault_down_rejections = faults->stats().down_rejections;
      }
    });
  }

  start_line.arrive_and_wait();
  // The collector scrapes inside the tracer's window only: a scrape that
  // straddled the install or the removal would leave a half-traced stats
  // transaction on the server.
  if (collector != nullptr) collector->start(collector_ms);
  for (auto& t : threads) t.join();
  if (collector != nullptr) collector->stop();
  if (tracer != nullptr) obs::Tracer::set_current(nullptr);

  StrategyResult total;
  auto first = workers.front().start;
  auto last = workers.front().end;
  for (const Worker& w : workers) {
    total.requests += w.partial.requests;
    total.items_requested += w.partial.items_requested;
    total.items_returned += w.partial.items_returned;
    total.wire_txns += w.partial.wire_txns;
    total.round2_txns += w.partial.round2_txns;
    total.recover_txns += w.partial.recover_txns;
    total.retries += w.partial.retries;
    total.recover_rounds += w.partial.recover_rounds;
    total.fault_drops += w.partial.fault_drops;
    total.fault_down_rejections += w.partial.fault_down_rejections;
    total.latency.merge(w.partial.latency);
    if (w.start < first) first = w.start;
    if (w.end > last) last = w.end;
  }
  total.wall_s = std::chrono::duration<double>(last - first).count();
  if (total.wall_s <= 0.0) total.wall_s = 1e-9;
  return total;
}

struct Row {
  std::string sweep_key;
  double sweep_value = 0.0;
  std::string strategy;
  StrategyResult run;
  std::uint64_t down_marks = 0;   // view deltas across the measured run
  std::uint64_t recoveries = 0;
  // Scrape-side rollups, present when --collector was on for the row.
  bool collector_on = false;
  std::uint64_t collector_scrapes = 0;
  std::uint32_t servers_up = 0;
  double cluster_txns_per_s = 0.0;
  double load_cov = 0.0;
  double load_max_mean = 0.0;
  double health_score = 0.0;
};

void report(const std::vector<Row>& rows, bench::JsonResult& json) {
  std::printf("%-9s %-16s %8s %12s %12s %8s %8s %8s %10s %12s\n", "strategy",
              "sweep_key", "value", "txns_per_s", "items_per_s", "tpr",
              "retries", "recover", "avail", "p99_us");
  for (const Row& row : rows) {
    const StrategyResult& r = row.run;
    const double reqs_per_s =
        static_cast<double>(r.requests) / r.wall_s;
    const double items_per_s =
        static_cast<double>(r.items_returned) / r.wall_s;
    const double tpr = r.requests == 0
                           ? 0.0
                           : static_cast<double>(r.wire_txns) /
                                 static_cast<double>(r.requests);
    const double availability =
        r.items_requested == 0
            ? 1.0
            : static_cast<double>(r.items_returned) /
                  static_cast<double>(r.items_requested);
    std::printf("%-9s %-16s %8.2f %12.0f %12.0f %8.2f %8" PRIu64 " %8" PRIu64
                " %9.4f %12.1f\n",
                row.strategy.c_str(), row.sweep_key.c_str(), row.sweep_value,
                reqs_per_s, items_per_s, tpr, r.retries, r.recover_rounds,
                availability, r.latency.quantile(0.99) / 1e3);
    json.add_row();
    json.field("strategy", row.strategy);
    json.field(row.sweep_key, row.sweep_value);
    json.field("txns_per_s", reqs_per_s);
    json.field("items_per_s", items_per_s);
    json.field("wire_txns_per_request", tpr);
    json.field("wall_s", r.wall_s);
    json.field("requests", r.requests);
    json.field("availability", availability);
    json.field("retries", r.retries);
    json.field("recover_rounds", r.recover_rounds);
    json.field("recover_txns", r.recover_txns);
    json.field("round2_txns", r.round2_txns);
    json.field("down_marks", row.down_marks);
    json.field("recoveries", row.recoveries);
    json.field("fault_drops", r.fault_drops);
    json.field("fault_down_rejections", r.fault_down_rejections);
    json.field("p50_ns", r.latency.quantile(0.50));
    json.field("p99_ns", r.latency.quantile(0.99));
    if (row.collector_on) {
      json.field("collector_scrapes", row.collector_scrapes);
      json.field("servers_up", static_cast<std::uint64_t>(row.servers_up));
      json.field("cluster_txns_per_s", row.cluster_txns_per_s);
      json.field("load_cov", row.load_cov);
      json.field("load_max_mean", row.load_max_mean);
      json.field("health_score", row.health_score);
    }
  }
}

int run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  Params p;
  p.threads = static_cast<unsigned>(flags.u64("threads", 2));
  p.requests = flags.u64("requests", 2000);
  p.warmup = flags.u64("warmup", 200);
  p.keys = flags.u64("keys", 20000);
  p.zipf = flags.f64("zipf", 0.99);
  p.value_bytes = flags.u64("value-bytes", 100);
  p.seed = flags.u64("seed", 42);
  p.servers = static_cast<ServerId>(flags.u64("servers", 16));
  p.replication = static_cast<std::uint32_t>(flags.u64("replication", 3));
  p.shards = flags.u64("shards", 2);
  p.batch = flags.u64("batch", 16);
  p.hitchhiking = flags.boolean("hitchhiking", false);
  const std::string wire_name = flags.str("wire", "tcp");
  const GroupWire wire =
      wire_name == "loopback" ? GroupWire::kLoopback : GroupWire::kTcp;
  const std::string sweep = flags.str("sweep", "batch");
  const std::string fault_spec = flags.str("faults", "");
  const std::string trace_path = flags.str("trace", "");
  const std::string strategies_arg =
      flags.str("strategies", sweep == "batch" ? "perkey,naive,rnb" : "rnb");
  const std::uint64_t collector_ms = flags.u64("collector", 0);
  const std::string collector_json = flags.str("collector-json", "");
  const bool collector_top = flags.boolean("collector-top", false);

  std::vector<std::string> strategies;
  for (std::size_t pos = 0; pos < strategies_arg.size();) {
    const std::size_t comma = strategies_arg.find(',', pos);
    strategies.push_back(strategies_arg.substr(
        pos, comma == std::string::npos ? comma : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) {
    const std::size_t ring_capacity = static_cast<std::size_t>(
        p.requests * std::max(1u, p.threads) * (p.batch + 8) * 8 + 4096);
    tracer = std::make_unique<obs::Tracer>(obs::Tracer::ClockMode::kWall,
                                           ring_capacity);
  }

  std::vector<std::string> universe;
  universe.reserve(p.keys);
  for (std::uint64_t id = 0; id < p.keys; ++id)
    universe.push_back(key_name(id));
  const std::string value(p.value_bytes, 'v');
  const auto value_of = [&](std::string_view) { return value; };

  bench::JsonResult json("live_multiget");
  json.param("wire", wire_name);
  json.param("sweep", sweep);
  json.param("threads", static_cast<std::uint64_t>(p.threads));
  json.param("requests_per_thread", p.requests);
  json.param("warmup_per_thread", p.warmup);
  json.param("keys", p.keys);
  json.param("zipf", p.zipf);
  json.param("value_bytes", p.value_bytes);
  json.param("servers", static_cast<std::uint64_t>(p.servers));
  json.param("replication", static_cast<std::uint64_t>(p.replication));
  json.param("seed", p.seed);
  if (!fault_spec.empty()) json.param("faults", fault_spec);
  if (collector_ms > 0)
    json.param("collector_ms", collector_ms);

  // One fresh group per row: the limited-memory sweep needs cold replica
  // classes, and fresh servers keep rows independent of visit order.
  const auto make_group = [&](std::uint32_t replication,
                              double relative_memory) {
    ServerGroupConfig config;
    config.num_servers = p.servers;
    config.wire = wire;
    config.shards_per_server = p.shards;
    config.view.replication = replication;
    config.view.placement_seed = p.seed;
    config.fault_spec = fault_spec;
    const bool unlimited = relative_memory <= 0.0;
    if (!unlimited)
      config.bytes_per_server = ServerGroup::replica_budget(
          p.keys, key_name(0).size(), p.value_bytes, relative_memory,
          p.servers);
    auto group = std::make_unique<ServerGroup>(config);
    group->load(universe, value_of, /*preinstall_replicas=*/unlimited);
    return group;
  };

  std::vector<Row> rows;
  const auto run_row = [&](ServerGroup& group, const Params& params,
                           const std::string& strategy,
                           const std::string& sweep_key, double sweep_value) {
    Row row;
    row.sweep_key = sweep_key;
    row.sweep_value = sweep_value;
    row.strategy = strategy;
    // The telemetry plane scrapes over its own ordinary connection (fault
    // wrapper included, so crash windows mark servers down in the rollups
    // exactly as clients see them).
    std::unique_ptr<GroupConnection> monitor;
    std::unique_ptr<MetricsCollector> collector;
    if (collector_ms > 0) {
      monitor = group.connect();
      collector = std::make_unique<MetricsCollector>(*monitor);
      if (!collector_json.empty())
        collector->recorder().install_dump(collector_json, SIGTERM);
    }
    const std::uint64_t marks_before = group.view().down_marks();
    const std::uint64_t recoveries_before = group.view().recoveries();
    row.run = run_strategy(group, params, strategy, universe, tracer.get(),
                           collector.get(), collector_ms);
    row.down_marks = group.view().down_marks() - marks_before;
    row.recoveries = group.view().recoveries() - recoveries_before;
    if (collector != nullptr) {
      collector->scrape_once(collector->elapsed_us());  // closing rollup
      const obs::ClusterSample sample = collector->last_sample();
      const obs::HealthVerdict verdict = collector->last_verdict();
      row.collector_on = true;
      row.collector_scrapes = collector->scrapes();
      row.servers_up = sample.servers_up;
      row.cluster_txns_per_s = sample.txns_per_s;
      row.load_cov = verdict.load_cov;
      row.load_max_mean = verdict.load_max_mean;
      row.health_score = verdict.score;
      if (collector_top) {
        std::ostringstream top;
        collector->write_top(top);
        std::fputs(top.str().c_str(), stderr);
      }
      if (!collector_json.empty()) {
        std::ofstream out(collector_json);
        collector->recorder().write_json(out, "bench_end");
      }
    }
    rows.push_back(std::move(row));
  };

  if (sweep == "replicas") {
    for (const double r : f64_list(flags, "replicas", {1, 2, 3, 4})) {
      const auto group = make_group(static_cast<std::uint32_t>(r), 0.0);
      for (const std::string& s : strategies)
        run_row(*group, p, s, "replicas", r);
    }
  } else if (sweep == "memory") {
    for (const double m : f64_list(flags, "memories", {1.25, 1.5, 2.0, 3.0})) {
      const auto group = make_group(p.replication, m);
      for (const std::string& s : strategies)
        run_row(*group, p, s, "relative_memory", m);
    }
  } else {  // batch (Fig. 3): the multi-get hole and its closure
    for (const double b : f64_list(flags, "batches", {1, 2, 4, 8, 16, 32})) {
      Params row_params = p;
      row_params.batch = static_cast<std::uint64_t>(b);
      const auto group = make_group(p.replication, 0.0);
      for (const std::string& s : strategies)
        run_row(*group, row_params, s, "batch", b);
    }
  }
  if (collector_ms > 0 && !collector_json.empty())
    json.param("collector_json", collector_json);

  report(rows, json);

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
  return bench::maybe_write_json(flags, json) ? 0 : 1;
}

}  // namespace
}  // namespace rnb::dserve

int main(int argc, char** argv) { return rnb::dserve::run(argc, argv); }
