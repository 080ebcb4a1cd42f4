// loadgen_kv: multithreaded closed-loop load generator for the kv serving
// path — the harness behind the sharding scaling curve.
//
// N worker threads each run a closed loop of Zipf-distributed multi-gets
// against ONE server, timing every roundtrip into a per-thread
// obs::Histogram (merged exactly at the end — merge is associative, so the
// fleet-wide quantiles are the same regardless of thread count). Two
// serving paths are compared:
//
//   baseline   LoopbackTransport — plain MemTable engine behind the
//              per-server dispatch mutex (the historical single-dispatch
//              model; every request serializes).
//   sharded    ShardedMapLoopbackTransport (or the --engine's sharded
//              fleet) — striped per-shard locks, no transport mutex; swept
//              over shard counts 1, 2, 4, ... so the output is the scaling
//              curve directly.
//
// `--mode=tcp` runs the same loop over real sockets (M connections per
// thread), paying syscall + copy costs; there is no single-mutex TCP
// baseline because the sharded engine replaced it — use `--shards=1` for
// the single-lock-domain point. `--model=threads|reactor|both` picks the
// serving core: blocking thread-per-connection or the epoll reactor; rows
// are named `tcp-threads` / `tcp-reactor`.
//
// `--engine=map,swiss` sweeps the storage engine behind the serving path
// (std::unordered_map LRU — the ShardedMap* servers, the default — or the
// open-addressing swiss table of kv/swiss_memtable.hpp, which the
// serving-name servers run); each listed engine becomes one `store=<name>`
// row per (model, shards) point in the same run, so speedup_vs_first_row
// reads directly as "vs the first listed engine" — the engine-sweep rows
// in BENCH_loadgen.json pin swiss-vs-map this way.
//
// `--sweep-connections=64,256,1024` replaces the shard sweep with a
// connection-count sweep at a fixed shard count: every listed total is
// split across the worker threads and each (model, connections) pair
// becomes one row. This is the reactor acceptance curve — the thread
// server pays one OS thread per connection, the reactor one loop thread
// per server, so the gap opens as the fan grows.
//
// `--collector=MS` (tcp mode) attaches a dserve::MetricsCollector to the
// server over its own client socket, scraping `stats` every MS ms during
// the measured phase — the live-telemetry tax paid for real. And
// `--sweep-collector` emits exactly two rows at the fixed config —
// `collector=off` then `collector=on` — so the on-row's
// speedup_vs_first_row IS the scrape-overhead ratio (the pinned pair in
// BENCH_loadgen.json gates it staying >= 0.95).
//
// The workload is deterministic per (seed, thread): each thread owns a
// Xoshiro256 stream and a rejection-inversion Zipf sampler. Only the
// timing is wall-clock (this bench measures real contention, unlike the
// simulator benches).
//
// Distributed tracing (`--trace=FILE`): the measured phase runs under a
// wall-clock tracer installed at the start barrier (warmup is untraced).
// Every request opens a root "transaction" span whose context rides the
// frame's @trace tag, so the exported Chrome JSON stitches client spans to
// the server-side parse/dispatch/handle/format tree — across real sockets
// in tcp mode. `--slowlog=N` keeps the N most expensive requests and
// prints them (plus their span trees, when tracing) after the run.
//
//   build/bench/loadgen_kv --threads=8 --batch=10 --json=scaling.json
//   build/bench/loadgen_kv --mode=tcp --threads=4 --connections=2
//   build/bench/loadgen_kv --mode=tcp --shards=4 --trace=kv.trace.json
//       --slowlog=10 --requests=500   (one line)
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/sharding.hpp"
#include "dserve/collector.hpp"
#include "kv/kv_server.hpp"
#include "kv/protocol.hpp"
#include "kv/reactor.hpp"
#include "kv/tcp.hpp"
#include "kv/transport.hpp"
#include "obs/contention.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {
namespace {

struct Params {
  unsigned threads = 0;
  std::uint64_t requests = 0;  // measured requests per thread
  std::uint64_t warmup = 0;    // untimed requests per thread
  std::uint64_t batch = 0;     // keys per multi-get
  std::uint64_t keys = 0;      // key universe size
  double zipf = 0.0;
  std::uint64_t value_bytes = 0;
  std::uint64_t seed = 0;
  bool pinned = false;  // preload keys pinned (read path never escalates)
};

std::string key_name(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010" PRIu64, id);
  return buf;
}

/// One thread's view of the server: send a frame, get the response.
using Dispatch = std::function<void(std::string_view, std::string&)>;

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t txns = 0;
  obs::Histogram latency;
};

/// Run the closed loop: every thread performs `warmup` untimed then
/// `requests` timed multi-gets; the wall clock covers first timed request
/// to last completion (all threads start together at a barrier). When
/// `tracer` / `slow` are given they are installed process-wide by the
/// start-barrier completion step — after every thread has finished its
/// (untraced) warmup and before any timed request — and removed again once
/// the workers have joined.
RunResult run_load(const Params& p, const std::vector<std::string>& universe,
                   const std::function<Dispatch(unsigned)>& make_dispatch,
                   obs::Tracer* tracer = nullptr,
                   obs::SlowLog* slow = nullptr) {
  struct WorkerState {
    obs::Histogram hist;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<WorkerState> workers(p.threads);
  const auto arm_observers = [tracer, slow]() noexcept {
    if (tracer != nullptr) obs::Tracer::set_current(tracer);
    if (slow != nullptr) obs::SlowLog::set_current(slow);
  };
  std::barrier start_line(static_cast<std::ptrdiff_t>(p.threads) + 1,
                          arm_observers);

  std::vector<std::thread> threads;
  threads.reserve(p.threads);
  for (unsigned tid = 0; tid < p.threads; ++tid) {
    threads.emplace_back([&, tid] {
      Dispatch dispatch = make_dispatch(tid);
      Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ull + tid + 1);
      const ZipfSampler zipf(p.keys, p.zipf);
      std::vector<std::string> batch(p.batch);
      std::string frame;
      std::string response;
      const auto build = [&] {
        for (auto& key : batch) key = universe[zipf(rng)];
        frame.clear();
        encode_get(batch, /*with_versions=*/false, frame);
      };
      for (std::uint64_t i = 0; i < p.warmup; ++i) {
        build();
        dispatch(frame, response);
      }
      start_line.arrive_and_wait();
      workers[tid].start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < p.requests; ++i) {
        build();
        std::uint64_t trace_id = 0;
        const auto t0 = std::chrono::steady_clock::now();
        {
          // Root of this request's distributed trace; its context rides
          // the frame so the server's span tree stitches underneath. A
          // no-op (one branch) when no tracer is installed.
          obs::SpanScope txn_span("transaction", "loadgen",
                                  obs::SpanScope::Kind::kRoot);
          const obs::TraceContext ctx = txn_span.context();
          if (ctx.valid()) {
            trace_id = ctx.trace_id;
            append_trace_tag(frame,
                             TraceTag{ctx.trace_id, ctx.span_id, ctx.sampled});
          }
          dispatch(frame, response);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        workers[tid].hist.record_traced(ns, trace_id);
        if (obs::SlowLog* log = obs::SlowLog::current()) {
          obs::SlowRequest sr;
          sr.trace_id = trace_id;
          sr.cost = ns;
          sr.items = static_cast<std::uint32_t>(p.batch);
          sr.transactions = 1;
          sr.waves = 1;
          sr.servers = 1;
          log->record(sr);
        }
      }
      workers[tid].end = std::chrono::steady_clock::now();
    });
  }

  start_line.arrive_and_wait();
  for (auto& t : threads) t.join();
  if (tracer != nullptr) obs::Tracer::set_current(nullptr);
  if (slow != nullptr) obs::SlowLog::set_current(nullptr);

  // Wall clock spans first worker start to last worker completion (the
  // main thread may be scheduled arbitrarily late after the barrier, so
  // its own clock reads would under-measure).
  RunResult result;
  auto first = workers.front().start;
  auto last = workers.front().end;
  for (const auto& w : workers) {
    result.latency.merge(w.hist);
    if (w.start < first) first = w.start;
    if (w.end > last) last = w.end;
  }
  result.txns = p.requests * p.threads;
  result.wall_s = std::chrono::duration<double>(last - first).count();
  if (result.wall_s <= 0.0) result.wall_s = 1e-9;  // degenerate tiny runs
  return result;
}

/// Populate a server through its own protocol path (same bytes every mode).
template <typename Dispatchable>
void preload(const Params& p, const std::vector<std::string>& universe,
             Dispatchable&& dispatch) {
  const std::string value(p.value_bytes, 'x');
  std::string frame;
  std::string response;
  for (const auto& key : universe) {
    frame.clear();
    encode_set(key, value, p.pinned, frame);
    dispatch(frame, response);
    RNB_REQUIRE(response.starts_with("STORED"));
  }
}

/// Byte budget with ample headroom so the measured phase never evicts —
/// the bench measures serving cost, not replacement policy.
std::size_t budget_for(const Params& p) {
  return static_cast<std::size_t>(p.keys * (p.value_bytes + 128) * 4);
}

struct Row {
  std::string engine;
  std::string store = "map";      // storage engine: map | swiss
  std::uint64_t shards = 0;
  std::uint64_t connections = 0;  // total client sockets; 0 for loopback
  RunResult run;
  double hit_rate = 0.0;
  obs::ContentionSnapshot locks;  // measured-phase delta; zero for baseline
  std::string collector;          // "off"/"on" in --sweep-collector rows only
  std::uint64_t collector_scrapes = 0;
};

void report(const Params& p, const std::vector<Row>& rows,
            bench::JsonResult& json) {
  std::printf(
      "%-12s %-6s %7s %6s %8s %12s %12s %10s %10s %10s %12s %10s\n", "engine",
      "store", "shards", "conns", "threads", "txns/s", "items/s", "p50_ns",
      "p90_ns", "p99_ns", "lock_waits", "hit_rate");
  const double baseline =
      rows.empty() ? 0.0
                   : static_cast<double>(rows.front().run.txns) /
                         rows.front().run.wall_s;
  for (const Row& row : rows) {
    const double txns_per_s =
        static_cast<double>(row.run.txns) / row.run.wall_s;
    const double items_per_s = txns_per_s * static_cast<double>(p.batch);
    std::printf("%-12s %-6s %7" PRIu64 " %6" PRIu64 " %8u %12.0f %12.0f %10"
                PRIu64 " %10" PRIu64 " %10" PRIu64 " %12" PRIu64 " %9.3f%%\n",
                row.engine.c_str(), row.store.c_str(), row.shards,
                row.connections, p.threads, txns_per_s, items_per_s,
                row.run.latency.quantile(0.50), row.run.latency.quantile(0.90),
                row.run.latency.quantile(0.99),
                row.locks.contended_acquisitions, row.hit_rate * 100.0);
    json.add_row();
    json.field("engine", row.engine);
    json.field("store", row.store);
    json.field("shards", row.shards);
    json.field("connections", row.connections);
    json.field("batch", p.batch);
    json.field("threads", static_cast<std::uint64_t>(p.threads));
    json.field("txns_per_s", txns_per_s);
    json.field("items_per_s", items_per_s);
    json.field("speedup_vs_first_row",
               baseline > 0.0 ? txns_per_s / baseline : 0.0);
    json.field("wall_s", row.run.wall_s);
    json.field("p50_ns", row.run.latency.quantile(0.50));
    json.field("p90_ns", row.run.latency.quantile(0.90));
    json.field("p99_ns", row.run.latency.quantile(0.99));
    json.field("mean_ns", row.run.latency.mean());
    json.field("hit_rate", row.hit_rate);
    json.field("lock_acquisitions", row.locks.total_acquisitions());
    json.field("lock_contended", row.locks.contended_acquisitions);
    // The collector label joins the row identity only on --sweep-collector
    // rows, so every pre-existing pinned row keeps its identity untouched.
    if (!row.collector.empty()) {
      json.field("collector", row.collector);
      json.field("collector_scrapes", row.collector_scrapes);
    }
  }
}

double hit_rate_of(const ServerCounters& before, const ServerCounters& after) {
  const std::uint64_t asked = after.keys_requested - before.keys_requested;
  const std::uint64_t got = after.keys_returned - before.keys_returned;
  return asked == 0 ? 0.0
                    : static_cast<double>(got) / static_cast<double>(asked);
}

obs::ContentionSnapshot delta(const obs::ContentionSnapshot& before,
                              const obs::ContentionSnapshot& after) {
  obs::ContentionSnapshot d;
  d.shared_acquisitions = after.shared_acquisitions - before.shared_acquisitions;
  d.exclusive_acquisitions =
      after.exclusive_acquisitions - before.exclusive_acquisitions;
  d.contended_acquisitions =
      after.contended_acquisitions - before.contended_acquisitions;
  return d;
}

Row run_baseline(const Params& p, const std::vector<std::string>& universe,
                 obs::Tracer* tracer, obs::SlowLog* slow) {
  LoopbackTransport transport(1, budget_for(p));
  std::string response;
  preload(p, universe,
          [&](std::string_view frame, std::string& out) {
            transport.roundtrip(0, frame, out);
          });
  const ServerCounters before = transport.server(0).counters();
  Row row;
  row.engine = "baseline";
  row.run = run_load(
      p, universe,
      [&](unsigned) -> Dispatch {
        return [&](std::string_view frame, std::string& out) {
          transport.roundtrip(0, frame, out);
        };
      },
      tracer, slow);
  row.hit_rate = hit_rate_of(before, transport.server(0).counters());
  return row;
}

/// Sharded loopback run, generic over the storage engine (`Transport` is
/// one of the sharded BasicLoopbackTransport aliases).
template <typename Transport>
Row run_sharded(const Params& p, const std::vector<std::string>& universe,
                std::uint64_t shards, const std::string& store,
                obs::Tracer* tracer, obs::SlowLog* slow) {
  Transport transport(1, budget_for(p), shards);
  preload(p, universe,
          [&](std::string_view frame, std::string& out) {
            transport.roundtrip(0, frame, out);
          });
  const ServerCounters before = transport.server(0).counters();
  const obs::ContentionSnapshot locks_before =
      transport.server(0).table().lock_counters();
  Row row;
  row.engine = "sharded";
  row.store = store;
  row.shards = transport.server(0).table().shard_count();
  row.run = run_load(
      p, universe,
      [&](unsigned) -> Dispatch {
        return [&](std::string_view frame, std::string& out) {
          transport.roundtrip(0, frame, out);
        };
      },
      tracer, slow);
  row.hit_rate = hit_rate_of(before, transport.server(0).counters());
  row.locks =
      delta(locks_before, transport.server(0).table().lock_counters());
  return row;
}

Row run_sharded_store(const Params& p,
                      const std::vector<std::string>& universe,
                      std::uint64_t shards, const std::string& store,
                      obs::Tracer* tracer, obs::SlowLog* slow) {
  if (store == "swiss")
    return run_sharded<ShardedLoopbackTransport>(p, universe, shards, store,
                                                 tracer, slow);
  return run_sharded<ShardedMapLoopbackTransport>(p, universe, shards, store,
                                                  tracer, slow);
}

/// Boot one TCP server for the requested (storage engine, serving model)
/// pair. Both axes are boot-time choices thanks to the WireServer seam.
std::unique_ptr<WireServer> boot_tcp(const Params& p, const std::string& store,
                                     ServerModel model, std::uint64_t shards) {
  const bool reactor = model == ServerModel::kReactor;
  if (store == "swiss") {
    if (reactor)
      return std::make_unique<ReactorKvServer>(budget_for(p), /*port=*/0,
                                               shards);
    return std::make_unique<TcpKvServer>(budget_for(p), /*port=*/0, shards);
  }
  if (reactor)
    return std::make_unique<MapReactorKvServer>(budget_for(p), /*port=*/0,
                                                shards);
  return std::make_unique<MapTcpKvServer>(budget_for(p), /*port=*/0, shards);
}

Row run_tcp(const Params& p, const std::vector<std::string>& universe,
            std::uint64_t shards, std::uint64_t connections, ServerModel model,
            const std::string& store, obs::Tracer* tracer, obs::SlowLog* slow,
            std::uint64_t collector_ms = 0,
            const std::string& collector_label = "") {
  std::unique_ptr<WireServer> server = boot_tcp(p, store, model, shards);
  {
    TcpKvConnection setup(server->port());
    preload(p, universe,
            [&](std::string_view frame, std::string& out) {
              setup.roundtrip(frame, out);
            });
  }
  // The telemetry plane rides its own client socket so scrape traffic
  // contends with the workload exactly where production contends: inside
  // the server, never in the workers' dispatch path.
  std::unique_ptr<TcpClientTransport> scrape_wire;
  std::unique_ptr<dserve::MetricsCollector> collector;
  if (collector_ms > 0) {
    scrape_wire = std::make_unique<TcpClientTransport>(
        std::vector<std::uint16_t>{server->port()});
    collector = std::make_unique<dserve::MetricsCollector>(*scrape_wire);
    collector->start(collector_ms);
  }
  const ServerCounters before = server->counters();
  const obs::ContentionSnapshot locks_before = server->lock_counters();
  Row row;
  row.engine = model == ServerModel::kReactor ? "tcp-reactor" : "tcp-threads";
  row.store = store;
  row.shards = server->shard_count();
  row.connections = connections * p.threads;
  row.collector = collector_label;
  row.run = run_load(
      p, universe,
      [&](unsigned) -> Dispatch {
        // Each worker owns `connections` sockets used round-robin, so one
        // thread exercises several server-side connections concurrently —
        // reader threads under the thread model, reactor state machines
        // under the epoll model.
        auto conns =
            std::make_shared<std::vector<std::unique_ptr<TcpKvConnection>>>();
        for (std::uint64_t c = 0; c < connections; ++c)
          conns->push_back(std::make_unique<TcpKvConnection>(server->port()));
        auto next = std::make_shared<std::size_t>(0);
        return [conns, next](std::string_view frame, std::string& out) {
          TcpKvConnection& conn = *(*conns)[*next];
          *next = (*next + 1) % conns->size();
          conn.roundtrip(frame, out);
        };
      },
      tracer, slow);
  if (collector != nullptr) {
    collector->stop();
    collector->scrape_once(collector->elapsed_us());
    row.collector_scrapes = collector->scrapes();
  }
  row.hit_rate = hit_rate_of(before, server->counters());
  row.locks = delta(locks_before, server->lock_counters());
  return row;
}

/// Re-emit each retained histogram-bucket exemplar as an "exemplar"
/// instant attached to its trace, so the Chrome trace file itself links
/// latency buckets to the stitched request that produced them.
void emit_exemplars(obs::Tracer& tracer, const obs::Histogram& latency) {
  latency.for_each_bucket([&](const obs::Histogram::Bucket& b) {
    const obs::Histogram::Exemplar* ex = latency.bucket_exemplar(b.index);
    if (ex == nullptr) return;
    tracer.instant_in_trace(
        "exemplar", "loadgen", {ex->trace_id, 0, true},
        {{"value_ns", static_cast<std::int64_t>(ex->value)},
         {"bucket_upper_ns", static_cast<std::int64_t>(b.upper)}});
  });
}

/// One stitched client→server example for the JSON schema: the first
/// traced loadgen transaction with a server-side child, plus the names of
/// the server span's children (parse/dispatch/handle/format).
bench::JsonResult::Raw stitched_example(const obs::Tracer& tracer) {
  const std::vector<obs::TraceEvent> events = tracer.snapshot_events();
  const auto is_txn = [](const obs::TraceEvent& e, const char* cat) {
    return e.phase == 'X' && e.name != nullptr && e.cat != nullptr &&
           std::string_view(e.name) == "transaction" &&
           std::string_view(e.cat) == cat;
  };
  for (const obs::TraceEvent& c : events) {
    if (c.trace_id == 0 || !is_txn(c, "loadgen")) continue;
    for (const obs::TraceEvent& s : events) {
      if (s.trace_id != c.trace_id || s.parent_id != c.span_id ||
          !is_txn(s, "server"))
        continue;
      std::ostringstream out;
      out << "{\"trace_id\":";
      obs::write_hex_id(out, c.trace_id);
      out << ",\"client_span_id\":";
      obs::write_hex_id(out, c.span_id);
      out << ",\"server_span_id\":";
      obs::write_hex_id(out, s.span_id);
      out << ",\"server_children\":[";
      bool first = true;
      for (const obs::TraceEvent& g : events) {
        if (g.trace_id != c.trace_id || g.parent_id != s.span_id) continue;
        if (!first) out << ',';
        first = false;
        obs::write_json_string(out, g.name == nullptr ? "?" : g.name);
      }
      out << "]}";
      return {out.str()};
    }
  }
  return {};
}

int run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  Params p;
  p.threads = static_cast<unsigned>(flags.u64("threads", 0));
  if (p.threads == 0) {
    p.threads = std::thread::hardware_concurrency();
    if (p.threads == 0) p.threads = 4;
  }
  p.requests = flags.u64("requests", 20000);
  p.warmup = flags.u64("warmup", 2000);
  p.batch = flags.u64("batch", 10);
  p.keys = flags.u64("keys", 100000);
  p.zipf = flags.f64("zipf", 0.99);
  p.value_bytes = flags.u64("value-bytes", 100);
  p.seed = flags.u64("seed", 42);
  p.pinned = flags.boolean("pinned", false);
  const std::string mode = flags.str("mode", "loopback");
  const std::uint64_t fixed_shards = flags.u64("shards", 0);
  const std::uint64_t connections = flags.u64("connections", 1);
  const std::string model_name = flags.str("model", "threads");
  const std::string sweep_spec = flags.str("sweep-connections", "");
  const std::string engine_spec = flags.str("engine", "map");
  const bool with_baseline = flags.boolean("baseline", true);
  const std::string trace_path = flags.str("trace", "");
  const std::uint64_t slowlog_n = flags.u64("slowlog", 0);
  const std::uint64_t collector_ms = flags.u64("collector", 0);
  const bool sweep_collector = flags.boolean("sweep-collector", false);
  if ((collector_ms > 0 || sweep_collector) && mode != "tcp") {
    std::fprintf(stderr, "--collector/--sweep-collector need --mode=tcp\n");
    return 1;
  }

  // One wall-clock tracer shared by every row (installed only during each
  // measured phase). Rings are sized so a --trace run keeps every event —
  // roughly 8 spans per request end up on the busiest thread — which is
  // why traced runs should use small --requests counts.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) {
    const std::size_t ring_capacity = static_cast<std::size_t>(
        p.requests * std::max(1u, p.threads) * 8 + 4096);
    tracer = std::make_unique<obs::Tracer>(obs::Tracer::ClockMode::kWall,
                                           ring_capacity);
  }
  std::unique_ptr<obs::SlowLog> slow;
  if (slowlog_n > 0)
    slow = std::make_unique<obs::SlowLog>(
        static_cast<std::size_t>(slowlog_n));

  std::vector<std::string> universe;
  universe.reserve(p.keys);
  for (std::uint64_t id = 0; id < p.keys; ++id)
    universe.push_back(key_name(id));

  // Shard counts to sweep: a fixed `--shards=N`, or 1, 2, 4, ... up to
  // next_pow2(hardware threads).
  std::vector<std::uint64_t> shard_counts;
  if (flags.has("shards")) {
    shard_counts.push_back(fixed_shards);
  } else {
    const std::size_t max_shards = resolve_shard_count(0);
    for (std::size_t s = 1; s <= max_shards; s *= 2) shard_counts.push_back(s);
  }

  bench::JsonResult json("loadgen_kv");
  json.param("mode", mode);
  json.param("threads", static_cast<std::uint64_t>(p.threads));
  json.param("requests_per_thread", p.requests);
  json.param("warmup_per_thread", p.warmup);
  json.param("batch", p.batch);
  json.param("keys", p.keys);
  json.param("zipf", p.zipf);
  json.param("value_bytes", p.value_bytes);
  json.param("seed", p.seed);
  json.param("pinned", p.pinned);
  if (mode == "tcp") json.param("connections_per_thread", connections);

  // Which storage engines to bench: `--engine=map,swiss` sweeps them
  // inside one run, so speedup_vs_first_row reads as "vs map" directly.
  std::vector<std::string> stores;
  {
    std::stringstream list(engine_spec);
    std::string item;
    while (std::getline(list, item, ',')) {
      if (item != "map" && item != "swiss") {
        std::fprintf(stderr, "unknown --engine entry %s (map|swiss)\n",
                     item.c_str());
        return 1;
      }
      stores.push_back(item);
    }
    if (stores.empty()) stores.push_back("map");
  }
  json.param("engines", engine_spec);

  // Which serving cores to bench in tcp mode.
  std::vector<ServerModel> models;
  if (model_name == "reactor") {
    models = {ServerModel::kReactor};
  } else if (model_name == "both") {
    models = {ServerModel::kThreadPerConnection, ServerModel::kReactor};
  } else if (model_name == "threads") {
    models = {ServerModel::kThreadPerConnection};
  } else {
    std::fprintf(stderr, "unknown --model=%s (threads|reactor|both)\n",
                 model_name.c_str());
    return 1;
  }

  std::vector<Row> rows;
  if (mode == "tcp" && sweep_collector) {
    // Scrape-overhead pair: identical config, collector detached then
    // attached, off-row first so the on-row's speedup_vs_first_row is the
    // overhead ratio directly (1.0 = free, 0.95 = the 5% budget line).
    const std::uint64_t period = collector_ms > 0 ? collector_ms : 25;
    json.param("sweep_collector", true);
    json.param("collector_ms", period);
    rows.push_back(run_tcp(p, universe, shard_counts.front(), connections,
                           models.front(), stores.front(), tracer.get(),
                           slow.get(), /*collector_ms=*/0, "off"));
    rows.push_back(run_tcp(p, universe, shard_counts.front(), connections,
                           models.front(), stores.front(), tracer.get(),
                           slow.get(), period, "on"));
  } else if (mode == "tcp" && !sweep_spec.empty()) {
    // Connection-count sweep at a fixed shard count: every listed total is
    // split evenly across the worker threads (rounded up so the requested
    // fan is never under-provisioned).
    json.param("sweep_connections", sweep_spec);
    std::vector<std::uint64_t> sweep;
    std::stringstream list(sweep_spec);
    std::string item;
    while (std::getline(list, item, ',')) {
      const std::uint64_t total = std::strtoull(item.c_str(), nullptr, 10);
      if (total == 0) {
        std::fprintf(stderr, "bad --sweep-connections entry %s\n",
                     item.c_str());
        return 1;
      }
      sweep.push_back(total);
    }
    // Models outer, then stores, fan inner: each (model, store) scaling
    // curve reads top to bottom, and the first row is the thread server on
    // the map engine at the smallest fan — the reference
    // speedup_vs_first_row divides by.
    for (const ServerModel model : models)
      for (const std::string& store : stores)
        for (const std::uint64_t total : sweep)
          rows.push_back(run_tcp(p, universe, shard_counts.front(),
                                 (total + p.threads - 1) / p.threads, model,
                                 store, tracer.get(), slow.get()));
  } else if (mode == "tcp") {
    for (const ServerModel model : models)
      for (const std::string& store : stores)
        for (const std::uint64_t s : shard_counts)
          rows.push_back(run_tcp(p, universe, s, connections, model, store,
                                 tracer.get(), slow.get(), collector_ms));
  } else {
    if (with_baseline)
      rows.push_back(run_baseline(p, universe, tracer.get(), slow.get()));
    for (const std::string& store : stores)
      for (const std::uint64_t s : shard_counts)
        rows.push_back(run_sharded_store(p, universe, s, store, tracer.get(),
                                         slow.get()));
  }

  report(p, rows, json);

  if (tracer != nullptr) {
    for (const Row& row : rows) emit_exemplars(*tracer, row.run.latency);
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write --trace=%s\n", trace_path.c_str());
      return 1;
    }
    tracer->export_chrome_json(trace_out);
    std::fprintf(stderr, "wrote Chrome trace to %s (%" PRIu64
                         " events, %" PRIu64 " dropped)\n",
                 trace_path.c_str(), tracer->events_recorded(),
                 tracer->events_dropped());
    json.param("trace_file", trace_path);
    json.param("stitched_example", stitched_example(*tracer));
  }
  if (slow != nullptr) {
    std::ostringstream text;
    slow->write_text(text);
    std::fputs(text.str().c_str(), stdout);
    std::ostringstream dump;
    slow->write_json(dump, tracer.get());
    json.param("slow_requests", bench::JsonResult::Raw{dump.str()});
  }
  return bench::maybe_write_json(flags, json) ? 0 : 1;
}

}  // namespace
}  // namespace rnb::kv

int main(int argc, char** argv) { return rnb::kv::run(argc, argv); }
