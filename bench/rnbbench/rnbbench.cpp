// rnbbench: the live RnB serving path, measured end to end and layer by
// layer. One process runs one workload.
//
// A run boots a ServerGroup (8 servers, R=3, every other setting at its
// default) several times to time set-up, keeps the last one, warms it, and
// drives it with two closed-loop client threads. Each thread owns one
// KvClusterClient over its own group connection (one socket per server on
// TCP) and issues its next operation only when the previous one returned,
// like a web-tier worker blocking on a page's multi-get. Reps run for a
// fixed duration; the process reports each rep and their median.
//
// Every returned item is checked against an oracle value fixed per key by
// the seed, and every set against its STORED acks. A wrong byte aborts the
// run with the workload and key named; missing items are counted.
//
// --trace=1 adds one traced rep after an untraced one. The client's
// transport is wrapped in TimedTransport, and every operation and every
// roundtrip it causes is recorded as a span kept in memory per thread. The
// program's own tracer stays uninstalled. Per-layer numbers come from the
// spans (client self time = multi_get minus its roundtrips) and from
// replaying the traced rep's first requests through each layer's function
// in isolation: placement, cover, wire encode/parse and server handle().
//
// Human-readable notes go to stderr; the last line of stdout is one JSON
// object holding every metric with its unit (run.py reads it).
//
//   rnbbench --workload=point_tcp --seed=42 --seconds=12 [--trace=1]
//            [--trace-file=trace.json] [--smoke]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "common/alias.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"
#include "graph/generators.hpp"
#include "kv/kv_transport.hpp"
#include "kv/protocol.hpp"
#include "setcover/cover.hpp"
#include "setcover/greedy.hpp"
#include "workload/social_workload.hpp"

namespace rnb::rnbbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

// Two synchronous clients leave two of a four-core machine to the servers.
constexpr unsigned kClientThreads = 2;
constexpr ServerId kServers = 8;
constexpr std::size_t kValueBytes = 100;
constexpr double kZipfSkew = 0.99;
// Traced requests per thread replayed through the layer functions.
constexpr std::size_t kReplayRequests = 5000;
// Operations per thread written to the Chrome trace file (all are kept in
// memory for the accounting check).
constexpr std::size_t kChromeOps = 2000;
// Sets timed after the traced rep on workloads that do not write.
constexpr std::size_t kReplaySets = 2000;
// Untraced reps per run; the reported value is their median.
constexpr unsigned kReps = 6;
// Requests per thread sampled for the input statistics.
constexpr std::size_t kStatsRequests = 10000;

[[noreturn]] void die(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("rnbbench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
  // Worker threads may still be running: leave without destructors.
  std::_Exit(3);
}

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  dserve::GroupWire wire;
  /// Keys per multi-get, drawn Zipf(0.99); 0 = a social friend list.
  std::uint32_t batch;
  /// Total memory in copies of the data; 0 = unlimited, replicas
  /// preinstalled. A bounded budget starts replicas cold.
  double relative_memory;
  bool hitchhiking;
  /// Share of operations that are KvClusterClient::set.
  double set_frac;
};

// Why each workload exists is recorded in README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"point_tcp", dserve::GroupWire::kTcp, 1, 0.0, false, 0.0},
    {"social_tcp", dserve::GroupWire::kTcp, 0, 0.0, false, 0.0},
    {"plan_loopback_m64", dserve::GroupWire::kLoopback, 64, 0.0, false, 0.0},
    {"overbook_rw_m16", dserve::GroupWire::kTcp, 16, 1.5, true, 0.05},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  /// Measured seconds, split evenly over the reps (or, traced, over the
  /// untraced reference rep and the traced rep).
  double seconds = 12.0;
  bool trace = false;
  /// Toy sizes for the ctest smoke: 2k keys, 0.3 s reps, one set-up.
  bool smoke = false;
  std::string trace_file;
};

// ------------------------------------------------------------------- inputs

std::string key_name(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "i%09" PRIu64, id);
  return buf;
}

std::optional<std::uint32_t> key_id(std::string_view key, std::size_t n) {
  if (key.size() != 10 || key[0] != 'i') return std::nullopt;
  std::uint32_t id = 0;
  const char* end = key.data() + key.size();
  const auto [ptr, ec] = std::from_chars(key.data() + 1, end, id);
  if (ec != std::errc{} || ptr != end || id >= n) return std::nullopt;
  return id;
}

std::string oracle_value(std::uint64_t seed, std::uint64_t id) {
  std::string value(kValueBytes, 'a');
  std::uint64_t x = splitmix64(seed ^ splitmix64(id + 1));
  for (char& c : value) {
    x = splitmix64(x);
    c = static_cast<char>('a' + x % 26);
  }
  return value;
}

struct Inputs {
  std::vector<std::string> keys;    // key id -> name
  std::vector<std::string> values;  // key id -> oracle value
  std::optional<DirectedGraph> graph;
  std::optional<AliasTable> zipf;  // popularity; rank == key id
};

Inputs make_inputs(const WorkloadSpec& w, const Options& opt) {
  Inputs in;
  std::uint64_t n = opt.smoke ? 2000 : 100000;
  if (w.batch == 0) {
    // The graph is the dataset, fixed like the paper's Slashdot crawl (the
    // generator's seed 1, as the simulator figures use); the run's seed
    // picks which users request. A graph drawn per seed would move TPR by
    // 15% between seeds.
    in.graph = opt.smoke ? make_power_law_graph({.nodes = 2000,
                                                 .edges = 23000,
                                                 .max_degree = 300,
                                                 .seed = 1})
                         : synthetic_slashdot(1);
    n = in.graph->num_nodes();
  }
  if (w.batch != 0 || w.set_frac > 0.0) {
    std::vector<double> weights(n);
    for (std::uint64_t r = 0; r < n; ++r)
      weights[r] = std::pow(static_cast<double>(r + 1), -kZipfSkew);
    in.zipf.emplace(weights);
  }
  in.keys.reserve(n);
  in.values.reserve(n);
  for (std::uint64_t id = 0; id < n; ++id) {
    in.keys.push_back(key_name(id));
    in.values.push_back(oracle_value(opt.seed, id));
  }
  return in;
}

/// One client thread's operation stream; deterministic from its seed.
class RequestGen {
 public:
  RequestGen(const WorkloadSpec& w, const Inputs& in, std::uint64_t seed)
      : w_(w), in_(in), rng_(seed) {
    if (in.graph) social_.emplace(*in.graph, splitmix64(seed));
  }

  bool next_is_set() { return w_.set_frac > 0.0 && rng_.chance(w_.set_frac); }

  std::uint32_t next_key() {
    return static_cast<std::uint32_t>(in_.zipf->sample(rng_));
  }

  void next_get(std::vector<std::uint32_t>& ids) {
    ids.clear();
    if (social_) {
      social_->next(items_);
      for (const ItemId item : items_)
        ids.push_back(static_cast<std::uint32_t>(item));
      return;
    }
    for (std::uint32_t i = 0; i < w_.batch; ++i) ids.push_back(next_key());
  }

 private:
  const WorkloadSpec& w_;
  const Inputs& in_;
  Xoshiro256 rng_;
  std::optional<SocialWorkload> social_;
  std::vector<ItemId> items_;
};

std::uint64_t stream_seed(std::uint64_t seed, unsigned thread) {
  return splitmix64(seed * 0x9E3779B97F4A7C15ull + thread + 1);
}

/// Dedupes key ids request by request: one slot per key remembers the last
/// request that named it, so nothing is cleared between requests.
class KeyMarks {
 public:
  explicit KeyMarks(std::size_t keys) : last_(keys, 0) {}

  void next_request() { ++request_; }
  /// True the first time the current request names `id`.
  bool first(std::uint32_t id) {
    if (last_[id] == request_) return false;
    last_[id] = request_;
    return true;
  }
  bool named(std::uint32_t id) const { return last_[id] == request_; }

 private:
  std::vector<std::uint32_t> last_;
  std::uint32_t request_ = 0;
};

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Nearest-rank quantile; sorts `v`.
double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[rank == 0 ? 0 : rank - 1]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Minimal JSON object writer; numbers keep all 17 significant digits.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string done() const { return first_ ? "{}" : os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// -------------------------------------------------------------------- spans

enum class SpanKind : std::uint8_t { kMultiGet, kSet, kRoundtrip };

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the operation span in the same thread's log; -1 for an
  /// operation span itself.
  std::int64_t parent = -1;
  std::uint32_t server = 0;
  std::uint32_t bytes_out = 0;
  std::uint32_t bytes_in = 0;
  SpanKind kind = SpanKind::kRoundtrip;
  bool ok = true;
};

/// One thread's spans. A deque never moves recorded spans, so parent
/// indices stay valid and appending costs no copy of the log.
struct SpanLog {
  std::deque<Span> spans;
  std::int64_t open = -1;  // the operation span roundtrips attach to
};

/// KvTransport decorator recording one span per roundtrip under the
/// thread's open operation span.
class TimedTransport final : public kv::KvTransport {
 public:
  TimedTransport(kv::KvTransport& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    Span span;
    span.start_ns = now_ns();
    const kv::TransportResult result = inner_.roundtrip(s, request, response);
    span.end_ns = now_ns();
    span.parent = log_.open;
    span.server = s;
    span.bytes_out = static_cast<std::uint32_t>(request.size());
    span.bytes_in = static_cast<std::uint32_t>(response.size());
    span.ok = result.ok();
    log_.spans.push_back(span);
    return result;
  }

 private:
  kv::KvTransport& inner_;
  SpanLog& log_;
};

/// KvTransport decorator keeping a copy of every answered get frame and
/// its response, for the wire-format and server replays.
struct Frame {
  ServerId server = 0;
  std::string request;
  std::string response;
  std::vector<std::string> keys;
};

class CapturingTransport final : public kv::KvTransport {
 public:
  CapturingTransport(kv::KvTransport& inner, std::vector<Frame>& frames)
      : inner_(inner), frames_(frames) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    const kv::TransportResult result = inner_.roundtrip(s, request, response);
    if (result.ok() && request.starts_with("get "))
      frames_.push_back({s, std::string(request), response, {}});
    return result;
  }

 private:
  kv::KvTransport& inner_;
  std::vector<Frame>& frames_;
};

// ------------------------------------------------------------------- phases

struct Tally {
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t set_failures = 0;  // sets with fewer STORED acks than R
  std::uint64_t failed_gets = 0;   // multi-gets with a missing item
  std::uint64_t keys_requested = 0;
  std::uint64_t distinct = 0;
  std::uint64_t missing = 0;
  std::uint64_t round1 = 0;
  std::uint64_t round2 = 0;
  std::uint64_t recover = 0;
  std::uint64_t hitchhike = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t ops() const { return gets + sets; }
  std::uint64_t failed() const { return failed_gets + set_failures; }

  void merge(const Tally& o) {
    gets += o.gets;
    sets += o.sets;
    set_failures += o.set_failures;
    failed_gets += o.failed_gets;
    keys_requested += o.keys_requested;
    distinct += o.distinct;
    missing += o.missing;
    round1 += o.round1;
    round2 += o.round2;
    recover += o.recover;
    hitchhike += o.hitchhike;
    start_ns = start_ns == 0 ? o.start_ns : std::min(start_ns, o.start_ns);
    end_ns = std::max(end_ns, o.end_ns);
  }
};

struct ServerSnapshot {
  std::vector<kv::ServerCounters> counters;
  CacheStats engine;
  obs::ContentionSnapshot locks;
};

ServerSnapshot snapshot(dserve::ServerGroup& group) {
  ServerSnapshot snap;
  for (ServerId s = 0; s < group.num_servers(); ++s) {
    kv::ShardedKvServer& server = group.server(s);
    snap.counters.push_back(server.counters());
    const CacheStats st = server.table().stats();
    snap.engine.hits += st.hits;
    snap.engine.misses += st.misses;
    snap.engine.insertions += st.insertions;
    snap.engine.evictions += st.evictions;
    snap.locks += server.table().lock_counters();
  }
  return snap;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One client thread and everything it keeps across phases.
struct Worker {
  Worker(const WorkloadSpec& w, const Inputs& in, std::uint64_t seed)
      : gen(w, in, seed), marks(in.keys.size()) {}

  std::unique_ptr<dserve::GroupConnection> connection;
  RequestGen gen;
  /// Counts a request's distinct keys and catches a server answering a key
  /// nobody asked for.
  KeyMarks marks;
  Tally tally;
  /// Every operation's latency this phase; cleared, never shrunk, so reps
  /// after the warm-up fault in no fresh pages.
  std::vector<std::uint64_t> latency_ns;
  SpanLog log;
  /// Key ids of the traced rep's first multi-gets (replay input).
  std::vector<std::vector<std::uint32_t>> recorded;
};

struct Phase {
  Tally tally;
  double lat_p50_ns = 0.0;
  double lat_p99_ns = 0.0;
  std::size_t samples = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServerSnapshot before;
  ServerSnapshot after;
};

class Bench {
 public:
  Bench(const WorkloadSpec& w, const Options& opt, const Inputs& in)
      : w_(w), opt_(opt), in_(in) {}

  const WorkloadSpec& workload() const { return w_; }
  const Inputs& inputs() const { return in_; }
  dserve::ServerGroup& group() { return *group_; }
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }

  /// Boot and preload a fresh group; returns the seconds it took.
  double set_up() {
    workers_.clear();
    group_.reset();
    const std::uint64_t t0 = now_ns();
    dserve::ServerGroupConfig config;
    config.num_servers = kServers;
    config.wire = w_.wire;
    if (w_.relative_memory > 0.0)
      config.bytes_per_server = dserve::ServerGroup::replica_budget(
          in_.keys.size(), in_.keys[0].size(), kValueBytes,
          w_.relative_memory, kServers);
    group_ = std::make_unique<dserve::ServerGroup>(config);
    const std::size_t n = in_.keys.size();
    const auto stats = group_->load(
        in_.keys,
        [&](std::string_view key) { return in_.values[*key_id(key, n)]; },
        /*preinstall_replicas=*/w_.relative_memory == 0.0);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    if (stats.keys != n || stats.rejected != 0)
      die("%s: preload stored %" PRIu64 " of %zu keys, %" PRIu64 " rejected",
          w_.name, stats.keys, n, stats.rejected);
    for (unsigned t = 0; t < kClientThreads; ++t) {
      auto worker =
          std::make_unique<Worker>(w_, in_, stream_seed(opt_.seed, t));
      worker->connection = group_->connect();
      workers_.push_back(std::move(worker));
    }
    return seconds;
  }

  /// Drive every worker in a closed loop for `seconds`.
  Phase run(double seconds, bool traced) {
    Phase phase;
    phase.before = snapshot(*group_);
    const double cpu0 = cpu_seconds();
    std::atomic<std::uint64_t> deadline{0};
    const auto arm = [&]() noexcept {
      deadline.store(now_ns() + static_cast<std::uint64_t>(seconds * 1e9));
    };
    std::barrier start_line(static_cast<std::ptrdiff_t>(workers_.size()),
                            arm);
    std::vector<std::thread> threads;
    for (auto& worker : workers_) {
      worker->tally = Tally{};
      worker->latency_ns.clear();
      threads.emplace_back([&, w = worker.get()] {
        start_line.arrive_and_wait();
        try {
          drive(*w, deadline.load(), traced);
        } catch (const std::exception& e) {
          die("%s: client thread failed: %s", w_.name, e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    phase.cpu_s = cpu_seconds() - cpu0;
    phase.after = snapshot(*group_);
    latency_ns_.clear();
    for (const auto& worker : workers_) {
      phase.tally.merge(worker->tally);
      latency_ns_.insert(latency_ns_.end(), worker->latency_ns.begin(),
                         worker->latency_ns.end());
    }
    phase.samples = latency_ns_.size();
    phase.lat_p50_ns = quantile(latency_ns_, 0.50);
    phase.lat_p99_ns = quantile(latency_ns_, 0.99);
    phase.wall_s = std::max(
        1e-9, static_cast<double>(phase.tally.end_ns - phase.tally.start_ns) *
                  1e-9);
    return phase;
  }

 private:
  void drive(Worker& worker, std::uint64_t deadline, bool traced) {
    dserve::KvClusterClientConfig config;
    config.hitchhiking = w_.hitchhiking;
    std::optional<TimedTransport> timed;
    kv::KvTransport* transport = worker.connection.get();
    if (traced) transport = &timed.emplace(*worker.connection, worker.log);
    dserve::KvClusterClient client(*transport, group_->view(), config);
    const std::uint32_t replication = group_->view().replication();
    const std::size_t n = in_.keys.size();
    Tally& tally = worker.tally;
    SpanLog& log = worker.log;
    std::vector<std::uint32_t> ids;
    std::vector<std::string> batch;

    // Opens an operation span (traced only) and returns its start time.
    const auto open = [&](SpanKind kind) {
      if (traced) {
        log.open = static_cast<std::int64_t>(log.spans.size());
        log.spans.push_back(Span{.kind = kind});
      }
      const std::uint64_t t0 = now_ns();
      if (traced) log.spans.back().start_ns = t0;
      return t0;
    };
    const auto close = [&](std::uint64_t t0) {
      const std::uint64_t t1 = now_ns();
      if (traced) {
        log.spans[static_cast<std::size_t>(log.open)].end_ns = t1;
        log.open = -1;
      }
      worker.latency_ns.push_back(t1 - t0);
      return t1;
    };

    tally.start_ns = now_ns();
    std::uint64_t t1 = tally.start_ns;
    while (t1 < deadline) {
      if (worker.gen.next_is_set()) {
        const std::uint32_t id = worker.gen.next_key();
        const std::uint64_t t0 = open(SpanKind::kSet);
        const std::uint32_t stored = client.set(in_.keys[id], in_.values[id]);
        t1 = close(t0);
        ++tally.sets;
        if (stored != replication) ++tally.set_failures;
        continue;
      }
      worker.gen.next_get(ids);
      batch.resize(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) batch[i] = in_.keys[ids[i]];
      if (traced && worker.recorded.size() < kReplayRequests)
        worker.recorded.push_back(ids);
      const std::uint64_t t0 = open(SpanKind::kMultiGet);
      const auto result = client.multi_get(batch);
      t1 = close(t0);

      // Oracle: every returned item was asked for and carries its value.
      worker.marks.next_request();
      std::uint64_t distinct = 0;
      for (const std::uint32_t id : ids) distinct += worker.marks.first(id);
      for (const auto& [key, value] : result.values) {
        const auto id = key_id(key, n);
        if (!id || !worker.marks.named(*id))
          die("%s: server returned key '%s', which was not requested",
              w_.name, key.c_str());
        if (value != in_.values[*id])
          die("%s: wrong value for key %s", w_.name, key.c_str());
      }
      if (result.values.size() + result.missing.size() != distinct)
        die("%s: multi_get accounted for %zu of %" PRIu64 " distinct keys",
            w_.name, result.values.size() + result.missing.size(), distinct);
      ++tally.gets;
      if (!result.missing.empty()) ++tally.failed_gets;
      tally.keys_requested += ids.size();
      tally.distinct += distinct;
      tally.missing += result.missing.size();
      tally.round1 += result.round1_transactions;
      tally.round2 += result.round2_transactions;
      tally.recover += result.recover_transactions;
      tally.hitchhike += result.hitchhiker_keys;
    }
    tally.end_ns = t1;
  }

  const WorkloadSpec& w_;
  const Options& opt_;
  const Inputs& in_;
  std::unique_ptr<dserve::ServerGroup> group_;
  std::vector<std::unique_ptr<Worker>> workers_;  // after group_: connections
                                                  // close before servers stop
  std::vector<std::uint64_t> latency_ns_;  // all workers' latencies, merged
};

/// End-to-end metrics of one rep.
Metrics end_to_end(const Phase& p) {
  const auto ops = static_cast<double>(p.tally.ops());
  return {
      {"req_per_s", ops / p.wall_s, "1/s"},
      {"lat_p50_us", p.lat_p50_ns / 1e3, "us"},
      {"lat_p99_us", p.lat_p99_ns / 1e3, "us"},
      {"txns_per_req",
       ratio(static_cast<double>(p.tally.round1 + p.tally.round2 +
                                 p.tally.recover),
             static_cast<double>(p.tally.gets)),
       "count"},
      {"cpu_us_per_req", ratio(p.cpu_s * 1e6, ops), "us"},
  };
}

/// Per-layer counts every phase yields, traced or not.
Metrics counts(const Phase& p, std::uint32_t replication) {
  const Tally& t = p.tally;
  const auto gets = static_cast<double>(t.gets);
  const auto ops = static_cast<double>(t.ops());
  std::uint64_t stores = 0;
  std::uint64_t requested = 0;
  std::uint64_t returned = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t max_txns = 0;
  std::uint64_t sum_txns = 0;
  for (std::size_t s = 0; s < p.after.counters.size(); ++s) {
    const kv::ServerCounters& a = p.after.counters[s];
    const kv::ServerCounters& b = p.before.counters[s];
    stores += a.stores - b.stores;
    requested += a.keys_requested - b.keys_requested;
    returned += a.keys_returned - b.keys_returned;
    protocol_errors += a.protocol_errors - b.protocol_errors;
    max_txns = std::max(max_txns, a.transactions - b.transactions);
    sum_txns += a.transactions - b.transactions;
  }
  // Every set sends one frame per replica; the server's other set frames
  // are the client's write-backs.
  const std::uint64_t set_frames = t.sets * replication;
  const std::uint64_t writebacks = stores > set_frames ? stores - set_frames : 0;
  const double mean_txns = static_cast<double>(sum_txns) /
                           static_cast<double>(p.after.counters.size());
  const obs::ContentionSnapshot& la = p.after.locks;
  const obs::ContentionSnapshot& lb = p.before.locks;
  return {
      {"dserve.round2_txns_per_req", ratio(static_cast<double>(t.round2), gets),
       "count"},
      {"dserve.recover_txns_per_req",
       ratio(static_cast<double>(t.recover), gets), "count"},
      {"dserve.hitchhike_keys_per_req",
       ratio(static_cast<double>(t.hitchhike), gets), "count"},
      {"dserve.writebacks_per_req", ratio(static_cast<double>(writebacks), gets),
       "count"},
      {"dserve.dedupe_ratio",
       ratio(static_cast<double>(t.distinct),
             static_cast<double>(t.keys_requested)),
       "ratio"},
      {"kv.server.load_max_mean", ratio(static_cast<double>(max_txns), mean_txns),
       "ratio"},
      {"kv.server.protocol_errors", static_cast<double>(protocol_errors),
       "count"},
      {"kv.engine.hit_rate",
       ratio(static_cast<double>(returned), static_cast<double>(requested)),
       "ratio"},
      {"kv.engine.evictions_per_req",
       ratio(static_cast<double>(p.after.engine.evictions -
                                 p.before.engine.evictions),
             ops),
       "count"},
      {"kv.engine.insertions_per_req",
       ratio(static_cast<double>(p.after.engine.insertions -
                                 p.before.engine.insertions),
             ops),
       "count"},
      {"kv.engine.lock_contended_frac",
       ratio(static_cast<double>(la.contended_acquisitions -
                                 lb.contended_acquisitions),
             static_cast<double>(la.total_acquisitions() -
                                 lb.total_acquisitions())),
       "ratio"},
      {"error_frac",
       ratio(static_cast<double>(t.missing + t.set_failures),
             static_cast<double>(t.distinct + t.sets)),
       "ratio"},
  };
}

// ------------------------------------------------------------- traced phase

struct SpanCheck {
  std::uint64_t operations = 0;
  std::uint64_t passed = 0;
};

/// Span-derived per-layer metrics, checking on every operation that its
/// roundtrips lie inside it, in order, and leave a non-negative self time.
Metrics span_metrics(const std::vector<std::unique_ptr<Worker>>& workers,
                     SpanCheck& check) {
  std::vector<std::uint64_t> get_ns, set_ns, rt_ns;
  std::uint64_t get_total = 0, self_total = 0, rt_in_gets = 0;
  std::uint64_t rts = 0, rt_failed = 0, bytes_out = 0, bytes_in = 0;
  std::uint64_t ops = 0;
  for (const auto& worker : workers) {
    const std::deque<Span>& spans = worker->log.spans;
    for (std::size_t i = 0; i < spans.size();) {
      const Span& op = spans[i];
      bool ok = op.parent == -1 && op.kind != SpanKind::kRoundtrip &&
                op.start_ns <= op.end_ns;
      std::uint64_t children = 0;
      std::uint64_t cursor = op.start_ns;
      std::size_t j = i + 1;
      for (; j < spans.size() && spans[j].kind == SpanKind::kRoundtrip; ++j) {
        const Span& rt = spans[j];
        ok = ok && rt.parent == static_cast<std::int64_t>(i) &&
             rt.start_ns >= cursor && rt.end_ns >= rt.start_ns &&
             rt.end_ns <= op.end_ns;
        cursor = rt.end_ns;
        const std::uint64_t d = rt.end_ns - rt.start_ns;
        children += d;
        rt_ns.push_back(d);
        ++rts;
        rt_failed += rt.ok ? 0 : 1;
        bytes_out += rt.bytes_out;
        bytes_in += rt.bytes_in;
      }
      const std::uint64_t dur = op.end_ns - op.start_ns;
      ok = ok && children <= dur;
      ++check.operations;
      check.passed += ok ? 1 : 0;
      ++ops;
      if (op.kind == SpanKind::kMultiGet) {
        get_ns.push_back(dur);
        get_total += dur;
        rt_in_gets += children;
        self_total += dur - std::min(dur, children);
      } else {
        set_ns.push_back(dur);
      }
      i = j;
    }
  }
  const auto gets = static_cast<double>(get_ns.size());
  Metrics m = {
      {"dserve.multi_get.us_p50", quantile(get_ns, 0.50) / 1e3, "us"},
      {"dserve.multi_get.us_p99", quantile(get_ns, 0.99) / 1e3, "us"},
      {"dserve.self.us_per_req", ratio(static_cast<double>(self_total), gets) / 1e3,
       "us"},
      {"dserve.self.share",
       ratio(static_cast<double>(self_total), static_cast<double>(get_total)),
       "ratio"},
      {"kv.transport.roundtrip.us_p50", quantile(rt_ns, 0.50) / 1e3, "us"},
      {"kv.transport.roundtrip.us_p99", quantile(rt_ns, 0.99) / 1e3, "us"},
      {"kv.transport.roundtrips_per_req",
       ratio(static_cast<double>(rts), static_cast<double>(ops)), "count"},
      {"kv.transport.share",
       ratio(static_cast<double>(rt_in_gets), static_cast<double>(get_total)),
       "ratio"},
      {"kv.transport.bytes_out_per_req",
       ratio(static_cast<double>(bytes_out), static_cast<double>(ops)), "B"},
      {"kv.transport.bytes_in_per_req",
       ratio(static_cast<double>(bytes_in), static_cast<double>(ops)), "B"},
      {"kv.transport.fail_frac",
       ratio(static_cast<double>(rt_failed), static_cast<double>(rts)), "ratio"},
  };
  if (!set_ns.empty())
    m.push_back({"dserve.set.us_p50", quantile(set_ns, 0.50) / 1e3, "us"});
  std::fprintf(stderr,
               "  self time over %zu multi-gets: dserve %.2f us/req (%.1f%%), "
               "kv.transport %.2f us/req (%.1f%%)\n",
               get_ns.size(),
               ratio(static_cast<double>(self_total), gets) / 1e3,
               100.0 * ratio(static_cast<double>(self_total),
                             static_cast<double>(get_total)),
               ratio(static_cast<double>(rt_in_gets), gets) / 1e3,
               100.0 * ratio(static_cast<double>(rt_in_gets),
                             static_cast<double>(get_total)));
  return m;
}

/// Median wall time of three passes of `pass`, in ns.
template <typename Fn>
double median_pass_ns(Fn&& pass) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t t0 = now_ns();
    pass();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t);
}

/// Replays the traced rep's first requests through each layer's function
/// alone: placement, cover, wire encode/parse and server handle().
Metrics replay_layers(Bench& bench) {
  dserve::ServerGroup& group = bench.group();
  const dserve::ClusterView& view = group.view();
  const Inputs& in = bench.inputs();
  std::vector<const std::vector<std::uint32_t>*> requests;
  for (const auto& worker : bench.workers())
    for (const auto& r : worker->recorded) requests.push_back(&r);
  std::uint64_t sink = 0;

  // Distinct keys per request, first-appearance order, as the client
  // dedupes them.
  std::vector<std::vector<std::string_view>> distinct;
  std::uint64_t distinct_keys = 0;
  KeyMarks marks(in.keys.size());
  for (const auto* r : requests) {
    marks.next_request();
    auto& d = distinct.emplace_back();
    for (const std::uint32_t id : *r)
      if (marks.first(id)) d.push_back(in.keys[id]);
    distinct_keys += d.size();
  }
  const double replicas_ns = median_pass_ns([&] {
    for (const auto& d : distinct)
      for (const std::string_view key : d) sink += view.replicas(key).size();
  });

  std::vector<CoverInstance> instances(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i)
    for (const std::string_view key : distinct[i])
      instances[i].candidates.push_back(view.replicas(key));
  const double cover_ns = median_pass_ns([&] {
    for (const CoverInstance& inst : instances)
      sink += greedy_cover(inst).servers_used.size();
  });
  std::uint64_t cover_total = 0;
  for (const CoverInstance& inst : instances)
    cover_total += greedy_cover(inst).servers_used.size();

  // Capture the frames the client sends for the same requests.
  std::vector<Frame> frames;
  {
    CapturingTransport capture(*bench.workers()[0]->connection, frames);
    dserve::KvClusterClientConfig config;
    config.hitchhiking = bench.workload().hitchhiking;
    dserve::KvClusterClient client(capture, group.view(), config);
    std::vector<std::string> batch;
    for (const auto* r : requests) {
      batch.clear();
      for (const std::uint32_t id : *r) batch.push_back(in.keys[id]);
      sink += client.multi_get(batch).values.size();
    }
  }
  std::uint64_t frame_keys = 0;
  for (Frame& f : frames) {
    auto cmd = kv::parse_command(f.request, nullptr);
    if (!cmd || !std::holds_alternative<kv::GetCommand>(*cmd))
      die("%s: captured frame does not parse as a get", bench.workload().name);
    f.keys = std::move(std::get<kv::GetCommand>(*cmd).keys);
    frame_keys += f.keys.size();
  }
  std::string out;
  const double encode_ns = median_pass_ns([&] {
    for (const Frame& f : frames) {
      out.clear();
      kv::encode_get(f.keys, /*with_versions=*/false, out);
      sink += out.size();
    }
  });
  const double parse_ns = median_pass_ns([&] {
    for (const Frame& f : frames) {
      const auto values = kv::parse_values(f.response, false);
      sink += values ? values->size() : 0;
    }
  });
  const double handle_ns = median_pass_ns([&] {
    for (const Frame& f : frames) {
      group.server(f.server).handle(f.request, out);
      sink += out.size();
    }
  });
  std::fprintf(stderr,
               "  replayed %zu requests (%" PRIu64 " distinct keys, %zu frames,"
               " checksum %" PRIu64 ")\n",
               requests.size(), distinct_keys, frames.size(), sink);
  const auto keys = static_cast<double>(distinct_keys);
  return {
      {"hashring.replicas.ns_per_key", ratio(replicas_ns, keys), "ns"},
      {"setcover.greedy_cover.ns_per_req",
       ratio(cover_ns, static_cast<double>(instances.size())), "ns"},
      {"setcover.cover_size",
       ratio(static_cast<double>(cover_total),
             static_cast<double>(instances.size())),
       "count"},
      {"setcover.items_per_bundle",
       ratio(keys, static_cast<double>(cover_total)), "count"},
      {"kv.protocol.encode_get.ns_per_key",
       ratio(encode_ns, static_cast<double>(frame_keys)), "ns"},
      {"kv.protocol.parse_values.ns_per_key",
       ratio(parse_ns, static_cast<double>(frame_keys)), "ns"},
      {"kv.server.handle.ns_per_txn",
       ratio(handle_ns, static_cast<double>(frames.size())), "ns"},
  };
}

/// Set latency on a workload that does not write: re-sets of the oracle
/// value for recorded keys, so every later read still checks.
Metric replay_sets(Bench& bench) {
  const Inputs& in = bench.inputs();
  dserve::KvClusterClient client(*bench.workers()[0]->connection,
                                 bench.group().view(), {});
  std::vector<std::uint64_t> ns;
  for (const auto& r : bench.workers()[0]->recorded)
    for (const std::uint32_t id : r) {
      if (ns.size() == kReplaySets) break;
      const std::uint64_t t0 = now_ns();
      client.set(in.keys[id], in.values[id]);
      ns.push_back(now_ns() - t0);
    }
  return {"dserve.set.us_p50", quantile(ns, 0.50) / 1e3, "us"};
}

void write_chrome_trace(const std::vector<std::unique_ptr<Worker>>& workers,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) die("cannot write trace file %s", path.c_str());
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (std::size_t t = 0; t < workers.size(); ++t) {
    std::size_t ops = 0;
    for (std::size_t i = 0; i < workers[t]->log.spans.size(); ++i) {
      const Span& s = workers[t]->log.spans[i];
      if (s.parent == -1 && ++ops > kChromeOps) break;
      const char* name = s.kind == SpanKind::kMultiGet ? "multi_get"
                         : s.kind == SpanKind::kSet    ? "set"
                                                       : "roundtrip";
      out << (first ? "" : ",") << "\n{\"name\":\"" << name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t << ",\"ts\":"
          << us(s.start_ns) << ",\"dur\":" << us(s.end_ns - s.start_ns)
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent;
      if (s.kind == SpanKind::kRoundtrip)
        out << ",\"server\":" << s.server << ",\"bytes_out\":" << s.bytes_out
            << ",\"bytes_in\":" << s.bytes_in << ",\"ok\":"
            << (s.ok ? "true" : "false");
      out << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// -------------------------------------------------------------- input stats

Metrics input_stats(const WorkloadSpec& w, const Inputs& in,
                    std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> sample;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    RequestGen gen(w, in, stream_seed(seed, t));
    for (std::size_t i = 0; i < kStatsRequests; ++i)
      gen.next_get(sample.emplace_back());
  }
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint64_t> freq(in.keys.size(), 0);
  KeyMarks marks(in.keys.size());
  std::uint64_t total = 0, distinct = 0;
  for (const auto& r : sample) {
    sizes.push_back(r.size());
    total += r.size();
    marks.next_request();
    for (const std::uint32_t id : r) {
      ++freq[id];
      distinct += marks.first(id);
    }
  }
  // The top 1% of keys by how often this sample requests them.
  std::vector<std::uint32_t> order(in.keys.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t top = std::max<std::size_t>(1, order.size() / 100);
  std::nth_element(order.begin(), order.begin() + static_cast<long>(top - 1),
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return freq[a] > freq[b];
                   });
  std::vector<bool> hot(in.keys.size(), false);
  for (std::size_t i = 0; i < top; ++i) hot[order[i]] = true;
  std::uint64_t touching = 0;
  for (const auto& r : sample)
    touching += std::any_of(r.begin(), r.end(),
                            [&](std::uint32_t id) { return hot[id]; });
  const auto n = static_cast<double>(sample.size());
  const double mean = static_cast<double>(total) / n;
  const double p99 = quantile(sizes, 0.99);
  return {
      {"requests_sampled", n, "count"},
      {"request_size_mean", mean, "count"},
      {"request_size_p99", p99, "count"},
      {"dedupe_ratio", ratio(static_cast<double>(distinct),
                             static_cast<double>(total)),
       "ratio"},
      {"top1pct_touch_share", static_cast<double>(touching) / n, "ratio"},
  };
}

// --------------------------------------------------------------------- main

std::string metrics_json(const Metrics& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics)
    obj.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).done());
  return obj.done();
}

void print_metrics(const char* what, const Metrics& metrics) {
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-8s %-36s %14.4f %s\n", what, m.name.c_str(),
                 m.value, m.unit.c_str());
}

int run(const Options& opt) {
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& spec : kWorkloads)
    if (opt.workload == spec.name) w = &spec;
  if (w == nullptr) {
    std::fprintf(stderr, "rnbbench: unknown --workload='%s'; one of:",
                 opt.workload.c_str());
    for (const WorkloadSpec& spec : kWorkloads)
      std::fprintf(stderr, " %s", spec.name);
    std::fputc('\n', stderr);
    return 2;
  }
  const unsigned reps = opt.trace ? 1 : kReps;
  const double rep_s =
      opt.smoke ? 0.3 : opt.seconds / (opt.trace ? 2.0 : reps);

  const Inputs in = make_inputs(*w, opt);
  const Metrics stats = input_stats(*w, in, opt.seed);
  std::fprintf(stderr, "rnbbench %s seed=%" PRIu64 ": %zu keys\n", w->name,
               opt.seed, in.keys.size());
  print_metrics("input", stats);

  // setup_s is the median of at least three set-ups and 2 s of them (a
  // loopback set-up takes a quarter second), at most nine. A traced run
  // reports per-layer numbers only, so it sets up once.
  Bench bench(*w, opt, in);
  std::vector<double> setup_s;
  double setup_total = 0.0;
  do {
    setup_s.push_back(bench.set_up());
    setup_total += setup_s.back();
  } while (!opt.smoke && !opt.trace && setup_s.size() < 9 &&
           (setup_s.size() < 3 || setup_total < 2.0));
  const std::uint32_t replication = bench.group().view().replication();

  // Warm-up, untimed, at least 2 s: a fresh process runs its first second
  // or so measurably slower while its memory is first touched. A bounded
  // replica class starts cold, so that workload warms on until its round-2
  // rate levels off: three windows in a row within 5% (relative, plus 0.01
  // absolute) of each other.
  const double window_s = opt.smoke ? 0.1 : 0.5;
  const std::size_t min_windows = opt.smoke ? 1 : 4;
  const std::size_t max_windows =
      w->relative_memory > 0.0 && !opt.smoke ? 40 : min_windows;
  std::vector<double> round2_rates;
  while (round2_rates.size() < max_windows) {
    const Phase p = bench.run(window_s, false);
    round2_rates.push_back(ratio(static_cast<double>(p.tally.round2),
                                 static_cast<double>(p.tally.gets)));
    const std::size_t k = round2_rates.size();
    if (k >= std::max<std::size_t>(3, min_windows)) {
      const auto [lo, hi] =
          std::minmax({round2_rates[k - 1], round2_rates[k - 2],
                       round2_rates[k - 3]});
      if (hi - lo <= 0.05 * hi + 0.01) break;
    }
  }
  std::fprintf(stderr, "  warm-up: %zu x %.1f s windows, round-2 per multi-get",
               round2_rates.size(), window_s);
  for (const double r : round2_rates) std::fprintf(stderr, " %.3f", r);
  std::fputc('\n', stderr);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Phase> phases;
  std::vector<Metrics> rep_metrics;
  for (unsigned r = 0; r < reps; ++r) {
    phases.push_back(bench.run(rep_s, false));
    rep_metrics.push_back(end_to_end(phases.back()));
    attempted += phases.back().tally.ops();
    failed += phases.back().tally.failed();
  }

  // End-to-end: the median of the samples, with min and max beside it.
  Metrics e2e = rep_metrics[0];
  std::vector<std::vector<double>> samples(e2e.size());
  for (const Metrics& rm : rep_metrics)
    for (std::size_t m = 0; m < rm.size(); ++m)
      samples[m].push_back(rm[m].value);
  e2e.push_back({"setup_s", 0.0, "s"});
  samples.push_back(setup_s);
  e2e.push_back({"peak_rss_mb", 0.0, "MB"});
  samples.push_back({peak_rss_mb()});
  JsonObject e2e_json;
  for (std::size_t m = 0; m < e2e.size(); ++m) {
    e2e[m].value = median(samples[m]);
    const auto [lo, hi] =
        std::minmax_element(samples[m].begin(), samples[m].end());
    e2e_json.raw(e2e[m].name, JsonObject()
                                  .num("value", e2e[m].value)
                                  .str("unit", e2e[m].unit)
                                  .num("min", *lo)
                                  .num("max", *hi)
                                  .done());
  }
  print_metrics("e2e", e2e);

  // The p99 needs at least 100 samples beyond it.
  std::uint64_t min_samples = UINT64_MAX;
  for (const Phase& p : phases)
    min_samples = std::min<std::uint64_t>(min_samples, p.samples);
  const std::uint64_t beyond_p99 = min_samples - static_cast<std::uint64_t>(
      std::ceil(0.99 * static_cast<double>(min_samples)));
  if (beyond_p99 < 100 && !opt.smoke)
    std::fprintf(stderr,
                 "  warning: only %" PRIu64 " samples beyond p99 in a rep\n",
                 beyond_p99);

  Metrics layer = counts(phases[reps / 2], replication);
  bool span_ok = true;
  JsonObject span_json;
  if (opt.trace) {
    const Phase traced = bench.run(rep_s, true);
    attempted += traced.tally.ops();
    failed += traced.tally.failed();
    layer = counts(traced, replication);
    SpanCheck check;
    for (Metric& m : span_metrics(bench.workers(), check)) layer.push_back(m);
    span_ok = check.passed == check.operations && check.operations > 0;
    std::fprintf(stderr,
                 "  span accounting: %" PRIu64 "/%" PRIu64
                 " operations passed\n",
                 check.passed, check.operations);
    span_json.num("operations", static_cast<double>(check.operations))
        .num("passed", static_cast<double>(check.passed));
    const double untraced =
        static_cast<double>(phases.back().tally.ops()) / phases.back().wall_s;
    const double traced_rate =
        static_cast<double>(traced.tally.ops()) / traced.wall_s;
    layer.push_back({"trace.overhead", ratio(traced_rate, untraced), "ratio"});
    if (std::none_of(layer.begin(), layer.end(), [](const Metric& m) {
          return m.name == "dserve.set.us_p50";
        }))
      layer.push_back(replay_sets(bench));
    for (Metric& m : replay_layers(bench)) layer.push_back(m);
    if (!opt.trace_file.empty()) write_chrome_trace(bench.workers(), opt.trace_file);
  }
  print_metrics("layer", layer);

  JsonObject rep_json;
  for (std::size_t r = 0; r < rep_metrics.size(); ++r)
    rep_json.raw(std::to_string(r), metrics_json(rep_metrics[r]));
  const bool correct = failed == 0 && span_ok;
  std::printf("%s\n",
              JsonObject()
                  .str("workload", w->name)
                  .num("seed", static_cast<double>(opt.seed))
                  .boolean("trace", opt.trace)
                  .boolean("correct", correct)
                  .num("attempted", static_cast<double>(attempted))
                  .num("failed", static_cast<double>(failed))
                  .num("rep_seconds", rep_s)
                  .num("p99_samples_beyond", static_cast<double>(beyond_p99))
                  .raw("input", metrics_json(stats))
                  .raw("end_to_end", e2e_json.done())
                  .raw("per_layer", metrics_json(layer))
                  .raw("reps", rep_json.done())
                  .raw("span_check", span_json.done())
                  .done()
                  .c_str());
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? "" : arg.substr(eq + 1));
    if (name == "--workload") opt.workload = value;
    else if (name == "--seed") opt.seed = std::stoull(value);
    else if (name == "--seconds") opt.seconds = std::stod(value);
    else if (name == "--trace") opt.trace = value != "0";
    else if (name == "--trace-file") opt.trace_file = value;
    else if (name == "--smoke") opt.smoke = true;
    else die("unknown flag %s", argv[i]);
  }
  if (opt.seconds <= 0.0) die("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace rnb::rnbbench

int main(int argc, char** argv) {
  try {
    return rnb::rnbbench::run(rnb::rnbbench::parse(argc, argv));
  } catch (const std::exception& e) {
    rnb::rnbbench::die("%s", e.what());
  }
}
