// A mini-memcached server: protocol framing over a storage engine.
//
// handle() is the complete request path — parse, execute, format — so the
// Fig. 13-14 micro-benchmarks of this class measure the same cost structure
// memaslap measures against memcached: a fixed per-transaction cost (frame
// parse, dispatch, response assembly) plus a small per-key cost (hash
// lookup, value copy).
//
// BasicKvServer is generic over the engine: MemTable (byte-budget global
// LRU — the reference oracle), SwissMemTable (open addressing), or the
// sharded wrappers of each (striped locks, one LRU domain per shard; the
// sharded swiss table is the serving engine). Request counters are relaxed
// atomics, so handle() is exactly as thread-safe as the engine underneath:
// with a sharded engine concurrent handle() calls are safe and scale; with
// a plain engine the caller serializes (the loopback transport's dispatch
// mutex).
//
// A get copies each hit's value once out of the engine, into a per-thread
// MultiGetArena under the engine's lock, and formats the response from
// there in key order: no per-key allocation on the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "kv/memtable.hpp"
#include "kv/protocol.hpp"
#include "kv/sharded_memtable.hpp"
#include "obs/metrics.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {

/// Out-parameters a transport can ask handle() for. `trace` is the
/// request's propagated trace tag (absent for untagged frames), letting
/// the transport attribute its post-handle work — the socket write — to
/// the same trace the server spans joined.
struct HandleInfo {
  TraceTag trace;
};

/// Snapshot of a server's request counters (plain integers; the live
/// counters are relaxed atomics so concurrent handle() calls never race).
struct ServerCounters {
  std::uint64_t transactions = 0;
  std::uint64_t keys_requested = 0;
  std::uint64_t keys_returned = 0;
  std::uint64_t stores = 0;
  std::uint64_t deletes = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t scans = 0;
  std::uint64_t wrong_epoch = 0;
};

template <typename Store>
class BasicKvServer {
 public:
  /// Construct the underlying store from whatever it takes (byte budget for
  /// MemTable, budget + shard count for the sharded tables).
  template <typename... StoreArgs>
  explicit BasicKvServer(StoreArgs&&... store_args)
      : table_(std::forward<StoreArgs>(store_args)...) {}

  /// Process one request frame, appending the response to `response`
  /// (cleared first). Never throws; malformed input yields CLIENT_ERROR.
  /// Safe to call concurrently iff the engine is (see the header comment).
  void handle(std::string_view request, std::string& response) {
    handle(request, response, nullptr);
  }

  /// handle() plus out-parameters for trace-aware transports. When a
  /// tracer is installed, the frame's trace tag (if any) is adopted as
  /// the ambient context and the request unfolds into server child spans:
  ///
  ///   transaction             child of the client span in the tag
  ///   ├─ parse                frame grammar -> Command
  ///   ├─ dispatch             shard routing + lock acquisition
  ///   │  └─ handle            the engine operation itself
  ///   └─ format               response assembly
  ///
  /// Untraced calls skip all of it: one static pointer load per seam.
  void handle(std::string_view request, std::string& response,
              HandleInfo* info) {
    response.clear();
    obs::Tracer* const tracer = obs::Tracer::current();
    counters_.transactions.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t parse_start = tracer != nullptr ? tracer->now() : 0;
    std::string error;
    const std::optional<Command> cmd = parse_command(request, &error);
    const std::uint64_t parse_end = tracer != nullptr ? tracer->now() : 0;
    const TraceTag trace = cmd ? command_trace(*cmd) : TraceTag{};
    if (info != nullptr) info->trace = trace;
    // Join the caller's trace: every span below becomes a child of the
    // client span named in the tag. Untagged frames trace locally rooted.
    obs::ScopedTraceContext adopt(
        {trace.trace_id, trace.span_id, trace.sampled});
    obs::SpanScope txn_span("transaction", "server");
    txn_span.set_start(parse_start);  // fold in the parse we just measured
    if (tracer != nullptr)
      tracer->complete(
          "parse", "server", parse_start, parse_end - parse_start,
          {{"bytes", static_cast<std::int64_t>(request.size())}});
    if (!cmd) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      txn_span.note("outcome", "protocol_error");
      encode_simple("CLIENT_ERROR " + error, response);
      return;
    }
    dispatch_command(*cmd, response, txn_span);
    if (tracer != nullptr)
      observe_latency(trace, tracer->now() - parse_start, *cmd);
  }

  ServerCounters counters() const noexcept { return counters_.snapshot(); }
  Store& table() noexcept { return table_; }
  const Store& table() const noexcept { return table_; }

  /// The server's ring epoch. 0 (the default) disables epoch checking
  /// entirely — a static fleet never answers WRONG_EPOCH. Nonzero, a
  /// command tagged with an *older* epoch is rejected with
  /// `WRONG_EPOCH <epoch>`; tags from a newer epoch serve (the client
  /// heard a committed ring this server hasn't been bumped to yet — its
  /// plan is the fresher one, and migration keeps both placements stocked
  /// until every member is bumped); untagged frames (migration traffic,
  /// legacy clients) always pass. Normally installed via the `epoch` verb.
  void set_epoch(std::uint64_t epoch) noexcept {
    epoch_.store(epoch, std::memory_order_relaxed);
  }
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Install a callback that contributes extra series to the `stats`
  /// exposition — the seam transports use to publish wire-level state
  /// (connection counts, accept errors) the engine can't see. Called with
  /// the throwaway per-request registry right before it is written out.
  /// Install before serving begins; the hook runs on whatever thread
  /// handles the stats frame and must be safe to call concurrently.
  void set_stats_hook(std::function<void(obs::MetricsRegistry&)> hook) {
    stats_hook_ = std::move(hook);
  }

 private:
  /// The engine's observability name, when it declares one.
  static constexpr const char* engine_name() noexcept {
    if constexpr (requires { Store::kEngineName; })
      return Store::kEngineName;
    else
      return nullptr;
  }

  /// True when the engine reports per-shard lock/eviction counters.
  static constexpr bool kShardMetrics = requires(const Store& t) {
    t.shard_count();
    t.shard_snapshot(0);
  };
  /// True when the engine routes keys to shards (dispatch spans can then
  /// carry the shard index a key resolved to).
  static constexpr bool kShardRouting =
      requires(const Store& t, std::string_view key) { t.shard_index(key); };
  /// True when the engine aggregates striped-lock contention counters.
  static constexpr bool kLockCounters =
      requires(const Store& t) { t.lock_counters(); };

  /// Execute one parsed command. Spans (dispatch > handle, then format)
  /// only materialize when a tracer is installed.
  void dispatch_command(const Command& cmd, std::string& response,
                        obs::SpanScope& txn_span) {
    // Epoch gate: an epoch-tagged command planned against an *older* ring
    // than this server is configured for is answered WRONG_EPOCH instead of
    // executing against stale placement. Newer tags serve — the client is
    // ahead of this server's bump, not stale, and bouncing it would open
    // an availability hole between the controller's publish and its
    // per-server epoch sweep. Untagged frames always pass, and the `epoch`
    // verb itself must pass so the controller can fix the very mismatch
    // being reported.
    const std::uint64_t server_epoch =
        epoch_.load(std::memory_order_relaxed);
    const std::uint64_t cmd_epoch = command_epoch(cmd);
    if (cmd_epoch != 0 && server_epoch != 0 && cmd_epoch < server_epoch &&
        !std::holds_alternative<EpochCommand>(cmd)) {
      txn_span.note("outcome", "wrong_epoch");
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        obs::SpanScope handle_span("handle", "server");
        counters_.wrong_epoch.fetch_add(1, std::memory_order_relaxed);
        handle_span.arg("epoch", static_cast<std::int64_t>(server_epoch));
      }
      format_response(
          [&] { encode_wrong_epoch(server_epoch, response); }, response);
      return;
    }
    if (const auto* get = std::get_if<GetCommand>(&cmd)) {
      MultiGetArena& arena = read_arena();
      counters_.keys_requested.fetch_add(get->keys.size(),
                                         std::memory_order_relaxed);
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        annotate_dispatch(dispatch_span, get->keys);
        const std::uint64_t contended = contended_before(dispatch_span);
        {
          obs::SpanScope handle_span("handle", "server");
          read_values(get->keys, arena);
          handle_span.arg("keys",
                          static_cast<std::int64_t>(get->keys.size()));
          handle_span.arg("hits", static_cast<std::int64_t>(arena.hits()));
        }
        annotate_lock_wait(dispatch_span, contended);
      }
      counters_.keys_returned.fetch_add(arena.hits(),
                                        std::memory_order_relaxed);
      txn_span.arg("keys", static_cast<std::int64_t>(get->keys.size()));
      txn_span.arg("hits", static_cast<std::int64_t>(arena.hits()));
      format_response(
          [&] {
            for (std::size_t i = 0; i < get->keys.size(); ++i) {
              if (arena.found(i))
                encode_value(ValueView{get->keys[i], arena.value(i),
                                       arena.version(i)},
                             get->with_versions, response);
            }
            encode_simple("END", response);
          },
          response);
      return;
    }
    if (std::holds_alternative<StatsCommand>(cmd)) {
      obs::MetricsRegistry registry;
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        obs::SpanScope handle_span("handle", "server");
        collect_stats(registry);
      }
      format_response(
          [&] {
            std::ostringstream os;
            registry.write_prometheus(os);
            response += os.str();
            encode_simple("END", response);
          },
          response);
      return;
    }
    if (const auto* set = std::get_if<SetCommand>(&cmd)) {
      counters_.stores.fetch_add(1, std::memory_order_relaxed);
      bool ok = false;
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        annotate_dispatch(dispatch_span, std::span(&set->key, 1));
        const std::uint64_t contended = contended_before(dispatch_span);
        {
          obs::SpanScope handle_span("handle", "server");
          ok = table_.set(set->key, set->data, set->pin);
          handle_span.arg("bytes",
                          static_cast<std::int64_t>(set->data.size()));
        }
        annotate_lock_wait(dispatch_span, contended);
      }
      format_response(
          [&] {
            encode_simple(ok ? "STORED" : "SERVER_ERROR out of memory",
                          response);
          },
          response);
      return;
    }
    if (const auto* cas = std::get_if<CasCommand>(&cmd)) {
      counters_.stores.fetch_add(1, std::memory_order_relaxed);
      MemTable::CasOutcome outcome = MemTable::CasOutcome::kNotFound;
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        annotate_dispatch(dispatch_span, std::span(&cas->key, 1));
        const std::uint64_t contended = contended_before(dispatch_span);
        {
          obs::SpanScope handle_span("handle", "server");
          outcome = table_.cas(cas->key, cas->version, cas->data);
        }
        annotate_lock_wait(dispatch_span, contended);
      }
      format_response(
          [&] {
            switch (outcome) {
              case MemTable::CasOutcome::kStored:
                encode_simple("STORED", response);
                break;
              case MemTable::CasOutcome::kExists:
                encode_simple("EXISTS", response);
                break;
              case MemTable::CasOutcome::kNotFound:
                encode_simple("NOT_FOUND", response);
                break;
            }
          },
          response);
      return;
    }
    if (const auto* scan = std::get_if<ScanCommand>(&cmd)) {
      counters_.scans.fetch_add(1, std::memory_order_relaxed);
      std::vector<ScanEntry> entries;
      entries.reserve(scan->max_keys);
      std::uint64_t next = 0;
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        obs::SpanScope handle_span("handle", "server");
        next = table_.scan(scan->cursor, scan->max_keys, entries);
        handle_span.arg("entries", static_cast<std::int64_t>(entries.size()));
      }
      ScanPage page;
      page.next_cursor = next;
      page.entries.reserve(entries.size());
      for (ScanEntry& e : entries)
        page.entries.push_back(Value{std::move(e.key), std::move(e.value),
                                     e.version,
                                     e.pinned ? kValueFlagPinned : 0u});
      txn_span.arg("entries", static_cast<std::int64_t>(page.entries.size()));
      format_response([&] { encode_scan_page(page, response); }, response);
      return;
    }
    if (const auto* ep = std::get_if<EpochCommand>(&cmd)) {
      std::string reply = "OK";
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        obs::SpanScope handle_span("handle", "server");
        if (ep->set_epoch != 0)
          epoch_.store(ep->set_epoch, std::memory_order_relaxed);
        else
          reply = "EPOCH " +
                  std::to_string(epoch_.load(std::memory_order_relaxed));
      }
      if (ep->set_epoch != 0)
        txn_span.arg("epoch", static_cast<std::int64_t>(ep->set_epoch));
      format_response([&] { encode_simple(reply, response); }, response);
      return;
    }
    if (const auto* del = std::get_if<DeleteCommand>(&cmd)) {
      counters_.deletes.fetch_add(1, std::memory_order_relaxed);
      bool erased = false;
      {
        obs::SpanScope dispatch_span("dispatch", "server");
        annotate_dispatch(dispatch_span, std::span(&del->key, 1));
        const std::uint64_t contended = contended_before(dispatch_span);
        {
          obs::SpanScope handle_span("handle", "server");
          erased = table_.erase(del->key);
        }
        annotate_lock_wait(dispatch_span, contended);
      }
      format_response(
          [&] { encode_simple(erased ? "DELETED" : "NOT_FOUND", response); },
          response);
      return;
    }
  }

  /// The calling thread's read arena. Concurrent handle() calls on a
  /// sharded engine each fill their own; a warm one allocates nothing.
  static MultiGetArena& read_arena() {
    thread_local MultiGetArena arena;
    return arena;
  }

  /// Fill `arena` with the hits for `keys`, in request order. A sharded
  /// engine batches per shard under its own locks; a plain engine is read
  /// key by key, its caller serializing every handle().
  void read_values(std::span<const std::string> keys, MultiGetArena& arena) {
    if constexpr (requires { table_.multi_get(keys, arena); }) {
      table_.multi_get(keys, arena);
    } else {
      arena.reset(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i)
        if (const auto hit = table_.get_view(keys[i])) arena.put(i, *hit);
    }
  }

  /// Run the encoder under a "format" span that reports response bytes.
  template <typename Encode>
  void format_response(Encode&& encode, std::string& response) {
    obs::SpanScope format_span("format", "server");
    encode();
    format_span.arg("bytes", static_cast<std::int64_t>(response.size()));
  }

  /// Dispatch-span routing annotation: the shard a single key resolves
  /// to, or the shard fan-out bound for a batch.
  template <typename Keys>
  void annotate_dispatch(obs::SpanScope& span,
                         const Keys& keys) const {
    if (!span.active()) return;
    if constexpr (kShardRouting) {
      if (keys.size() == 1)
        span.arg("shard",
                 static_cast<std::int64_t>(table_.shard_index(keys[0])));
      else
        span.arg("shards",
                 static_cast<std::int64_t>(table_.shard_count()));
    } else {
      (void)keys;
      span.arg("shard", 0);
    }
  }

  std::uint64_t contended_before(const obs::SpanScope& span) const {
    if constexpr (kLockCounters) {
      if (span.active())
        return table_.lock_counters().contended_acquisitions;
    }
    (void)span;
    return 0;
  }

  /// Attach the striped-lock contention delta observed across the engine
  /// call — the "how long did this request wait on locks" attribution the
  /// contention counters afford (acquisition counts, not wall time).
  void annotate_lock_wait(obs::SpanScope& span,
                          std::uint64_t contended_before_count) const {
    if constexpr (kLockCounters) {
      if (span.active())
        span.arg("lock_contended",
                 static_cast<std::int64_t>(
                     table_.lock_counters().contended_acquisitions -
                     contended_before_count));
    } else {
      (void)span;
      (void)contended_before_count;
    }
  }

  /// Traced-only tail attribution: handle latency histogram (exemplars
  /// link buckets to trace ids) and the server-side slow-transaction log,
  /// both exposed by the `stats` verb. Never touched without a tracer, so
  /// the untraced hot path stays mutex-free.
  void observe_latency(const TraceTag& trace, std::uint64_t elapsed,
                       const Command& cmd) {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    handle_latency_.record_traced(elapsed, trace.trace_id);
    obs::SlowRequest req;
    req.trace_id = trace.trace_id;
    req.cost = elapsed;
    req.transactions = 1;
    if (const auto* get = std::get_if<GetCommand>(&cmd))
      req.items = static_cast<std::uint32_t>(get->keys.size());
    else
      req.items = 1;
    // Correlation context: the ring epoch this server executed under and
    // the engine that served it, so a flight-recorder dump can line slow
    // covers up against migrations.
    req.epoch = epoch_.load(std::memory_order_relaxed);
    req.engine = engine_name();
    slow_log_.record(req);
  }

  struct AtomicCounters {
    std::atomic<std::uint64_t> transactions{0};
    std::atomic<std::uint64_t> keys_requested{0};
    std::atomic<std::uint64_t> keys_returned{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> deletes{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> scans{0};
    std::atomic<std::uint64_t> wrong_epoch{0};

    ServerCounters snapshot() const noexcept {
      return {transactions.load(std::memory_order_relaxed),
              keys_requested.load(std::memory_order_relaxed),
              keys_returned.load(std::memory_order_relaxed),
              stores.load(std::memory_order_relaxed),
              deletes.load(std::memory_order_relaxed),
              protocol_errors.load(std::memory_order_relaxed),
              scans.load(std::memory_order_relaxed),
              wrong_epoch.load(std::memory_order_relaxed)};
    }
  };

  /// `stats` series, into a registry built fresh per call — stats is a
  /// cold path and a throwaway registry keeps the hot counters plain
  /// relaxed increments. The response is its Prometheus text exposition
  /// (0.0.4) framed by a trailing "END\r\n".
  void collect_stats(obs::MetricsRegistry& registry) const {
    const ServerCounters snap = counters_.snapshot();
    registry
        .counter("rnb_kv_transactions_total",
                 "Request frames handled (stats included)")
        .inc(snap.transactions);
    registry
        .counter("rnb_kv_keys_requested_total",
                 "Keys asked for across all get/gets frames")
        .inc(snap.keys_requested);
    registry
        .counter("rnb_kv_keys_returned_total",
                 "Keys found and returned across all get/gets frames")
        .inc(snap.keys_returned);
    registry.counter("rnb_kv_stores_total", "set and cas frames handled")
        .inc(snap.stores);
    registry.counter("rnb_kv_deletes_total", "delete frames handled")
        .inc(snap.deletes);
    registry
        .counter("rnb_kv_protocol_errors_total",
                 "Frames rejected with CLIENT_ERROR")
        .inc(snap.protocol_errors);
    // Elastic-membership series appear only once touched, so a static
    // fleet's stats output stays byte-identical to the pre-elastic
    // exposition.
    if (snap.scans != 0)
      registry
          .counter("rnb_kv_scans_total", "Migration scan frames handled")
          .inc(snap.scans);
    const std::uint64_t epoch_now = epoch_.load(std::memory_order_relaxed);
    if (epoch_now != 0) {
      registry
          .gauge("rnb_kv_epoch", "Ring epoch this server is configured for")
          .set(static_cast<double>(epoch_now));
      registry
          .counter("rnb_kv_wrong_epoch_total",
                   "Epoch-tagged frames rejected with WRONG_EPOCH")
          .inc(snap.wrong_epoch);
    }
    registry.gauge("rnb_kv_entries", "Live entries in the store")
        .set(static_cast<double>(table_.entries()));
    if constexpr (kShardMetrics) {
      registry.gauge("rnb_kv_shards", "Store shards (striped lock domains)")
          .set(static_cast<double>(table_.shard_count()));
      for (std::size_t i = 0; i < table_.shard_count(); ++i) {
        const auto shard = table_.shard_snapshot(i);
        const std::string label =
            obs::format_label("shard", std::to_string(i));
        registry
            .counter("rnb_kv_shard_lock_acquisitions_total",
                     "Shard lock acquisitions (shared + exclusive)", label)
            .inc(shard.lock.total_acquisitions());
        registry
            .counter("rnb_kv_shard_lock_contended_total",
                     "Shard lock acquisitions that had to wait", label)
            .inc(shard.lock.contended_acquisitions);
        registry
            .counter("rnb_kv_shard_evictions_total",
                     "LRU evictions performed by the shard", label)
            .inc(shard.engine_stats.evictions);
        registry
            .gauge("rnb_kv_shard_entries", "Live entries in the shard",
                   label)
            .set(static_cast<double>(shard.entries));
        // Probe-behaviour series exist only for open-addressing engines
        // (the swiss table), so map stats output is unchanged.
        if constexpr (requires { shard.has_probe; }) {
          if (shard.has_probe) {
            registry
                .counter("rnb_kv_shard_probe_groups_total",
                         "Control-byte groups examined across key lookups",
                         label)
                .inc(shard.probe.probe_groups);
            registry
                .counter("rnb_kv_shard_lookups_total",
                         "Key lookups that probed the table", label)
                .inc(shard.probe.finds);
            registry
                .gauge("rnb_kv_shard_probe_max_groups",
                       "Longest single lookup, in control groups", label)
                .set(static_cast<double>(shard.probe.max_probe_groups));
            registry
                .counter("rnb_kv_shard_insert_displacement_total",
                         "Groups stepped past home on inserts", label)
                .inc(shard.probe.insert_displacement);
            registry
                .counter("rnb_kv_shard_rehashes_total",
                         "Table rehashes (growth or tombstone purge)", label)
                .inc(shard.probe.rehashes);
            registry
                .gauge("rnb_kv_shard_tombstones",
                       "Current tombstoned slots", label)
                .set(static_cast<double>(shard.probe.tombstones));
            registry
                .counter("rnb_kv_shard_slab_fallbacks_total",
                         "Payloads served from the heap instead of the slab",
                         label)
                .inc(shard.probe.slab_fallbacks);
          }
        }
      }
    }
    // Traced-only attribution series. Both stay empty until a traced run
    // records something, so tracer-off stats output is byte-identical to
    // the pre-tracing exposition.
    {
      std::lock_guard<std::mutex> lock(latency_mutex_);
      if (!handle_latency_.empty()) {
        registry
            .histogram("rnb_kv_handle_latency_seconds",
                       "Traced handle() latency; exemplars link buckets to "
                       "trace ids",
                       "", 7, 1e6)
            .merge(handle_latency_);
      }
      const std::vector<obs::SlowRequest> slow = slow_log_.top();
      for (std::size_t rank = 0; rank < slow.size(); ++rank) {
        std::string labels =
            obs::format_label("rank", std::to_string(rank)) + "," +
            obs::format_label("trace_id", hex_string(slow[rank].trace_id));
        // Correlation labels appear only when recorded, so pre-elastic
        // and anonymous-engine expositions stay byte-identical.
        if (slow[rank].epoch != 0)
          labels += "," + obs::format_label(
                              "epoch", std::to_string(slow[rank].epoch));
        if (slow[rank].engine != nullptr)
          labels += "," + obs::format_label("engine", slow[rank].engine);
        registry
            .gauge("rnb_kv_slow_transaction_cost",
                   "Worst traced transactions by handle latency (tracer "
                   "time units), with the trace id to look up",
                   labels)
            .set(static_cast<double>(slow[rank].cost));
      }
    }
    if (stats_hook_) stats_hook_(registry);
  }

  static std::string hex_string(std::uint64_t id) {
    char buf[17];
    std::size_t n = 0;
    do {
      buf[n++] = "0123456789abcdef"[id & 0xf];
      id >>= 4;
    } while (id != 0);
    std::string out;
    while (n != 0) out += buf[--n];
    return out;
  }

  Store table_;
  AtomicCounters counters_;
  std::atomic<std::uint64_t> epoch_{0};
  std::function<void(obs::MetricsRegistry&)> stats_hook_;
  // Traced-only attribution state (see observe_latency); a server-private
  // slow log, distinct from any process-wide obs::SlowLog the client side
  // installs.
  mutable std::mutex latency_mutex_;
  obs::Histogram handle_latency_{7};
  obs::SlowLog slow_log_{8};
};

/// Reference engine: byte-budget global-LRU MemTable (single lock domain;
/// callers serialize).
using KvServer = BasicKvServer<MemTable>;

/// The serving engine: sharded swiss tables with striped locks, hash-once
/// routing and batched per-shard reads — handle() is thread-safe and
/// scales with cores. Every ServerGroup, TcpFleet and elastic member runs
/// it.
using ShardedKvServer = BasicKvServer<ShardedSwissMemTable>;

/// Sharded MemTable: the concurrent form of the reference engine (the
/// loadgen `store=map` rows). One shard reproduces KvServer's responses
/// byte-for-byte.
using ShardedMapKvServer = BasicKvServer<ShardedMemTable>;

}  // namespace rnb::kv
