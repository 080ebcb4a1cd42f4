// Sharded storage engine: S independent engine shards behind striped
// shared_mutexes — the concurrent serving path.
//
// The single-mutex dispatch of the original mini-memcached serializes every
// verb, so multi-core load generators measure lock convoy instead of the
// paper's per-transaction CPU cost. This wrapper partitions the key space
// across S = next_pow2(hw_threads) shards by the same seeded key hash the
// rest of the stack uses (FNV-1a, decorrelated with fmix64 so shard index,
// hash-table bucket, and replica placement are pairwise independent). Each
// shard owns a complete engine — its own table, LRU chain, and pinned set —
// plus one obs::InstrumentedSharedMutex:
//   shared     get fast path (pinned / already-MRU / miss), peek, contains
//   exclusive  set, cas, erase, and gets that must move an LRU position
//
// Fidelity: per-shard LRU over uniformly hashed keys behaves like the
// global LRU at these cache sizes (Ji, Quan & Tan, arXiv:1801.02436 — the
// asymptotic equivalence behind every production memcached deployment), and
// with one shard the wrapper is byte-for-byte the wrapped engine: the
// determinism suite pins single-threaded responses to the unsharded
// baseline.
//
// Concurrency contract: individual operations are linearizable per key
// (each key lives in exactly one shard). multi_get takes each involved
// shard's lock at most twice, so a batch is atomic per shard but NOT across
// shards — exactly the semantics a multi-get spread over independent
// servers already has, which is why the paper's transaction accounting is
// unaffected. Reads are view reads: each hit's bytes are copied once, out
// of the engine under the shard lock, into the caller's MultiGetArena.
#pragma once

#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/lru_cache.hpp"  // CacheStats
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/sharding.hpp"
#include "kv/memtable.hpp"
#include "kv/swiss_memtable.hpp"
#include "obs/contention.hpp"

namespace rnb::kv {

using rnb::resolve_shard_count;

/// Caller-owned output of a batched read: every hit's value bytes back to
/// back, plus one slot per requested key in request order. reset() keeps
/// both buffers' capacity, so a warm arena fills without allocating.
class MultiGetArena {
 public:
  /// Empty the arena and give it one not-found slot per key.
  void reset(std::size_t keys) {
    bytes_.clear();
    slots_.assign(keys, Slot{});
    hits_ = 0;
  }
  /// Copy a hit for key `i` (a view read still under its engine's lock).
  void put(std::size_t i, const ValueRef& hit) {
    slots_[i] = Slot{bytes_.size(), hit.value.size(), hit.version, true};
    bytes_.append(hit.value);
    ++hits_;
  }

  std::size_t size() const noexcept { return slots_.size(); }
  std::size_t hits() const noexcept { return hits_; }
  bool found(std::size_t i) const noexcept { return slots_[i].found; }
  std::uint64_t version(std::size_t i) const noexcept {
    return slots_[i].version;
  }
  std::string_view value(std::size_t i) const noexcept {
    return {bytes_.data() + slots_[i].offset, slots_[i].length};
  }

 private:
  struct Slot {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t version = 0;
    bool found = false;
  };

  std::string bytes_;
  std::vector<Slot> slots_;
  std::size_t hits_ = 0;
};

template <typename Engine>
class BasicShardedTable {
 public:
  using GetResult = typename Engine::GetResult;
  using CasOutcome = MemTable::CasOutcome;

  /// Sharding is transparent to observability: a sharded store reports
  /// its engine's identity.
  static constexpr const char* kEngineName = Engine::kEngineName;

  /// Engines exposing *_hashed overloads (SwissMemTable) receive the raw
  /// FNV-1a key hash the router already computed, so each key is hashed
  /// exactly once per operation — routing, control bytes, and equality
  /// prefilter all derive from that one pass over the key bytes.
  static constexpr bool kHashedOps =
      requires(Engine& e, const Engine& ce, ValueRef& r) {
        ce.fast_get_hashed(std::uint64_t{}, std::string_view{}, r);
        e.get_view_hashed(std::uint64_t{}, std::string_view{});
        e.set_hashed(std::uint64_t{}, std::string_view{}, std::string_view{},
                     bool{});
        e.cas_hashed(std::uint64_t{}, std::string_view{}, std::uint64_t{},
                     std::string_view{});
        e.erase_hashed(std::uint64_t{}, std::string_view{});
        ce.contains_hashed(std::uint64_t{}, std::string_view{});
      };

  /// Probe-behaviour counters are surfaced only for engines that track them.
  static constexpr bool kProbeStats = requires(const Engine& ce) {
    { ce.swiss_stats() } -> std::same_as<SwissStats>;
  };

  /// `num_shards` must already be resolved (power of two >= 1); every shard
  /// is constructed from the same `per_shard_args` — callers divide budgets
  /// before constructing (see ShardedMemTable / ShardedSwissMemTable).
  template <typename... Args>
  explicit BasicShardedTable(std::size_t num_shards,
                             const Args&... per_shard_args) {
    RNB_REQUIRE(num_shards >= 1 && std::has_single_bit(num_shards));
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i)
      shards_.push_back(std::make_unique<Shard>(per_shard_args...));
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Pure function of the key bytes: deterministic across processes and
  /// independent of both placement (seeded FNV-1a into the ring) and the
  /// hash table's bucket index (raw FNV-1a) thanks to the fmix64 mix.
  std::size_t shard_index(std::string_view key) const noexcept {
    return shard_index_of(fnv1a64(key));
  }
  std::size_t shard_index_of(std::uint64_t key_hash) const noexcept {
    return fmix64(key_hash) & (shards_.size() - 1);
  }

  bool set(std::string_view key, std::string_view value, bool pinned = false) {
    const std::uint64_t h = fnv1a64(key);
    Shard& s = *shards_[shard_index_of(h)];
    const std::unique_lock lock(s.mu);
    if constexpr (kHashedOps)
      return s.engine.set_hashed(h, key, value, pinned);
    else
      return s.engine.set(key, value, pinned);
  }

  std::optional<GetResult> get(std::string_view key) {
    const std::uint64_t h = fnv1a64(key);
    std::optional<GetResult> out;
    resolve_group(
        *shards_[shard_index_of(h)], 1,
        [&](std::size_t) { return std::pair{h, key}; },
        [&](std::size_t, const ValueRef& hit) { out = copy_of(hit); });
    return out;
  }

  std::optional<GetResult> peek(std::string_view key) const {
    const Shard& s = shard(key);
    const std::shared_lock lock(s.mu);
    return s.engine.peek(key);
  }

  /// Batched read into `arena` (reset to one slot per key, in request
  /// order). Each hit's value is copied once, under its shard's lock. Keys
  /// of one shard are processed in request order under the shared lock
  /// until the first entry that needs an LRU move, then the remainder
  /// under the exclusive lock — so a single-threaded batch leaves the LRU
  /// chain in exactly the state the sequential per-key loop would.
  void multi_get(std::span<const std::string> keys, MultiGetArena& arena) {
    arena.reset(keys.size());
    if (keys.empty()) return;
    const auto put = [&arena](std::size_t i, const ValueRef& hit) {
      arena.put(i, hit);
    };
    // Per-thread scratch: a pipelined connection issues thousands of
    // batches, so the sort buffers are reused instead of reallocated.
    Scratch& sc = scratch();
    sc.hashes.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      sc.hashes[i] = fnv1a64(keys[i]);
    const auto key_at = [&](std::size_t i) {
      return std::pair{sc.hashes[i], std::string_view(keys[i])};
    };
    const std::size_t n = shards_.size();
    if (keys.size() == 1 || n == 1) {
      // One key, or one shard: the whole batch is one group.
      resolve_group(*shards_[shard_index_of(sc.hashes[0])], keys.size(),
                    key_at, put);
      return;
    }
    // Stable counting sort of key indices by shard: per-shard sub-batches
    // keep their request order (the LRU-equivalence argument above).
    sc.shard_of.resize(keys.size());
    sc.begin.assign(n + 1, 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      sc.shard_of[i] = static_cast<std::uint32_t>(shard_index_of(sc.hashes[i]));
      ++sc.begin[sc.shard_of[i] + 1];
    }
    for (std::size_t s = 0; s < n; ++s) sc.begin[s + 1] += sc.begin[s];
    sc.order.resize(keys.size());
    sc.cursor.assign(sc.begin.begin(), sc.begin.end() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i)
      sc.order[sc.cursor[sc.shard_of[i]]++] = static_cast<std::uint32_t>(i);
    for (std::size_t s = 0; s < n; ++s) {
      if (sc.begin[s] == sc.begin[s + 1]) continue;
      const std::uint32_t* group = sc.order.data() + sc.begin[s];
      resolve_group(
          *shards_[s], sc.begin[s + 1] - sc.begin[s],
          [&](std::size_t j) { return key_at(group[j]); },
          [&](std::size_t j, const ValueRef& hit) { put(group[j], hit); });
    }
  }

  CasOutcome cas(std::string_view key, std::uint64_t expected,
                 std::string_view value) {
    const std::uint64_t h = fnv1a64(key);
    Shard& s = *shards_[shard_index_of(h)];
    const std::unique_lock lock(s.mu);
    if constexpr (kHashedOps)
      return s.engine.cas_hashed(h, key, expected, value);
    else
      return s.engine.cas(key, expected, value);
  }

  bool erase(std::string_view key) {
    const std::uint64_t h = fnv1a64(key);
    Shard& s = *shards_[shard_index_of(h)];
    const std::unique_lock lock(s.mu);
    if constexpr (kHashedOps)
      return s.engine.erase_hashed(h, key);
    else
      return s.engine.erase(key);
  }

  bool contains(std::string_view key) const {
    const std::uint64_t h = fnv1a64(key);
    const Shard& s = *shards_[shard_index_of(h)];
    const std::shared_lock lock(s.mu);
    if constexpr (kHashedOps)
      return s.engine.contains_hashed(h, key);
    else
      return s.engine.contains(key);
  }

  /// Migration paging across shards. Cursor layout: shard index in the top
  /// 16 bits, the shard's own skip-count cursor below — so a page boundary
  /// resumes inside the right shard without global coordination. Each shard
  /// is read under its shared lock; the page is weakly consistent across
  /// shards, which migration's idempotent re-sets tolerate.
  std::uint64_t scan(std::uint64_t cursor, std::size_t max_keys,
                     std::vector<ScanEntry>& out) const {
    constexpr std::uint64_t kShardShift = 48;
    constexpr std::uint64_t kOffsetMask =
        (std::uint64_t{1} << kShardShift) - 1;
    std::size_t shard = static_cast<std::size_t>(cursor >> kShardShift);
    std::uint64_t offset = cursor & kOffsetMask;
    const std::size_t want = out.size() + max_keys;
    while (shard < shards_.size()) {
      if (out.size() >= want)
        return (static_cast<std::uint64_t>(shard) << kShardShift) | offset;
      std::uint64_t next = 0;
      {
        const std::shared_lock lock(shards_[shard]->mu);
        next = shards_[shard]->engine.scan(offset, want - out.size(), out);
      }
      if (next != 0)
        return (static_cast<std::uint64_t>(shard) << kShardShift) | next;
      ++shard;
      offset = 0;
    }
    return 0;
  }

  std::size_t entries() const noexcept {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      const std::shared_lock lock(s->mu);
      total += s->engine.entries();
    }
    return total;
  }

  /// Aggregate engine stats plus the wrapper's fast-path hits/misses, so
  /// totals match what the unsharded engine would have counted for the
  /// same operation sequence.
  CacheStats stats() const {
    CacheStats total;
    for (const auto& s : shards_) {
      const std::shared_lock lock(s->mu);
      const CacheStats& st = s->engine.stats();
      total.hits += st.hits + s->fast_hits.load(std::memory_order_relaxed);
      total.misses +=
          st.misses + s->fast_misses.load(std::memory_order_relaxed);
      total.insertions += st.insertions;
      total.evictions += st.evictions;
    }
    return total;
  }

  /// Per-shard observability snapshot (the stats verb expositions these as
  /// shard-labelled Prometheus series; snapshots merge associatively).
  struct ShardSnapshot {
    obs::ContentionSnapshot lock;
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_misses = 0;
    CacheStats engine_stats;
    std::size_t entries = 0;
    /// Filled (and `has_probe` set) only for probe-counting engines.
    bool has_probe = false;
    SwissStats probe;
  };

  ShardSnapshot shard_snapshot(std::size_t index) const {
    const Shard& s = *shards_[index];
    ShardSnapshot snap;
    snap.lock = s.mu.counters();
    snap.fast_hits = s.fast_hits.load(std::memory_order_relaxed);
    snap.fast_misses = s.fast_misses.load(std::memory_order_relaxed);
    const std::shared_lock lock(s.mu);
    snap.engine_stats = s.engine.stats();
    snap.entries = s.engine.entries();
    if constexpr (kProbeStats) {
      snap.has_probe = true;
      snap.probe = s.engine.swiss_stats();
    }
    return snap;
  }

  /// Aggregate lock counters across all shards.
  obs::ContentionSnapshot lock_counters() const {
    obs::ContentionSnapshot total;
    for (const auto& s : shards_) total += s->mu.counters();
    return total;
  }

  /// Visit each shard's engine under its shared lock (setup / aggregation —
  /// not a hot path).
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    for (const auto& s : shards_) {
      const std::shared_lock lock(s->mu);
      fn(s->engine);
    }
  }

 private:
  // One cache line per shard header so neighbouring shards' lock words and
  // fast-path counters never false-share.
  struct alignas(64) Shard {
    template <typename... Args>
    explicit Shard(const Args&... args) : engine(args...) {}

    mutable obs::InstrumentedSharedMutex mu;
    std::atomic<std::uint64_t> fast_hits{0};
    std::atomic<std::uint64_t> fast_misses{0};
    Engine engine;
  };

  Shard& shard(std::string_view key) noexcept {
    return *shards_[shard_index(key)];
  }
  const Shard& shard(std::string_view key) const noexcept {
    return *shards_[shard_index(key)];
  }

  static MemTable::FastGetOutcome engine_fast_get(const Engine& e,
                                                  std::uint64_t hash,
                                                  std::string_view key,
                                                  ValueRef& out) {
    if constexpr (kHashedOps)
      return e.fast_get_hashed(hash, key, out);
    else
      return e.fast_get(key, out);
  }

  /// The one read path of the wrapper: `count` keys of one shard, where
  /// `key_at(j)` gives the j-th as {fnv1a64 hash, key} in request order.
  /// They are read under the shared lock until the first entry needing an
  /// LRU move, the remainder under the exclusive lock — at most two lock
  /// acquisitions per shard per batch, and a single-threaded batch leaves
  /// the LRU chain exactly as the sequential per-key loop would.
  /// `emit(j, hit)` runs for each hit while the lock is still held: the
  /// view it receives dies with the lock.
  template <typename KeyAt, typename Emit>
  void resolve_group(Shard& s, std::size_t count, const KeyAt& key_at,
                     const Emit& emit) {
    std::size_t j = 0;
    {
      const std::shared_lock lock(s.mu);
      for (; j < count; ++j) {
        const auto [hash, key] = key_at(j);
        ValueRef hit;
        const auto outcome = engine_fast_get(s.engine, hash, key, hit);
        if (outcome == MemTable::FastGetOutcome::kNeedsRecency) break;
        if (outcome == MemTable::FastGetOutcome::kHit) {
          s.fast_hits.fetch_add(1, std::memory_order_relaxed);
          emit(j, hit);
        } else {
          s.fast_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (j == count) return;
    }
    const std::unique_lock lock(s.mu);
    for (; j < count; ++j) {
      const auto [hash, key] = key_at(j);
      std::optional<ValueRef> hit;
      if constexpr (kHashedOps)
        hit = s.engine.get_view_hashed(hash, key);
      else
        hit = s.engine.get_view(key);
      if (hit) emit(j, *hit);
    }
  }

  struct Scratch {
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint32_t> shard_of;
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> order;
  };
  static Scratch& scratch() {
    thread_local Scratch sc;
    return sc;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Byte-budget MemTable shards; the total budget splits evenly (uniform
/// key hashing keeps per-shard working sets balanced, so per-shard LRU
/// approximates the global LRU — the arXiv:1801.02436 argument).
class ShardedMemTable : public BasicShardedTable<MemTable> {
 public:
  explicit ShardedMemTable(std::size_t byte_budget, std::size_t num_shards = 0)
      : ShardedMemTable(byte_budget, resolve_shard_count(num_shards), 0) {}

  /// Sum of the per-shard budgets (total rounded down to a multiple of the
  /// shard count).
  std::size_t byte_budget() const noexcept {
    std::size_t total = 0;
    for_each_engine([&](const MemTable& t) { total += t.byte_budget(); });
    return total;
  }

 private:
  ShardedMemTable(std::size_t byte_budget, std::size_t resolved, int)
      : BasicShardedTable<MemTable>(resolved, byte_budget / resolved) {}
};

/// Swiss-engine shards: same even byte-budget split as ShardedMemTable,
/// with each shard owning its own slab arena (sized off its budget slice).
/// The wrapper's hashed-op dispatch kicks in automatically, so every key is
/// hashed once for routing + probing combined.
class ShardedSwissMemTable : public BasicShardedTable<SwissMemTable> {
 public:
  explicit ShardedSwissMemTable(std::size_t byte_budget,
                                std::size_t num_shards = 0)
      : ShardedSwissMemTable(byte_budget, resolve_shard_count(num_shards), 0) {}

  /// Sum of the per-shard budgets (total rounded down to a multiple of the
  /// shard count).
  std::size_t byte_budget() const noexcept {
    std::size_t total = 0;
    for_each_engine([&](const SwissMemTable& t) { total += t.byte_budget(); });
    return total;
  }

 private:
  ShardedSwissMemTable(std::size_t byte_budget, std::size_t resolved, int)
      : BasicShardedTable<SwissMemTable>(resolved, byte_budget / resolved) {}
};

}  // namespace rnb::kv
