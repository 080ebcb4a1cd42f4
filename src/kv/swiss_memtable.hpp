// Open-addressing swiss-table storage engine with slab-backed payloads.
//
// Drop-in replacement for MemTable (same observable semantics, bit-for-bit:
// hit/miss accounting, eviction order, version numbering, cas quirks) built
// for the serving fast path instead of node-based containers:
//
//   * Flat control-byte metadata: one byte per slot holding kEmpty, kDeleted
//     (tombstone) or the low 7 bits of the hash (H2). Lookups probe 16-slot
//     groups with a single SIMD compare (SSE2; portable byte loop otherwise),
//     so a negative probe touches one cache line of metadata instead of
//     walking a bucket chain.
//   * Interned key+value payloads: each entry's key bytes and value bytes
//     live contiguously in one chunk from the slab allocator (memcached's
//     memory model, src/kv/slab.hpp) — no per-entry std::string heads, no
//     global-allocator churn on the hot path. Items too large for the
//     largest size class (or arriving when the slab budget is exhausted)
//     fall back to the heap and are counted, never dropped: slab pressure
//     must not invent evictions MemTable would not perform.
//   * Intrusive LRU: doubly-linked list threaded through 32-bit slot
//     indices stored in the slots themselves (head = MRU). No std::list
//     nodes, no iterator storage, and a recency splice is four stores.
//   * Mapped bulk memory: control bytes and slots share one anonymous
//     mapping per table generation, and slab pages are mappings too
//     (kv/page_mapping.hpp), so a dead table's memory goes back to the OS
//     rather than into malloc's arenas. A slot is read only while its
//     control byte says full, so fresh zero pages need no initialization:
//     each slot's lifetime starts where it is first filled.
//
// Two-class accounting matches MemTable exactly: pinned entries (the
// paper's distinguished copies) are never evicted and excluded from the
// byte budget; evictable entries LRU-evict to stay under it.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/lru_cache.hpp"  // CacheStats
#include "common/hash.hpp"
#include "kv/memtable.hpp"  // ScanEntry, ValueRef
#include "kv/page_mapping.hpp"
#include "kv/slab.hpp"

namespace rnb {

/// Probe-behaviour counters surfaced per shard as Prometheus series. All
/// values are cumulative since construction except `tombstones` (a gauge of
/// current kDeleted slots, reset by rehash).
struct SwissStats {
  std::uint64_t finds = 0;              ///< key lookups that probed the table
  std::uint64_t probe_groups = 0;       ///< 16-slot groups examined, summed
  std::uint64_t max_probe_groups = 0;   ///< worst single lookup
  std::uint64_t insert_displacement = 0;///< groups stepped past home on insert
  std::uint64_t rehashes = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t slab_fallbacks = 0;     ///< payloads served from the heap
};

class SwissMemTable {
 public:
  /// Engine identity for observability (slow-log entries, stats labels).
  static constexpr const char* kEngineName = "swiss";

  /// `byte_budget` bounds the *evictable* bytes; pinned entries are
  /// accounted separately and never evicted. The slab arena defaults to
  /// 2x the budget (clamped) so overwrite churn recycles chunks in-class.
  explicit SwissMemTable(std::size_t byte_budget);
  SwissMemTable(std::size_t byte_budget, const kv::SlabConfig& slab_config);
  ~SwissMemTable();

  SwissMemTable(const SwissMemTable&) = delete;
  SwissMemTable& operator=(const SwissMemTable&) = delete;

  // Shared result/outcome vocabulary with MemTable: the sharded wrapper,
  // server template, and tests treat the engines interchangeably.
  using GetResult = MemTable::GetResult;
  using FastGetOutcome = MemTable::FastGetOutcome;
  using CasOutcome = MemTable::CasOutcome;

  bool set(std::string_view key, std::string_view value, bool pinned = false);
  /// View reads (MemTable's contract): the value in its slab chunk, valid
  /// until the table's next mutation.
  std::optional<ValueRef> get_view(std::string_view key) {
    return get_view_hashed(fnv1a64(key), key);
  }
  std::optional<ValueRef> peek_view(std::string_view key) const;
  FastGetOutcome fast_get(std::string_view key, ValueRef& out) const {
    return fast_get_hashed(fnv1a64(key), key, out);
  }
  std::optional<GetResult> get(std::string_view key) {
    return copy_of(get_view(key));
  }
  std::optional<GetResult> peek(std::string_view key) const {
    return copy_of(peek_view(key));
  }
  CasOutcome cas(std::string_view key, std::uint64_t expected,
                 std::string_view value);
  bool erase(std::string_view key);
  bool contains(std::string_view key) const;

  /// Same contract as MemTable::scan: skip-count cursor, 0 = exhausted,
  /// weakly consistent under interleaved mutation.
  std::uint64_t scan(std::uint64_t cursor, std::size_t max_keys,
                     std::vector<ScanEntry>& out) const;

  // Hashed variants: `hash` must equal fnv1a64(key). The sharded wrapper
  // computes that hash once for shard routing and passes it down, so a
  // multi-get batch hashes each key exactly once end to end.
  bool set_hashed(std::uint64_t hash, std::string_view key,
                  std::string_view value, bool pinned = false);
  std::optional<ValueRef> get_view_hashed(std::uint64_t hash,
                                          std::string_view key);
  FastGetOutcome fast_get_hashed(std::uint64_t hash, std::string_view key,
                                 ValueRef& out) const;
  CasOutcome cas_hashed(std::uint64_t hash, std::string_view key,
                        std::uint64_t expected, std::string_view value);
  bool erase_hashed(std::uint64_t hash, std::string_view key);
  bool contains_hashed(std::uint64_t hash, std::string_view key) const;

  std::size_t entries() const noexcept { return size_; }
  std::size_t evictable_bytes() const noexcept { return evictable_bytes_; }
  std::size_t pinned_bytes() const noexcept { return pinned_bytes_; }
  std::size_t byte_budget() const noexcept { return byte_budget_; }
  const CacheStats& stats() const noexcept { return stats_; }
  SwissStats swiss_stats() const noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  const kv::SlabAllocator& slabs() const noexcept { return slabs_; }

 private:
  static constexpr std::size_t kGroupWidth = 16;
  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::int8_t kEmpty = -128;   // 0b10000000
  static constexpr std::int8_t kDeleted = -2;   // 0b11111110
  static constexpr std::size_t kPerEntryOverhead = 48;  // matches MemTable

  /// Lives in mapped memory: placement-constructed where it is first
  /// filled (insert_slot, rehash), and meaningful only while its control
  /// byte is full.
  struct Slot {
    std::uint64_t hash = 0;  // raw fnv1a64(key): rehash + equality prefilter
    std::uint64_t version = 0;
    kv::SlabRef chunk{};     // key bytes then value bytes; heap ptr if `heap`
    std::uint32_t key_bytes = 0;
    std::uint32_t value_bytes = 0;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    bool pinned = false;
    bool heap = false;
  };
  static_assert(std::is_trivially_copyable_v<Slot>);

  static std::size_t entry_cost(std::size_t key_bytes,
                                std::size_t value_bytes) noexcept {
    return key_bytes + value_bytes + kPerEntryOverhead;
  }
  static std::size_t slot_cost(const Slot& s) noexcept {
    return entry_cost(s.key_bytes, s.value_bytes);
  }
  std::string_view key_view(const Slot& s) const noexcept {
    return {s.chunk.data, s.key_bytes};
  }
  std::string_view value_view(const Slot& s) const noexcept {
    return {s.chunk.data + s.key_bytes, s.value_bytes};
  }

  // The shard router consumes the low bits of fmix64(fnv1a64(key)), so all
  // keys in one shard share them; a second decorrelating mix keeps the
  // control bytes (H2) and home group (H1) full-entropy per shard.
  static std::uint64_t mix_hash(std::uint64_t hash) noexcept {
    return fmix64(hash + 0x9e3779b97f4a7c15ull);
  }

  std::size_t find(std::uint64_t hash, std::string_view key) const;
  std::size_t insert_slot(std::uint64_t hash, std::string_view key,
                          std::string_view value, bool pinned);
  void reserve_for_insert();
  void rehash(std::size_t new_capacity);
  void evict_until(std::size_t needed);
  void assign_payload(Slot& s, std::string_view key, std::string_view value);
  void release_payload(Slot& s);
  /// Frees the payload and turns the slot into a tombstone. The caller has
  /// already removed the slot from the LRU chain and released accounting.
  void destroy_slot(std::size_t idx);

  void lru_unlink(std::size_t idx) noexcept;
  void lru_push_front(std::size_t idx) noexcept;

  std::size_t byte_budget_;
  std::size_t evictable_bytes_ = 0;
  std::size_t pinned_bytes_ = 0;
  std::uint64_t next_version_ = 1;
  std::size_t size_ = 0;
  std::size_t deleted_ = 0;
  std::size_t capacity_ = 0;  // power of two, multiple of kGroupWidth
  /// capacity_ control bytes, then capacity_ slots (capacity_ is a multiple
  /// of alignof(Slot), so the slots need no padding).
  kv::PageMapping table_mem_;
  std::int8_t* ctrl_ = nullptr;
  Slot* slots_ = nullptr;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  kv::SlabAllocator slabs_;
  CacheStats stats_;

  // Probe counters mutate on const lookups, which run concurrently under
  // the sharded wrapper's *shared* lock — hence relaxed atomics.
  mutable std::atomic<std::uint64_t> finds_{0};
  mutable std::atomic<std::uint64_t> probe_groups_{0};
  mutable std::atomic<std::uint64_t> max_probe_groups_{0};
  // Mutated only under exclusive ops.
  std::uint64_t insert_displacement_ = 0;
  std::uint64_t rehashes_ = 0;
  std::uint64_t slab_fallbacks_ = 0;
};

}  // namespace rnb
