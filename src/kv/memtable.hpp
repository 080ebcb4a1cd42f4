// In-memory key-value table with byte-budget LRU eviction and CAS versions.
//
// This is the storage engine of the mini-memcached (paper Section IV's
// proof-of-concept). Unlike the slot-based simulation caches, it stores real
// bytes with real memory accounting, supports memcached's gets/cas
// unique-version semantics, and honours the two-service-class design: pinned
// entries (distinguished copies) are never evicted and are excluded from the
// eviction scan entirely.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.hpp"  // CacheStats
#include "common/hash.hpp"

namespace rnb {

/// Transparent string hash enabling find(string_view) without a temporary
/// std::string — the mini-kv's get path is what Figs. 13-14 benchmark, so
/// a per-lookup allocation would be measurement noise.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(fnv1a64(s));
  }
  std::size_t operator()(const std::string& s) const noexcept {
    return (*this)(std::string_view(s));
  }
};

/// A stored value read in place. The bytes stay owned by the engine and
/// are valid only until that engine's next mutation, so a view read is
/// used only under whatever lock keeps the engine's writers out.
struct ValueRef {
  std::string_view value;
  std::uint64_t version = 0;
};

/// An owned copy of a stored value: what the copying get()/peek() return.
struct ValueCopy {
  std::string value;
  std::uint64_t version = 0;
};

/// The copying reads are this wrapper over the view reads.
inline std::optional<ValueCopy> copy_of(const std::optional<ValueRef>& ref) {
  if (!ref) return std::nullopt;
  return ValueCopy{std::string(ref->value), ref->version};
}

/// One entry surfaced by an engine scan (replica migration's unit of work).
/// Carries the pinned bit so migration preserves the two service classes.
struct ScanEntry {
  std::string key;
  std::string value;
  std::uint64_t version = 0;
  bool pinned = false;
};

class MemTable {
 public:
  /// Engine identity for observability (slow-log entries, stats labels).
  static constexpr const char* kEngineName = "map";

  /// `byte_budget` bounds the *evictable* bytes; pinned entries are
  /// accounted separately and never evicted.
  explicit MemTable(std::size_t byte_budget);

  using GetResult = ValueCopy;

  /// Store (insert or overwrite). Pinned stores always succeed; unpinned
  /// stores evict LRU entries as needed and fail (returning false) only if
  /// the value alone exceeds the byte budget.
  bool set(std::string_view key, std::string_view value, bool pinned = false);

  /// View read: fetch in place, refreshing LRU recency for evictable
  /// entries. The view dies with the table's next mutation (see ValueRef).
  std::optional<ValueRef> get_view(std::string_view key);

  /// View read without touching recency (hitchhiker probes, tests).
  std::optional<ValueRef> peek_view(std::string_view key) const;

  /// Copying get_view / peek_view.
  std::optional<GetResult> get(std::string_view key) {
    return copy_of(get_view(key));
  }
  std::optional<GetResult> peek(std::string_view key) const {
    return copy_of(peek_view(key));
  }

  /// Outcome of a mutation-free read attempt (see fast_get).
  enum class FastGetOutcome { kHit, kMiss, kNeedsRecency };

  /// Resolve a get if — and only if — doing so mutates nothing: the entry
  /// is pinned (no recency) or already at the MRU position. Misses also
  /// resolve (a miss moves nothing). kNeedsRecency means the entry exists
  /// but its LRU position must move; the caller retries with get_view()
  /// under whatever write exclusion it maintains. Never touches stats() —
  /// the sharded wrapper counts fast-path hits/misses itself, so aggregate
  /// accounting matches the plain-get path exactly. A hit is a view read.
  FastGetOutcome fast_get(std::string_view key, ValueRef& out) const;

  /// Compare-and-swap: store only if the entry exists with `expected`
  /// version. Returns kStored, kExists (version mismatch) or kNotFound.
  enum class CasOutcome { kStored, kExists, kNotFound };
  CasOutcome cas(std::string_view key, std::uint64_t expected,
                 std::string_view value);

  bool erase(std::string_view key);
  bool contains(std::string_view key) const;

  /// Page through entries for migration: append up to `max_keys` entries
  /// (`max_keys` >= 1) starting at skip-count `cursor`, returning the next
  /// cursor (0 = exhausted). Weakly consistent under interleaved mutation —
  /// like memcached's lru_crawler, entries written mid-scan may be seen
  /// zero or more times; migration's idempotent re-sets absorb that. O(n)
  /// positioning per page is acceptable: scans run in migration batches,
  /// never on the serving fast path.
  std::uint64_t scan(std::uint64_t cursor, std::size_t max_keys,
                     std::vector<ScanEntry>& out) const;

  std::size_t entries() const noexcept { return table_.size(); }
  std::size_t evictable_bytes() const noexcept { return evictable_bytes_; }
  std::size_t pinned_bytes() const noexcept { return pinned_bytes_; }
  std::size_t byte_budget() const noexcept { return byte_budget_; }
  const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::string value;
    std::uint64_t version;
    bool pinned;
    /// Valid only when !pinned: position in lru_ (front == MRU).
    std::list<std::string>::iterator lru_pos;
  };

  static std::size_t entry_cost(std::string_view key, std::string_view value) {
    // Key + value payload plus a fixed per-entry overhead standing in for
    // memcached's item header + hash chain pointers.
    return key.size() + value.size() + kPerEntryOverhead;
  }

  void evict_until(std::size_t needed);

  static constexpr std::size_t kPerEntryOverhead = 48;

  std::size_t byte_budget_;
  std::size_t evictable_bytes_ = 0;
  std::size_t pinned_bytes_ = 0;
  std::uint64_t next_version_ = 1;
  std::unordered_map<std::string, Entry, TransparentStringHash,
                     std::equal_to<>>
      table_;
  std::list<std::string> lru_;  // front = MRU, holds keys of evictable entries
  CacheStats stats_;
};

}  // namespace rnb
