// Slab-backed key-value table with per-size-class LRU — memcached's actual
// storage engine shape, as opposed to MemTable's simplified global-LRU
// byte budget.
//
// Items (key bytes + value bytes) live in slab chunks; eviction is
// *per size class*: when class c has no free chunk and the page budget is
// spent, the LRU unpinned item OF CLASS c is evicted — items in other
// classes are untouchable (calcification). Pinned items (distinguished
// copies) are never evicted but do occupy chunks; a set() that cannot evict
// anything (class full of pinned items) fails, surfacing the operational
// hazard of pinning too much.
//
// API mirrors MemTable so BasicKvServer can host either engine.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/lru_cache.hpp"  // CacheStats
#include "kv/memtable.hpp"      // TransparentStringHash
#include "kv/slab.hpp"

namespace rnb::kv {

class SlabMemTable {
 public:
  /// Engine identity for observability (slow-log entries, stats labels).
  static constexpr const char* kEngineName = "slab";

  explicit SlabMemTable(const SlabConfig& config);

  using GetResult = ValueCopy;

  /// Store (insert or overwrite). Fails (false) if the item is larger than
  /// the biggest chunk, or its size class cannot free a chunk (budget spent
  /// and every chunk of the class holds a pinned item).
  bool set(std::string_view key, std::string_view value, bool pinned = false);

  /// View reads (same contract as MemTable's): the value in its chunk,
  /// valid until the table's next mutation.
  std::optional<ValueRef> get_view(std::string_view key);
  std::optional<ValueRef> peek_view(std::string_view key) const;

  std::optional<GetResult> get(std::string_view key) {
    return copy_of(get_view(key));
  }
  std::optional<GetResult> peek(std::string_view key) const {
    return copy_of(peek_view(key));
  }

  /// Mutation-free read attempt (same contract as MemTable::fast_get):
  /// resolves pinned entries, entries already at their class's MRU
  /// position, and misses; kNeedsRecency otherwise. Never touches stats().
  MemTable::FastGetOutcome fast_get(std::string_view key,
                                    ValueRef& out) const;

  MemTable::CasOutcome cas(std::string_view key, std::uint64_t expected,
                           std::string_view value);

  bool erase(std::string_view key);
  bool contains(std::string_view key) const;

  std::size_t entries() const noexcept { return table_.size(); }
  const CacheStats& stats() const noexcept { return stats_; }
  const SlabAllocator& slabs() const noexcept { return slabs_; }

 private:
  struct Entry {
    SlabRef chunk;
    std::uint32_t key_bytes;
    std::uint32_t value_bytes;
    std::uint64_t version;
    bool pinned;
    /// Position in the owning class's LRU list (valid iff !pinned).
    std::list<const std::string*>::iterator lru_pos;

    std::size_t item_bytes() const noexcept {
      return std::size_t{key_bytes} + value_bytes;
    }
    std::string_view value_view() const noexcept {
      return {chunk.data + key_bytes, value_bytes};
    }
  };

  /// Acquire a chunk for `bytes`, evicting same-class LRU items as needed.
  std::optional<SlabRef> acquire_chunk(std::size_t bytes);

  /// Remove an entry and release its chunk.
  void destroy(const std::string& key, Entry& entry);

  SlabAllocator slabs_;
  std::unordered_map<std::string, Entry, TransparentStringHash,
                     std::equal_to<>>
      table_;
  /// Per size class, keys in MRU->LRU order. Pointers into table_ keys stay
  /// valid: unordered_map never invalidates references on rehash.
  std::vector<std::list<const std::string*>> class_lru_;
  std::uint64_t next_version_ = 1;
  CacheStats stats_;
};

}  // namespace rnb::kv
