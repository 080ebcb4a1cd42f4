// Slab allocator — memcached's memory model, reimplemented.
//
// Memcached never free()s item memory: it carves fixed-size pages (1 MiB)
// into chunks of geometrically growing size classes and recycles chunks
// within their class. This gives O(1) allocation, zero external
// fragmentation, bounded internal fragmentation (the growth factor), and
// the infamous *calcification*: once a page is assigned to a class it never
// leaves, so a workload shift can starve one class while another hoards
// idle pages. The simulators assume equal-size items (paper Section III-B)
// partly BECAUSE this allocator makes same-class items interchangeable;
// SwissMemTable stores its key+value payloads in its chunks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "kv/page_mapping.hpp"

namespace rnb::kv {

struct SlabConfig {
  /// Total memory budget; pages are carved from it on demand.
  std::size_t total_bytes = 64u << 20;
  /// Page size (memcached default 1 MiB).
  std::size_t page_bytes = 1u << 20;
  /// Smallest chunk size.
  std::size_t min_chunk = 64;
  /// Geometric growth between consecutive size classes (memcached 1.25).
  double growth_factor = 1.25;
};

/// A handle to one allocated chunk.
struct SlabRef {
  std::uint32_t size_class = 0;
  char* data = nullptr;

  bool valid() const noexcept { return data != nullptr; }
};

class SlabAllocator {
 public:
  explicit SlabAllocator(const SlabConfig& config);

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  /// Allocate a chunk large enough for `bytes`. Returns nullopt when the
  /// right size class has no free chunk and the page budget is exhausted —
  /// the caller (the store) must then evict something *of the same class*
  /// and retry, exactly like memcached.
  std::optional<SlabRef> allocate(std::size_t bytes);

  /// Return a chunk to its class's free list. `requested_bytes` must be the
  /// size passed to the matching allocate() call (the caller tracks it —
  /// stores know their entry sizes); it keeps the internal-fragmentation
  /// accounting exact.
  void deallocate(const SlabRef& ref, std::size_t requested_bytes);

  /// Size class index serving `bytes`, or nullopt if bytes > max chunk.
  std::optional<std::uint32_t> size_class_of(std::size_t bytes) const;

  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(classes_.size());
  }
  std::size_t chunk_bytes(std::uint32_t cls) const {
    return classes_[cls].chunk_bytes;
  }
  /// Largest allocatable request; anything bigger must go elsewhere (the
  /// swiss engine falls back to the heap and counts it).
  std::size_t max_chunk_bytes() const noexcept {
    return classes_.back().chunk_bytes;
  }

  /// Allocator-wide aggregate of the per-class stats.
  struct Totals {
    std::size_t chunks_used = 0;
    std::size_t chunks_free = 0;
    std::size_t pages = 0;
  };
  Totals totals() const noexcept;

  struct ClassStats {
    std::size_t chunk_bytes = 0;
    std::size_t pages = 0;
    std::size_t chunks_used = 0;
    std::size_t chunks_free = 0;
  };
  ClassStats class_stats(std::uint32_t cls) const;

  std::size_t pages_allocated() const noexcept { return pages_.size(); }
  std::size_t page_budget() const noexcept {
    return config_.total_bytes / config_.page_bytes;
  }
  /// Bytes handed out minus bytes requested — internal fragmentation probe.
  std::size_t overhead_bytes() const noexcept { return overhead_bytes_; }

 private:
  struct SizeClass {
    std::size_t chunk_bytes;
    std::size_t chunks_per_page;
    std::vector<char*> free_chunks;
    std::size_t pages = 0;
    std::size_t used = 0;
  };

  /// Assign a fresh page to `cls`; false when the budget is exhausted.
  bool grow_class(std::uint32_t cls);

  SlabConfig config_;
  std::vector<SizeClass> classes_;
  /// Mapped, not malloc'd: a page is resident only once a chunk of it is
  /// written, and it goes back to the OS with the allocator.
  std::vector<PageMapping> pages_;
  std::size_t overhead_bytes_ = 0;
};

}  // namespace rnb::kv
