#include "kv/slab.hpp"

#include <cmath>

namespace rnb::kv {

SlabAllocator::SlabAllocator(const SlabConfig& config) : config_(config) {
  RNB_REQUIRE(config.page_bytes > 0);
  RNB_REQUIRE(config.min_chunk > 0);
  RNB_REQUIRE(config.min_chunk <= config.page_bytes);
  RNB_REQUIRE(config.growth_factor > 1.0);
  RNB_REQUIRE(config.total_bytes >= config.page_bytes);

  // Build the class table: min_chunk, then x growth (rounded up to 8-byte
  // alignment, strictly increasing), until one chunk fills a page.
  std::size_t chunk = config.min_chunk;
  while (true) {
    SizeClass cls;
    cls.chunk_bytes = chunk;
    cls.chunks_per_page = config.page_bytes / chunk;
    classes_.push_back(std::move(cls));
    if (chunk >= config.page_bytes) break;
    std::size_t next = static_cast<std::size_t>(
        std::ceil(static_cast<double>(chunk) * config.growth_factor));
    next = (next + 7) & ~std::size_t{7};
    if (next <= chunk) next = chunk + 8;
    chunk = std::min(next, config.page_bytes);
  }
}

std::optional<std::uint32_t> SlabAllocator::size_class_of(
    std::size_t bytes) const {
  // Classes are sorted; binary search for the first chunk >= bytes.
  std::uint32_t lo = 0, hi = num_classes();
  if (bytes > classes_.back().chunk_bytes) return std::nullopt;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (classes_[mid].chunk_bytes >= bytes)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

bool SlabAllocator::grow_class(std::uint32_t cls) {
  if (pages_.size() >= page_budget()) return false;
  char* page = pages_.emplace_back(config_.page_bytes).data();
  SizeClass& c = classes_[cls];
  ++c.pages;
  c.free_chunks.reserve(c.free_chunks.size() + c.chunks_per_page);
  for (std::size_t i = 0; i < c.chunks_per_page; ++i)
    c.free_chunks.push_back(page + i * c.chunk_bytes);
  return true;
}

std::optional<SlabRef> SlabAllocator::allocate(std::size_t bytes) {
  const auto cls = size_class_of(bytes);
  if (!cls) return std::nullopt;
  SizeClass& c = classes_[*cls];
  if (c.free_chunks.empty() && !grow_class(*cls)) return std::nullopt;
  char* chunk = c.free_chunks.back();
  c.free_chunks.pop_back();
  ++c.used;
  overhead_bytes_ += c.chunk_bytes - bytes;
  return SlabRef{*cls, chunk};
}

void SlabAllocator::deallocate(const SlabRef& ref,
                               std::size_t requested_bytes) {
  RNB_REQUIRE(ref.valid());
  RNB_REQUIRE(ref.size_class < classes_.size());
  SizeClass& c = classes_[ref.size_class];
  RNB_REQUIRE(c.used > 0);
  RNB_REQUIRE(requested_bytes <= c.chunk_bytes);
  --c.used;
  c.free_chunks.push_back(ref.data);
  overhead_bytes_ -= c.chunk_bytes - requested_bytes;
}

SlabAllocator::ClassStats SlabAllocator::class_stats(std::uint32_t cls) const {
  RNB_REQUIRE(cls < classes_.size());
  const SizeClass& c = classes_[cls];
  return ClassStats{c.chunk_bytes, c.pages, c.used, c.free_chunks.size()};
}

SlabAllocator::Totals SlabAllocator::totals() const noexcept {
  Totals t;
  for (const SizeClass& c : classes_) {
    t.chunks_used += c.used;
    t.chunks_free += c.free_chunks.size();
    t.pages += c.pages;
  }
  return t;
}

}  // namespace rnb::kv
