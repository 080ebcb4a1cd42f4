#include "kv/slab_memtable.hpp"

#include <cstring>

#include "common/error.hpp"

namespace rnb::kv {

SlabMemTable::SlabMemTable(const SlabConfig& config)
    : slabs_(config), class_lru_(slabs_.num_classes()) {}

std::optional<SlabRef> SlabMemTable::acquire_chunk(std::size_t bytes) {
  if (auto ref = slabs_.allocate(bytes)) return ref;
  const auto cls = slabs_.size_class_of(bytes);
  if (!cls) return std::nullopt;  // larger than the largest chunk
  // Evict the LRU unpinned item of this class and retry. One eviction frees
  // exactly one chunk of the right class, so a single round suffices; the
  // loop guards the (pinned-heavy) case where the victim list is empty.
  auto& lru = class_lru_[*cls];
  if (lru.empty()) return std::nullopt;
  const std::string* victim_key = lru.back();
  const auto it = table_.find(*victim_key);
  RNB_ENSURE(it != table_.end());
  destroy(it->first, it->second);
  table_.erase(it);
  ++stats_.evictions;
  return slabs_.allocate(bytes);
}

void SlabMemTable::destroy(const std::string& key, Entry& entry) {
  (void)key;
  if (!entry.pinned) class_lru_[entry.chunk.size_class].erase(entry.lru_pos);
  slabs_.deallocate(entry.chunk, entry.item_bytes());
}

bool SlabMemTable::set(std::string_view key, std::string_view value,
                       bool pinned) {
  ++stats_.insertions;
  const std::size_t bytes = key.size() + value.size();

  // Allocate BEFORE dropping any old incarnation: a failed set must leave
  // the previous value intact. The eviction inside acquire_chunk may pick
  // the old incarnation itself as the victim, so re-find afterwards.
  const auto chunk = acquire_chunk(bytes);
  if (!chunk) return false;
  if (const auto it = table_.find(key); it != table_.end()) {
    destroy(it->first, it->second);
    table_.erase(it);
  }
  std::memcpy(chunk->data, key.data(), key.size());
  std::memcpy(chunk->data + key.size(), value.data(), value.size());

  Entry entry;
  entry.chunk = *chunk;
  entry.key_bytes = static_cast<std::uint32_t>(key.size());
  entry.value_bytes = static_cast<std::uint32_t>(value.size());
  entry.version = next_version_++;
  entry.pinned = pinned;
  const auto [it, inserted] = table_.emplace(std::string(key), entry);
  RNB_ENSURE(inserted);
  if (!pinned) {
    auto& lru = class_lru_[chunk->size_class];
    lru.push_front(&it->first);
    it->second.lru_pos = lru.begin();
  }
  return true;
}

std::optional<ValueRef> SlabMemTable::get_view(std::string_view key) {
  const auto it = table_.find(key);
  if (it == table_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  Entry& e = it->second;
  if (!e.pinned) {
    auto& lru = class_lru_[e.chunk.size_class];
    if (e.lru_pos != lru.begin()) lru.splice(lru.begin(), lru, e.lru_pos);
  }
  return ValueRef{e.value_view(), e.version};
}

MemTable::FastGetOutcome SlabMemTable::fast_get(std::string_view key,
                                                ValueRef& out) const {
  const auto it = table_.find(key);
  if (it == table_.end()) return MemTable::FastGetOutcome::kMiss;
  const Entry& e = it->second;
  if (!e.pinned && e.lru_pos != class_lru_[e.chunk.size_class].begin())
    return MemTable::FastGetOutcome::kNeedsRecency;
  out = ValueRef{e.value_view(), e.version};
  return MemTable::FastGetOutcome::kHit;
}

std::optional<ValueRef> SlabMemTable::peek_view(std::string_view key) const {
  const auto it = table_.find(key);
  if (it == table_.end()) return std::nullopt;
  return ValueRef{it->second.value_view(), it->second.version};
}

MemTable::CasOutcome SlabMemTable::cas(std::string_view key,
                                       std::uint64_t expected,
                                       std::string_view value) {
  const auto it = table_.find(key);
  if (it == table_.end()) return MemTable::CasOutcome::kNotFound;
  if (it->second.version != expected) return MemTable::CasOutcome::kExists;
  const bool pinned = it->second.pinned;
  return set(key, value, pinned) ? MemTable::CasOutcome::kStored
                                 : MemTable::CasOutcome::kNotFound;
}

bool SlabMemTable::erase(std::string_view key) {
  const auto it = table_.find(key);
  if (it == table_.end()) return false;
  destroy(it->first, it->second);
  table_.erase(it);
  return true;
}

bool SlabMemTable::contains(std::string_view key) const {
  return table_.contains(key);
}

}  // namespace rnb::kv
