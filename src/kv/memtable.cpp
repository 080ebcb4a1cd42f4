#include "kv/memtable.hpp"

#include "common/error.hpp"

namespace rnb {

MemTable::MemTable(std::size_t byte_budget) : byte_budget_(byte_budget) {}

void MemTable::evict_until(std::size_t needed) {
  while (evictable_bytes_ + needed > byte_budget_ && !lru_.empty()) {
    const std::string victim = lru_.back();
    const auto it = table_.find(victim);
    RNB_ENSURE(it != table_.end() && !it->second.pinned);
    evictable_bytes_ -= entry_cost(victim, it->second.value);
    lru_.pop_back();
    table_.erase(it);
    ++stats_.evictions;
  }
}

bool MemTable::set(std::string_view key, std::string_view value, bool pinned) {
  ++stats_.insertions;
  const std::size_t cost = entry_cost(key, value);
  const auto it = table_.find(key);
  if (it != table_.end()) {
    // Overwrite in place: release old accounting first.
    Entry& e = it->second;
    const std::size_t old_cost = entry_cost(it->first, e.value);
    if (e.pinned)
      pinned_bytes_ -= old_cost;
    else {
      evictable_bytes_ -= old_cost;
      lru_.erase(e.lru_pos);
    }
    e.value.assign(value);
    e.version = next_version_++;
    e.pinned = pinned;
    if (pinned) {
      pinned_bytes_ += cost;
    } else {
      if (cost > byte_budget_) {
        table_.erase(it);
        return false;
      }
      evict_until(cost);
      lru_.push_front(it->first);
      e.lru_pos = lru_.begin();
      evictable_bytes_ += cost;
    }
    return true;
  }
  if (pinned) {
    Entry e{std::string(value), next_version_++, true, lru_.end()};
    table_.emplace(std::string(key), std::move(e));
    pinned_bytes_ += cost;
    return true;
  }
  if (cost > byte_budget_) return false;
  evict_until(cost);
  lru_.push_front(std::string(key));
  Entry e{std::string(value), next_version_++, false, lru_.begin()};
  table_.emplace(std::string(key), std::move(e));
  evictable_bytes_ += cost;
  return true;
}

std::optional<ValueRef> MemTable::get_view(std::string_view key) {
  const auto it = table_.find(key);
  if (it == table_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  Entry& e = it->second;
  if (!e.pinned && e.lru_pos != lru_.begin())
    lru_.splice(lru_.begin(), lru_, e.lru_pos);
  return ValueRef{e.value, e.version};
}

MemTable::FastGetOutcome MemTable::fast_get(std::string_view key,
                                            ValueRef& out) const {
  const auto it = table_.find(key);
  if (it == table_.end()) return FastGetOutcome::kMiss;
  const Entry& e = it->second;
  if (!e.pinned && e.lru_pos != lru_.begin())
    return FastGetOutcome::kNeedsRecency;
  out = ValueRef{e.value, e.version};
  return FastGetOutcome::kHit;
}

std::optional<ValueRef> MemTable::peek_view(std::string_view key) const {
  const auto it = table_.find(key);
  if (it == table_.end()) return std::nullopt;
  return ValueRef{it->second.value, it->second.version};
}

MemTable::CasOutcome MemTable::cas(std::string_view key, std::uint64_t expected,
                                   std::string_view value) {
  const auto it = table_.find(key);
  if (it == table_.end()) return CasOutcome::kNotFound;
  if (it->second.version != expected) return CasOutcome::kExists;
  set(key, value, it->second.pinned);
  return CasOutcome::kStored;
}

bool MemTable::erase(std::string_view key) {
  const auto it = table_.find(key);
  if (it == table_.end()) return false;
  const Entry& e = it->second;
  const std::size_t cost = entry_cost(it->first, e.value);
  if (e.pinned)
    pinned_bytes_ -= cost;
  else {
    evictable_bytes_ -= cost;
    lru_.erase(e.lru_pos);
  }
  table_.erase(it);
  return true;
}

bool MemTable::contains(std::string_view key) const {
  return table_.contains(key);
}

std::uint64_t MemTable::scan(std::uint64_t cursor, std::size_t max_keys,
                             std::vector<ScanEntry>& out) const {
  RNB_REQUIRE(max_keys >= 1);
  auto it = table_.begin();
  std::uint64_t position = 0;
  while (it != table_.end() && position < cursor) {
    ++it;
    ++position;
  }
  std::size_t emitted = 0;
  for (; it != table_.end() && emitted < max_keys; ++it, ++position) {
    out.push_back(ScanEntry{it->first, it->second.value, it->second.version,
                            it->second.pinned});
    ++emitted;
  }
  return it == table_.end() ? 0 : position;
}

}  // namespace rnb
