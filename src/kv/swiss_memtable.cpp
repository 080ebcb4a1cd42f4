#include "kv/swiss_memtable.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "common/error.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rnb {
namespace {

// One 16-slot control group. SSE2 compares all 16 bytes in one instruction;
// the fallback is a plain byte loop (exact, and auto-vectorizable) rather
// than SWAR bit tricks whose per-byte masks admit false positives — a false
// "empty" byte would terminate a probe sequence early and lose keys.
struct Group {
#if defined(__SSE2__)
  __m128i ctrl;
  explicit Group(const std::int8_t* p) noexcept
      : ctrl(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))) {}
  std::uint32_t match(std::int8_t h2) const noexcept {
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(ctrl, _mm_set1_epi8(h2))));
  }
  std::uint32_t match_empty() const noexcept {
    return match(static_cast<std::int8_t>(-128));
  }
#else
  const std::int8_t* p;
  explicit Group(const std::int8_t* ctrl) noexcept : p(ctrl) {}
  std::uint32_t match(std::int8_t h2) const noexcept {
    std::uint32_t m = 0;
    for (int i = 0; i < 16; ++i)
      m |= static_cast<std::uint32_t>(p[i] == h2) << i;
    return m;
  }
  std::uint32_t match_empty() const noexcept {
    return match(static_cast<std::int8_t>(-128));
  }
#endif
};

inline int lowest_bit(std::uint32_t mask) noexcept {
  return std::countr_zero(mask);
}

kv::SlabConfig default_slab_config(std::size_t byte_budget) {
  kv::SlabConfig cfg;
  // 2x the evictable budget: headroom for pinned entries (unbounded by the
  // budget) and for size-class fragmentation, clamped so tiny test tables
  // still get a page and huge budgets do not reserve silly arenas up front
  // (pages are carved lazily anyway; this only caps the arena).
  const std::size_t want = byte_budget * 2;
  cfg.total_bytes = std::clamp<std::size_t>(want, cfg.page_bytes, 1ull << 30);
  return cfg;
}

}  // namespace

SwissMemTable::SwissMemTable(std::size_t byte_budget)
    : SwissMemTable(byte_budget, default_slab_config(byte_budget)) {}

SwissMemTable::SwissMemTable(std::size_t byte_budget,
                             const kv::SlabConfig& slab_config)
    : byte_budget_(byte_budget), slabs_(slab_config) {}

SwissMemTable::~SwissMemTable() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (ctrl_[i] >= 0 && slots_[i].heap) delete[] slots_[i].chunk.data;
  }
  // Slab chunks die with the allocator's pages, the table with its mapping.
}

std::size_t SwissMemTable::find(std::uint64_t hash,
                                std::string_view key) const {
  if (capacity_ == 0) return kNpos;
  const std::uint64_t mix = mix_hash(hash);
  const std::int8_t h2 = static_cast<std::int8_t>(mix & 0x7f);
  const std::size_t group_mask = capacity_ / kGroupWidth - 1;
  std::size_t group = (mix >> 7) & group_mask;
  std::size_t step = 0;
  std::uint64_t groups_probed = 0;
  std::size_t result = kNpos;
  for (;;) {
    ++groups_probed;
    const Group g(ctrl_ + group * kGroupWidth);
    for (std::uint32_t m = g.match(h2); m != 0; m &= m - 1) {
      const std::size_t idx = group * kGroupWidth + lowest_bit(m);
      const Slot& s = slots_[idx];
      if (s.hash == hash && key_view(s) == key) {
        result = idx;
        break;
      }
    }
    if (result != kNpos || g.match_empty() != 0) break;
    ++step;  // triangular probing: visits every group when count is 2^k
    group = (group + step) & group_mask;
  }
  finds_.fetch_add(1, std::memory_order_relaxed);
  probe_groups_.fetch_add(groups_probed, std::memory_order_relaxed);
  std::uint64_t prev = max_probe_groups_.load(std::memory_order_relaxed);
  while (prev < groups_probed &&
         !max_probe_groups_.compare_exchange_weak(prev, groups_probed,
                                                  std::memory_order_relaxed)) {
  }
  return result;
}

void SwissMemTable::reserve_for_insert() {
  if (capacity_ == 0) {
    rehash(kMinCapacity);
    return;
  }
  // Grow (or purge tombstones in place) past 7/8 occupancy.
  if ((size_ + deleted_ + 1) * 8 <= capacity_ * 7) return;
  const bool grow = (size_ + 1) * 8 > capacity_ * 5;
  rehash(grow ? capacity_ * 2 : capacity_);
}

void SwissMemTable::rehash(std::size_t new_capacity) {
  static_assert(kMinCapacity % alignof(Slot) == 0);
  // Map the new generation before any member changes: if the kernel refuses,
  // bad_alloc leaves the table as it was.
  kv::PageMapping fresh(new_capacity * (1 + sizeof(Slot)));
  ++rehashes_;
  const std::size_t old_capacity = capacity_;
  const kv::PageMapping old_mem = std::exchange(table_mem_, std::move(fresh));
  const std::int8_t* const old_ctrl = ctrl_;
  Slot* const old_slots = slots_;

  capacity_ = new_capacity;
  ctrl_ = reinterpret_cast<std::int8_t*>(table_mem_.data());
  slots_ = reinterpret_cast<Slot*>(table_mem_.data() + capacity_);
  std::memset(ctrl_, static_cast<unsigned char>(kEmpty), capacity_);
  deleted_ = 0;

  if (old_capacity == 0) return;
  // The old slots die with old_mem, so each full one's lru_prev carries its
  // new index from here on: the LRU rebuild below needs no remap table.
  const std::size_t group_mask = capacity_ / kGroupWidth - 1;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (old_ctrl[i] < 0) continue;
    Slot& s = old_slots[i];
    const std::uint64_t mix = mix_hash(s.hash);
    std::size_t group = (mix >> 7) & group_mask;
    std::size_t step = 0;
    for (;;) {
      const Group g(ctrl_ + group * kGroupWidth);
      const std::uint32_t empties = g.match_empty();
      if (empties != 0) {
        const std::size_t idx = group * kGroupWidth + lowest_bit(empties);
        ctrl_[idx] = static_cast<std::int8_t>(mix & 0x7f);
        new (&slots_[idx]) Slot(s);
        s.lru_prev = static_cast<std::uint32_t>(idx);
        break;
      }
      ++step;
      group = (group + step) & group_mask;
    }
  }
  // Slots moved; rebuild the LRU chain in the same recency order by walking
  // the old chain through the new indices.
  std::uint32_t old_cursor = lru_head_;
  lru_head_ = lru_tail_ = kNil;
  std::uint32_t prev = kNil;
  while (old_cursor != kNil) {
    RNB_ENSURE(old_cursor < old_capacity && old_ctrl[old_cursor] >= 0);
    const std::uint32_t idx = old_slots[old_cursor].lru_prev;
    RNB_ENSURE(idx < capacity_);
    Slot& s = slots_[idx];
    s.lru_prev = prev;
    s.lru_next = kNil;
    if (prev == kNil)
      lru_head_ = idx;
    else
      slots_[prev].lru_next = idx;
    prev = idx;
    old_cursor = old_slots[old_cursor].lru_next;
  }
  lru_tail_ = prev;
}

void SwissMemTable::assign_payload(Slot& s, std::string_view key,
                                   std::string_view value) {
  const std::size_t bytes = key.size() + value.size();
  if (auto ref = slabs_.allocate(bytes)) {
    s.chunk = *ref;
    s.heap = false;
  } else {
    // Item exceeds the largest size class or the arena is exhausted. Serve
    // it from the heap: slab pressure must not invent evictions that the
    // reference engine would not perform.
    s.chunk = kv::SlabRef{0, new char[bytes > 0 ? bytes : 1]};
    s.heap = true;
    ++slab_fallbacks_;
  }
  std::memcpy(s.chunk.data, key.data(), key.size());
  std::memcpy(s.chunk.data + key.size(), value.data(), value.size());
  s.key_bytes = static_cast<std::uint32_t>(key.size());
  s.value_bytes = static_cast<std::uint32_t>(value.size());
}

void SwissMemTable::release_payload(Slot& s) {
  if (s.heap)
    delete[] s.chunk.data;
  else
    slabs_.deallocate(s.chunk, s.key_bytes + s.value_bytes);
  s.chunk = kv::SlabRef{};
  s.heap = false;
}

void SwissMemTable::destroy_slot(std::size_t idx) {
  release_payload(slots_[idx]);
  ctrl_[idx] = kDeleted;
  ++deleted_;
  --size_;
}

void SwissMemTable::lru_unlink(std::size_t idx) noexcept {
  Slot& s = slots_[idx];
  if (s.lru_prev != kNil)
    slots_[s.lru_prev].lru_next = s.lru_next;
  else
    lru_head_ = s.lru_next;
  if (s.lru_next != kNil)
    slots_[s.lru_next].lru_prev = s.lru_prev;
  else
    lru_tail_ = s.lru_prev;
  s.lru_prev = s.lru_next = kNil;
}

void SwissMemTable::lru_push_front(std::size_t idx) noexcept {
  Slot& s = slots_[idx];
  s.lru_prev = kNil;
  s.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = static_cast<std::uint32_t>(idx);
  lru_head_ = static_cast<std::uint32_t>(idx);
  if (lru_tail_ == kNil) lru_tail_ = static_cast<std::uint32_t>(idx);
}

void SwissMemTable::evict_until(std::size_t needed) {
  while (evictable_bytes_ + needed > byte_budget_ && lru_tail_ != kNil) {
    const std::size_t victim = lru_tail_;
    Slot& s = slots_[victim];
    RNB_ENSURE(ctrl_[victim] >= 0 && !s.pinned);
    evictable_bytes_ -= slot_cost(s);
    lru_unlink(victim);
    destroy_slot(victim);
    ++stats_.evictions;
  }
}

std::size_t SwissMemTable::insert_slot(std::uint64_t hash,
                                       std::string_view key,
                                       std::string_view value, bool pinned) {
  reserve_for_insert();
  const std::uint64_t mix = mix_hash(hash);
  const std::int8_t h2 = static_cast<std::int8_t>(mix & 0x7f);
  const std::size_t group_mask = capacity_ / kGroupWidth - 1;
  std::size_t group = (mix >> 7) & group_mask;
  std::size_t step = 0;
  std::size_t target = kNpos;
  for (;;) {
    const Group g(ctrl_ + group * kGroupWidth);
    // Reuse the first tombstone on the probe path; otherwise take the first
    // empty slot (which also terminates the search for one).
    if (target == kNpos) {
      const std::uint32_t deleted = g.match(kDeleted);
      if (deleted != 0) target = group * kGroupWidth + lowest_bit(deleted);
    }
    const std::uint32_t empties = g.match_empty();
    if (empties != 0) {
      if (target == kNpos) target = group * kGroupWidth + lowest_bit(empties);
      break;
    }
    if (target != kNpos) break;
    ++step;
    group = (group + step) & group_mask;
  }
  insert_displacement_ += step;
  if (ctrl_[target] == kDeleted) --deleted_;
  ctrl_[target] = h2;
  Slot& s = *new (&slots_[target]) Slot{};
  s.hash = hash;
  assign_payload(s, key, value);
  s.version = next_version_++;
  s.pinned = pinned;
  ++size_;
  return target;
}

bool SwissMemTable::set(std::string_view key, std::string_view value,
                        bool pinned) {
  return set_hashed(fnv1a64(key), key, value, pinned);
}

bool SwissMemTable::set_hashed(std::uint64_t hash, std::string_view key,
                               std::string_view value, bool pinned) {
  ++stats_.insertions;
  const std::size_t cost = entry_cost(key.size(), value.size());
  const std::size_t idx = find(hash, key);
  if (idx != kNpos) {
    // Overwrite in place: release old accounting first (MemTable order).
    Slot& s = slots_[idx];
    const std::size_t old_cost = slot_cost(s);
    if (s.pinned)
      pinned_bytes_ -= old_cost;
    else {
      evictable_bytes_ -= old_cost;
      lru_unlink(idx);
    }
    release_payload(s);
    assign_payload(s, key, value);
    s.version = next_version_++;
    s.pinned = pinned;
    if (pinned) {
      pinned_bytes_ += cost;
      return true;
    }
    if (cost > byte_budget_) {
      // Matches MemTable: the failed overwrite consumed a version and the
      // entry is gone.
      destroy_slot(idx);
      return false;
    }
    evict_until(cost);
    lru_push_front(idx);
    evictable_bytes_ += cost;
    return true;
  }
  if (pinned) {
    insert_slot(hash, key, value, true);
    pinned_bytes_ += cost;
    return true;
  }
  if (cost > byte_budget_) return false;
  evict_until(cost);
  const std::size_t slot = insert_slot(hash, key, value, false);
  lru_push_front(slot);
  evictable_bytes_ += cost;
  return true;
}

std::optional<ValueRef> SwissMemTable::get_view_hashed(std::uint64_t hash,
                                                       std::string_view key) {
  const std::size_t idx = find(hash, key);
  if (idx == kNpos) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  Slot& s = slots_[idx];
  if (!s.pinned && lru_head_ != static_cast<std::uint32_t>(idx)) {
    lru_unlink(idx);
    lru_push_front(idx);
  }
  return ValueRef{value_view(s), s.version};
}

SwissMemTable::FastGetOutcome SwissMemTable::fast_get_hashed(
    std::uint64_t hash, std::string_view key, ValueRef& out) const {
  const std::size_t idx = find(hash, key);
  if (idx == kNpos) return FastGetOutcome::kMiss;
  const Slot& s = slots_[idx];
  if (!s.pinned && lru_head_ != static_cast<std::uint32_t>(idx))
    return FastGetOutcome::kNeedsRecency;
  out = ValueRef{value_view(s), s.version};
  return FastGetOutcome::kHit;
}

std::optional<ValueRef> SwissMemTable::peek_view(std::string_view key) const {
  const std::size_t idx = find(fnv1a64(key), key);
  if (idx == kNpos) return std::nullopt;
  const Slot& s = slots_[idx];
  return ValueRef{value_view(s), s.version};
}

SwissMemTable::CasOutcome SwissMemTable::cas(std::string_view key,
                                             std::uint64_t expected,
                                             std::string_view value) {
  return cas_hashed(fnv1a64(key), key, expected, value);
}

SwissMemTable::CasOutcome SwissMemTable::cas_hashed(std::uint64_t hash,
                                                    std::string_view key,
                                                    std::uint64_t expected,
                                                    std::string_view value) {
  const std::size_t idx = find(hash, key);
  if (idx == kNpos) return CasOutcome::kNotFound;
  if (slots_[idx].version != expected) return CasOutcome::kExists;
  // MemTable delegates to set() and reports kStored even when the store
  // itself fails the budget check — preserved for parity.
  const bool pinned = slots_[idx].pinned;
  set_hashed(hash, key, value, pinned);
  return CasOutcome::kStored;
}

bool SwissMemTable::erase(std::string_view key) {
  return erase_hashed(fnv1a64(key), key);
}

bool SwissMemTable::erase_hashed(std::uint64_t hash, std::string_view key) {
  const std::size_t idx = find(hash, key);
  if (idx == kNpos) return false;
  Slot& s = slots_[idx];
  const std::size_t cost = slot_cost(s);
  if (s.pinned)
    pinned_bytes_ -= cost;
  else {
    evictable_bytes_ -= cost;
    lru_unlink(idx);
  }
  destroy_slot(idx);
  return true;
}

bool SwissMemTable::contains(std::string_view key) const {
  return contains_hashed(fnv1a64(key), key);
}

bool SwissMemTable::contains_hashed(std::uint64_t hash,
                                    std::string_view key) const {
  return find(hash, key) != kNpos;
}

std::uint64_t SwissMemTable::scan(std::uint64_t cursor, std::size_t max_keys,
                                  std::vector<ScanEntry>& out) const {
  RNB_REQUIRE(max_keys >= 1);
  std::uint64_t position = 0;
  std::size_t i = 0;
  while (i < capacity_ && position < cursor) {
    if (ctrl_[i] >= 0) ++position;
    ++i;
  }
  // `position` counts full slots visited, matching the skip-count contract.
  std::size_t emitted = 0;
  for (; i < capacity_ && emitted < max_keys; ++i) {
    if (ctrl_[i] < 0) continue;
    const Slot& s = slots_[i];
    out.push_back(ScanEntry{std::string(key_view(s)),
                            std::string(value_view(s)), s.version, s.pinned});
    ++position;
    ++emitted;
  }
  // Exhausted when no full slot remains past the stop point.
  for (; i < capacity_; ++i) {
    if (ctrl_[i] >= 0) return position;
  }
  return 0;
}

SwissStats SwissMemTable::swiss_stats() const noexcept {
  SwissStats s;
  s.finds = finds_.load(std::memory_order_relaxed);
  s.probe_groups = probe_groups_.load(std::memory_order_relaxed);
  s.max_probe_groups = max_probe_groups_.load(std::memory_order_relaxed);
  s.insert_displacement = insert_displacement_;
  s.rehashes = rehashes_;
  s.tombstones = deleted_;
  s.slab_fallbacks = slab_fallbacks_;
  return s;
}

}  // namespace rnb
