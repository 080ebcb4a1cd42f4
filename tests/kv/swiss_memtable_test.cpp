#include "kv/swiss_memtable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace rnb {
namespace {

TEST(SwissMemTable, SetGetRoundtrip) {
  SwissMemTable t(1 << 20);
  EXPECT_TRUE(t.set("user:1", "alice"));
  const auto r = t.get("user:1");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, "alice");
  EXPECT_GT(r->version, 0u);
}

TEST(SwissMemTable, MissReturnsNullopt) {
  SwissMemTable t(1 << 20);
  EXPECT_FALSE(t.get("nope").has_value());
  EXPECT_EQ(t.stats().misses, 1u);
}

TEST(SwissMemTable, OverwriteBumpsVersionInPlace) {
  SwissMemTable t(1 << 20);
  t.set("k", "v1");
  const auto v1 = t.get("k")->version;
  t.set("k", "v2");
  const auto r = t.get("k");
  EXPECT_EQ(r->value, "v2");
  EXPECT_GT(r->version, v1);
  EXPECT_EQ(t.entries(), 1u);
}

TEST(SwissMemTable, EvictsLruWhenOverBudget) {
  SwissMemTable t(2 * (1 + 1 + 48) + 10);
  t.set("a", "1");
  t.set("b", "2");
  t.get("a");       // refresh a; b is LRU
  t.set("c", "3");  // must evict b
  EXPECT_TRUE(t.get("a").has_value());
  EXPECT_FALSE(t.peek("b").has_value());
  EXPECT_TRUE(t.get("c").has_value());
  EXPECT_EQ(t.stats().evictions, 1u);
}

TEST(SwissMemTable, PinnedEntriesNeverEvicted) {
  SwissMemTable t(60);
  t.set("pinned", "P", /*pinned=*/true);
  for (int i = 0; i < 50; ++i) t.set("k" + std::to_string(i), "v");
  EXPECT_TRUE(t.get("pinned").has_value());
  EXPECT_GT(t.pinned_bytes(), 0u);
  EXPECT_LE(t.evictable_bytes(), 60u);
}

TEST(SwissMemTable, OversizedValueRejected) {
  SwissMemTable t(64);
  const std::string big(1000, 'x');
  EXPECT_FALSE(t.set("k", big));
  EXPECT_TRUE(t.set("k", big.substr(0, 8)));
}

TEST(SwissMemTable, OversizedPinnedAccepted) {
  SwissMemTable t(16);
  EXPECT_TRUE(t.set("k", std::string(100, 'x'), /*pinned=*/true));
}

TEST(SwissMemTable, CasMatchesMemTableContract) {
  SwissMemTable t(1 << 20);
  EXPECT_EQ(t.cas("ghost", 1, "v"), SwissMemTable::CasOutcome::kNotFound);
  t.set("k", "v1");
  const auto version = t.get("k")->version;
  EXPECT_EQ(t.cas("k", version, "v2"), SwissMemTable::CasOutcome::kStored);
  EXPECT_EQ(t.get("k")->value, "v2");
  EXPECT_EQ(t.cas("k", version, "v3"), SwissMemTable::CasOutcome::kExists);
  EXPECT_EQ(t.get("k")->value, "v2");
}

TEST(SwissMemTable, CasPreservesPinnedness) {
  SwissMemTable t(64);
  t.set("k", "v1", /*pinned=*/true);
  const auto version = t.peek("k")->version;
  EXPECT_EQ(t.cas("k", version, "v2"), SwissMemTable::CasOutcome::kStored);
  for (int i = 0; i < 20; ++i) t.set("f" + std::to_string(i), "x");
  EXPECT_TRUE(t.peek("k").has_value());
}

TEST(SwissMemTable, EraseAccountsBytesAndLeavesTombstone) {
  SwissMemTable t(1 << 20);
  t.set("a", "hello");
  EXPECT_GT(t.evictable_bytes(), 0u);
  EXPECT_TRUE(t.erase("a"));
  EXPECT_EQ(t.evictable_bytes(), 0u);
  EXPECT_FALSE(t.erase("a"));
  EXPECT_EQ(t.swiss_stats().tombstones, 1u);
}

TEST(SwissMemTable, PeekDoesNotTouchRecency) {
  SwissMemTable t(2 * (1 + 1 + 48) + 10);
  t.set("a", "1");
  t.set("b", "2");
  t.peek("a");      // must NOT refresh a
  t.set("c", "3");  // evicts a (still LRU)
  EXPECT_FALSE(t.peek("a").has_value());
}

TEST(SwissMemTable, FastGetOutcomes) {
  SwissMemTable t(1 << 20);
  ValueRef out;
  EXPECT_EQ(t.fast_get("ghost", out), SwissMemTable::FastGetOutcome::kMiss);
  t.set("a", "1");
  t.set("b", "2");
  // b is at the LRU head (MRU): a lock-free hit. a needs a recency move.
  EXPECT_EQ(t.fast_get("b", out), SwissMemTable::FastGetOutcome::kHit);
  EXPECT_EQ(out.value, "2");
  EXPECT_EQ(t.fast_get("a", out),
            SwissMemTable::FastGetOutcome::kNeedsRecency);
  // Pinned entries never need recency.
  t.set("p", "P", /*pinned=*/true);
  t.set("mru", "m");
  EXPECT_EQ(t.fast_get("p", out), SwissMemTable::FastGetOutcome::kHit);
  // fast_get touches no stats — the sharded wrapper accounts instead.
  EXPECT_EQ(t.stats().hits, 0u);
  EXPECT_EQ(t.stats().misses, 0u);
}

TEST(SwissMemTable, GrowsThroughRehashKeepingEverything) {
  SwissMemTable t(16u << 20);
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i)
    ASSERT_TRUE(t.set("key" + std::to_string(i), "value" + std::to_string(i)));
  EXPECT_EQ(t.entries(), static_cast<std::size_t>(kKeys));
  EXPECT_GE(t.swiss_stats().rehashes, 1u);
  EXPECT_GE(t.capacity(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto r = t.peek("key" + std::to_string(i));
    ASSERT_TRUE(r.has_value()) << "key" << i;
    EXPECT_EQ(r->value, "value" + std::to_string(i));
  }
}

TEST(SwissMemTable, LruOrderSurvivesRehash) {
  // A budget sized for ~150 entries while 200+ are inserted: insertion
  // forces growth rehashes (which rebuild the intrusive LRU chain) while
  // eviction is continuously consuming the chain's tail. Replaying the
  // identical op sequence into a MemTable must leave the identical
  // surviving key set — the rehash relink preserved recency order.
  const std::size_t budget = 150 * (100 + 4 + 48);
  SwissMemTable swiss(budget);
  MemTable ref(budget);
  const auto apply = [&](auto&& fn) {
    for (int i = 0; i < 220; ++i) fn("k" + std::to_string(i));
    for (int i = 100; i < 220; i += 3) fn("k" + std::to_string(i));
  };
  apply([&](const std::string& k) {
    swiss.set(k, std::string(100, 'v'));
    ref.set(k, std::string(100, 'v'));
  });
  EXPECT_GE(swiss.swiss_stats().rehashes, 1u);
  EXPECT_GT(ref.stats().evictions, 0u);
  EXPECT_EQ(swiss.stats().evictions, ref.stats().evictions);
  for (int i = 0; i < 220; ++i) {
    const std::string k = "k" + std::to_string(i);
    EXPECT_EQ(swiss.contains(k), ref.contains(k)) << k;
  }
}

TEST(SwissMemTable, EraseHeavyWorkloadPurgesTombstones) {
  SwissMemTable t(16u << 20);
  // Insert/erase cycles at a fixed live size: tombstones accumulate until
  // a same-size purge rehash clears them, so capacity must stay bounded.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i)
      t.set("r" + std::to_string(round) + "k" + std::to_string(i), "v");
    for (int i = 0; i < 100; ++i)
      t.erase("r" + std::to_string(round) + "k" + std::to_string(i));
  }
  EXPECT_EQ(t.entries(), 0u);
  EXPECT_GE(t.swiss_stats().rehashes, 1u);
  EXPECT_LT(t.capacity(), 8192u);  // purged, not grown without bound
}

TEST(SwissMemTable, ScanVisitsEveryEntryOnce) {
  SwissMemTable t(1 << 20);
  for (int i = 0; i < 100; ++i)
    t.set("k" + std::to_string(i), "v" + std::to_string(i), i % 2 == 0);
  std::vector<ScanEntry> page;
  std::uint64_t cursor = 0;
  std::vector<std::string> seen;
  do {
    page.clear();
    cursor = t.scan(cursor, 7, page);
    for (const ScanEntry& e : page) seen.push_back(e.key);
  } while (cursor != 0);
  EXPECT_EQ(seen.size(), 100u);
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(SwissMemTable, ProbeCountersAdvance) {
  SwissMemTable t(1 << 20);
  for (int i = 0; i < 64; ++i) t.set("k" + std::to_string(i), "v");
  for (int i = 0; i < 64; ++i) t.get("k" + std::to_string(i));
  const SwissStats s = t.swiss_stats();
  EXPECT_GT(s.finds, 0u);
  EXPECT_GE(s.probe_groups, s.finds);  // every find probes >= 1 group
  EXPECT_GE(s.max_probe_groups, 1u);
}

TEST(SwissMemTable, HeapFallbackWhenSlabExhausted) {
  // A one-page arena with 1 KiB pages can hold almost nothing; payloads
  // must fall back to the heap and still be fully readable — slab pressure
  // never invents evictions.
  kv::SlabConfig slab;
  slab.total_bytes = 1024;
  slab.page_bytes = 1024;
  SwissMemTable t(1 << 20, slab);
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(t.set("key" + std::to_string(i), std::string(200, 'x')));
  EXPECT_EQ(t.entries(), 50u);
  EXPECT_GT(t.swiss_stats().slab_fallbacks, 0u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(t.peek("key" + std::to_string(i))->value, std::string(200, 'x'));
  EXPECT_EQ(t.stats().evictions, 0u);
}

TEST(SwissMemTable, HashedVariantsMatchUnhashed) {
  SwissMemTable a(1 << 20);
  SwissMemTable b(1 << 20);
  const std::string key = "shared-key";
  const std::uint64_t h = fnv1a64(key);
  EXPECT_EQ(a.set(key, "v1"), b.set_hashed(h, key, "v1"));
  EXPECT_EQ(a.get(key)->value, b.get_view_hashed(h, key)->value);
  EXPECT_EQ(a.contains(key), b.contains_hashed(h, key));
  const auto version = a.peek(key)->version;
  EXPECT_EQ(a.cas(key, version, "v2"), b.cas_hashed(h, key, version, "v2"));
  EXPECT_EQ(a.erase(key), b.erase_hashed(h, key));
  EXPECT_EQ(a.entries(), b.entries());
}

}  // namespace
}  // namespace rnb
