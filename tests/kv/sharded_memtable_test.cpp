#include "kv/sharded_memtable.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kv/memtable.hpp"

namespace rnb::kv {
namespace {

std::string key_of(std::uint64_t i) { return "key:" + std::to_string(i); }

/// Drive an identical deterministic mixed-op sequence (with eviction
/// pressure) through both tables, checking every result — the core
/// "one shard is byte-for-byte the wrapped engine" guarantee.
TEST(ShardedMemTable, SingleShardMatchesMemTableOpForOp) {
  constexpr std::size_t kBudget = 4096;  // small: forces evictions
  MemTable plain(kBudget);
  ShardedMemTable sharded(kBudget, 1);
  ASSERT_EQ(sharded.shard_count(), 1u);
  ASSERT_EQ(sharded.byte_budget(), kBudget);

  Xoshiro256 rng(7);
  for (int op = 0; op < 5000; ++op) {
    const std::string key = key_of(rng.below(64));
    switch (rng.below(5)) {
      case 0: {  // set (occasionally pinned)
        const bool pin = rng.below(16) == 0;
        const std::string value(1 + rng.below(64), 'v');
        EXPECT_EQ(plain.set(key, value, pin), sharded.set(key, value, pin));
        break;
      }
      case 1: case 2: {  // get (recency-moving)
        const auto a = plain.get(key);
        const auto b = sharded.get(key);
        ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
        if (a) {
          EXPECT_EQ(a->value, b->value);
          EXPECT_EQ(a->version, b->version);
        }
        break;
      }
      case 3: {  // cas with a sometimes-right version
        const auto cur = plain.peek(key);
        const std::uint64_t version =
            cur && rng.below(2) == 0 ? cur->version : rng.below(100) + 1;
        EXPECT_EQ(plain.cas(key, version, "casval"),
                  sharded.cas(key, version, "casval"));
        break;
      }
      case 4: {  // erase
        EXPECT_EQ(plain.erase(key), sharded.erase(key));
        break;
      }
    }
  }

  EXPECT_EQ(plain.entries(), sharded.entries());
  const CacheStats& ps = plain.stats();
  const CacheStats ss = sharded.stats();
  EXPECT_EQ(ps.hits, ss.hits);
  EXPECT_EQ(ps.misses, ss.misses);
  EXPECT_EQ(ps.insertions, ss.insertions);
  EXPECT_EQ(ps.evictions, ss.evictions);
  // Full sweep: identical residency, values, and versions.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto a = plain.peek(key_of(i));
    const auto b = sharded.peek(key_of(i));
    ASSERT_EQ(a.has_value(), b.has_value()) << key_of(i);
    if (a) {
      EXPECT_EQ(a->value, b->value);
      EXPECT_EQ(a->version, b->version);
    }
  }
}

TEST(ShardedMemTable, ShardIndexIsDeterministicAndInRange) {
  const ShardedMemTable a(1 << 20, 8);
  const ShardedMemTable b(1 << 20, 8);
  ASSERT_EQ(a.shard_count(), 8u);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = key_of(i);
    EXPECT_LT(a.shard_index(key), 8u);
    EXPECT_EQ(a.shard_index(key), b.shard_index(key));
  }
}

TEST(ShardedMemTable, ShardCountResolvesToPowerOfTwo) {
  EXPECT_EQ(ShardedMemTable(1 << 20, 3).shard_count(), 4u);
  EXPECT_EQ(ShardedMemTable(1 << 20, 5).shard_count(), 8u);
  EXPECT_EQ(ShardedMemTable(1 << 20, 16).shard_count(), 16u);
  EXPECT_GE(ShardedMemTable(1 << 20, 0).shard_count(), 1u);
}

/// multi_get must return exactly what per-key get() calls would, leave the
/// same LRU state behind, and keep request key order in the output.
TEST(ShardedMemTable, MultiGetMatchesSequentialGets) {
  ShardedMemTable batched(1 << 16, 8);
  ShardedMemTable sequential(1 << 16, 8);
  for (std::uint64_t i = 0; i < 100; ++i) {
    batched.set(key_of(i), "v" + std::to_string(i));
    sequential.set(key_of(i), "v" + std::to_string(i));
  }

  Xoshiro256 rng(11);
  MultiGetArena results;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> keys;
    const std::size_t n = 1 + rng.below(16);
    for (std::size_t i = 0; i < n; ++i)
      keys.push_back(key_of(rng.below(128)));  // some misses
    batched.multi_get(keys, results);
    ASSERT_EQ(results.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto expect = sequential.get(keys[i]);
      ASSERT_EQ(results.found(i), expect.has_value())
          << "round " << round << " key " << keys[i];
      if (expect) {
        EXPECT_EQ(results.value(i), expect->value);
        EXPECT_EQ(results.version(i), expect->version);
      }
    }
  }
  // Same aggregate stats and LRU state afterwards: evict the same keys.
  const CacheStats bs = batched.stats();
  const CacheStats qs = sequential.stats();
  EXPECT_EQ(bs.hits, qs.hits);
  EXPECT_EQ(bs.misses, qs.misses);
}

TEST(ShardedMemTable, ConcurrentGetSetCasStress) {
  ShardedMemTable table(1 << 20, 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr std::uint64_t kKeys = 128;
  for (std::uint64_t i = 0; i < kKeys; ++i) table.set(key_of(i), "init");

  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (int op = 0; op < kOps; ++op) {
        const std::string key = key_of(rng.below(kKeys));
        switch (rng.below(4)) {
          case 0:
            table.set(key, "t" + std::to_string(t));
            break;
          case 1: {
            if (const auto r = table.get(key)) {
              hits.fetch_add(1);
              // Values are always one someone wrote.
              EXPECT_TRUE(r->value == "init" || r->value[0] == 't' ||
                          r->value == "casval");
            }
            break;
          }
          case 2: {
            if (const auto cur = table.peek(key))
              table.cas(key, cur->version, "casval");
            break;
          }
          case 3: {
            std::vector<std::string> keys;
            for (int i = 0; i < 8; ++i) keys.push_back(key_of(rng.below(kKeys)));
            MultiGetArena results;
            table.multi_get(keys, results);
            EXPECT_EQ(results.size(), keys.size());
            for (std::size_t i = 0; i < keys.size(); ++i) {
              if (!results.found(i)) continue;
              const std::string_view v = results.value(i);
              EXPECT_TRUE(v == "init" || v[0] == 't' || v == "casval") << v;
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(table.entries(), kKeys);
  // Locks were exercised on both paths.
  const obs::ContentionSnapshot locks = table.lock_counters();
  EXPECT_GT(locks.shared_acquisitions, 0u);
  EXPECT_GT(locks.exclusive_acquisitions, 0u);
}

/// Writers flood evictable keys to force continuous eviction while readers
/// hammer pinned keys: the pinned (distinguished) copies must never be
/// evicted or corrupted — the paper's "will never suffer a miss" class.
TEST(ShardedMemTable, EvictionUnderPressureNeverTouchesPinnedCopies) {
  // Tiny per-shard budgets so every writer set() evicts.
  ShardedMemTable table(4 * 512, 4);
  constexpr std::uint64_t kPinned = 32;
  for (std::uint64_t i = 0; i < kPinned; ++i)
    ASSERT_TRUE(table.set("pin:" + std::to_string(i), "P", /*pinned=*/true));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(50 + t);
      const std::string value(64, 'w');
      while (!stop.load()) table.set(key_of(rng.below(512)), value);
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 500; ++round) {
        for (std::uint64_t i = 0; i < kPinned; ++i) {
          const auto r = table.get("pin:" + std::to_string(i));
          ASSERT_TRUE(r.has_value()) << "pinned key evicted";
          EXPECT_EQ(r->value, "P");
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  for (std::uint64_t i = 0; i < kPinned; ++i)
    EXPECT_TRUE(table.contains("pin:" + std::to_string(i)));
}

TEST(ShardedMemTable, StatsAggregateFastAndSlowReadPaths) {
  ShardedMemTable table(1 << 20, 4);
  table.set("a", "1");
  table.set("b", "2");
  // Hit twice (the second "a" get is a fast-path MRU hit), miss once.
  EXPECT_TRUE(table.get("a"));
  EXPECT_TRUE(table.get("a"));
  EXPECT_FALSE(table.get("nope"));
  const CacheStats stats = table.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

}  // namespace
}  // namespace rnb::kv
