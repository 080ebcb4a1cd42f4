// The batched-lock multi-get path: per-shard sub-batches take each shard's
// lock at most twice (shared, then exclusive for the recency remainder),
// copying each hit into the caller's MultiGetArena under the lock.
// Deterministic checks pin the LRU-equivalence contract — a batch leaves
// the table exactly as the sequential per-key loop would — and the
// multithreaded stress doubles as the TSan race detector for the
// shared-to-exclusive escalation under concurrent writers, and for the
// view reads: a value copied outside its shard lock would tear.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kv/sharded_memtable.hpp"

namespace rnb::kv {
namespace {

template <typename Table>
std::vector<ScanEntry> full_state(const Table& table) {
  std::vector<ScanEntry> out;
  std::uint64_t cursor = 0;
  do {
    cursor = table.scan(cursor, 64, out);
  } while (cursor != 0);
  std::sort(out.begin(), out.end(),
            [](const ScanEntry& a, const ScanEntry& b) { return a.key < b.key; });
  return out;
}

/// multi_get(batch) must leave table, stats, and LRU state exactly where a
/// sequential get() loop would — verified by driving twin tables through
/// the same history and then forcing evictions to expose any LRU skew.
template <typename Table>
void check_batch_equals_sequential() {
  // ~40 entries' budget per 2 shards: the flood at the end evicts, so any
  // LRU divergence shows up as a different surviving key set.
  Table batched(2 * 40 * 160, /*num_shards=*/2);
  Table sequential(2 * 40 * 160, /*num_shards=*/2);
  std::vector<std::string> keys;
  for (int i = 0; i < 60; ++i) keys.push_back("key" + std::to_string(i));
  for (const std::string& k : keys) {
    batched.set(k, "v-" + k);
    sequential.set(k, "v-" + k);
  }
  // Batches mixing MRU keys (fast path), colder keys (escalation), and
  // misses — including duplicates inside one batch.
  const std::vector<std::vector<std::string>> batches = {
      {"key59", "key0", "key10", "ghost"},
      {"key10", "key10", "key59", "key3"},
      {"key1", "key2", "key3", "key4", "key5", "key58"},
      {"ghost", "ghost2"},
      {"key0"},
  };
  MultiGetArena got;
  for (const auto& batch : batches) {
    batched.multi_get(batch, got);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto expect = sequential.get(batch[i]);
      ASSERT_EQ(got.found(i), expect.has_value()) << batch[i];
      if (expect.has_value()) {
        EXPECT_EQ(got.value(i), expect->value);
        EXPECT_EQ(got.version(i), expect->version);
      }
    }
  }
  const CacheStats sb = batched.stats();
  const CacheStats ss = sequential.stats();
  EXPECT_EQ(sb.hits, ss.hits);
  EXPECT_EQ(sb.misses, ss.misses);
  // Flood: if the batch path left any LRU position differently, different
  // keys survive.
  for (int i = 0; i < 30; ++i) {
    batched.set("flood" + std::to_string(i), std::string(100, 'f'));
    sequential.set("flood" + std::to_string(i), std::string(100, 'f'));
  }
  const auto a = full_state(batched);
  const auto b = full_state(sequential);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].version, b[i].version);
  }
}

TEST(BatchedMultiGet, MapEngineBatchEqualsSequential) {
  check_batch_equals_sequential<ShardedMemTable>();
}

TEST(BatchedMultiGet, SwissEngineBatchEqualsSequential) {
  check_batch_equals_sequential<ShardedSwissMemTable>();
}

/// Readers hammer multi_get while writers overwrite and erase: TSan's view
/// of the shared-then-exclusive lock dance, plus a value-integrity check
/// (a returned value is always one some writer actually stored whole).
template <typename Table>
void run_stress() {
  Table table(8u << 20, /*num_shards=*/4);
  constexpr int kKeys = 128;
  const auto key_of = [](int i) { return "key" + std::to_string(i); };
  for (int i = 0; i < kKeys; ++i) table.set(key_of(i), key_of(i) + "-v0");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 1; !stop.load(std::memory_order_relaxed); ++round) {
        for (int i = w; i < kKeys; i += 2) {
          if (round % 7 == 0) {
            table.erase(key_of(i));
          } else {
            table.set(key_of(i),
                      key_of(i) + "-v" + std::to_string(round % 10));
          }
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::string> batch;
      MultiGetArena out;
      for (int round = 0; round < 400; ++round) {
        batch.clear();
        for (int i = 0; i < 16; ++i)
          batch.push_back(key_of((r * 31 + round * 17 + i * 5) % kKeys));
        table.multi_get(batch, out);
        ASSERT_EQ(out.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (!out.found(i)) continue;  // racing erase: fine
          // Torn values would betray a read outside the shard lock.
          EXPECT_TRUE(out.value(i).starts_with(batch[i] + "-v"))
              << batch[i] << " -> " << out.value(i);
        }
        reads.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_GT(reads.load(), 0u);
}

TEST(BatchedMultiGet, MapEngineConcurrentStress) {
  run_stress<ShardedMemTable>();
}

TEST(BatchedMultiGet, SwissEngineConcurrentStress) {
  run_stress<ShardedSwissMemTable>();
}

}  // namespace
}  // namespace rnb::kv
