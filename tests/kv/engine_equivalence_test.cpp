// Randomized operation-sequence equivalence: SwissMemTable must be
// observably identical to MemTable — same op results, same hit/miss/
// insertion/eviction accounting, same version numbers, same byte totals,
// same surviving entry set — across budget regimes from "never evicts" to
// "evicts constantly". The swiss engine exists to change the memory layout,
// not the semantics; any divergence here is a bug by definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kv/memtable.hpp"
#include "kv/sharded_memtable.hpp"
#include "kv/swiss_memtable.hpp"

namespace rnb {
namespace {

/// Full observable state via scan (engine iteration order differs, so
/// compare as a key-sorted set).
std::vector<ScanEntry> full_state(const auto& table) {
  std::vector<ScanEntry> out;
  std::uint64_t cursor = 0;
  do {
    cursor = table.scan(cursor, 64, out);
  } while (cursor != 0);
  std::sort(out.begin(), out.end(),
            [](const ScanEntry& a, const ScanEntry& b) { return a.key < b.key; });
  return out;
}

void expect_same_state(MemTable& ref, SwissMemTable& swiss,
                       std::uint64_t op_index) {
  ASSERT_EQ(ref.entries(), swiss.entries()) << "op " << op_index;
  ASSERT_EQ(ref.evictable_bytes(), swiss.evictable_bytes())
      << "op " << op_index;
  ASSERT_EQ(ref.pinned_bytes(), swiss.pinned_bytes()) << "op " << op_index;
  ASSERT_EQ(ref.stats().hits, swiss.stats().hits) << "op " << op_index;
  ASSERT_EQ(ref.stats().misses, swiss.stats().misses) << "op " << op_index;
  ASSERT_EQ(ref.stats().insertions, swiss.stats().insertions)
      << "op " << op_index;
  ASSERT_EQ(ref.stats().evictions, swiss.stats().evictions)
      << "op " << op_index;
  const std::vector<ScanEntry> a = full_state(ref);
  const std::vector<ScanEntry> b = full_state(swiss);
  ASSERT_EQ(a.size(), b.size()) << "op " << op_index;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << "op " << op_index;
    ASSERT_EQ(a[i].value, b[i].value) << "key " << a[i].key;
    ASSERT_EQ(a[i].version, b[i].version) << "key " << a[i].key;
    ASSERT_EQ(a[i].pinned, b[i].pinned) << "key " << a[i].key;
  }
}

/// Drive both engines through the same random op sequence, asserting every
/// op's observable result matches and (periodically) the whole state.
void run_fuzz(std::size_t byte_budget, std::uint64_t seed,
              std::uint64_t ops) {
  MemTable ref(byte_budget);
  SwissMemTable swiss(byte_budget);
  Xoshiro256 rng(seed);
  constexpr std::uint64_t kKeySpace = 257;  // collisions + misses guaranteed

  const auto key_of = [](std::uint64_t id) {
    return "key-" + std::to_string(id);
  };
  const auto value_of = [&rng](std::uint64_t tag) {
    return std::string(rng() % 120, static_cast<char>('a' + tag % 26));
  };

  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::string key = key_of(rng() % kKeySpace);
    switch (rng() % 8) {
      case 0:
      case 1: {  // set, occasionally pinned
        const bool pinned = rng() % 8 == 0;
        const std::string value = value_of(op);
        ASSERT_EQ(ref.set(key, value, pinned), swiss.set(key, value, pinned))
            << "set op " << op;
        break;
      }
      case 2:
      case 3: {  // get: same presence, value, version
        const auto a = ref.get(key);
        const auto b = swiss.get(key);
        ASSERT_EQ(a.has_value(), b.has_value()) << "get op " << op;
        if (a.has_value()) {
          ASSERT_EQ(a->value, b->value) << "get op " << op;
          ASSERT_EQ(a->version, b->version) << "get op " << op;
        }
        break;
      }
      case 4: {  // fast_get; on kNeedsRecency escalate both (wrapper shape)
        ValueRef a, b;
        const auto oa = ref.fast_get(key, a);
        const auto ob = swiss.fast_get(key, b);
        ASSERT_EQ(oa, ob) << "fast_get op " << op;
        if (oa == MemTable::FastGetOutcome::kHit) {
          ASSERT_EQ(a.value, b.value) << "fast_get op " << op;
          ASSERT_EQ(a.version, b.version) << "fast_get op " << op;
        } else if (oa == MemTable::FastGetOutcome::kNeedsRecency) {
          ASSERT_EQ(ref.get(key)->version, swiss.get(key)->version);
        }
        break;
      }
      case 5: {  // cas: correct version half the time, garbage otherwise
        std::uint64_t expected = rng();
        if (rng() % 2 == 0) {
          if (const auto cur = ref.peek(key); cur.has_value()) {
            // peek on both to keep any accounting symmetric (peek touches
            // nothing, but keep the op streams identical anyway).
            expected = cur->version;
          }
          (void)swiss.peek(key);
        }
        const std::string value = value_of(op);
        ASSERT_EQ(ref.cas(key, expected, value),
                  swiss.cas(key, expected, value))
            << "cas op " << op;
        break;
      }
      case 6:  // erase
        ASSERT_EQ(ref.erase(key), swiss.erase(key)) << "erase op " << op;
        break;
      case 7:  // contains + peek
        ASSERT_EQ(ref.contains(key), swiss.contains(key)) << "op " << op;
        ASSERT_EQ(ref.peek(key).has_value(), swiss.peek(key).has_value())
            << "op " << op;
        break;
    }
    if (op % 512 == 0) expect_same_state(ref, swiss, op);
  }
  expect_same_state(ref, swiss, ops);
}

TEST(EngineEquivalence, AmpleBudgetNeverEvicts) {
  run_fuzz(/*byte_budget=*/8u << 20, /*seed=*/1, /*ops=*/20000);
}

TEST(EngineEquivalence, TightBudgetEvictsConstantly) {
  // ~30 entries' worth: every few sets evict, pinned entries accumulate
  // alongside, and the eviction order must match entry for entry.
  run_fuzz(/*byte_budget=*/30 * 160, /*seed=*/2, /*ops=*/20000);
}

TEST(EngineEquivalence, StarvationBudgetRejectsOversized) {
  // Smaller than many single values: failed unpinned sets, version-number
  // quirks on failed overwrites, and pinned bypass all exercised.
  run_fuzz(/*byte_budget=*/100, /*seed=*/3, /*ops=*/20000);
}

TEST(EngineEquivalence, SeedSweepShortRuns) {
  for (std::uint64_t seed = 10; seed < 18; ++seed)
    run_fuzz(/*byte_budget=*/40 * 160, seed, /*ops=*/4000);
}

TEST(EngineEquivalence, EngineNamesIdentifyTheStore) {
  // The observability identity every engine declares, forwarded through
  // the sharded wrapper — slow-log entries and stats labels ride on it.
  EXPECT_STREQ(MemTable::kEngineName, "map");
  EXPECT_STREQ(SwissMemTable::kEngineName, "swiss");
  EXPECT_STREQ(kv::ShardedMemTable::kEngineName, "map");
  EXPECT_STREQ(kv::ShardedSwissMemTable::kEngineName, "swiss");
}

}  // namespace
}  // namespace rnb
