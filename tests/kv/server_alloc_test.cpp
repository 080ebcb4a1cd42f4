// Allocations on the server's read path and the swiss engine's bulk
// memory, under the counting operator new (support/alloc_counter.hpp).
//
// A warm get makes one allocation: the key list parse_command reserves.
// Hits are copied out of the engine into the handling thread's reusable
// arena, and from there into the caller's response buffer. The engine's
// bulk memory (slab pages, control bytes and slots) is mapped, not
// allocated, so a load sends only bookkeeping through operator new.
//
// Measured before the mapped engine memory and the copy-once get path: a
// warm 64-key get made 73 allocations (7 as the key list grew, one each
// for the result and value lists, one per hit for its value's copy), and
// the 100k-entry load requested 32.5 MB through operator new, three times
// the entries' own 11 MB: every slab page and slot array.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "kv/kv_server.hpp"
#include "kv/protocol.hpp"
#include "kv/sharded_memtable.hpp"
#include "support/alloc_counter.hpp"

namespace rnb::kv {
namespace {

TEST(ServerAllocations, WarmSixtyFourKeyGetAllocatesOnlyItsKeyList) {
  ShardedKvServer server(std::size_t{16} << 20, /*num_shards=*/4);
  std::vector<std::string> keys;
  std::string frame, response;
  for (int k = 0; k < 64; ++k) {
    keys.push_back("alloc:" + std::to_string(k));
    frame.clear();
    encode_set(keys.back(), std::string(100, 'v'), /*pin=*/k % 4 == 0,
               frame);
    server.handle(frame, response);
  }
  for (const bool with_versions : {false, true}) {
    frame.clear();
    encode_get(keys, with_versions, frame);
    server.handle(frame, response);  // warm the arena and response buffer
    std::uint64_t allocations = 0;
    {
      const testing::AllocationCounter counter;
      server.handle(frame, response);
      allocations = counter.allocations();
    }
    const auto values = parse_values(response, with_versions);
    ASSERT_TRUE(values.has_value()) << response;
    EXPECT_EQ(values->size(), keys.size());
    EXPECT_LE(allocations, 1u) << (with_versions ? "gets" : "get");
  }
}

TEST(EngineMemory, SwissLoadKeepsBulkMemoryOutOfTheHeap) {
  constexpr std::size_t kEntries = 100'000;
  constexpr std::size_t kKeyBytes = 10;
  constexpr std::size_t kValueBytes = 100;
  ShardedSwissMemTable table(std::size_t{64} << 20, /*num_shards=*/4);
  const std::string value(kValueBytes, 'v');
  char key[kKeyBytes + 1];
  std::uint64_t requested = 0;
  {
    const testing::AllocationCounter counter;
    for (std::size_t i = 0; i < kEntries; ++i) {
      std::snprintf(key, sizeof key, "k%09zu", i);
      ASSERT_TRUE(table.set(std::string_view(key, kKeyBytes), value));
    }
    requested = counter.bytes();
  }
  EXPECT_EQ(table.entries(), kEntries);
  EXPECT_LT(requested, kEntries * (kKeyBytes + kValueBytes) / 4)
      << "bytes requested through operator new while loading";
}

}  // namespace
}  // namespace rnb::kv
