#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kv/kv_server.hpp"
#include "kv/protocol.hpp"

namespace rnb::kv {
namespace {

std::string key_of(std::uint64_t i) { return "key:" + std::to_string(i); }

/// A deterministic mixed frame sequence: sets (some pinned), single- and
/// multi-key gets/gets, cas (stale and current), deletes, and malformed
/// frames — with a budget small enough to force evictions.
std::vector<std::string> frame_sequence(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::string> frames;
  for (int op = 0; op < 3000; ++op) {
    std::string frame;
    switch (rng.below(6)) {
      case 0: {
        const std::string value(1 + rng.below(48), 'v');
        encode_set(key_of(rng.below(64)), value, rng.below(16) == 0, frame);
        break;
      }
      case 1: {
        encode_get({key_of(rng.below(64))}, rng.below(2) == 0, frame);
        break;
      }
      case 2: {
        std::vector<std::string> keys;
        const std::size_t n = 2 + rng.below(10);
        for (std::size_t i = 0; i < n; ++i)
          keys.push_back(key_of(rng.below(96)));  // some misses
        encode_get(keys, rng.below(2) == 0, frame);
        break;
      }
      case 3:
        encode_cas(key_of(rng.below(64)), "casval", rng.below(200) + 1, frame);
        break;
      case 4:
        encode_delete(key_of(rng.below(64)), frame);
        break;
      case 5:
        frame = rng.below(2) == 0 ? "bogus verb here\r\n" : "get\r\n";
        break;
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

/// The determinism guarantee: a single-shard sharded server answers every
/// frame byte-for-byte identically to the plain (pre-sharding) server.
TEST(ShardedKvServer, SingleShardResponsesByteIdenticalToKvServer) {
  constexpr std::size_t kBudget = 8192;  // forces evictions
  KvServer plain(kBudget);
  ShardedMapKvServer sharded(kBudget, 1);
  std::string a;
  std::string b;
  const std::vector<std::string> frames = frame_sequence(21);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    plain.handle(frames[i], a);
    sharded.handle(frames[i], b);
    ASSERT_EQ(a, b) << "frame " << i << ": " << frames[i];
  }
  const ServerCounters pc = plain.counters();
  const ServerCounters sc = sharded.counters();
  EXPECT_EQ(pc.transactions, sc.transactions);
  EXPECT_EQ(pc.keys_requested, sc.keys_requested);
  EXPECT_EQ(pc.keys_returned, sc.keys_returned);
  EXPECT_EQ(pc.protocol_errors, sc.protocol_errors);
}

/// Multi-shard responses must still preserve request key order (the batched
/// path resolves shard-by-shard but reports positionally).
TEST(ShardedKvServer, MultiShardMultiGetKeepsRequestKeyOrder) {
  ShardedMapKvServer server(1 << 20, 8);
  std::string response;
  for (std::uint64_t i = 0; i < 32; ++i) {
    std::string frame;
    encode_set(key_of(i), "v" + std::to_string(i), false, frame);
    server.handle(frame, response);
  }
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 32; ++i) keys.push_back(key_of(31 - i));
  std::string frame;
  encode_get(keys, false, frame);
  server.handle(frame, response);
  // VALUE lines appear in request order: key:31, key:30, ...
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::string marker = "VALUE " + key_of(31 - i) + " ";
    const std::size_t found = response.find(marker, pos);
    ASSERT_NE(found, std::string::npos) << marker;
    pos = found + marker.size();
  }
}

TEST(ShardedKvServer, ConcurrentHandleAccountsEveryTransaction) {
  ShardedMapKvServer server(1 << 20, 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 1500;
  {
    std::string response;
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::string frame;
      encode_set(key_of(i), "seed", false, frame);
      server.handle(frame, response);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(300 + t);
      std::string frame;
      std::string response;
      for (int op = 0; op < kOps; ++op) {
        frame.clear();
        if (rng.below(4) == 0) {
          encode_set(key_of(rng.below(64)), "w" + std::to_string(t), false,
                     frame);
        } else {
          std::vector<std::string> keys;
          for (int i = 0; i < 5; ++i) keys.push_back(key_of(rng.below(64)));
          encode_get(keys, false, frame);
        }
        server.handle(frame, response);
        EXPECT_FALSE(response.empty());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.counters().transactions,
            64u + static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(ShardedKvServer, StatsExposesPerShardSeries) {
  ShardedMapKvServer server(1 << 20, 4);
  std::string response;
  std::string frame;
  encode_set("a", "1", false, frame);
  server.handle(frame, response);
  frame.clear();
  encode_get({"a"}, false, frame);
  server.handle(frame, response);
  frame.clear();
  encode_stats(frame);
  server.handle(frame, response);
  EXPECT_NE(response.find("rnb_kv_shards"), std::string::npos);
  EXPECT_NE(response.find("rnb_kv_shard_lock_acquisitions_total"),
            std::string::npos);
  EXPECT_NE(response.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(response.find("shard=\"3\""), std::string::npos);
  EXPECT_NE(response.find("rnb_kv_shard_entries"), std::string::npos);
}

TEST(ShardedKvServer, PlainServerStatsHasNoShardSeries) {
  KvServer server(1 << 20);
  std::string frame;
  std::string response;
  encode_stats(frame);
  server.handle(frame, response);
  EXPECT_EQ(response.find("rnb_kv_shard"), std::string::npos);
  EXPECT_NE(response.find("rnb_kv_transactions_total"), std::string::npos);
}

}  // namespace
}  // namespace rnb::kv
