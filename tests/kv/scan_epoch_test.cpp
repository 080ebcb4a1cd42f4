// The migration-facing verbs: `scan` (cursor paging with pinned flags)
// and `epoch` (install/query), plus the WRONG_EPOCH staleness gate.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "kv/kv_server.hpp"
#include "kv/protocol.hpp"

namespace rnb::kv {
namespace {

constexpr std::size_t kBudget = 4u << 20;

template <typename Server>
void store(Server& server, const std::string& key, const std::string& value,
           bool pin) {
  std::string request, response;
  encode_set(key, value, pin, request);
  if constexpr (requires { server.handle(request, response); })
    server.handle(request, response);
  else
    server.handle(request, response, nullptr);
  ASSERT_EQ(parse_simple(response), "STORED");
}

TEST(ScanVerb, PagesThroughEveryEntryExactlyOnceWithPinnedFlags) {
  KvServer server(kBudget);
  std::map<std::string, bool> expected;
  for (int i = 0; i < 37; ++i) {
    const std::string key = "k" + std::to_string(i);
    const bool pin = i % 3 == 0;
    store(server, key, "v" + std::to_string(i), pin);
    expected[key] = pin;
  }

  std::map<std::string, bool> seen;
  std::string request, response;
  std::uint64_t cursor = 0;
  int pages = 0;
  do {
    request.clear();
    encode_scan(cursor, 10, request);
    server.handle(request, response);
    const auto page = parse_scan_page(response);
    ASSERT_TRUE(page.has_value()) << response;
    ASSERT_LE(page->entries.size(), 10u);
    for (const Value& v : page->entries) {
      ASSERT_FALSE(seen.contains(v.key)) << v.key << " emitted twice";
      seen[v.key] = (v.flags & kValueFlagPinned) != 0;
    }
    cursor = page->next_cursor;
    ++pages;
  } while (cursor != 0);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(pages, 4);  // 37 entries in pages of 10
  EXPECT_EQ(server.counters().scans, 4u);
}

TEST(ScanVerb, ShardedEngineScansAcrossAllShards) {
  ShardedMapKvServer server(kBudget, 8);
  std::map<std::string, bool> expected;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "shard:" + std::to_string(i);
    store(server, key, "v", i % 2 == 0);
    expected[key] = i % 2 == 0;
  }
  std::map<std::string, bool> seen;
  std::string request, response;
  std::uint64_t cursor = 0;
  do {
    request.clear();
    encode_scan(cursor, 7, request);
    server.handle(request, response, nullptr);
    const auto page = parse_scan_page(response);
    ASSERT_TRUE(page.has_value()) << response;
    for (const Value& v : page->entries) {
      ASSERT_FALSE(seen.contains(v.key)) << v.key << " emitted twice";
      seen[v.key] = (v.flags & kValueFlagPinned) != 0;
    }
    cursor = page->next_cursor;
  } while (cursor != 0);
  EXPECT_EQ(seen, expected);
}

TEST(ScanVerb, EmptyTableAnswersExhaustedPage) {
  KvServer server(kBudget);
  std::string request, response;
  encode_scan(0, 64, request);
  server.handle(request, response);
  const auto page = parse_scan_page(response);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->next_cursor, 0u);
  EXPECT_TRUE(page->entries.empty());
}

TEST(ScanVerb, ZeroMaxKeysIsAParseError) {
  EXPECT_FALSE(parse_command("scan 0 0\r\n", nullptr).has_value());
  KvServer server(kBudget);
  std::string response;
  server.handle("scan 0 0\r\n", response);
  EXPECT_EQ(response.rfind("CLIENT_ERROR", 0), 0u) << response;
}

TEST(EpochVerb, InstallAndQueryRoundtrip) {
  KvServer server(kBudget);
  std::string request, response;
  encode_epoch(0, request);  // query form
  server.handle(request, response);
  EXPECT_EQ(response, "EPOCH 0\r\n");

  request.clear();
  encode_epoch(7, request);
  server.handle(request, response);
  EXPECT_EQ(parse_simple(response), "OK");
  EXPECT_EQ(server.epoch(), 7u);

  request.clear();
  encode_epoch(0, request);
  server.handle(request, response);
  EXPECT_EQ(response, "EPOCH 7\r\n");
}

TEST(EpochGate, StaleTagsBounceNewerAndUntaggedPass) {
  KvServer server(kBudget);
  server.set_epoch(3);
  store(server, "key", "value", true);

  std::string request, response;
  // Stale tag: bounced with the server's epoch as the moved hint.
  encode_get({"key"}, false, request);
  append_epoch_tag(request, 2);
  server.handle(request, response);
  ASSERT_EQ(parse_wrong_epoch(response), 3u);

  // A *newer* tag serves: the client heard a committed ring this server
  // hasn't been bumped to yet — its plan is the fresher one, and bouncing
  // it would black-hole traffic between publish and the epoch sweep.
  request.clear();
  encode_get({"key"}, false, request);
  append_epoch_tag(request, 4);
  server.handle(request, response);
  auto values = parse_values(response, false);
  ASSERT_TRUE(values.has_value()) << response;
  ASSERT_EQ(values->size(), 1u);

  // Matching tag serves.
  request.clear();
  encode_get({"key"}, false, request);
  append_epoch_tag(request, 3);
  server.handle(request, response);
  values = parse_values(response, false);
  ASSERT_TRUE(values.has_value()) << response;
  ASSERT_EQ(values->size(), 1u);

  // Untagged frames (migration traffic) always pass the gate.
  request.clear();
  encode_get({"key"}, false, request);
  server.handle(request, response);
  values = parse_values(response, false);
  ASSERT_TRUE(values.has_value()) << response;
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ(server.counters().wrong_epoch, 1u);
}

TEST(EpochGate, UnconfiguredServerAcceptsAnyTag) {
  // Until a server hears its first epoch it cannot judge staleness: a
  // freshly booted member serves tagged traffic instead of bouncing it.
  KvServer server(kBudget);
  store(server, "key", "value", false);
  std::string request, response;
  encode_get({"key"}, false, request);
  append_epoch_tag(request, 9);
  server.handle(request, response);
  const auto values = parse_values(response, false);
  ASSERT_TRUE(values.has_value()) << response;
  EXPECT_EQ(values->size(), 1u);
}

TEST(EpochGate, EpochCommandIsNeverBounced) {
  // The bump itself must pass the gate, whatever epoch it carries —
  // otherwise no stale server could ever be advanced.
  KvServer server(kBudget);
  server.set_epoch(3);
  std::string request, response;
  encode_epoch(5, request);
  append_epoch_tag(request, 1);  // hopelessly stale tag on the bump
  server.handle(request, response);
  EXPECT_EQ(parse_simple(response), "OK");
  EXPECT_EQ(server.epoch(), 5u);
}

TEST(EpochGate, WritesAreGatedToo) {
  // A stale writer must not land bytes under the old placement — this is
  // what bounds the controller's catch-up pass to a single sweep.
  KvServer server(kBudget);
  server.set_epoch(2);
  std::string request, response;
  encode_set("key", "stale-write", false, request);
  append_epoch_tag(request, 1);
  server.handle(request, response);
  EXPECT_TRUE(parse_wrong_epoch(response).has_value());
  request.clear();
  encode_get({"key"}, false, request);
  server.handle(request, response);
  const auto values = parse_values(response, false);
  ASSERT_TRUE(values.has_value());
  EXPECT_TRUE(values->empty()) << "stale write must not have landed";
}

TEST(EpochGate, StatsExposeEpochSeriesOnlyWhenConfigured) {
  KvServer server(kBudget);
  std::string request, response;
  encode_stats(request);
  server.handle(request, response);
  EXPECT_EQ(response.find("rnb_kv_epoch"), std::string::npos)
      << "epoch series must not appear on a static server";
  server.set_epoch(4);
  server.handle(request, response);
  EXPECT_NE(response.find("rnb_kv_epoch 4"), std::string::npos) << response;
  EXPECT_NE(response.find("rnb_kv_wrong_epoch_total"), std::string::npos);
}

}  // namespace
}  // namespace rnb::kv
