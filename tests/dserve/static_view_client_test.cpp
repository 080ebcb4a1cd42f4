// KvClusterClient over a static ClusterView and a fixed in-process fleet:
// the deployable client of the paper's Section IV end to end — replicated
// writes, bundled reads, fallback and write-back, the LIMIT forms,
// hitchhiking and atomic updates. The suite keeps its historical name,
// RnbKvClient, so the test ids stay stable.
#include <gtest/gtest.h>

#include <set>

#include "dserve/cluster_client.hpp"
#include "kv/transport.hpp"

namespace rnb::dserve {
namespace {

using Outcome = KvClusterClient::UpdateOutcome;

struct Fixture {
  kv::LoopbackTransport transport{8, 1 << 22};
  ClusterView view{8, {.replication = 3}};
  KvClusterClient client{transport, view, {}};
};

KvClusterClientConfig with_hitchhiking(bool on) {
  KvClusterClientConfig config;
  config.hitchhiking = on;
  return config;
}

std::vector<std::string> keys_0_to(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) keys.push_back("key:" + std::to_string(i));
  return keys;
}

TEST(RnbKvClient, SetStoresOnAllReplicas) {
  Fixture f;
  EXPECT_EQ(f.client.set("k", "v"), 3u);
  const auto servers = f.view.replicas("k");
  ASSERT_EQ(servers.size(), 3u);
  for (const ServerId s : servers)
    EXPECT_TRUE(f.transport.server(s).table().contains("k"));
  // And nowhere else.
  const std::set<ServerId> holders(servers.begin(), servers.end());
  for (ServerId s = 0; s < 8; ++s) {
    if (!holders.contains(s)) {
      EXPECT_FALSE(f.transport.server(s).table().contains("k"));
    }
  }
}

TEST(RnbKvClient, DistinguishedCopyIsPinned) {
  Fixture f;
  f.client.set("k", "v");
  const auto servers = f.view.replicas("k");
  const auto home = f.transport.server(servers[0]).table().peek("k");
  ASSERT_TRUE(home.has_value());
  // Pinned entries live in the pinned byte class.
  EXPECT_GT(f.transport.server(servers[0]).table().pinned_bytes(), 0u);
}

TEST(RnbKvClient, GetReadsDistinguishedCopy) {
  Fixture f;
  f.client.set("k", "value");
  const auto v = f.client.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "value");
  EXPECT_FALSE(f.client.get("missing").has_value());
}

TEST(RnbKvClient, MultiGetReturnsEverything) {
  Fixture f;
  const auto keys = keys_0_to(50);
  for (const auto& k : keys) f.client.set(k, "v/" + k);
  const auto result = f.client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty());
  ASSERT_EQ(result.values.size(), 50u);
  for (const auto& k : keys) EXPECT_EQ(result.values.at(k), "v/" + k);
}

TEST(RnbKvClient, MultiGetBundlesBelowNaiveTransactionCount) {
  Fixture f;
  const auto keys = keys_0_to(60);
  for (const auto& k : keys) f.client.set(k, "x");
  const auto result = f.client.multi_get(keys);
  // Naive consistent hashing on 8 servers with 60 keys touches ~8 servers;
  // bundling over 3 replicas must beat that meaningfully... it can touch at
  // most 8 too, so compare against the replication-1 client.
  ClusterView one_copy(8, {.replication = 1});
  KvClusterClient naive(f.transport, one_copy, {});
  // Re-store under replication 1 so placement matches that client's view.
  for (const auto& k : keys) naive.set(k, "x");
  const auto naive_result = naive.multi_get(keys);
  EXPECT_LE(result.transactions(), naive_result.transactions());
}

TEST(RnbKvClient, MultiGetDeduplicatesKeys) {
  Fixture f;
  f.client.set("a", "1");
  const std::vector<std::string> dup = {"a", "a", "a"};
  const auto result = f.client.multi_get(dup);
  EXPECT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.round1_transactions, 1u);
}

TEST(RnbKvClient, MultiGetReportsTrulyMissingKeys) {
  Fixture f;
  f.client.set("exists", "v");
  const std::vector<std::string> keys = {"exists", "ghost"};
  const auto result = f.client.multi_get(keys);
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "ghost");
  EXPECT_EQ(result.values.count("exists"), 1u);
}

TEST(RnbKvClient, FallbackRecoversEvictedReplicas) {
  // Tiny per-server budget: replica copies evict, distinguished stay pinned.
  kv::LoopbackTransport transport(8, 600);
  ClusterView view(8, {.replication = 3});
  KvClusterClient client(transport, view, {});
  const auto keys = keys_0_to(40);
  for (const auto& k : keys) client.set(k, "payload-payload");
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty()) << "pinned copies guarantee recovery";
  EXPECT_EQ(result.values.size(), 40u);
}

TEST(RnbKvClient, LimitFetchesAtLeastFraction) {
  Fixture f;
  const auto keys = keys_0_to(40);
  for (const auto& k : keys) f.client.set(k, "v");
  const auto result = f.client.multi_get_at_least(keys, 0.5);
  EXPECT_GE(result.values.size(), 20u);
  EXPECT_LE(result.transactions(), f.client.multi_get(keys).transactions());
}

TEST(RnbKvClient, RemoveDeletesAllReplicas) {
  Fixture f;
  f.client.set("k", "v");
  EXPECT_TRUE(f.client.remove("k"));
  for (ServerId s = 0; s < 8; ++s)
    EXPECT_FALSE(f.transport.server(s).table().contains("k"));
  EXPECT_FALSE(f.client.remove("k"));
}

TEST(RnbKvClient, AtomicUpdateMutatesValue) {
  Fixture f;
  f.client.set("counter", "41");
  const auto outcome = f.client.atomic_update("counter", [](std::string_view v) {
    return std::to_string(std::stoi(std::string(v)) + 1);
  });
  EXPECT_EQ(outcome, Outcome::kUpdated);
  EXPECT_EQ(*f.client.get("counter"), "42");
}

TEST(RnbKvClient, AtomicUpdateDropsStaleReplicasFirst) {
  Fixture f;
  f.client.set("k", "old");
  f.client.atomic_update("k", [](std::string_view) { return "new"; });
  // Non-distinguished replicas were deleted; fresh multi_get must still see
  // the new value everywhere it looks.
  const std::vector<std::string> keys = {"k"};
  const auto result = f.client.multi_get(keys);
  EXPECT_EQ(result.values.at("k"), "new");
  // And stale copies are gone from replica servers.
  const auto servers = f.view.replicas("k");
  for (std::size_t r = 1; r < servers.size(); ++r) {
    const auto peeked = f.transport.server(servers[r]).table().peek("k");
    if (peeked.has_value()) {
      EXPECT_EQ(peeked->value, "new");
    }
  }
}

TEST(RnbKvClient, AtomicUpdateOnMissingKey) {
  Fixture f;
  EXPECT_EQ(
      f.client.atomic_update("ghost", [](std::string_view v) {
        return std::string(v);
      }),
      Outcome::kNotFound);
}

TEST(RnbKvClient, WriteBackRepopulatesReplicas) {
  kv::LoopbackTransport transport(8, 1 << 22);
  ClusterView view(8, {.replication = 3});
  KvClusterClient client(transport, view, {});
  client.set("k", "v");
  client.atomic_update("k", [](std::string_view) { return "v2"; });
  // Replicas were dropped by the update; a bundled read that lands on a
  // replica server falls back and writes the copy back.
  const std::vector<std::string> keys = {"k"};
  client.multi_get(keys);
  client.multi_get(keys);
  std::size_t copies = 0;
  for (ServerId s = 0; s < 8; ++s)
    if (transport.server(s).table().contains("k")) ++copies;
  EXPECT_GE(copies, 1u);
}


TEST(RnbKvClient, BudgetedFetchRespectsTransactionCap) {
  Fixture f;
  const auto keys = keys_0_to(60);
  for (const auto& k : keys) f.client.set(k, "v");
  for (const std::uint32_t budget : {1u, 2u, 4u}) {
    const auto result = f.client.multi_get_within(keys, budget);
    EXPECT_LE(result.round1_transactions, budget);
    EXPECT_EQ(result.round2_transactions, 0u);
    EXPECT_EQ(result.values.size() + result.missing.size(), keys.size());
    EXPECT_GT(result.values.size(), 0u);
  }
}

TEST(RnbKvClient, BudgetedFetchCoverageGrowsWithBudget) {
  Fixture f;
  const auto keys = keys_0_to(60);
  for (const auto& k : keys) f.client.set(k, "v");
  std::size_t prev = 0;
  for (const std::uint32_t budget : {1u, 2u, 4u, 8u}) {
    const std::size_t got = f.client.multi_get_within(keys, budget).values.size();
    EXPECT_GE(got, prev);
    prev = got;
  }
  EXPECT_EQ(prev, keys.size());  // 8 transactions on 8 servers cover all
}

TEST(RnbKvClient, BudgetedFetchZeroBudget) {
  Fixture f;
  f.client.set("a", "1");
  const std::vector<std::string> keys = {"a"};
  const auto result = f.client.multi_get_within(keys, 0);
  EXPECT_TRUE(result.values.empty());
  ASSERT_EQ(result.missing.size(), 1u);
}


TEST(RnbKvClient, HitchhikingRescuesEvictedReplicas) {
  // Tight budget: replica copies evict constantly. With hitchhiking, keys
  // whose assigned replica missed can still arrive via another bundled
  // transaction, shrinking round 2.
  kv::LoopbackTransport transport(8, 900);
  ClusterView view(8, {.replication = 3});
  KvClusterClient with(transport, view, with_hitchhiking(true));
  KvClusterClient without(transport, view, with_hitchhiking(false));
  const auto keys = keys_0_to(40);
  for (const auto& k : keys) with.set(k, "payload-payload");
  const auto r_with = with.multi_get(keys);
  for (const auto& k : keys) without.set(k, "payload-payload");
  const auto r_without = without.multi_get(keys);
  EXPECT_GT(r_with.hitchhiker_keys, 0u);
  EXPECT_EQ(r_without.hitchhiker_keys, 0u);
  // Hitchhiking never adds round-1 transactions.
  EXPECT_EQ(r_with.round1_transactions, r_without.round1_transactions);
  EXPECT_TRUE(r_with.missing.empty());
}

TEST(RnbKvClient, HitchhikingIdenticalResultsOnWarmCaches) {
  Fixture f;
  KvClusterClient hh(f.transport, f.view, with_hitchhiking(true));
  const auto keys = keys_0_to(30);
  for (const auto& k : keys) f.client.set(k, "v");
  const auto plain = f.client.multi_get(keys);
  const auto with = hh.multi_get(keys);
  EXPECT_EQ(plain.values.size(), with.values.size());
  EXPECT_EQ(plain.round1_transactions, with.round1_transactions);
  EXPECT_EQ(with.round2_transactions, 0u);
}

}  // namespace
}  // namespace rnb::dserve
