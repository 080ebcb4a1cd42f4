#include "dserve/cluster_client.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "dserve/server_group.hpp"
#include "kv/kv_transport.hpp"
#include "setcover/greedy.hpp"

namespace rnb::dserve {
namespace {

std::vector<std::string> make_keys(int n, const std::string& prefix = "k") {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k)
    keys.push_back(prefix + ":" + std::to_string(k));
  return keys;
}

std::string value_of(std::string_view key) {
  return "v/" + std::string(key);
}

ServerGroupConfig group_config(ServerId servers = 8) {
  ServerGroupConfig config;
  config.num_servers = servers;
  config.wire = GroupWire::kLoopback;
  config.view.replication = 3;
  config.view.placement_seed = 3;
  return config;
}

TEST(KvClusterClient, BundledCoverUsesFarFewerTransactionsThanPerKey) {
  ServerGroup group(group_config());
  const auto keys = make_keys(32);
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClient client(*connection, group.view(), {});

  // Per-key baseline: one distinguished-copy get per key.
  const std::uint64_t before = client.failure_stats().attempts;
  for (const std::string& key : keys)
    EXPECT_EQ(client.get(key), value_of(key));
  const std::uint64_t perkey_txns = client.failure_stats().attempts - before;
  EXPECT_EQ(perkey_txns, 32u);

  // Bundled: the greedy cover touches each chosen server once.
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_EQ(result.values.size(), 32u);
  EXPECT_LE(result.transactions(), group.num_servers());
  EXPECT_LT(result.transactions(), perkey_txns / 2);
}

TEST(KvClusterClient, WriteBackFillsColdReplicas) {
  ServerGroup group(group_config(4));
  const auto keys = make_keys(24, "cold");
  group.load(keys, value_of, /*preinstall_replicas=*/false);
  const auto connection = group.connect();
  KvClusterClient client(*connection, group.view(), {});

  // Cold replicas: round 1 misses on every non-distinguished probe, round 2
  // fetches from the distinguished copies, write-backs install the misses.
  const auto first = client.multi_get(keys);
  EXPECT_TRUE(first.missing.empty());
  EXPECT_GT(first.round2_transactions, 0u);

  // The same bundles now hit: no second round, same values.
  const auto second = client.multi_get(keys);
  EXPECT_TRUE(second.missing.empty());
  EXPECT_EQ(second.round2_transactions, 0u);
  for (const std::string& key : keys)
    EXPECT_EQ(second.values.at(key), value_of(key));
}

TEST(KvClusterClient, SetWritesEveryReplicaPinningTheFirst) {
  ServerGroup group(group_config(4));
  const auto connection = group.connect();
  KvClusterClient client(*connection, group.view(), {});
  EXPECT_EQ(client.set("fresh", "payload"), 3u);
  const auto replicas = group.view().replicas("fresh");
  for (const ServerId s : replicas)
    EXPECT_TRUE(group.server(s).table().contains("fresh"));
  EXPECT_EQ(client.get("fresh"), "payload");
  EXPECT_TRUE(client.remove("fresh"));
  for (const ServerId s : replicas)
    EXPECT_FALSE(group.server(s).table().contains("fresh"));
}

TEST(KvClusterClient, CrashedServerIsMarkedDownAndKeysRecover) {
  ServerGroupConfig config = group_config(4);
  config.fault_spec = "crash@0=0:1000000";  // server 0 down for the test
  ServerGroup group(config);
  const auto keys = make_keys(32, "crash");
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClientConfig client_config;
  client_config.failure.max_attempts = 2;
  KvClusterClient client(*connection, group.view(), client_config);

  // First operation discovers the crash: the bundle to server 0 eats its
  // attempts, the server is marked down, and a recover round re-covers the
  // stranded keys from surviving replicas. Replication 3 means no key is
  // lost to a single crash.
  const auto first = client.multi_get(keys);
  EXPECT_TRUE(first.missing.empty());
  EXPECT_EQ(first.values.size(), 32u);
  EXPECT_GE(first.servers_marked_down, 1u);
  EXPECT_GE(client.failure_stats().recover_rounds, 1u);
  EXPECT_TRUE(group.view().is_down(0));

  // Later operations plan around the mark: no new failures, no retries.
  const std::uint64_t retries_before = client.failure_stats().retries;
  const auto second = client.multi_get(keys);
  EXPECT_TRUE(second.missing.empty());
  EXPECT_EQ(second.servers_marked_down, 0u);
  EXPECT_EQ(second.recover_transactions, 0u);
  EXPECT_EQ(client.failure_stats().retries, retries_before);
}

TEST(KvClusterClient, ReprobeRestoresServerAfterCrashWindow) {
  ServerGroupConfig config = group_config(4);
  // Server 0 is down for the first 40 wire roundtrips of each connection,
  // then restored (faultsim crash/restore epoch).
  config.fault_spec = "crash@0=0:40";
  config.view.reprobe_interval = 4;  // probe again after 4 operations
  ServerGroup group(config);
  const auto keys = make_keys(24, "restore");
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClientConfig client_config;
  client_config.failure.max_attempts = 2;
  KvClusterClient client(*connection, group.view(), client_config);

  // Drive operations until well past the crash window. Every multi_get
  // advances the view's op clock and the connection's tick counter; once
  // the mark expires a probe lands on the restored server and clears it.
  bool any_missing = false;
  for (int op = 0; op < 40; ++op) {
    const auto result = client.multi_get(keys);
    any_missing = any_missing || !result.missing.empty();
  }
  EXPECT_FALSE(any_missing);  // availability held throughout
  EXPECT_GE(group.view().down_marks(), 1u);   // the crash was observed
  EXPECT_GE(group.view().recoveries(), 1u);   // and the restore was too
  EXPECT_FALSE(group.view().is_down(0));
}

/// Forwards to the group, but every VALUE response from `poisoned` also
/// carries a key its frame never asked for.
class ExtraValueTransport final : public kv::KvTransport {
 public:
  ExtraValueTransport(kv::KvTransport& inner, ServerId poisoned)
      : inner_(inner), poisoned_(poisoned) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    const kv::TransportResult r = inner_.roundtrip(s, request, response);
    if (r.ok() && s == poisoned_ && response.ends_with("END\r\n"))
      response.insert(response.size() - 5, "VALUE intruder 0 1\r\nz\r\n");
    return r;
  }

 private:
  kv::KvTransport& inner_;
  ServerId poisoned_;
};

TEST(KvClusterClient, UnrequestedKeyIsAMalformedResponseNotACrash) {
  ServerGroup group(group_config(4));
  const auto keys = make_keys(32, "extra");
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  // Poison the server the cover picks first.
  CoverInstance plan;
  for (const std::string& key : keys)
    plan.candidates.push_back(group.view().replicas(key));
  const ServerId target = greedy_cover(plan).servers_used.front();
  const auto connection = group.connect();
  ExtraValueTransport poisoned(*connection, target);
  KvClusterClientConfig config;
  config.failure.max_attempts = 2;
  KvClusterClient client(poisoned, group.view(), config);

  // The target's answers fail validation on every attempt, so its bundle
  // is retried, the server marked down, and its keys recovered elsewhere.
  const auto result = client.multi_get(keys);
  EXPECT_GE(client.failure_stats().malformed_responses, 2u);
  EXPECT_GE(result.servers_marked_down, 1u);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_EQ(result.values.size(), keys.size());
  EXPECT_FALSE(result.values.contains("intruder"));
  for (const std::string& key : keys) EXPECT_EQ(result.values.at(key), value_of(key));

  // The single-key path applies the same check (it always tries the
  // distinguished copy first, and the target holds some).
  const std::uint64_t before = client.failure_stats().malformed_responses;
  for (const std::string& key : keys) EXPECT_EQ(client.get(key), value_of(key));
  EXPECT_GT(client.failure_stats().malformed_responses, before);
}

TEST(KvClusterClient, HedgedAnswersAreTheFramesTheValuesComeFrom) {
  // Jittery, sometimes-truncating links make hedges fire and sometimes
  // win. Values are parsed once, inside the validity check, so whichever
  // frame the exchange keeps must be the one the values were read from.
  ServerGroupConfig config = group_config(4);
  config.fault_spec = "latency=0.001;jitter=0.004;trunc=0.05;seed=3";
  ServerGroup group(config);
  const auto keys = make_keys(48, "hedge");
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClientConfig client_config;
  client_config.hitchhiking = true;
  client_config.failure.hedging = true;
  client_config.failure.hedge_quantile = 0.5;
  KvClusterClient client(*connection, group.view(), client_config);

  for (int op = 0; op < 60; ++op) {
    const auto result = client.multi_get(keys);
    for (const auto& [key, value] : result.values)
      ASSERT_EQ(value, value_of(key)) << "op " << op;
    ASSERT_EQ(result.values.size() + result.missing.size(), keys.size());
  }
  EXPECT_GT(client.failure_stats().hedge_wins, 0u);
  EXPECT_GT(client.failure_stats().malformed_responses, 0u);
}

TEST(KvClusterClient, HitchhikingAddsKeysWithoutTransactions) {
  ServerGroup group(group_config(8));
  const auto keys = make_keys(64, "hh");
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClientConfig with_hh;
  with_hh.hitchhiking = true;
  KvClusterClient client(*connection, group.view(), with_hh);
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_GT(result.hitchhiker_keys, 0u);
  EXPECT_LE(result.transactions(), group.num_servers());
}

}  // namespace
}  // namespace rnb::dserve
