#include "dserve/cluster_client.hpp"

#include <gtest/gtest.h>

#include <set>
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
/// carries a key its frame never asked for, well formed for the frame's
/// version mode (a `gets` answer carries a version).
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
      response.insert(response.size() - 5,
                      request.starts_with("gets ")
                          ? "VALUE intruder 0 1 7\r\nz\r\n"
                          : "VALUE intruder 0 1\r\nz\r\n");
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

  // The LIMIT form plans the same first pick. The target is marked down in
  // the group's view by now, so it runs over a fresh view of the same
  // placement.
  {
    ClusterView fresh(group.num_servers(), group.view().config());
    KvClusterClient limited(poisoned, fresh, config);
    const auto some = limited.multi_get_at_least(keys, 0.9);
    EXPECT_GE(limited.failure_stats().malformed_responses, 2u);
    EXPECT_GE(some.servers_marked_down, 1u);
    EXPECT_FALSE(some.values.contains("intruder"));
    EXPECT_GE(some.values.size(), 29u);  // ceil(0.9 * 32)
    for (const auto& [key, value] : some.values) EXPECT_EQ(value, value_of(key));
  }

  // atomic_update's versioned read of the distinguished copy: the intruder
  // fails it on every attempt, so no CAS is sent and the value stands.
  std::string homed;
  for (const std::string& key : keys)
    if (group.view().distinguished(key) == target) homed = key;
  ASSERT_FALSE(homed.empty());
  const std::uint64_t before_update = client.failure_stats().malformed_responses;
  EXPECT_EQ(client.atomic_update(homed,
                                 [](std::string_view) { return "mutated"; }),
            KvClusterClient::UpdateOutcome::kConflict);
  EXPECT_GE(client.failure_stats().malformed_responses, before_update + 2);
  const auto stored = group.server(target).table().peek(homed);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value, value_of(homed));
}

/// Forwards to the group, recording every frame the client sends.
class FrameLog final : public kv::KvTransport {
 public:
  explicit FrameLog(kv::KvTransport& inner) : inner_(inner) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    frames.emplace_back(request);
    return inner_.roundtrip(s, request, response);
  }

  /// True when some frame names `key` as one of its arguments.
  bool names(std::string_view key) const {
    for (const std::string& frame : frames) {
      std::string_view rest(frame);
      while (!rest.empty()) {
        const std::size_t end = rest.find_first_of(" \r\n");
        if (rest.substr(0, end) == key) return true;
        if (end == std::string_view::npos) break;
        rest.remove_prefix(end + 1);
      }
    }
    return false;
  }

  std::size_t count(std::string_view verb) const {
    std::size_t n = 0;
    for (const std::string& frame : frames) n += frame.starts_with(verb);
    return n;
  }

  std::vector<std::string> frames;

 private:
  kv::KvTransport& inner_;
};

TEST(KvClusterClient, EveryReadFormAccountsForEveryDistinctKey) {
  ServerGroup group(group_config(8));
  const auto keys = make_keys(40, "acct");
  group.load(keys, value_of, /*preinstall_replicas=*/false);
  const auto connection = group.connect();
  KvClusterClient client(*connection, group.view(), {});

  // Repeats and a key nobody stored: 41 distinct keys.
  std::vector<std::string> request = keys;
  request.push_back(keys[3]);
  request.push_back(keys[17]);
  request.push_back("acct:absent");
  constexpr std::size_t kDistinct = 41;

  const auto check = [&](const KvClusterClient::MultiGetResult& result) {
    EXPECT_EQ(result.values.size() + result.missing.size(), kDistinct);
    const std::set<std::string> missing(result.missing.begin(),
                                        result.missing.end());
    EXPECT_EQ(missing.size(), result.missing.size()) << "a key missed twice";
    for (const std::string& key : missing)
      EXPECT_FALSE(result.values.contains(key)) << key;
    EXPECT_FALSE(result.values.contains("acct:absent"));
  };
  const auto full = client.multi_get(request);
  check(full);
  EXPECT_EQ(full.missing, std::vector<std::string>{"acct:absent"});
  for (const double fraction : {0.9, 0.5, 0.1})
    check(client.multi_get_at_least(request, fraction));
  for (const std::uint32_t budget : {0u, 1u, 3u, 8u})
    check(client.multi_get_within(request, budget));
  EXPECT_EQ(client.multi_get_within(request, 0).missing.size(), kDistinct);
}

TEST(KvClusterClient, LimitSkippedKeysAreNeverSent) {
  // Cold replicas and hitchhiking: covered keys take round 2 and write-
  // backs, and ride along on other bundles. A key the LIMIT cover skipped
  // must appear in none of those frames.
  ServerGroup group(group_config(8));
  const auto keys = make_keys(64, "skip");
  group.load(keys, value_of, /*preinstall_replicas=*/false);
  const auto connection = group.connect();
  FrameLog log(*connection);
  KvClusterClientConfig config;
  config.hitchhiking = true;
  KvClusterClient client(log, group.view(), config);

  // The covers the client plans: no server is down, so every replica is a
  // candidate.
  CoverInstance plan;
  for (const std::string& key : keys)
    plan.candidates.push_back(group.view().replicas(key));
  const auto expect_skipped_unsent =
      [&](const CoverResult& cover,
          const KvClusterClient::MultiGetResult& result) {
        std::size_t skipped = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (cover.assignment[i] != kInvalidServer) continue;
          ++skipped;
          EXPECT_FALSE(log.names(keys[i])) << keys[i] << " skipped but sent";
          EXPECT_FALSE(result.values.contains(keys[i]));
        }
        EXPECT_GT(skipped, 0u);
      };

  const auto some = client.multi_get_at_least(keys, 0.5);
  EXPECT_GT(some.round2_transactions, 0u);
  EXPECT_GT(some.hitchhiker_keys, 0u);
  expect_skipped_unsent(greedy_cover_partial(plan, 32), some);
  // Every key the cover kept came back, through round 2 where cold.
  EXPECT_EQ(some.values.size(), 32u);

  log.frames.clear();
  const auto budgeted = client.multi_get_within(keys, 2);
  expect_skipped_unsent(greedy_cover_budget(plan, 2), budgeted);
  EXPECT_LE(log.count("get "), 2u);
}

TEST(KvClusterClient, BudgetedReadSendsNoRoundTwo) {
  // Cold replicas: a full read would fall back to the distinguished copies
  // and write the replicas back. A budgeted read stops after round 1.
  ServerGroup group(group_config(8));
  const auto keys = make_keys(64, "budget");
  group.load(keys, value_of, /*preinstall_replicas=*/false);
  const auto connection = group.connect();
  FrameLog log(*connection);
  KvClusterClient client(log, group.view(), {});

  const auto result = client.multi_get_within(keys, 3);
  EXPECT_LE(result.round1_transactions, 3u);
  EXPECT_EQ(result.round2_transactions, 0u);
  EXPECT_EQ(result.recover_transactions, 0u);
  EXPECT_EQ(log.count("get "), result.round1_transactions);
  EXPECT_EQ(log.count("set "), 0u) << "no write-back without round 2";
  EXPECT_EQ(log.frames.size(), result.round1_transactions);
  // Some covered keys sat on cold replicas and stay missing.
  EXPECT_GT(result.missing.size(), 0u);
  EXPECT_EQ(result.values.size() + result.missing.size(), keys.size());
  for (const auto& [key, value] : result.values) EXPECT_EQ(value, value_of(key));
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
