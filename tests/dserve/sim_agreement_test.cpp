// The live client and the simulator plan alike. For matched configs they
// place every key on the same replicas, and they pick the same round-1
// servers in the same order, for full requests and for LIMIT requests.
// This is what lets the simulator's transaction counts stand for the live
// tier's. The simulator redirects singletons to their distinguished copy
// by default (Section III-C1); the live client does not, so the comparison
// turns that step off.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "kv/transport.hpp"

namespace rnb::dserve {
namespace {

constexpr ServerId kServers = 16;
constexpr std::uint32_t kReplicas = 3;
constexpr std::uint64_t kPlacementSeed = 5;
constexpr int kKeys = 2000;
constexpr int kRequests = 500;

std::string key_of(std::uint64_t k) { return "user:" + std::to_string(k); }

ClusterViewConfig view_config() {
  ClusterViewConfig config;
  config.replication = kReplicas;
  config.placement = PlacementScheme::kRangedConsistentHash;
  config.placement_seed = kPlacementSeed;
  return config;
}

ClusterConfig sim_config() {
  ClusterConfig config;
  config.num_servers = kServers;
  config.logical_replicas = kReplicas;
  config.placement = PlacementScheme::kRangedConsistentHash;
  config.seed = kPlacementSeed;
  return config;
}

/// Forwards to the fleet and records the server of every get frame, in
/// the order the client sends them.
class RecordingTransport final : public kv::KvTransport {
 public:
  explicit RecordingTransport(kv::KvTransport& inner) : inner_(inner) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    if (request.starts_with("get ")) gets.push_back(s);
    return inner_.roundtrip(s, request, response);
  }

  std::vector<ServerId> gets;

 private:
  kv::KvTransport& inner_;
};

TEST(StackAgreement, ReplicaListsMatchForMatchedConfigs) {
  const ClusterView view(kServers, view_config());
  const RnbCluster cluster(sim_config(), /*num_items=*/1);
  std::vector<ServerId> simulated(kReplicas);
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = key_of(static_cast<std::uint64_t>(k));
    cluster.replicas_of(ClusterView::item_of(key), simulated);
    ASSERT_EQ(view.replicas(key), simulated) << key;
  }
}

/// Sends kRequests random requests (1-48 keys, drawn with repeats) through
/// the live client over a warm fleet and through RnbClient::plan, and
/// checks each request's round-1 servers agree in pick order.
void expect_round1_agrees(double fraction) {
  kv::LoopbackTransport fleet(kServers, 64u << 20);
  ClusterView view(kServers, view_config());
  {
    KvClusterClient loader(fleet, view, {});
    for (int k = 0; k < kKeys; ++k)
      ASSERT_EQ(loader.set(key_of(static_cast<std::uint64_t>(k)), "v"),
                kReplicas);
  }
  RecordingTransport recorder(fleet);
  KvClusterClient client(recorder, view, {});

  RnbCluster cluster(sim_config(), /*num_items=*/1);
  ClientPolicy policy;
  policy.redirect_singletons = false;
  policy.limit_fraction = fraction;
  RnbClient simulator(cluster, policy);

  Xoshiro256 rng(17);
  std::vector<std::string> keys;
  std::vector<ItemId> items;
  for (int r = 0; r < kRequests; ++r) {
    keys.clear();
    items.clear();
    const std::uint64_t m = 1 + rng.below(48);
    for (std::uint64_t j = 0; j < m; ++j) {
      keys.push_back(key_of(rng.below(kKeys)));
      items.push_back(ClusterView::item_of(keys.back()));
    }
    recorder.gets.clear();
    const auto result = fraction < 1.0
                            ? client.multi_get_at_least(keys, fraction)
                            : client.multi_get(keys);
    const RequestPlan plan = simulator.plan(items);

    // Warm replicas: round 1 is every get the client sent.
    ASSERT_EQ(result.round2_transactions + result.recover_transactions, 0u);
    ASSERT_EQ(recorder.gets, plan.servers) << "request " << r;
    std::size_t covered = 0;
    for (const ServerId s : plan.assignment) covered += s != kInvalidServer;
    ASSERT_EQ(result.values.size(), covered) << "request " << r;
    ASSERT_EQ(result.values.size() + result.missing.size(), plan.items.size());
  }
}

TEST(StackAgreement, FullRequestsPickTheSimulatorsRound1Servers) {
  expect_round1_agrees(1.0);
}

TEST(StackAgreement, LimitRequestsPickTheSimulatorsRound1Servers) {
  expect_round1_agrees(0.9);
}

}  // namespace
}  // namespace rnb::dserve
