// MembershipController end to end: live join/leave against an elastic
// ServerGroup, the stale client's WRONG_EPOCH re-plan, and the
// rnb_elastic_* metrics surface.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"
#include "elastic/controller.hpp"
#include "kv/protocol.hpp"
#include "obs/metrics.hpp"

namespace rnb::elastic {
namespace {

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i)
    keys.push_back("churn:key:" + std::to_string(i));
  return keys;
}

std::string value_of(std::string_view key) {
  return "value-" + std::string(key);
}

dserve::ServerGroupConfig elastic_config(dserve::GroupWire wire) {
  dserve::ServerGroupConfig config;
  config.num_servers = 3;
  config.max_servers = 5;
  config.wire = wire;
  config.view.replication = 2;
  return config;
}

MembershipController make_controller(kv::KvTransport& transport,
                                     dserve::ServerGroup& group) {
  MembershipController controller(transport, group.epochs(),
                                  MembershipControllerConfig{});
  controller.set_publish([&group](std::shared_ptr<const RingEpoch> ring) {
    group.view().install_ring(std::move(ring));
  });
  return controller;
}

void expect_all_present(dserve::KvClusterClient& client,
                        const std::vector<std::string>& keys,
                        const std::string& when) {
  const auto result = client.multi_get(keys);
  EXPECT_EQ(result.missing.size(), 0u)
      << when << ": " << result.missing.size() << " keys lost";
  for (const std::string& key : keys) {
    const auto it = result.values.find(key);
    ASSERT_NE(it, result.values.end()) << when << ": " << key;
    EXPECT_EQ(it->second, value_of(key));
  }
}

TEST(MembershipController, JoinThenLeaveLosesNoKeysOverLoopback) {
  dserve::ServerGroup group(elastic_config(dserve::GroupWire::kLoopback));
  ASSERT_TRUE(group.elastic());
  EXPECT_EQ(group.capacity(), 5u);
  const auto keys = test_keys(200);
  const auto load = group.load(keys, value_of, /*preinstall_replicas=*/true);
  ASSERT_EQ(load.rejected, 0u);

  const auto conn = group.connect();
  auto controller = make_controller(*conn, group);
  dserve::KvClusterClient client(*conn, group.view(), {});
  expect_all_present(client, keys, "before churn");

  // Join: boot the spare slot, stream its share of copies, bump epochs.
  group.start_server(3);
  ASSERT_TRUE(controller.join(3));
  EXPECT_EQ(controller.epoch(), 2u);
  EXPECT_EQ(group.view().epoch(), 2u);
  EXPECT_GT(controller.migration_stats().pinned_moved, 0u);
  expect_all_present(client, keys, "after join");
  // The joiner is a live member: some reads now land on it.
  EXPECT_TRUE(group.view().ring()->contains(3));

  // Leave: drain a founding member, then stop serving from it.
  ASSERT_TRUE(controller.leave(0));
  EXPECT_EQ(controller.epoch(), 3u);
  group.stop_server(0);
  EXPECT_FALSE(group.server_active(0));
  expect_all_present(client, keys, "after leave");
  EXPECT_EQ(controller.joins(), 1u);
  EXPECT_EQ(controller.leaves(), 1u);
  EXPECT_EQ(controller.failed_transitions(), 0u);
}

TEST(MembershipController, JoinThenLeaveLosesNoKeysOverTcp) {
  // The same churn cycle with real sockets: the joiner binds a fresh port
  // mid-run and the leaver's connections break — the elastic transport
  // must dial lazily and survive the teardown.
  auto config = elastic_config(dserve::GroupWire::kTcp);
  config.max_servers = 4;
  dserve::ServerGroup group(config);
  const auto keys = test_keys(120);
  const auto load = group.load(keys, value_of, /*preinstall_replicas=*/true);
  ASSERT_EQ(load.rejected, 0u);

  const auto conn = group.connect();
  auto controller = make_controller(*conn, group);
  dserve::KvClusterClient client(*conn, group.view(), {});

  group.start_server(3);
  ASSERT_TRUE(controller.join(3));
  expect_all_present(client, keys, "after tcp join");

  ASSERT_TRUE(controller.leave(1));
  group.stop_server(1);
  expect_all_present(client, keys, "after tcp leave");
  EXPECT_EQ(controller.epoch(), 3u);
}

/// Simulates the capture-before-publish race: the decorated transport
/// installs the newer ring into the view only when the first frame is
/// already on the wire — after the client captured the stale epoch.
class PublishAfterFirstSend final : public kv::KvTransport {
 public:
  PublishAfterFirstSend(kv::KvTransport& inner, dserve::ClusterView& view,
                        std::shared_ptr<const RingEpoch> next)
      : inner_(inner), view_(view), next_(std::move(next)) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    if (next_ != nullptr) view_.install_ring(std::exchange(next_, nullptr));
    const kv::TransportResult r = inner_.roundtrip(s, request, response);
    if (kv::parse_wrong_epoch(response).has_value()) ++bounces;
    return r;
  }

  /// WRONG_EPOCH answers seen.
  int bounces = 0;

 private:
  kv::KvTransport& inner_;
  dserve::ClusterView& view_;
  std::shared_ptr<const RingEpoch> next_;
};

TEST(MembershipController, StaleClientReplansOnWrongEpochBounce) {
  // Full stale-view tolerance: servers are already at epoch 2 while the
  // client plans against epoch 1. Every round-1 bundle bounces with
  // WRONG_EPOCH; the recover round refreshes the ring and re-plans, and
  // the operation completes with zero missing keys and no spurious down
  // marks.
  dserve::ServerGroup group(elastic_config(dserve::GroupWire::kLoopback));
  const auto keys = test_keys(150);
  group.load(keys, value_of, /*preinstall_replicas=*/true);

  const auto conn = group.connect();
  group.start_server(3);
  // Run the transition with publishing deferred: commit + migrate + bump
  // happen, but the client's view keeps the epoch-1 ring.
  MembershipController raw(*conn, group.epochs(),
                           MembershipControllerConfig{});
  std::shared_ptr<const RingEpoch> committed;
  raw.set_publish([&committed](std::shared_ptr<const RingEpoch> ring) {
    committed = std::move(ring);
  });
  ASSERT_TRUE(raw.join(3));
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(group.view().epoch(), 1u) << "publish must have been deferred";

  // The client's first send triggers the (simulated) concurrent publish.
  PublishAfterFirstSend wire(*conn, group.view(), committed);
  dserve::KvClusterClient client(wire, group.view(), {});
  const auto result = client.multi_get(keys);
  EXPECT_EQ(result.missing.size(), 0u);
  EXPECT_GE(result.epoch_replans, 1u);
  EXPECT_EQ(result.servers_marked_down, 0u)
      << "an epoch bounce is not a server failure";
  EXPECT_EQ(group.view().epoch(), 2u);

  // Single-key paths re-plan too.
  EXPECT_EQ(client.get(keys.front()), value_of(keys.front()));
  EXPECT_EQ(client.set(keys.front(), "rewritten"), 2u);
  EXPECT_EQ(client.get(keys.front()), "rewritten");
}

TEST(MembershipController, StaleClientAtomicUpdateReplansOnWrongEpochBounce) {
  // atomic_update from a client one epoch behind: its step-1 deletes carry
  // the old epoch and bounce. The bounce is a healthy answer, so the update
  // takes the fresh ring once and redoes both steps on it.
  dserve::ServerGroup group(elastic_config(dserve::GroupWire::kLoopback));
  const auto keys = test_keys(150);
  group.load(keys, value_of, /*preinstall_replicas=*/true);

  const auto conn = group.connect();
  group.start_server(3);
  MembershipController raw(*conn, group.epochs(),
                           MembershipControllerConfig{});
  std::shared_ptr<const RingEpoch> committed;
  raw.set_publish([&committed](std::shared_ptr<const RingEpoch> ring) {
    committed = std::move(ring);
  });
  ASSERT_TRUE(raw.join(3));
  ASSERT_NE(committed, nullptr);
  ASSERT_EQ(group.view().epoch(), 1u) << "publish must have been deferred";

  PublishAfterFirstSend wire(*conn, group.view(), committed);
  dserve::KvClusterClient client(wire, group.view(), {});
  const std::string& key = keys.front();
  EXPECT_EQ(client.atomic_update(key,
                                 [](std::string_view old) {
                                   return std::string(old) + "+1";
                                 }),
            dserve::KvClusterClient::UpdateOutcome::kUpdated);
  EXPECT_GE(wire.bounces, 1);
  EXPECT_EQ(group.view().epoch(), 2u);
  EXPECT_EQ(client.get(key), value_of(key) + "+1");
  EXPECT_EQ(group.view().down_marks(), 0u)
      << "an epoch bounce is not a server failure";
}

TEST(MembershipController, ExportsElasticMetricsSeries) {
  dserve::ServerGroup group(elastic_config(dserve::GroupWire::kLoopback));
  const auto keys = test_keys(60);
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto conn = group.connect();
  auto controller = make_controller(*conn, group);
  group.start_server(3);
  ASSERT_TRUE(controller.join(3));

  obs::MetricsRegistry registry;
  controller.export_metrics(registry);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("rnb_elastic_epoch 2"), std::string::npos) << text;
  EXPECT_NE(text.find("rnb_elastic_members 4"), std::string::npos) << text;
  EXPECT_NE(text.find("rnb_elastic_joins_total 1"), std::string::npos);
  EXPECT_NE(text.find("rnb_elastic_migration_pages_total"),
            std::string::npos);
  EXPECT_NE(text.find("rnb_elastic_pinned_moved_total"), std::string::npos);
}

}  // namespace
}  // namespace rnb::elastic
