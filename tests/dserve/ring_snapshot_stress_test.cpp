// Stress: every operation plans against one ring snapshot.
//
// One thread flips an elastic ClusterView between two rings (epochs 1 and
// 2, different member sets) as fast as it can while two clients run
// multi-gets through transports that check every frame: each key in a
// frame tagged @epoch=E must be a replica of that key under ring E, on the
// server the frame went to. A client that re-read the current ring per key
// would mix epochs within one operation and trip the check. Under
// -DRNB_SANITIZE=thread this doubles as a race detector for the view's
// snapshot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/cluster_view.hpp"
#include "elastic/epoch.hpp"
#include "kv/kv_transport.hpp"
#include "kv/protocol.hpp"

namespace rnb::dserve {
namespace {

class EpochCheckingTransport final : public kv::KvTransport {
 public:
  EpochCheckingTransport(ServerId servers,
                         const std::vector<const elastic::RingEpoch*>& rings,
                         std::atomic<std::uint64_t>& violations)
      : servers_(servers), rings_(rings), violations_(violations) {}

  ServerId num_servers() const noexcept override { return servers_; }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    response.clear();
    const auto cmd = kv::parse_command(request, nullptr);
    if (!cmd) {
      ++violations_;
      response = "ERROR\r\n";
      return {};
    }
    const elastic::RingEpoch* ring = nullptr;
    for (const elastic::RingEpoch* r : rings_)
      if (r->epoch() == kv::command_epoch(*cmd)) ring = r;
    const auto check = [&](const std::string& key) {
      const auto replicas = ring == nullptr
                                ? std::vector<ServerId>{}
                                : ring->replicas(ClusterView::item_of(key));
      if (std::find(replicas.begin(), replicas.end(), s) == replicas.end())
        ++violations_;
    };
    if (const auto* get = std::get_if<kv::GetCommand>(&*cmd)) {
      std::vector<kv::Value> values;
      for (const std::string& key : get->keys) {
        check(key);
        // Some replicas are cold, so round 2 and write-backs run too.
        if ((ClusterView::item_of(key) + s) % 4 != 0)
          values.push_back({key, "v:" + key});
      }
      kv::encode_values(values, /*with_versions=*/false, response);
    } else if (const auto* set = std::get_if<kv::SetCommand>(&*cmd)) {
      check(set->key);
      kv::encode_simple("STORED", response);
    } else {
      ++violations_;
      kv::encode_simple("ERROR", response);
    }
    ++frames_;
    return {};
  }

  std::uint64_t frames() const { return frames_; }

 private:
  ServerId servers_;
  std::vector<const elastic::RingEpoch*> rings_;
  std::atomic<std::uint64_t>& violations_;
  std::uint64_t frames_ = 0;
};

TEST(RingSnapshotStress, FramesNeverMixEpochsUnderConcurrentInstalls) {
  elastic::MemberRingConfig ring_config;
  ring_config.replication = 3;
  const auto epoch1 = std::make_shared<const elastic::RingEpoch>(
      1, elastic::MemberRing(ring_config, {0, 1, 2, 3}));
  const auto epoch2 = std::make_shared<const elastic::RingEpoch>(
      2, elastic::MemberRing(ring_config, {2, 3, 4, 5, 6, 7}));
  ClusterViewConfig view_config;
  view_config.replication = 3;
  ClusterView view(/*num_servers=*/8, view_config, epoch1);

  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> flips{0};
  std::thread flipper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      view.install_ring(flips.load(std::memory_order_relaxed) % 2 == 0
                            ? epoch2
                            : epoch1);
      flips.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kClients = 2;
  constexpr int kOps = 400;
  std::vector<std::uint64_t> frames(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      EpochCheckingTransport transport(view.num_servers(),
                                       {epoch1.get(), epoch2.get()},
                                       violations);
      KvClusterClient client(transport, view, {});
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(c));
      std::vector<std::string> batch;
      for (int op = 0; op < kOps; ++op) {
        batch.clear();
        const std::size_t m = 1 + rng.below(32);
        for (std::size_t i = 0; i < m; ++i)
          batch.push_back("key:" + std::to_string(rng.below(500)));
        (void)client.multi_get(batch);
      }
      frames[static_cast<std::size_t>(c)] = transport.frames();
    });
  for (auto& t : clients) t.join();
  done = true;
  flipper.join();

  EXPECT_EQ(violations.load(), 0u)
      << "a frame carried keys placed under a different epoch than its tag";
  EXPECT_GT(flips.load(), 0u);
  for (const std::uint64_t f : frames) EXPECT_GT(f, static_cast<std::uint64_t>(kOps));
}

}  // namespace
}  // namespace rnb::dserve
