// Quickstart: store values in an RnB-enabled mini-memcached fleet and fetch
// them back with bundled multi-gets.
//
//   build/examples/quickstart
//
// Walks through the public kv API: cluster setup, replicated writes,
// bundled reads, the transaction savings versus plain consistent hashing,
// and an atomic read-modify-write.
#include <iostream>

#include "dserve/cluster_client.hpp"
#include "kv/transport.hpp"

int main() {
  using namespace rnb;

  // 1. Eight in-process servers, 64 MiB of evictable memory each.
  kv::LoopbackTransport fleet(/*num_servers=*/8, /*bytes_per_server=*/64u << 20);

  // 2. A placement that keeps 3 replicas of every key, and a client over
  //    it. Replica 0 — the "distinguished copy" — lands exactly where stock
  //    consistent hashing would put the key, so RnB can be rolled out over
  //    an existing fleet.
  dserve::ClusterView view(fleet.num_servers(), {.replication = 3});
  dserve::KvClusterClient client(fleet, view, {});

  // 3. Writes go to all three replicas (the distinguished one pinned).
  for (int user = 0; user < 500; ++user)
    client.set("user:" + std::to_string(user) + ":status",
               "status of user " + std::to_string(user));

  // 4. A feed request: one user's 40 friends. RnB bundles the keys so the
  //    fleet sees a handful of multi-get transactions instead of ~8.
  std::vector<std::string> friend_keys;
  for (int f = 10; f < 50; ++f)
    friend_keys.push_back("user:" + std::to_string(f) + ":status");

  const auto result = client.multi_get(friend_keys);
  std::cout << "fetched " << result.values.size() << " values in "
            << result.transactions() << " transactions ("
            << result.round1_transactions << " bundled + "
            << result.round2_transactions << " fallback)\n";

  // Compare with a replication-1 client (== consistent hashing).
  dserve::ClusterView one_copy(fleet.num_servers(), {.replication = 1});
  dserve::KvClusterClient naive(fleet, one_copy, {});
  for (const auto& k : friend_keys) {
    const auto v = client.get(k);
    naive.set(k, *v);
  }
  const auto naive_result = naive.multi_get(friend_keys);
  std::cout << "consistent hashing needs " << naive_result.transactions()
            << " transactions for the same keys — RnB saved "
            << naive_result.transactions() - result.transactions() << "\n";

  // 5. Atomic update: drop non-distinguished replicas, CAS the pinned copy.
  client.atomic_update("user:10:status", [](std::string_view old_value) {
    return std::string(old_value) + " (edited)";
  });
  std::cout << "after atomic update: " << *client.get("user:10:status")
            << "\n";
  return 0;
}
