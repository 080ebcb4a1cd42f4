// LIMIT-style queries: "fetch me at least X of these items" (paper
// Section III-F), as used by feed ranking backends that only need *enough*
// candidates, not all of them.
//
//   build/examples/limit_queries
//
// Shows, on a live kv fleet, how the fetched fraction trades result
// completeness against transactions — with and without replication.
#include <iostream>

#include "dserve/cluster_client.hpp"
#include "kv/transport.hpp"

int main() {
  using namespace rnb;
  kv::LoopbackTransport fleet(16, 64u << 20);

  const auto populate = [&](dserve::KvClusterClient& client, int n) {
    for (int i = 0; i < n; ++i)
      client.set("candidate:" + std::to_string(i),
                 "feature-vector-" + std::to_string(i));
  };

  std::vector<std::string> request;
  for (int i = 0; i < 100; ++i)
    request.push_back("candidate:" + std::to_string(i));

  std::cout << "request: 100 candidate items, 16 servers\n\n";
  std::cout << "replication  fraction  fetched  transactions\n";
  for (const std::uint32_t replication : {1u, 3u, 5u}) {
    dserve::ClusterView view(fleet.num_servers(),
                             {.replication = replication});
    dserve::KvClusterClient client(fleet, view, {});
    populate(client, 100);
    for (const double fraction : {1.0, 0.95, 0.9, 0.5}) {
      const auto result = client.multi_get_at_least(request, fraction);
      std::cout << "     " << replication << "          " << fraction
                << "      " << result.values.size() << "       "
                << result.transactions() << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "A ranking service that can tolerate 90% of candidates cuts "
               "its cache-tier transaction load several-fold when combined "
               "with replication — the paper's Fig. 12 effect, live.\n";
  return 0;
}
