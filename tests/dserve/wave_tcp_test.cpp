// KvClusterClient's waves over real sockets: a server that stops between
// multi-gets is a down mark and a recover round, never an exception out of
// a wave that already has frames in flight to other servers; and a traced
// wave stitches every client transaction to exactly one server span tree
// even though the transactions overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"
#include "obs/trace.hpp"

namespace rnb::dserve {
namespace {

std::vector<std::string> make_keys(int n) {
  std::vector<std::string> keys;
  for (int k = 0; k < n; ++k) keys.push_back("wave:" + std::to_string(k));
  return keys;
}

std::string value_of(std::string_view key) {
  return "v/" + std::string(key);
}

ServerGroupConfig tcp_config(ServerId servers) {
  ServerGroupConfig config;
  config.num_servers = servers;
  config.wire = GroupWire::kTcp;
  config.shards_per_server = 2;
  config.view.replication = 3;
  config.view.placement_seed = 11;
  return config;
}

TEST(WaveOverTcp, StoppedServerIsRecoveredNotThrown) {
  ServerGroup group(tcp_config(4));
  const auto keys = make_keys(48);
  group.load(keys, value_of, /*preinstall_replicas=*/true);
  const auto connection = group.connect();
  KvClusterClientConfig client_config;
  client_config.failure.max_attempts = 2;
  KvClusterClient client(*connection, group.view(), client_config);

  std::vector<std::uint64_t> served(group.num_servers());
  for (ServerId s = 0; s < group.num_servers(); ++s)
    served[s] = group.server(s).counters().transactions;
  const auto warm = client.multi_get(keys);
  ASSERT_TRUE(warm.missing.empty());
  ASSERT_GE(warm.round1_transactions, 2u);
  // Stop a server the wave visits.
  ServerId victim = 0;
  while (group.server(victim).counters().transactions == served[victim])
    ++victim;

  group.stop_server(victim);
  KvClusterClient::MultiGetResult after;
  ASSERT_NO_THROW(after = client.multi_get(keys));
  EXPECT_TRUE(after.missing.empty());
  EXPECT_EQ(after.values.size(), keys.size());
  for (const std::string& key : keys)
    EXPECT_EQ(after.values[key], value_of(key));
  EXPECT_GE(after.servers_marked_down, 1u);
  EXPECT_GE(after.recover_transactions, 1u);
  EXPECT_TRUE(group.view().is_down(victim));

  // Later multi-gets plan around the mark.
  KvClusterClient::MultiGetResult later;
  ASSERT_NO_THROW(later = client.multi_get(keys));
  EXPECT_TRUE(later.missing.empty());
  EXPECT_EQ(later.recover_transactions, 0u);
}

bool is_span(const obs::TraceEvent& e, std::string_view name,
             std::string_view cat) {
  return e.phase == 'X' && name == e.name && cat == e.cat;
}

TEST(WaveOverTcp, TracedWaveStitchesEveryOverlappingTransaction) {
  obs::Tracer tracer(obs::Tracer::ClockMode::kWall);
  // Installed before any server thread exists and removed after all have
  // joined, so no thread sees the pointer change.
  obs::Tracer::set_current(&tracer);
  KvClusterClient::MultiGetResult result;
  {
    ServerGroup group(tcp_config(8));
    const auto keys = make_keys(64);
    group.load(keys, value_of, /*preinstall_replicas=*/true);
    const auto connection = group.connect();
    KvClusterClient client(*connection, group.view(), {});
    result = client.multi_get(keys);
  }
  obs::Tracer::set_current(nullptr);
  EXPECT_TRUE(result.missing.empty());
  ASSERT_GE(result.round1_transactions, 3u);

  const std::vector<obs::TraceEvent> events = tracer.snapshot_events();
  std::uint64_t request = 0;
  for (const obs::TraceEvent& e : events)
    if (is_span(e, "request", "kv_client")) request = e.trace_id;
  ASSERT_NE(request, 0u);
  std::vector<const obs::TraceEvent*> txns;
  for (const obs::TraceEvent& e : events)
    if (is_span(e, "transaction", "kv_client") && e.trace_id == request)
      txns.push_back(&e);
  EXPECT_EQ(txns.size(), result.transactions());
  for (const obs::TraceEvent* txn : txns) {
    const auto children = std::count_if(
        events.begin(), events.end(), [&](const obs::TraceEvent& e) {
          return is_span(e, "transaction", "server") &&
                 e.parent_id == txn->span_id && e.trace_id == txn->trace_id;
        });
    EXPECT_EQ(children, 1) << "client span " << txn->span_id;
  }
  // One wave: every transaction began before the first one finished.
  std::uint64_t first_end = std::numeric_limits<std::uint64_t>::max();
  for (const obs::TraceEvent* txn : txns)
    first_end = std::min(first_end, txn->ts + txn->dur);
  for (const obs::TraceEvent* txn : txns) EXPECT_LE(txn->ts, first_end);
}

}  // namespace
}  // namespace rnb::dserve
