// Reactor fault schedules: scripted connection failures (reset mid-frame,
// stalled peers) replayed through SimPoller, and the RnB client's recover
// path exercised against a live reactor fleet behind the fault-injecting
// transport. Everything deterministic; no timing, no flakes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "faultsim/fault_transport.hpp"
#include "kv/protocol.hpp"
#include "kv/reactor.hpp"
#include "kv/sim_poller.hpp"
#include "kv/tcp.hpp"

namespace rnb::kv {
namespace {

constexpr std::size_t kBudget = 4u << 20;

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) keys.push_back("key" + std::to_string(i));
  return keys;
}

EventLoop::Config sim_config() {
  EventLoop::Config config;
  config.listen_handle = SimPoller::kListener;
  return config;
}

/// Step until no readiness remains.
void drive(EventLoop& loop) {
  while (loop.step(/*timeout_ms=*/0) > 0) {
  }
}

TEST(ReactorFault, ResetMidFrameKillsOnlyTheVictimConnection) {
  // Three peers: one resets with half a set frame delivered, the other two
  // complete normally. The loop must isolate the blast radius to the
  // victim — same engine, same loop, no cross-connection damage.
  SimPoller sim;
  ShardedMapKvServer engine(kBudget, 4);
  EventLoop loop(sim, engine, sim_config());

  std::string good;
  encode_set("survivor", "value", false, good);
  std::string doomed;
  encode_set("ghost", "never-stored-value", false, doomed);

  SimConnectionScript a;
  a.reads.push_back(SimReadStep::data(good));
  a.reads.push_back(SimReadStep::eof());
  SimConnectionScript victim;
  victim.reads.push_back(
      SimReadStep::data(doomed.substr(0, doomed.size() / 2)));
  victim.reads.push_back(SimReadStep::reset());
  SimConnectionScript b;
  b.reads.push_back(SimReadStep::data(good));
  b.reads.push_back(SimReadStep::eof());

  const int ha = sim.add_connection(std::move(a));
  const int hv = sim.add_connection(std::move(victim));
  const int hb = sim.add_connection(std::move(b));
  drive(loop);

  EXPECT_EQ(parse_simple(sim.output(ha)), "STORED");
  EXPECT_EQ(parse_simple(sim.output(hb)), "STORED");
  EXPECT_EQ(sim.output(hv), "");
  EXPECT_TRUE(sim.closed(hv));
  EXPECT_EQ(loop.resets(), 1u);
  EXPECT_EQ(loop.open_connections(), 0u);

  // The torn frame never reached the engine: "ghost" does not exist.
  std::string probe, resp;
  encode_get({"ghost", "survivor"}, false, probe);
  engine.handle(probe, resp, nullptr);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].key, "survivor");
}

TEST(ReactorFault, StalledPeerDoesNotStarveTheLoop) {
  // A peer that accepts none of its response bytes (every write attempt
  // would-block) while dozens of healthy connections churn: the stalled
  // connection's responses stay queued, everyone else is served. This is
  // the no-head-of-line-blocking property the thread server gets from
  // thread isolation and the reactor must earn with its outbox.
  SimPoller sim;
  ShardedMapKvServer engine(kBudget, 4);
  EventLoop loop(sim, engine, sim_config());

  std::string frame;
  encode_set("stall:key", "stalled-peer-value", false, frame);
  SimConnectionScript stalled;
  stalled.reads.push_back(SimReadStep::data(frame));
  stalled.writes.push_back(SimWriteStep::would_block());
  // The stalled peer gets the lowest handle, so its blocked flush happens
  // FIRST in the dispatch batch — ahead of every healthy connection.
  const int hs = sim.add_connection(std::move(stalled));

  std::vector<int> healthy;
  for (int i = 0; i < 32; ++i) {
    std::string f;
    encode_set("ok:" + std::to_string(i), "v", false, f);
    SimConnectionScript script;
    script.reads.push_back(SimReadStep::data(f));
    script.reads.push_back(SimReadStep::eof());
    healthy.push_back(sim.add_connection(std::move(script)));
  }

  loop.step(0);  // accept the whole fan
  loop.step(0);  // one dispatch batch: stalled first, then the healthy 32

  for (const int h : healthy) {
    EXPECT_EQ(parse_simple(sim.output(h)), "STORED");
    EXPECT_TRUE(sim.closed(h));
  }
  // The stalled peer's response is queued, not dropped — and the engine
  // did commit its write (the stall is wire-side only).
  EXPECT_EQ(sim.output(hs), "");
  EXPECT_FALSE(sim.closed(hs));
  EXPECT_GT(loop.stats().queued_bytes(), 0u);
  EXPECT_EQ(loop.resets(), 0u);

  // The peer wakes (its socket buffer frees): the queued response flushes
  // on the writable event, nothing lost.
  drive(loop);
  EXPECT_EQ(parse_simple(sim.output(hs)), "STORED");
  EXPECT_EQ(loop.stats().queued_bytes(), 0u);
}

TEST(ReactorFault, StalledServersTripTheClientDeadlineOverReactorFleet) {
  // The client-side half of the stalled-peer story: when every roundtrip
  // is slow, the virtual deadline cuts the multiget short instead of
  // hanging — identical policy behavior to the loopback fleet, now with
  // reactor servers underneath.
  TcpFleet fleet(4, kBudget, 0, ServerModel::kReactor);
  TcpClientTransport wire(fleet.ports());
  faultsim::FaultSpec spec;
  spec.all.extra_latency = 0.050;  // every roundtrip costs >= 50 ms
  faultsim::FaultInjectingTransport faulty(wire,
                                           faultsim::FaultSchedule(spec, 4));
  dserve::ClusterView view(4, {.replication = 2});
  dserve::KvClusterClientConfig config;
  config.failure.deadline = 0.060;  // budget for barely one roundtrip
  {
    dserve::KvClusterClient loader(wire, view, config);
    for (const auto& k : test_keys(40)) loader.set(k, "v");
  }
  dserve::KvClusterClient client(faulty, view, config);
  const auto keys = test_keys(40);
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.deadline_missed);
  EXPECT_LT(result.values.size(), keys.size());
  EXPECT_GT(client.failure_stats().deadline_misses, 0u);
}

TEST(ReactorFault, ClientRecoversCrashedServerOverReactorFleet) {
  // The paper's availability claim on the reactor core: with r=2, a fully
  // crashed server costs no data — the client's recover path re-plans
  // every lost bundle onto live replicas. Same schedule as the loopback
  // test in static_view_client_fault_test.cpp, but with real sockets and
  // epoll loops underneath.
  TcpFleet fleet(4, kBudget, /*shards_per_server=*/0, ServerModel::kReactor);
  TcpClientTransport wire(fleet.ports());
  dserve::ClusterView view(4, {.replication = 2});
  dserve::KvClusterClientConfig config;
  {
    dserve::KvClusterClient loader(wire, view, config);
    for (const auto& k : test_keys(24)) loader.set(k, "value-" + k);
  }
  faultsim::FaultSpec spec;
  spec.per_server[1].crash.push_back({0, ~faultsim::Tick{0}});
  faultsim::FaultInjectingTransport faulty(wire,
                                           faultsim::FaultSchedule(spec, 4));
  config.failure.max_attempts = 2;
  dserve::KvClusterClient client(faulty, view, config);

  const auto keys = test_keys(24);
  const auto result = client.multi_get(keys);
  EXPECT_EQ(result.values.size(), keys.size())
      << result.missing.size() << " keys lost to a single crashed server";
  for (const auto& [key, value] : result.values)
    EXPECT_EQ(value, "value-" + key);
  EXPECT_GT(result.recover_transactions + result.round2_transactions, 0u);
}

TEST(ReactorFault, TransientDropsRetryCleanOverReactorFleet) {
  TcpFleet fleet(4, kBudget, 0, ServerModel::kReactor);
  TcpClientTransport wire(fleet.ports());
  dserve::ClusterView view(4, {.replication = 3});
  dserve::KvClusterClientConfig config;
  config.failure.max_attempts = 6;
  {
    dserve::KvClusterClient loader(wire, view, config);
    for (const auto& k : test_keys(20)) loader.set(k, "value-" + k);
  }
  faultsim::FaultSpec spec;
  spec.all.drop = 0.3;
  spec.seed = 23;
  faultsim::FaultInjectingTransport faulty(wire,
                                           faultsim::FaultSchedule(spec, 4));
  dserve::KvClusterClient client(faulty, view, config);
  const auto keys = test_keys(20);
  std::uint64_t retries = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto result = client.multi_get(keys);
    EXPECT_EQ(result.values.size(), keys.size())
        << result.missing.size() << " keys lost despite retries";
    retries += result.retries;
  }
  EXPECT_GT(retries, 0u);
}

}  // namespace
}  // namespace rnb::kv
