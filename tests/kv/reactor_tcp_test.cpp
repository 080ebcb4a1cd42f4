// The reactor server (map engine) over real sockets: the same black-box contract the
// thread-per-connection server satisfies (tcp_test.cpp), plus the things
// only a reactor promises — pipelining on one connection, loop-health
// series in the stats exposition, many connections on one thread.
#include "kv/reactor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "kv/protocol.hpp"
#include "kv/tcp.hpp"
#include "kv/transport.hpp"

namespace rnb::kv {
namespace {

TEST(ReactorTcp, SetGetOverRealSocket) {
  MapReactorKvServer server(1 << 20);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  encode_set("k", "network value", false, req);
  conn.roundtrip(req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");

  req.clear();
  encode_get({"k"}, false, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].data, "network value");
}

TEST(ReactorTcp, PipelinedRequestsAnswerInOrder) {
  // The client writes a burst of frames without reading; the reactor must
  // answer every one, in order, on the same connection — the behavior the
  // thread server only achieves accidentally and the reactor guarantees.
  MapReactorKvServer server(4u << 20);
  TcpKvConnection conn(server.port());
  constexpr int kDepth = 64;
  std::string req, resp;
  for (int i = 0; i < kDepth; ++i) {
    req.clear();
    encode_set("p:" + std::to_string(i), "v" + std::to_string(i), false, req);
    conn.send(req);
  }
  for (int i = 0; i < kDepth; ++i) {
    conn.read_response(resp);
    ASSERT_EQ(parse_simple(resp), "STORED") << "response " << i;
  }
  for (int i = 0; i < kDepth; ++i) {
    req.clear();
    encode_get({"p:" + std::to_string(i)}, false, req);
    conn.send(req);
  }
  for (int i = 0; i < kDepth; ++i) {
    conn.read_response(resp);
    const auto values = parse_values(resp, false);
    ASSERT_TRUE(values.has_value()) << resp;
    ASSERT_EQ(values->size(), 1u) << "response " << i;
    EXPECT_EQ((*values)[0].data, "v" + std::to_string(i));
  }
  EXPECT_EQ(server.loop().responses_sent(),
            static_cast<std::uint64_t>(2 * kDepth));
}

TEST(ReactorTcp, StatsVerbPublishesConnectionAndLoopCounters) {
  MapReactorKvServer server(1 << 20);
  TcpKvConnection first(server.port());
  std::string req, resp;
  encode_set("probe", "v", false, req);
  first.roundtrip(req, resp);  // guarantees the accept has been processed

  TcpKvConnection second(server.port());
  req.clear();
  encode_stats(req);
  second.roundtrip(req, resp);
  // Identical wire-health series to the thread server — scrapers cannot
  // tell the serving cores apart — plus the reactor-only loop signals.
  EXPECT_NE(resp.find("rnb_kv_connections_accepted_total 2"),
            std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_connections_active 2"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_accept_errors_total 0"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_connection_resets_total 0"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_loop_wakeups_total"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_loop_ready_events_total"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_loop_max_ready_batch"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_loop_queued_bytes"), std::string::npos) << resp;
  EXPECT_EQ(server.connections_accepted(), 2u);
  EXPECT_EQ(server.accept_errors(), 0u);
}

TEST(ReactorTcp, ActiveConnectionGaugeFallsWhenPeersDisconnect) {
  MapReactorKvServer server(1 << 20);
  {
    TcpKvConnection transient(server.port());
    std::string req, resp;
    encode_set("x", "1", false, req);
    transient.roundtrip(req, resp);
    EXPECT_EQ(server.connections_active(), 1u);
  }
  // The loop notices the EOF asynchronously; poll briefly.
  for (int i = 0; i < 200 && server.connections_active() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.loop().resets(), 0u);  // orderly close, not a reset
}

TEST(ReactorTcp, ConcurrentClientsShareOneLoopThread) {
  MapReactorKvServer server(8u << 20);
  constexpr int kOps = 200;
  auto client = [&](int id) {
    TcpKvConnection conn(server.port());
    std::string req, resp;
    for (int i = 0; i < kOps; ++i) {
      req.clear();
      encode_set("c" + std::to_string(id) + ":" + std::to_string(i), "v",
                 false, req);
      conn.roundtrip(req, resp);
      ASSERT_EQ(parse_simple(resp), "STORED");
    }
  };
  std::thread t1(client, 1), t2(client, 2), t3(client, 3);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(server.server().counters().transactions,
            static_cast<std::uint64_t>(3 * kOps));
}

TEST(ReactorTcp, ManyConnectionsOneRequestEach) {
  // A small-scale incast: far more connections than any thread-per-
  // connection pool would enjoy, all served by the single loop thread.
  MapReactorKvServer server(4u << 20);
  constexpr int kConnections = 128;
  std::string req, resp;
  encode_set("shared", "fan-in", false, req);
  {
    TcpKvConnection seed(server.port());
    seed.roundtrip(req, resp);
  }
  std::vector<std::unique_ptr<TcpKvConnection>> conns;
  conns.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i)
    conns.push_back(std::make_unique<TcpKvConnection>(server.port()));
  req.clear();
  encode_get({"shared"}, false, req);
  for (auto& conn : conns) {
    conn->roundtrip(req, resp);
    const auto values = parse_values(resp, false);
    ASSERT_TRUE(values.has_value());
    ASSERT_EQ(values->size(), 1u);
  }
  EXPECT_EQ(server.connections_accepted(),
            static_cast<std::uint64_t>(kConnections + 1));
  EXPECT_EQ(server.accept_errors(), 0u);
}

TEST(ReactorTcp, ShutdownIsIdempotentAndJoins) {
  auto server = std::make_unique<MapReactorKvServer>(1 << 20);
  {
    TcpKvConnection conn(server->port());
    std::string req, resp;
    encode_get({"x"}, false, req);
    conn.roundtrip(req, resp);
  }
  server->shutdown();
  server->shutdown();  // second call is a no-op
  server.reset();
  SUCCEED();
}

TEST(ReactorTcp, MalformedLineGetsClientError) {
  MapReactorKvServer server(1 << 20);
  TcpKvConnection conn(server.port());
  std::string resp;
  conn.roundtrip("bogus command\r\n", resp);
  EXPECT_EQ(parse_simple(resp).substr(0, 12), "CLIENT_ERROR");
}

TEST(ReactorTcp, RnbClientOverReactorFleetEndToEnd) {
  // The full proof-of-concept stack on the reactor core: RnB client ->
  // real sockets -> a fleet of epoll loops selected via the WireServer
  // seam.
  TcpFleet fleet(4, 4u << 20, /*shards_per_server=*/0,
                 ServerModel::kReactor);
  TcpClientTransport transport(fleet.ports());
  dserve::ClusterView view(4, {.replication = 2});
  dserve::KvClusterClient client(transport, view, {});

  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    keys.push_back("rx:" + std::to_string(i));
    client.set(keys.back(), "value-" + std::to_string(i));
  }
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_EQ(result.values.size(), 30u);
  EXPECT_LE(result.transactions(), 4u);

  EXPECT_EQ(client.atomic_update("rx:0",
                                 [](std::string_view) { return "patched"; }),
            dserve::KvClusterClient::UpdateOutcome::kUpdated);
  EXPECT_EQ(*client.get("rx:0"), "patched");
  EXPECT_TRUE(client.remove("rx:1"));
  EXPECT_FALSE(client.get("rx:1").has_value());
}

TEST(ReactorTcp, ThreadAndReactorModelsAgreeOnResults) {
  // Same seed, same keys, different serving cores: byte-level protocol
  // behavior and bundling must be indistinguishable.
  TcpFleet threads(4, 4u << 20);
  TcpFleet reactors(4, 4u << 20, 0, ServerModel::kReactor);
  TcpClientTransport wire_a(threads.ports());
  TcpClientTransport wire_b(reactors.ports());
  dserve::ClusterView view_a(4, {.replication = 2, .placement_seed = 9});
  dserve::ClusterView view_b(4, {.replication = 2, .placement_seed = 9});
  dserve::KvClusterClient a(wire_a, view_a, {});
  dserve::KvClusterClient b(wire_b, view_b, {});

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("k" + std::to_string(i));
    a.set(keys.back(), "v");
    b.set(keys.back(), "v");
    ASSERT_EQ(view_a.replicas(keys.back()), view_b.replicas(keys.back()));
  }
  const auto ra = a.multi_get(keys);
  const auto rb = b.multi_get(keys);
  EXPECT_EQ(ra.transactions(), rb.transactions());
  EXPECT_EQ(ra.values.size(), rb.values.size());
}

}  // namespace
}  // namespace rnb::kv
