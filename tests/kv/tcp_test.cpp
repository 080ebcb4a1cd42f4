#include "kv/tcp.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "dserve/cluster_client.hpp"
#include "kv/protocol.hpp"
#include "kv/transport.hpp"

namespace rnb::kv {
namespace {

TEST(FrameSplitter, SplitsSimpleCommands) {
  FrameSplitter s;
  s.feed("get a b\r\ndelete x\r\n");
  std::string frame;
  ASSERT_TRUE(s.next_frame(frame));
  EXPECT_EQ(frame, "get a b\r\n");
  ASSERT_TRUE(s.next_frame(frame));
  EXPECT_EQ(frame, "delete x\r\n");
  EXPECT_FALSE(s.next_frame(frame));
}

TEST(FrameSplitter, WaitsForStorageDataBlock) {
  FrameSplitter s;
  s.feed("set k 0 0 5\r\nhel");
  std::string frame;
  EXPECT_FALSE(s.next_frame(frame));  // data incomplete
  s.feed("lo\r\n");
  ASSERT_TRUE(s.next_frame(frame));
  EXPECT_EQ(frame, "set k 0 0 5\r\nhello\r\n");
}

TEST(FrameSplitter, DataMayContainCrlf) {
  FrameSplitter s;
  s.feed("set k 0 0 9\r\nab\r\ncd\r\n9\r\nget z\r\n");
  std::string frame;
  ASSERT_TRUE(s.next_frame(frame));
  EXPECT_EQ(frame, "set k 0 0 9\r\nab\r\ncd\r\n9\r\n");
  ASSERT_TRUE(s.next_frame(frame));
  EXPECT_EQ(frame, "get z\r\n");
}

TEST(FrameSplitter, ByteAtATimeFeeding) {
  const std::string wire = "cas key 0 0 4 77\r\ndata\r\nget a\r\n";
  FrameSplitter s;
  std::vector<std::string> frames;
  std::string frame;
  for (const char c : wire) {
    s.feed(std::string_view(&c, 1));
    while (s.next_frame(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "cas key 0 0 4 77\r\ndata\r\n");
  EXPECT_EQ(frames[1], "get a\r\n");
}

TEST(FrameSplitter, MebibyteFramesFedByteAtATimeScanLinearly) {
  // A 1 MiB set (header, then a data block) and a 1 MiB command line,
  // dribbled one byte per feed: the CRLF search resumes where it stopped
  // and the header is parsed once, so the bytes examined stay a small
  // multiple of the bytes fed instead of growing with their square.
  std::string wire;
  encode_set("big", std::string(1 << 20, 'x'), /*pin=*/false, wire);
  const std::size_t set_size = wire.size();
  wire += "get " + std::string(1 << 20, 'k') + "\r\n";
  FrameSplitter s;
  std::vector<std::string> frames;
  std::string frame;
  for (const char c : wire) {
    s.feed(std::string_view(&c, 1));
    while (s.next_frame(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], wire.substr(0, set_size));
  EXPECT_EQ(frames[1], wire.substr(set_size));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_LE(s.scanned(), 2 * wire.size());
}

TEST(ReplySplitter, SplitsEveryReplyShapeAtEveryOffset) {
  const std::vector<std::string> replies = {
      "STORED\r\n",
      "VALUE k 0 3\r\nabc\r\nEND\r\n",
      "END\r\n",
      "VALUE a 0 4\r\n\r\n\r\n\r\nVALUE b 5 0 9\r\n\r\nEND\r\n",
      "SERVER_ERROR out of memory\r\n",
  };
  std::string wire;
  for (const std::string& r : replies) wire += r;
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    ReplySplitter s;
    std::vector<std::string> got;
    std::string reply;
    s.feed(std::string_view(wire).substr(0, split));
    while (s.next_reply(reply)) got.push_back(reply);
    s.feed(std::string_view(wire).substr(split));
    while (s.next_reply(reply)) got.push_back(reply);
    ASSERT_EQ(got, replies) << "split " << split;
  }
}

TEST(ReplySplitter, MebibyteValueFedByteAtATimeScansLinearly) {
  std::string wire = "VALUE big 0 " + std::to_string(1 << 20) + "\r\n";
  wire += std::string(1 << 20, 'v') + "\r\nEND\r\n";
  const std::string tail = "STORED\r\n";
  ReplySplitter s;
  std::vector<std::string> got;
  std::string reply;
  for (const char c : wire + tail) {
    s.feed(std::string_view(&c, 1));
    while (s.next_reply(reply)) got.push_back(reply);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], wire);
  EXPECT_EQ(got[1], tail);
  EXPECT_LE(s.scanned(), 2 * (wire.size() + tail.size()));
}

TEST(TcpKv, SetGetOverRealSocket) {
  MapTcpKvServer server(1 << 20);
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

TEST(TcpKv, MultiGetLargeBundle) {
  MapTcpKvServer server(16u << 20);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("key:" + std::to_string(i));
    req.clear();
    encode_set(keys.back(), "value-" + std::to_string(i), false, req);
    conn.roundtrip(req, resp);
  }
  req.clear();
  encode_get(keys, false, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(values->size(), 200u);
}

TEST(TcpKv, EmptyGetResponseFramesCorrectly) {
  MapTcpKvServer server(1 << 20);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  encode_get({"nope"}, false, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  EXPECT_TRUE(values->empty());
}

TEST(TcpKv, MultipleConnectionsShareTheStore) {
  MapTcpKvServer server(1 << 20);
  TcpKvConnection writer(server.port());
  TcpKvConnection reader(server.port());
  std::string req, resp;
  encode_set("shared", "v", false, req);
  writer.roundtrip(req, resp);
  req.clear();
  encode_get({"shared"}, false, req);
  reader.roundtrip(req, resp);
  EXPECT_EQ(parse_values(resp, false)->size(), 1u);
}

TEST(TcpKv, StatsVerbPublishesConnectionCounters) {
  MapTcpKvServer server(1 << 20);
  TcpKvConnection first(server.port());
  std::string req, resp;
  encode_set("probe", "v", false, req);
  first.roundtrip(req, resp);  // guarantees the accept has been processed

  TcpKvConnection second(server.port());
  req.clear();
  encode_stats(req);
  second.roundtrip(req, resp);
  // Wire-level health rides in the same Prometheus exposition as the
  // engine counters: both live connections, the monotonic accept count,
  // and a zero accept-error series.
  EXPECT_NE(resp.find("rnb_kv_connections_accepted_total 2"),
            std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_connections_active 2"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("rnb_kv_accept_errors_total 0"), std::string::npos)
      << resp;
  EXPECT_EQ(server.connections_accepted(), 2u);
  EXPECT_EQ(server.accept_errors(), 0u);
}

TEST(TcpKv, ActiveConnectionGaugeFallsWhenPeersDisconnect) {
  MapTcpKvServer server(1 << 20);
  {
    TcpKvConnection transient(server.port());
    std::string req, resp;
    encode_set("x", "1", false, req);
    transient.roundtrip(req, resp);
    EXPECT_EQ(server.connections_active(), 1u);
  }
  // The reader thread notices the close asynchronously; poll briefly.
  for (int i = 0; i < 200 && server.connections_active() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(TcpKv, ConcurrentClientsAreSerialized) {
  MapTcpKvServer server(8u << 20);
  constexpr int kOps = 300;
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
  std::thread t1(client, 1), t2(client, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(server.server().counters().transactions,
            static_cast<std::uint64_t>(2 * kOps));
}

TEST(TcpKv, CasOverTheWire) {
  MapTcpKvServer server(1 << 20);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  encode_set("k", "v1", false, req);
  conn.roundtrip(req, resp);
  req.clear();
  encode_get({"k"}, true, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, true);
  ASSERT_TRUE(values.has_value());
  req.clear();
  encode_cas("k", "v2", (*values)[0].version, req);
  conn.roundtrip(req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");
}

TEST(TcpKv, ShutdownIsIdempotentAndJoins) {
  auto server = std::make_unique<MapTcpKvServer>(1 << 20);
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

TEST(TcpKv, MalformedLineGetsClientError) {
  MapTcpKvServer server(1 << 20);
  TcpKvConnection conn(server.port());
  std::string resp;
  conn.roundtrip("bogus command\r\n", resp);
  EXPECT_EQ(parse_simple(resp).substr(0, 12), "CLIENT_ERROR");
}


TEST(TcpKv, RnbClientOverTcpEndToEnd) {
  // The full proof-of-concept stack: RnB client -> real sockets -> fleet.
  TcpFleet fleet(4, 4u << 20);
  TcpClientTransport transport(fleet.ports());
  dserve::ClusterView view(4, {.replication = 2});
  dserve::KvClusterClient client(transport, view, {});

  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    keys.push_back("tcp:" + std::to_string(i));
    client.set(keys.back(), "value-" + std::to_string(i));
  }
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_EQ(result.values.size(), 30u);
  EXPECT_LE(result.transactions(), 4u);

  EXPECT_EQ(client.atomic_update("tcp:0",
                                 [](std::string_view) { return "patched"; }),
            dserve::KvClusterClient::UpdateOutcome::kUpdated);
  EXPECT_EQ(*client.get("tcp:0"), "patched");
  EXPECT_TRUE(client.remove("tcp:1"));
  EXPECT_FALSE(client.get("tcp:1").has_value());
}

TEST(TcpKv, LoopbackAndTcpAgreeOnPlacementAndResults) {
  // Same placement seed => identical bundling over either transport.
  TcpFleet fleet(4, 4u << 20);
  TcpClientTransport tcp(fleet.ports());
  LoopbackTransport loop(4, 4u << 20);
  dserve::ClusterView tcp_view(4, {.replication = 2, .placement_seed = 9});
  dserve::ClusterView loop_view(4, {.replication = 2, .placement_seed = 9});
  dserve::KvClusterClient tcp_client(tcp, tcp_view, {});
  dserve::KvClusterClient loop_client(loop, loop_view, {});

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("k" + std::to_string(i));
    tcp_client.set(keys.back(), "v");
    loop_client.set(keys.back(), "v");
    ASSERT_EQ(tcp_view.replicas(keys.back()),
              loop_view.replicas(keys.back()));
  }
  const auto a = tcp_client.multi_get(keys);
  const auto b = loop_client.multi_get(keys);
  EXPECT_EQ(a.transactions(), b.transactions());
  EXPECT_EQ(a.values.size(), b.values.size());
}

}  // namespace
}  // namespace rnb::kv
