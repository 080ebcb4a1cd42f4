// The swiss-engine server configuration — the serving names
// (ShardedKvServer, ShardedLoopbackTransport, TcpKvServer,
// ReactorKvServer): same wire protocol, same responses as the map engine,
// over loopback and both TCP serving cores — plus the probe-behaviour
// Prometheus series only this engine exposes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kv/kv_server.hpp"
#include "kv/reactor.hpp"
#include "kv/tcp.hpp"
#include "kv/transport.hpp"

namespace rnb::kv {
namespace {

TEST(SwissKvServer, SetGetDeleteOverProtocol) {
  ShardedKvServer server(1 << 20, /*num_shards=*/4);
  std::string req, resp;
  encode_set("k", "swiss value", false, req);
  server.handle(req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");

  req.clear();
  encode_get({"k"}, false, req);
  server.handle(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].data, "swiss value");

  req.clear();
  encode_delete("k", req);
  server.handle(req, resp);
  EXPECT_EQ(parse_simple(resp), "DELETED");
}

TEST(SwissKvServer, OversizedSetReportsServerError) {
  // An unpinned item larger than its shard's budget slice cannot be stored;
  // the engine refuses it and the server says so on the wire.
  ShardedKvServer server(8192, /*num_shards=*/4);
  std::string req, resp;
  encode_set("k", std::string(5000, 'x'), false, req);
  server.handle(req, resp);
  EXPECT_EQ(parse_simple(resp), "SERVER_ERROR out of memory");
}

TEST(SwissKvServer, EvictionVisibleThroughProtocol) {
  ShardedKvServer server(8192, /*num_shards=*/4);
  std::string req, resp;
  for (int i = 0; i < 300; ++i) {
    req.clear();
    encode_set("key" + std::to_string(i), "v", false, req);
    server.handle(req, resp);
    ASSERT_EQ(parse_simple(resp), "STORED");
  }
  EXPECT_GT(server.table().stats().evictions, 0u);
  // The earliest key is gone, the latest present.
  req.clear();
  encode_get({"key0", "key299"}, false, req);
  server.handle(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].key, "key299");
}

TEST(SwissKvServer, ResponsesMatchMapEngineByteForByte) {
  // Same frames into the map-engine server and the swiss-engine server:
  // every response must be identical (values, versions, errors, order).
  ShardedMapKvServer map_server(1 << 20, /*num_shards=*/4);
  ShardedKvServer swiss_server(1 << 20, /*num_shards=*/4);
  std::string frame, map_resp, swiss_resp;
  std::vector<std::string> frames;
  for (int i = 0; i < 200; ++i) {
    frame.clear();
    encode_set("key" + std::to_string(i % 50), "v" + std::to_string(i),
               /*pinned=*/i % 7 == 0, frame);
    frames.push_back(frame);
    frame.clear();
    encode_get({"key" + std::to_string(i % 50),
                "key" + std::to_string((i + 13) % 80)},
               /*with_versions=*/i % 3 == 0, frame);
    frames.push_back(frame);
    if (i % 11 == 0) {
      frame.clear();
      encode_delete("key" + std::to_string(i % 50), frame);
      frames.push_back(frame);
    }
  }
  for (const std::string& f : frames) {
    map_server.handle(f, map_resp);
    swiss_server.handle(f, swiss_resp);
    ASSERT_EQ(map_resp, swiss_resp) << "frame: " << f;
  }
}

TEST(SwissKvServer, StatsExposesProbeSeries) {
  ShardedKvServer server(1 << 20, /*num_shards=*/2);
  std::string req, resp;
  for (int i = 0; i < 100; ++i) {
    req.clear();
    encode_set("key" + std::to_string(i), "v", false, req);
    server.handle(req, resp);
  }
  for (int i = 0; i < 100; ++i) {
    req.clear();
    encode_get({"key" + std::to_string(i)}, false, req);
    server.handle(req, resp);
  }
  req.clear();
  encode_stats(req);
  server.handle(req, resp);
  EXPECT_NE(resp.find("rnb_kv_shard_probe_groups_total"), std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_lookups_total"), std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_probe_max_groups"), std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_rehashes_total"), std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_insert_displacement_total"),
            std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_tombstones"), std::string::npos);
  EXPECT_NE(resp.find("rnb_kv_shard_slab_fallbacks_total"),
            std::string::npos);
}

TEST(SwissKvServer, MapEngineStatsHaveNoProbeSeries) {
  // The probe series are gated on the engine actually counting probes; the
  // map engine's stats output stays byte-identical to what it always was.
  ShardedMapKvServer server(1 << 20, /*num_shards=*/2);
  std::string req, resp;
  encode_stats(req);
  server.handle(req, resp);
  EXPECT_EQ(resp.find("rnb_kv_shard_probe"), std::string::npos);
  EXPECT_EQ(resp.find("rnb_kv_shard_rehashes"), std::string::npos);
}

TEST(SwissKvServer, LoopbackTransportRoundtrip) {
  ShardedLoopbackTransport transport(2, std::size_t{1} << 20,
                                     std::size_t{4});
  std::string req, resp;
  encode_set("k", "v", false, req);
  transport.roundtrip(1, req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");
  req.clear();
  encode_get({"k"}, false, req);
  transport.roundtrip(1, req, resp);
  EXPECT_EQ(parse_values(resp, false)->size(), 1u);
  transport.roundtrip(0, req, resp);  // other server: independent store
  EXPECT_EQ(parse_values(resp, false)->size(), 0u);
}

TEST(SwissKvServer, ServesOverTcpThreadCore) {
  TcpKvServer server(std::size_t{1} << 20, /*port=*/0, /*num_shards=*/4);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  encode_set("k", "over the wire", false, req);
  conn.roundtrip(req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");
  req.clear();
  encode_get({"k"}, false, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].data, "over the wire");
  EXPECT_EQ(server.shard_count(), 4u);
  EXPECT_GE(server.connections_accepted(), 1u);
}

TEST(SwissKvServer, ServesOverReactorCore) {
  ReactorKvServer server(std::size_t{1} << 20, /*port=*/0,
                         /*num_shards=*/4);
  TcpKvConnection conn(server.port());
  std::string req, resp;
  encode_set("k", "epoll swiss", false, req);
  conn.roundtrip(req, resp);
  EXPECT_EQ(parse_simple(resp), "STORED");
  req.clear();
  encode_get({"k"}, false, req);
  conn.roundtrip(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].data, "epoll swiss");
  // The WireServer seam reports through the engine-agnostic virtuals.
  const WireServer& wire = server;
  EXPECT_EQ(wire.shard_count(), 4u);
  EXPECT_GT(wire.counters().transactions, 0u);
}

TEST(SwissKvServer, ScanSupportsMigrationPaging) {
  ShardedKvServer server(1 << 20, /*num_shards=*/4);
  std::string req, resp;
  for (int i = 0; i < 50; ++i) {
    req.clear();
    encode_set("key" + std::to_string(i), "v", i % 2 == 0, req);
    server.handle(req, resp);
  }
  std::vector<ScanEntry> all;
  std::uint64_t cursor = 0;
  do {
    cursor = server.table().scan(cursor, 7, all);
  } while (cursor != 0);
  EXPECT_EQ(all.size(), 50u);
}

}  // namespace
}  // namespace rnb::kv
