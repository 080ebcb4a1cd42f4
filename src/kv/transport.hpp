// In-process loopback transport to a fleet of kv servers.
//
// Substitutes for the paper testbed's TCP path (DESIGN.md Section 4): each
// roundtrip serializes a real request frame, executes the full
// parse/handle/format path on the target server, and hands back response
// bytes. How calls are synchronized depends on the engine:
//
//   * Plain engines (MemTable) are not thread-safe, so every
//     roundtrip crosses a per-server dispatch mutex — the historical
//     "single dispatch thread" model. That mutex is what makes the
//     two-client experiment of Fig. 14 meaningful in-process: concurrent
//     clients contend for the same server exactly as two memaslap
//     instances contend for one single-threaded memcached. It is also the
//     lock convoy the sharded path exists to remove.
//   * Sharded engines synchronize internally (striped per-shard locks; see
//     kv/sharded_memtable.hpp), so ShardedLoopbackTransport dispatches
//     concurrently with no transport-level lock at all — the loadgen_kv
//     bench measures exactly this difference.
//
// Generic over the storage engine: LoopbackTransport uses the byte-budget
// MemTable, ShardedLoopbackTransport the serving engine (sharded swiss),
// and ShardedMapLoopbackTransport the sharded form of the MemTable.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "kv/kv_server.hpp"
#include "kv/kv_transport.hpp"

namespace rnb::kv {

/// `kSerializeDispatch` selects the synchronization model above: true
/// wraps every roundtrip in the per-server mutex (required for engines
/// that are not thread-safe), false calls handle() concurrently (the
/// server must synchronize internally).
template <typename Server, bool kSerializeDispatch = true>
class BasicLoopbackTransport final : public KvTransport {
 public:
  /// Spin up `num_servers` servers, each constructed from `args` (byte
  /// budget for KvServer, budget + shard count for the sharded servers).
  template <typename... Args>
  explicit BasicLoopbackTransport(ServerId num_servers, const Args&... args) {
    RNB_REQUIRE(num_servers > 0);
    servers_.reserve(num_servers);
    for (ServerId s = 0; s < num_servers; ++s)
      servers_.push_back(Endpoint{std::make_unique<Server>(args...),
                                  std::make_unique<std::mutex>()});
  }

  ServerId num_servers() const noexcept override {
    return static_cast<ServerId>(servers_.size());
  }

  /// Send `request` to server `s`; the response lands in `response`.
  /// Thread-safe per server (dispatch mutex or the server's own striped
  /// locks). In-process delivery never fails and models no time.
  TransportResult roundtrip(ServerId s, std::string_view request,
                            std::string& response) override {
    RNB_REQUIRE(s < servers_.size());
    Endpoint& ep = servers_[s];
    if constexpr (kSerializeDispatch) {
      // The dispatch mutex is the single-threaded server's queue; a
      // "queue" span makes the convoy wait visible in stitched traces
      // (child of the calling client's span, sibling of the server
      // transaction that follows).
      std::unique_lock lock(*ep.dispatch, std::defer_lock);
      {
        obs::SpanScope queue_span("queue", "transport");
        lock.lock();
      }
      ep.server->handle(request, response);
    } else {
      ep.server->handle(request, response);
    }
    return {};
  }

  /// Unsynchronized access for setup/inspection (not during benchmarks).
  Server& server(ServerId s) { return *servers_[s].server; }
  const Server& server(ServerId s) const { return *servers_[s].server; }

 private:
  struct Endpoint {
    std::unique_ptr<Server> server;
    std::unique_ptr<std::mutex> dispatch;
  };
  std::vector<Endpoint> servers_;
};

/// Default fleet: byte-budget global-LRU MemTable engines behind the
/// per-server dispatch mutex (deterministic; the Fig. 13/14 baseline).
using LoopbackTransport = BasicLoopbackTransport<KvServer>;

/// Concurrent serving fleet: sharded swiss engines, no dispatch mutex —
/// roundtrips from many client threads execute in parallel on one server.
/// ServerGroup's in-process wire.
using ShardedLoopbackTransport =
    BasicLoopbackTransport<ShardedKvServer, /*kSerializeDispatch=*/false>;

/// Concurrent reference fleet: sharded MemTable engines (the loadgen
/// `--engine=map` loopback path).
using ShardedMapLoopbackTransport =
    BasicLoopbackTransport<ShardedMapKvServer, /*kSerializeDispatch=*/false>;

}  // namespace rnb::kv
