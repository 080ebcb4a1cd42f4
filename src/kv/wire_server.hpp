// The seam between a kv engine and whatever serves it over a wire.
//
// Two server *cores* implement the byte-moving: the historical
// thread-per-connection TcpServerCore (kv/tcp.hpp) and the epoll reactor
// (kv/reactor.hpp). Both are engine-agnostic: they dispatch complete frames
// through a RequestSink, a type-erased handle to any BasicKvServer
// instantiation, so the same socket code serves the map and swiss engines.
// BasicTcpKvServer<KvServerT> / BasicReactorKvServer<KvServerT> pair a core
// with a concrete engine server and implement WireServer — the interface
// TcpFleet and dserve::ServerGroup hold pointers to, making both the
// connection model and the storage engine boot-time choices instead of type
// changes rippling through the serving tier.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "kv/kv_server.hpp"
#include "obs/contention.hpp"

namespace rnb::kv {

/// Which connection-handling model a TCP server boots with.
enum class ServerModel {
  kThreadPerConnection,  // one blocking reader thread per accepted socket
  kReactor,              // one epoll event loop, non-blocking state machines
};

/// Type-erased dispatch into a BasicKvServer of any engine. Copyable and
/// trivially cheap (object pointer + function pointer); the referenced
/// server must outlive the sink — the wire wrappers own both, engine
/// member first, so destruction order guarantees it.
class RequestSink {
 public:
  RequestSink() = default;

  template <typename KvServerT>
  static RequestSink of(KvServerT& server) noexcept {
    RequestSink sink;
    sink.obj_ = &server;
    sink.fn_ = [](void* obj, std::string_view request, std::string& response,
                  HandleInfo* info) {
      static_cast<KvServerT*>(obj)->handle(request, response, info);
    };
    return sink;
  }

  void handle(std::string_view request, std::string& response,
              HandleInfo* info) const {
    fn_(obj_, request, response, info);
  }

  bool valid() const noexcept { return fn_ != nullptr; }

 private:
  void* obj_ = nullptr;
  void (*fn_)(void*, std::string_view, std::string&, HandleInfo*) = nullptr;
};

class WireServer {
 public:
  virtual ~WireServer() = default;

  virtual std::uint16_t port() const noexcept = 0;

  /// Engine-agnostic views of the wrapped kv server, for fleets, benches,
  /// and monitors that hold WireServer pointers without naming the engine.
  virtual ServerCounters counters() const = 0;
  virtual obs::ContentionSnapshot lock_counters() const = 0;
  virtual std::size_t shard_count() const = 0;

  /// Wire-level health counters, also published via the `stats` verb:
  /// rnb_kv_connections_accepted_total / _active / rnb_kv_accept_errors_total.
  virtual std::uint64_t connections_accepted() const noexcept = 0;
  virtual std::uint64_t connections_active() const noexcept = 0;
  virtual std::uint64_t accept_errors() const noexcept = 0;

  /// Stop serving and join all server-side threads. Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace rnb::kv
