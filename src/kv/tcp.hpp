// TCP transport for the mini-memcached: a real socket server and client.
//
// The loopback transport makes benches deterministic and fast; this module
// makes the testbed substitution (DESIGN.md §4) faithful: requests cross a
// genuine kernel socket, pay syscall and copy costs, and the server runs a
// thread-per-connection loop like classic memcached's worker threads.
// Connection threads dispatch into a sharded engine (striped per-shard
// locks, kv/sharded_memtable.hpp), so requests from different connections
// execute in parallel whenever their keys land on different shards — the
// old whole-server dispatch mutex is gone. Framing is the same text
// protocol; requests are delimited exactly as memcached's are (command
// line + optional <bytes>-long data block), so the reader must parse the
// header to know the frame length.
//
// Scope: IPv4 loopback, blocking sockets, thread-per-connection. This is a
// proof-of-concept transport, not a production network stack — but every
// byte on the wire is real.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "kv/kv_server.hpp"
#include "kv/kv_transport.hpp"
#include "kv/wire_server.hpp"

namespace rnb::kv {

/// Incremental frame splitter: feed bytes, pop complete request frames.
/// Needed by both the server reader and any pipelined client. Framing
/// costs time linear in the bytes fed, however they are split: the CRLF
/// search resumes where it stopped, a frame's header is parsed once, and
/// consumed bytes are compacted away only once they pass half the buffer.
class FrameSplitter {
 public:
  /// Append raw bytes from the socket.
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// If a complete frame sits at the front of the buffer, move it into
  /// `frame` and return true. Storage commands (set/cas) span the command
  /// line plus a data block whose length comes from the <bytes> field.
  bool next_frame(std::string& frame);

  /// Bytes buffered but not yet framed.
  std::size_t pending() const noexcept { return buffer_.size() - head_; }

  /// Bytes the CRLF search has examined so far.
  std::uint64_t scanned() const noexcept { return scanned_; }

 private:
  std::string buffer_;
  std::size_t head_ = 0;  // first byte not yet framed
  std::size_t scan_ = 0;  // where the CRLF search resumes
  std::size_t end_ = 0;   // end of the frame at head_ once its line is in
  std::uint64_t scanned_ = 0;
};

/// The client-side twin of FrameSplitter: feed bytes, pop complete
/// responses — a "VALUE.../END" block or one simple line — in linear time.
class ReplySplitter {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// If a complete response sits at the front of the buffer, move it into
  /// `reply` and return true.
  bool next_reply(std::string& reply);

  /// Bytes the CRLF search has examined so far.
  std::uint64_t scanned() const noexcept { return scanned_; }

 private:
  std::string buffer_;
  std::size_t head_ = 0;  // first byte of the response being framed
  std::size_t line_ = 0;  // next line to read, past any data block
  std::size_t scan_ = 0;  // where the CRLF search for that line resumes
  std::uint64_t scanned_ = 0;
};

/// The thread-per-connection serving core: listener socket, accept loop,
/// one blocking reader thread per accepted connection. Engine-agnostic —
/// complete frames dispatch through a RequestSink, so the same socket code
/// serves every BasicKvServer instantiation. The constructor binds and
/// listens (port 0 picks a free port) but does NOT serve: the owning
/// wrapper installs its stats hook first, then calls start(), so no stats
/// frame can race the hook assignment.
class TcpServerCore {
 public:
  TcpServerCore(RequestSink sink, std::uint16_t port);
  ~TcpServerCore();

  TcpServerCore(const TcpServerCore&) = delete;
  TcpServerCore& operator=(const TcpServerCore&) = delete;

  /// Launch the accept loop. Call exactly once.
  void start();

  std::uint16_t port() const noexcept { return port_; }

  /// accept() failures that were not part of an orderly shutdown (reported
  /// on stderr as they happen; transient per-connection errors — EINTR,
  /// ECONNABORTED — are retried and not counted).
  std::uint64_t accept_errors() const noexcept {
    return accept_errors_.load();
  }
  std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load();
  }
  std::uint64_t connections_active() const noexcept {
    return connections_active_.load();
  }

  /// Ask the accept loop and all connection threads to finish; joins them.
  void shutdown();

 private:
  void accept_loop();
  void connection_loop(int fd);
  /// Unregister + close a connection fd (called by its own thread on exit).
  void retire_connection(int fd);

  RequestSink sink_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::thread acceptor_;
  std::mutex threads_mu_;
  std::vector<std::thread> connections_;
  /// fds of live connections, so shutdown() can unblock their readers; a
  /// thread erases (and closes) its own fd on exit, both under threads_mu_,
  /// so every fd in here is open and owned by a still-running thread.
  std::vector<int> connection_fds_;
};

/// A TCP server pairing the thread-per-connection core with one concrete
/// kv server. Listens on 127.0.0.1:<port> (port 0 picks a free port; read
/// it back with port()). Each accepted connection gets a reader thread that
/// parses frames, dispatches straight into the thread-safe sharded engine
/// (no global mutex), and writes responses back. `num_shards` 0 picks
/// next_pow2(hardware threads); 1 reproduces the old single-lock-domain
/// behaviour byte-for-byte.
template <typename KvServerT>
class BasicTcpKvServer final : public WireServer {
 public:
  explicit BasicTcpKvServer(std::size_t byte_budget, std::uint16_t port = 0,
                            std::size_t num_shards = 0)
      : server_(byte_budget, num_shards),
        core_(RequestSink::of(server_), port) {
    // Publish wire-level health through the engine's `stats` verb.
    // Installed before the acceptor starts, so no stats frame can race
    // the assignment.
    server_.set_stats_hook([this](obs::MetricsRegistry& registry) {
      registry
          .counter("rnb_kv_connections_accepted_total",
                   "TCP connections accepted since boot")
          .inc(core_.connections_accepted());
      registry
          .gauge("rnb_kv_connections_active",
                 "TCP connections currently being served")
          .set(static_cast<double>(core_.connections_active()));
      registry
          .counter("rnb_kv_accept_errors_total",
                   "accept() failures outside orderly shutdown")
          .inc(core_.accept_errors());
    });
    core_.start();
  }
  ~BasicTcpKvServer() override { core_.shutdown(); }

  BasicTcpKvServer(const BasicTcpKvServer&) = delete;
  BasicTcpKvServer& operator=(const BasicTcpKvServer&) = delete;

  /// The wrapped engine server (concrete type; setup and tests).
  KvServerT& server() noexcept { return server_; }

  std::uint16_t port() const noexcept override { return core_.port(); }
  ServerCounters counters() const override { return server_.counters(); }
  obs::ContentionSnapshot lock_counters() const override {
    return server_.table().lock_counters();
  }
  std::size_t shard_count() const override {
    return server_.table().shard_count();
  }
  std::uint64_t connections_accepted() const noexcept override {
    return core_.connections_accepted();
  }
  std::uint64_t connections_active() const noexcept override {
    return core_.connections_active();
  }
  std::uint64_t accept_errors() const noexcept override {
    return core_.accept_errors();
  }
  void shutdown() override { core_.shutdown(); }

 private:
  KvServerT server_;  // before core_: the sink must outlive the threads
  TcpServerCore core_;
};

/// The serving TCP server: the sharded swiss engine (ShardedKvServer).
using TcpKvServer = BasicTcpKvServer<ShardedKvServer>;

/// Sharded reference (map) engine over the same core
/// (`loadgen_kv --engine=map`).
using MapTcpKvServer = BasicTcpKvServer<ShardedMapKvServer>;

/// A blocking client connection speaking the text protocol over TCP.
class TcpKvConnection {
 public:
  /// Connect to 127.0.0.1:<port>; throws std::runtime_error on failure.
  explicit TcpKvConnection(std::uint16_t port);
  ~TcpKvConnection();

  TcpKvConnection(const TcpKvConnection&) = delete;
  TcpKvConnection& operator=(const TcpKvConnection&) = delete;

  /// Send one request frame and block for its complete response.
  void roundtrip(std::string_view request, std::string& response);

  /// Pipelining primitives: queue frames with send() back-to-back, then
  /// collect each response in order with read_response(). roundtrip() is
  /// exactly send() + read_response().
  void send(std::string_view frame);

  /// Read until the buffer holds one complete *response* (either a
  /// "VALUE.../END" block or a single simple line). Throws
  /// std::runtime_error when the peer closes first.
  void read_response(std::string& response);

 private:
  int fd_ = -1;
  ReplySplitter inbox_;
};

/// A fleet of TCP servers on loopback ports — the multi-server counterpart
/// of LoopbackTransport's server side, for end-to-end RnB-over-TCP runs.
/// `model` picks the serving core per server: blocking thread-per-
/// connection (the default) or the epoll reactor (kv/reactor.hpp).
class TcpFleet {
 public:
  TcpFleet(ServerId num_servers, std::size_t bytes_per_server,
           std::size_t shards_per_server = 0,
           ServerModel model = ServerModel::kThreadPerConnection);

  ServerId num_servers() const {
    const std::lock_guard lock(mu_);
    return static_cast<ServerId>(servers_.size());
  }
  std::uint16_t port(ServerId s) const {
    const std::lock_guard lock(mu_);
    return servers_[s].wire->port();
  }
  ShardedKvServer& server(ServerId s) {
    const std::lock_guard lock(mu_);
    return *servers_[s].engine;
  }
  /// Wire-level health (connection counters) of server `s`.
  WireServer& wire(ServerId s) {
    const std::lock_guard lock(mu_);
    return *servers_[s].wire;
  }

  std::vector<std::uint16_t> ports() const;

  /// Boot one more server (elastic join) and return its index. Safe to
  /// call while other threads use the accessors — servers live behind
  /// stable unique_ptrs, so references handed out earlier stay valid
  /// across the append.
  ServerId add_server(std::size_t bytes_per_server,
                      std::size_t shards_per_server = 0,
                      ServerModel model = ServerModel::kThreadPerConnection);

 private:
  /// One booted server: the engine-agnostic wire handle plus a concrete
  /// engine pointer captured at boot (the fleet runs the serving engine,
  /// ShardedKvServer; dserve migration drives engines through server()).
  struct Member {
    std::unique_ptr<WireServer> wire;
    ShardedKvServer* engine = nullptr;
  };

  static Member boot(std::size_t bytes_per_server,
                     std::size_t shards_per_server, ServerModel model);

  mutable std::mutex mu_;  // guards servers_ growth vs. the accessors
  std::vector<Member> servers_;
};

/// KvTransport over real sockets: one connection per server slot. A slot
/// dials on first use and redials after its connection drops; a peer that
/// refuses or closes is kServerDown, never an exception, and every frame
/// still unanswered on a dropped connection fails with it. issue() writes
/// the frame; collect() reads the connection's replies in order into the
/// caller's buffer, parking a reply only when a later ticket on the same
/// connection is collected first. A cancelled ticket's reply is read and
/// dropped on the way to a later one. Each slot is serialized by its own
/// mutex, so roundtrip() may come from several threads.
class TcpClientTransport final : public KvTransport {
 public:
  /// Connect to servers on 127.0.0.1 at the given ports; throws
  /// std::runtime_error when one refuses.
  explicit TcpClientTransport(const std::vector<std::uint16_t>& ports);

  /// One slot per id below `capacity`, dialing `fleet.port(s)`: serving
  /// slots at construction, the rest on first use (a joiner's port exists
  /// only once it boots). Slot s serves only while `active[s]` is set: a
  /// stopped slot drops its connection and answers kServerDown.
  TcpClientTransport(TcpFleet& fleet,
                     std::span<const std::atomic<bool>> active,
                     ServerId capacity);
  ~TcpClientTransport() override;

  ServerId num_servers() const noexcept override {
    return static_cast<ServerId>(slots_.size());
  }

  /// Latency in the result is wall-clock measured from the frame's send
  /// (the one transport where real time exists); deterministic tests use
  /// the loopback or fault transports instead.
  TransportResult roundtrip(ServerId s, std::string_view request,
                            std::string& response) override;
  Ticket issue(ServerId s, std::string_view frame) override;
  TransportResult collect(const Ticket& ticket,
                          std::string& response) override;
  void cancel(const Ticket& ticket) override;

 private:
  struct Slot {
    /// A reply read before its ticket was collected (kParked), or a
    /// cancelled ticket whose reply is still to come (kCancelled). Entries
    /// are reused, never erased, so a parked reply's buffer keeps its
    /// capacity.
    struct Early {
      enum class State : std::uint8_t { kFree, kParked, kCancelled };
      State state = State::kFree;
      std::uint64_t seq = 0;
      std::int64_t arrived_ns = 0;
      std::string reply;
    };
    std::mutex mu;
    std::unique_ptr<TcpKvConnection> connection;
    std::uint64_t sent = 0;  // frames written, over every connection
    std::uint64_t read = 0;  // replies read or lost with a connection
    std::vector<Early> early;

    Early* find(std::uint64_t seq);
    Early& spare();
    /// Drop the connection; its unanswered frames fail.
    void drop();
  };

  /// The rest run under the slot's mutex.
  bool dial(ServerId s, Slot& slot);
  std::uint64_t send(ServerId s, Slot& slot, std::string_view frame);
  TransportResult receive(Slot& slot, std::uint64_t seq,
                          std::int64_t sent_ns, std::string& response);

  std::vector<std::uint16_t> ports_;  // fixed endpoints, else fleet_
  TcpFleet* fleet_ = nullptr;
  std::span<const std::atomic<bool>> active_;  // empty: always serving
  std::vector<Slot> slots_;
};

}  // namespace rnb::kv
