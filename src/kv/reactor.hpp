// Event-driven kv server core: one event loop, per-connection request
// state machines, zero blocking reads.
//
// The thread-per-connection model (kv/tcp.hpp) spends one OS thread — a
// stack, a scheduler slot, two context switches per request — on every
// connection, which caps the serving tier far below the connection counts
// an RnB front end generates when it fans one multiget into many small
// per-server transactions. The reactor replaces it with the classic
// non-blocking shape (cf. memcached's libevent workers, cortx-motr's
// fop/fom request state machines): an EventLoop waits on a PollSource,
// and each ready connection runs its state machine —
//
//   read     drain the socket into a pooled chunk buffer until EAGAIN
//   frame    incremental FrameSplitter: torn frames stay buffered, any
//            number of pipelined frames pop at once
//   handle   dispatch{shard} into the sharded engine (the same
//            BasicKvServer::handle as every other transport, so the span
//            tree, trace-tag adoption, and engine counters are identical)
//   write    responses batch into an outbox flushed with one gather
//            write; a short write arms EPOLLOUT and the flush resumes on
//            the next writable event
//
// The loop never blocks on any single peer: a stalled connection just
// keeps its outbox buffered while everyone else proceeds.
//
// Testability is the point of the PollSource seam: EpollPoller serves
// real sockets, SimPoller (kv/sim_poller.hpp) replays scripted
// readiness / partial-read / EAGAIN / short-write / reset schedules, so
// the state machine transitions are unit-tested deterministically —
// including every torn-frame byte boundary — without a kernel in the way.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "kv/poller.hpp"
#include "kv/tcp.hpp"
#include "kv/wire_server.hpp"
#include "obs/loop_stats.hpp"

namespace rnb::kv {

/// The reactor: owns the connection state machines, drives them from a
/// PollSource. One thread runs run() (or a test drives step() directly —
/// the loop has no thread of its own).
class EventLoop {
 public:
  struct Config {
    /// Listening handle to accept from; -1 = none (tests adopt handles).
    int listen_handle = -1;
    /// Pooled read-chunk size. Small values exercise short-read paths.
    std::size_t read_chunk = 16384;
    /// Fairness bound: max read() calls per readiness event before the
    /// connection yields to the rest of the batch (level-triggered
    /// readiness re-reports it on the next wait).
    std::size_t max_reads_per_event = 16;
  };

  EventLoop(PollSource& poll, RequestSink sink, Config config);

  /// Convenience: wrap any BasicKvServer instantiation directly (the shape
  /// every SimPoller unit test uses).
  template <typename KvServerT>
    requires(!std::same_as<std::remove_cvref_t<KvServerT>, RequestSink>)
  EventLoop(PollSource& poll, KvServerT& server, Config config)
      : EventLoop(poll, RequestSink::of(server), config) {}

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Serve an already-connected handle (what accept would have produced).
  void adopt(int handle);

  /// One wait-and-dispatch batch; returns the number of readiness events
  /// processed. `timeout_ms` 0 = poll (sim tests), -1 = block.
  std::size_t step(int timeout_ms);

  /// step(-1) until request_stop(). Meant for a dedicated loop thread.
  void run();

  /// Ask run() to return; safe from any thread (interrupts the wait).
  void request_stop();

  /// Close every live connection (call after run() returned / between
  /// step()s — loop-thread context only).
  void close_all();

  std::size_t open_connections() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t accept_errors() const noexcept {
    return accept_errors_.load(std::memory_order_relaxed);
  }
  /// Connections torn down by peer reset / fatal socket error (orderly
  /// EOFs are not resets).
  std::uint64_t resets() const noexcept {
    return resets_.load(std::memory_order_relaxed);
  }
  std::uint64_t responses_sent() const noexcept {
    return responses_.load(std::memory_order_relaxed);
  }

  const obs::LoopStats& stats() const noexcept { return stats_; }

 private:
  /// One queued response: bytes, how much already left the socket, and
  /// the trace tag to attribute the eventual write span to.
  struct OutEntry {
    std::string bytes;
    std::size_t offset = 0;
    TraceTag trace;
  };

  struct Connection {
    int handle = -1;
    FrameSplitter splitter;
    std::deque<OutEntry> outbox;
    std::size_t outbox_bytes = 0;
    bool want_write = false;  // EPOLLOUT armed
    bool draining = false;    // peer EOF seen: close once outbox empties
  };

  void do_accept();
  void on_event(const PollEvent& event);
  /// Drain readable bytes, pop complete frames, dispatch, queue responses.
  void on_readable(Connection& conn);
  /// Parse-and-dispatch every complete frame buffered so far.
  void process_frames(Connection& conn);
  /// Gather-write the outbox; arms/disarms EPOLLOUT as needed. Returns
  /// false when the connection died mid-write.
  bool flush(Connection& conn);
  /// Tear down: deregister, close, forget. `reset` counts it as one.
  void destroy(Connection& conn, bool reset);

  std::string acquire_buffer();
  void release_buffer(std::string&& buffer);

  PollSource& poll_;
  RequestSink sink_;
  Config config_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::vector<PollEvent> events_;
  std::string read_chunk_;   // loop-owned, reused every read
  std::string frame_;        // loop-owned, reused every frame
  std::vector<std::string> buffer_pool_;  // response strings, recycled
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> responses_{0};
  obs::LoopStats stats_;
};

/// The reactor serving core: nonblocking listener, EpollPoller, EventLoop,
/// one loop thread. Engine-agnostic via RequestSink, mirroring
/// TcpServerCore: the constructor binds and listens but does NOT serve —
/// the owning wrapper installs its stats hook first, then calls start().
class ReactorServerCore {
 public:
  ReactorServerCore(RequestSink sink, std::uint16_t port);
  ~ReactorServerCore();

  ReactorServerCore(const ReactorServerCore&) = delete;
  ReactorServerCore& operator=(const ReactorServerCore&) = delete;

  /// Launch the loop thread. Call exactly once.
  void start();

  std::uint16_t port() const noexcept { return port_; }

  /// Loop internals for tests, benches, and stats hooks (resets, batch
  /// stats, connection counters).
  EventLoop& loop() noexcept { return *loop_; }
  const EventLoop& loop() const noexcept { return *loop_; }

  /// Stop the loop thread, close every connection and the listener.
  void shutdown();

 private:
  EpollPoller poller_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
};

/// A TCP server with the same engine, protocol, counters, and stats
/// exposition as BasicTcpKvServer — but one epoll loop thread instead of a
/// thread per connection. Drop-in via the WireServer seam.
template <typename KvServerT>
class BasicReactorKvServer final : public WireServer {
 public:
  explicit BasicReactorKvServer(std::size_t byte_budget,
                                std::uint16_t port = 0,
                                std::size_t num_shards = 0)
      : server_(byte_budget, num_shards),
        core_(RequestSink::of(server_), port) {
    // Same wire-health series as the thread-per-connection server, plus
    // the loop-level signals only a reactor has. Installed before the
    // loop thread starts, so no stats frame can race the assignment.
    server_.set_stats_hook([this](obs::MetricsRegistry& registry) {
      registry
          .counter("rnb_kv_connections_accepted_total",
                   "TCP connections accepted since boot")
          .inc(core_.loop().connections_accepted());
      registry
          .gauge("rnb_kv_connections_active",
                 "TCP connections currently being served")
          .set(static_cast<double>(core_.loop().open_connections()));
      registry
          .counter("rnb_kv_accept_errors_total",
                   "accept() failures outside orderly shutdown")
          .inc(core_.loop().accept_errors());
      registry
          .counter("rnb_kv_connection_resets_total",
                   "Connections torn down by peer reset or socket error")
          .inc(core_.loop().resets());
      core_.loop().stats().publish(registry);
    });
    core_.start();
  }
  ~BasicReactorKvServer() override { core_.shutdown(); }

  BasicReactorKvServer(const BasicReactorKvServer&) = delete;
  BasicReactorKvServer& operator=(const BasicReactorKvServer&) = delete;

  /// The wrapped engine server (concrete type; setup and tests).
  KvServerT& server() noexcept { return server_; }

  /// Loop internals for tests and benches (resets, batch stats).
  EventLoop& loop() noexcept { return core_.loop(); }

  std::uint16_t port() const noexcept override { return core_.port(); }
  ServerCounters counters() const override { return server_.counters(); }
  obs::ContentionSnapshot lock_counters() const override {
    return server_.table().lock_counters();
  }
  std::size_t shard_count() const override {
    return server_.table().shard_count();
  }
  std::uint64_t connections_accepted() const noexcept override {
    return core_.loop().connections_accepted();
  }
  std::uint64_t connections_active() const noexcept override {
    return core_.loop().open_connections();
  }
  std::uint64_t accept_errors() const noexcept override {
    return core_.loop().accept_errors();
  }
  void shutdown() override { core_.shutdown(); }

 private:
  KvServerT server_;  // before core_: the sink must outlive the loop thread
  ReactorServerCore core_;
};

/// The serving reactor server: the sharded swiss engine (ShardedKvServer).
using ReactorKvServer = BasicReactorKvServer<ShardedKvServer>;

/// Sharded reference (map) engine over the same loop
/// (`loadgen_kv --engine=map`).
using MapReactorKvServer = BasicReactorKvServer<ShardedMapKvServer>;

}  // namespace rnb::kv
