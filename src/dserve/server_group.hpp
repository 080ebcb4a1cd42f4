// ServerGroup: boot a live multi-server kv fleet under RnB placement.
//
// The simulator's RnbCluster owns N TwoClassStore servers; this is its
// wire counterpart: N mini-memcached servers, each an overbooked two-class
// sharded swiss store (pinned distinguished copies outside the byte budget,
// evictable replica class inside it — kv/swiss_memtable.hpp), reachable either
// in-process (deterministic loopback, no kernel in the path) or over real
// TCP sockets (thread-per-connection servers on loopback ports).
//
// load() installs a key set through the same deterministic placement the
// simulators use: every distinguished copy pinned on its replica-0 server
// (the paper's "same amount of memory the original system had"), replica
// copies either pre-installed (unlimited-memory regime, Fig. 6) or left
// cold for multi-get write-backs to fill (limited regime, Fig. 8).
//
// connect() hands each client worker its own transport — per-server TCP
// connections or a thin forwarder onto the shared in-process fleet —
// optionally wrapped in faultsim's fault-injecting decorator, so
// crash/restore schedules run against real servers with real bytes on the
// wire.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dserve/cluster_view.hpp"
#include "elastic/epoch.hpp"
#include "faultsim/fault_transport.hpp"
#include "kv/kv_transport.hpp"
#include "kv/tcp.hpp"
#include "kv/transport.hpp"

namespace rnb::dserve {

/// How client bytes reach the servers.
enum class GroupWire {
  kLoopback,  // in-process, deterministic, no kernel in the path
  kTcp,       // real sockets on 127.0.0.1, thread-per-connection servers
};

struct ServerGroupConfig {
  ServerId num_servers = 4;
  GroupWire wire = GroupWire::kLoopback;
  /// Serving core for kTcp servers: blocking thread-per-connection or the
  /// epoll reactor (kv/reactor.hpp). Ignored for kLoopback.
  kv::ServerModel server_model = kv::ServerModel::kThreadPerConnection;
  /// Evictable-byte budget per server — the replica class. Pinned
  /// distinguished copies live outside the budget (kv/memtable.hpp), so
  /// this is exactly the paper's "extra" memory knob. 0 = unlimited.
  std::size_t bytes_per_server = 0;
  /// Striped-lock shards per server engine; 0 picks a power of two from
  /// the hardware thread count.
  std::size_t shards_per_server = 0;
  /// Placement + health-view parameters shared by every client.
  ClusterViewConfig view;
  /// faultsim spec (faultsim/fault_spec.hpp grammar) applied to every
  /// connection made after construction; "" = clean wire.
  std::string fault_spec;
  /// Elastic membership. 0 = static fleet (the historical mode). Nonzero
  /// sets the fleet *capacity* (must be >= num_servers): server ids
  /// [0, num_servers) boot as the members of ring epoch 1, ids up to
  /// max_servers may join later via start_server() + a
  /// MembershipController. Placement then comes from a versioned
  /// elastic::MemberRing — `view.placement` is ignored, though
  /// `view.replication` and `view.placement_seed` still apply.
  ServerId max_servers = 0;
  /// Replica placement scheme for the elastic ring (the movement-cost
  /// ablation knob: RCH vnode ring vs multi-probe).
  elastic::RingScheme ring_scheme = elastic::RingScheme::kRch;
};

/// A client worker's connection to the group: the wire transport (owned),
/// optionally wrapped in a fault-injecting decorator. One per thread, like
/// every other KvTransport in the tree.
class GroupConnection final : public kv::KvTransport {
 public:
  GroupConnection(std::unique_ptr<kv::KvTransport> wire,
                  const faultsim::FaultSpec* faults);

  ServerId num_servers() const noexcept override {
    return wire_->num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    return top_->roundtrip(s, request, response);
  }
  kv::Ticket issue(ServerId s, std::string_view frame) override {
    return top_->issue(s, frame);
  }
  kv::TransportResult collect(const kv::Ticket& ticket,
                              std::string& response) override {
    return top_->collect(ticket, response);
  }
  void cancel(const kv::Ticket& ticket) override { top_->cancel(ticket); }

  /// The fault decorator, when the group injects faults (else nullptr) —
  /// benches read per-connection fault stats here.
  const faultsim::FaultInjectingTransport* faults() const noexcept {
    return faults_.get();
  }

 private:
  std::unique_ptr<kv::KvTransport> wire_;
  std::unique_ptr<faultsim::FaultInjectingTransport> faults_;
  kv::KvTransport* top_;  // faults_ if present, else wire_
};

class ServerGroup {
 public:
  explicit ServerGroup(const ServerGroupConfig& config);
  ~ServerGroup();

  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  const ServerGroupConfig& config() const noexcept { return config_; }
  /// Servers booted as epoch-1 members (the static fleet size). Elastic
  /// groups may serve from more or fewer afterwards — see capacity() and
  /// the epoch store's current members.
  ServerId num_servers() const noexcept { return config_.num_servers; }

  /// Highest server id the group can ever address, plus one. Equals
  /// num_servers() for static groups, config.max_servers for elastic ones.
  ServerId capacity() const noexcept {
    return config_.max_servers == 0 ? config_.num_servers
                                    : config_.max_servers;
  }

  bool elastic() const noexcept { return epochs_ != nullptr; }

  /// The membership history (elastic groups only). A MembershipController
  /// drives transitions against this store over a group connection.
  elastic::EpochStore& epochs() {
    RNB_REQUIRE(epochs_ != nullptr);
    return *epochs_;
  }

  /// Boot (kTcp: bind + spawn; kLoopback: activate the pre-built engine)
  /// server `s`, configured at the current epoch. Elastic groups only.
  /// Call before MembershipController::join(s); the server holds no data
  /// and receives no client traffic until the join commits. TCP ids are
  /// dense: `s` must be the next unbooted index.
  void start_server(ServerId s);

  /// Stop serving from `s`: connections break (kTcp) or roundtrips report
  /// kServerDown (kLoopback). Call after MembershipController::leave(s)
  /// drained it — or before, to simulate a crash-stop.
  void stop_server(ServerId s);

  /// True while `s` is booted and serving.
  bool server_active(ServerId s) const noexcept {
    return s < capacity() && active_[s].load(std::memory_order_relaxed);
  }

  /// The shared topology + health view all clients plan covers against.
  ClusterView& view() noexcept { return view_; }
  const ClusterView& view() const noexcept { return view_; }

  /// Direct engine access for tests and stats scrapes (not during load).
  kv::ShardedKvServer& server(ServerId s);

  /// TCP listen port of server `s` (kTcp wire only).
  std::uint16_t port(ServerId s) const;

  /// Wire-level server `s` — connection counters, accept errors — for
  /// soak tests and health scrapes (kTcp wire only).
  kv::WireServer& wire_server(ServerId s);

  /// A fresh client transport: TCP connections or a loopback forwarder,
  /// fault-wrapped when the config carries a spec. Thread-compatible: each
  /// worker calls connect() once and keeps its connection.
  std::unique_ptr<GroupConnection> connect();

  struct LoadStats {
    std::uint64_t keys = 0;      // distinct keys installed
    std::uint64_t pinned = 0;    // distinguished copies stored (pinned)
    std::uint64_t replicas = 0;  // replica copies stored (evictable)
    std::uint64_t rejected = 0;  // SERVER_ERROR acks (budget too small)
  };

  /// Install `keys` through the placement: distinguished copy pinned on
  /// its replica-0 server; when `preinstall_replicas`, every further
  /// logical replica is stored evictable (unlimited-memory regime) —
  /// otherwise replicas start cold and are filled by client write-backs
  /// (limited regime). Runs on a clean internal connection: preload never
  /// sees injected faults, mirroring the simulators' populate step. Over
  /// TCP, stores go out a window of keys at a time before their acks are
  /// read.
  LoadStats load(std::span<const std::string> keys,
                 const std::function<std::string(std::string_view)>& value_of,
                 bool preinstall_replicas);

  /// Paper Section III-E sizing: evictable replica-class bytes per server
  /// when the fleet's total memory is `relative_memory` copies of the data
  /// (>= 1.0; 1.0 = no replica space). Entry cost mirrors the MemTable's
  /// accounting (key + value + fixed overhead).
  static std::size_t replica_budget(std::uint64_t num_items,
                                    std::size_t key_bytes,
                                    std::size_t value_bytes,
                                    double relative_memory,
                                    ServerId num_servers);

 private:
  /// An unfaulted wire transport (load() and connect() both build on it).
  std::unique_ptr<kv::KvTransport> make_wire();

  ServerGroupConfig config_;
  faultsim::FaultSpec faults_;
  bool inject_faults_ = false;
  // Exactly one of the fleets exists, per config_.wire.
  std::unique_ptr<kv::ShardedLoopbackTransport> loopback_;
  std::unique_ptr<kv::TcpFleet> tcp_;
  /// Membership history; null for static groups. Declared before view_ —
  /// the view's construction captures the initial epoch snapshot.
  std::unique_ptr<elastic::EpochStore> epochs_;
  /// Per-slot serving flag, sized to capacity(). Loopback engines exist
  /// for every slot up front and are gated here; TCP servers boot lazily.
  std::vector<std::atomic<bool>> active_;
  ClusterView view_;
};

}  // namespace rnb::dserve
