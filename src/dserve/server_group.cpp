#include "dserve/server_group.hpp"

#include <limits>

#include "common/error.hpp"
#include "kv/protocol.hpp"

namespace rnb::dserve {
namespace {

// MemTable budgets bound *evictable* bytes only, so "unlimited" is just a
// budget nothing realistic reaches.
constexpr std::size_t kUnlimitedBudget = std::size_t{1} << 44;

// Mirrors MemTable::entry_cost's fixed overhead (kv/memtable.hpp): item
// header + hash chain pointers. Kept in sync by ServerGroupTest.
constexpr std::size_t kEntryOverhead = 48;

// Keys whose stores load() issues before it reads their acks. Small
// enough that a window's acks always fit in a socket buffer, so a blocking
// server never stalls writing acks the loader is not reading yet.
constexpr std::size_t kLoadWindow = 64;

/// Non-owning forwarder onto the group's shared in-process fleet, so every
/// loopback GroupConnection can own its transport like a TCP one does.
class LoopbackForwarder final : public kv::KvTransport {
 public:
  explicit LoopbackForwarder(kv::ShardedLoopbackTransport& fleet)
      : fleet_(fleet) {}

  ServerId num_servers() const noexcept override {
    return fleet_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    return fleet_.roundtrip(s, request, response);
  }

 private:
  kv::ShardedLoopbackTransport& fleet_;
};

/// Loopback forwarder for elastic groups: every capacity slot has an
/// engine, but only active slots serve — a stopped slot answers
/// kServerDown exactly like a crashed TCP peer.
class ElasticLoopbackForwarder final : public kv::KvTransport {
 public:
  ElasticLoopbackForwarder(kv::ShardedLoopbackTransport& fleet,
                           std::span<const std::atomic<bool>> active)
      : fleet_(fleet), active_(active) {}

  ServerId num_servers() const noexcept override {
    return fleet_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    if (!active_[s].load(std::memory_order_relaxed)) {
      response.clear();
      return {kv::TransportStatus::kServerDown, 0.0};
    }
    return fleet_.roundtrip(s, request, response);
  }

 private:
  kv::ShardedLoopbackTransport& fleet_;
  std::span<const std::atomic<bool>> active_;
};

elastic::MemberRingConfig ring_config(const ServerGroupConfig& config) {
  elastic::MemberRingConfig rc;
  rc.scheme = config.ring_scheme;
  rc.replication = config.view.replication;
  rc.seed = config.view.placement_seed;
  return rc;
}

std::unique_ptr<elastic::EpochStore> make_epochs(
    const ServerGroupConfig& config) {
  if (config.max_servers == 0) return nullptr;
  RNB_REQUIRE(config.max_servers >= config.num_servers);
  std::vector<ServerId> members(config.num_servers);
  for (ServerId s = 0; s < config.num_servers; ++s) members[s] = s;
  return std::make_unique<elastic::EpochStore>(ring_config(config),
                                               std::move(members));
}

}  // namespace

GroupConnection::GroupConnection(std::unique_ptr<kv::KvTransport> wire,
                                 const faultsim::FaultSpec* faults)
    : wire_(std::move(wire)) {
  if (faults != nullptr) {
    faults_ = std::make_unique<faultsim::FaultInjectingTransport>(
        *wire_, faultsim::FaultSchedule(*faults, wire_->num_servers()));
    top_ = faults_.get();
  } else {
    top_ = wire_.get();
  }
}

ServerGroup::ServerGroup(const ServerGroupConfig& config)
    : config_(config),
      epochs_(make_epochs(config)),
      active_(config.max_servers == 0 ? config.num_servers
                                      : config.max_servers),
      view_(config.max_servers == 0 ? config.num_servers : config.max_servers,
            config.view, epochs_ != nullptr ? epochs_->current() : nullptr) {
  RNB_REQUIRE(config.num_servers > 0);
  const std::size_t budget = config_.bytes_per_server == 0
                                 ? kUnlimitedBudget
                                 : config_.bytes_per_server;
  if (config_.wire == GroupWire::kLoopback) {
    // Elastic loopback fleets build every capacity slot's engine up front
    // (cheap: empty tables) and gate serving on active_; TCP slots boot
    // lazily in start_server.
    loopback_ = std::make_unique<kv::ShardedLoopbackTransport>(
        capacity(), budget, config_.shards_per_server);
  } else {
    tcp_ = std::make_unique<kv::TcpFleet>(config_.num_servers, budget,
                                          config_.shards_per_server,
                                          config_.server_model);
  }
  for (ServerId s = 0; s < config_.num_servers; ++s) {
    active_[s].store(true, std::memory_order_relaxed);
    if (elastic()) server(s).set_epoch(epochs_->epoch());
  }
  if (!config_.fault_spec.empty()) {
    std::string error;
    const auto spec = faultsim::parse_fault_spec(config_.fault_spec, &error);
    RNB_REQUIRE(spec.has_value() && "fault_spec must parse");
    faults_ = *spec;
    inject_faults_ = faults_.any();
  }
}

ServerGroup::~ServerGroup() = default;

void ServerGroup::start_server(ServerId s) {
  RNB_REQUIRE(elastic() && s < capacity());
  if (tcp_ != nullptr && s >= tcp_->num_servers()) {
    RNB_REQUIRE(s == tcp_->num_servers() &&
                "TCP server ids boot densely; start the next index");
    const std::size_t budget = config_.bytes_per_server == 0
                                   ? kUnlimitedBudget
                                   : config_.bytes_per_server;
    tcp_->add_server(budget, config_.shards_per_server, config_.server_model);
  }
  server(s).set_epoch(epochs_->epoch());
  active_[s].store(true, std::memory_order_relaxed);
}

void ServerGroup::stop_server(ServerId s) {
  RNB_REQUIRE(s < capacity());
  active_[s].store(false, std::memory_order_relaxed);
  if (tcp_ != nullptr && s < tcp_->num_servers()) tcp_->wire(s).shutdown();
}

kv::ShardedKvServer& ServerGroup::server(ServerId s) {
  if (loopback_ != nullptr) {
    RNB_REQUIRE(s < loopback_->num_servers());
    return loopback_->server(s);
  }
  RNB_REQUIRE(s < tcp_->num_servers());
  return tcp_->server(s);
}

std::uint16_t ServerGroup::port(ServerId s) const {
  RNB_REQUIRE(tcp_ != nullptr && s < tcp_->num_servers());
  return tcp_->port(s);
}

kv::WireServer& ServerGroup::wire_server(ServerId s) {
  RNB_REQUIRE(tcp_ != nullptr && s < tcp_->num_servers());
  return tcp_->wire(s);
}

std::unique_ptr<kv::KvTransport> ServerGroup::make_wire() {
  const std::span<const std::atomic<bool>> active(active_);
  if (tcp_ != nullptr)
    return std::make_unique<kv::TcpClientTransport>(*tcp_, active,
                                                    capacity());
  if (elastic())
    return std::make_unique<ElasticLoopbackForwarder>(*loopback_, active);
  return std::make_unique<LoopbackForwarder>(*loopback_);
}

std::unique_ptr<GroupConnection> ServerGroup::connect() {
  return std::make_unique<GroupConnection>(
      make_wire(), inject_faults_ ? &faults_ : nullptr);
}

ServerGroup::LoadStats ServerGroup::load(
    std::span<const std::string> keys,
    const std::function<std::string(std::string_view)>& value_of,
    bool preinstall_replicas) {
  const std::unique_ptr<kv::KvTransport> wire = make_wire();
  LoadStats stats;
  // A window of keys' stores is issued before any of their acks is read:
  // over TCP the window costs about one roundtrip per server, not one per
  // copy. In-process wires keep the lazy default, one roundtrip per copy.
  const std::size_t copies = preinstall_replicas ? view_.replication() : 1;
  std::vector<std::string> frames(kLoadWindow * copies);
  std::vector<kv::Ticket> tickets(frames.size());
  std::vector<std::uint8_t> pinned(frames.size());
  std::string response;
  for (std::size_t first = 0; first < keys.size(); first += kLoadWindow) {
    const std::size_t last = std::min(keys.size(), first + kLoadWindow);
    std::size_t n = 0;
    for (std::size_t k = first; k < last; ++k) {
      const std::string& key = keys[k];
      const std::string value = value_of(key);
      const std::vector<ServerId> servers = view_.replicas(key);
      ++stats.keys;
      for (std::size_t r = 0; r < copies; ++r, ++n) {
        frames[n].clear();
        kv::encode_set(key, value, /*pin=*/r == 0, frames[n]);
        pinned[n] = r == 0;
        tickets[n] = wire->issue(servers[r], frames[n]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      wire->collect(tickets[j], response);
      if (kv::parse_simple(response) == "STORED")
        ++(pinned[j] != 0 ? stats.pinned : stats.replicas);
      else
        ++stats.rejected;
    }
  }
  return stats;
}

std::size_t ServerGroup::replica_budget(std::uint64_t num_items,
                                        std::size_t key_bytes,
                                        std::size_t value_bytes,
                                        double relative_memory,
                                        ServerId num_servers) {
  RNB_REQUIRE(relative_memory >= 1.0 && num_servers > 0);
  const double entry =
      static_cast<double>(key_bytes + value_bytes + kEntryOverhead);
  const double total =
      (relative_memory - 1.0) * static_cast<double>(num_items) * entry;
  return static_cast<std::size_t>(total / static_cast<double>(num_servers));
}

}  // namespace rnb::dserve
