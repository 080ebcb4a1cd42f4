// Shared cluster topology and health view for the live serving tier.
//
// Every client worker planning a bundled multi-get needs the same two
// facts: where each key's replicas live (the deterministic placement the
// simulator validated — any client recomputes it from the key alone), and
// which servers are currently believed dead (so covers are planned over
// surviving replicas instead of burning a full retry budget per request).
// ClusterView holds both. Placement is immutable after construction;
// health is a lock-free per-server mark that any client thread may set
// when a bundled get exhausts its attempts and clear when a later probe
// succeeds.
//
// Health marks expire in *virtual* time: the view keeps a global operation
// counter (tick() once per client operation) and a down mark older than
// `reprobe_interval` ops stops being authoritative — the next cover may
// pick the server again, and the outcome of that probe either clears the
// mark or renews it. No wall clock is read, so fault-injected runs replay
// deterministically.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "elastic/epoch.hpp"
#include "hashring/placement.hpp"

namespace rnb::dserve {

struct ClusterViewConfig {
  /// Logical replicas per item, distinguished copy included.
  std::uint32_t replication = 3;
  PlacementScheme placement = PlacementScheme::kRangedConsistentHash;
  std::uint64_t placement_seed = 1;
  /// Client operations a down mark stays authoritative before the server
  /// is offered to covers again (reprobe). Virtual time: the view's op
  /// counter, never a clock.
  std::uint64_t reprobe_interval = 256;
};

class ClusterView {
 public:
  /// Static view (the historical mode): placement over the fixed id range
  /// [0, num_servers). Pass `ring` to build an *elastic* view instead:
  /// placement then comes from versioned RingEpoch snapshots (install_ring
  /// publishes successors) and `num_servers` is the fleet *capacity* — the
  /// health arrays cover every id a future epoch may contain, so a member
  /// joining later needs no resize.
  ClusterView(ServerId num_servers, const ClusterViewConfig& config,
              std::shared_ptr<const elastic::RingEpoch> ring = nullptr)
      : config_(config),
        placement_(ring != nullptr
                       ? nullptr
                       : make_placement(config.placement, num_servers,
                                        config.replication,
                                        config.placement_seed)),
        ring_(std::move(ring)),
        down_since_(num_servers),
        last_up_(num_servers) {
    RNB_REQUIRE(num_servers > 0);
    for (auto& d : down_since_) d.store(kUp, std::memory_order_relaxed);
    for (auto& u : last_up_) u.store(0, std::memory_order_relaxed);
    if (ring_ != nullptr) RNB_REQUIRE(ring_->members().back() < num_servers);
  }

  /// Fleet capacity: every server id health marks (and transports) must
  /// accommodate. Equals the placement's server count in static mode; in
  /// elastic mode the current epoch's members are a subset of [0, this).
  ServerId num_servers() const noexcept {
    return static_cast<ServerId>(down_since_.size());
  }
  std::uint32_t replication() const {
    return placement_ != nullptr ? placement_->replication()
                                 : ring()->replication();
  }
  const ClusterViewConfig& config() const noexcept { return config_; }
  /// Static mode only (elastic views have no fixed placement).
  const PlacementPolicy& placement() const noexcept { return *placement_; }

  /// Elastic mode: the current ring snapshot (never null), or null for a
  /// static view (without taking the ring lock).
  std::shared_ptr<const elastic::RingEpoch> ring() const {
    if (placement_ != nullptr) return nullptr;
    const std::lock_guard lock(ring_mu_);
    return ring_;
  }

  /// The placement one operation plans against: the static policy, or one
  /// ring epoch held for the operation's lifetime. Clients take one
  /// snapshot per operation (and a fresh one on an epoch re-plan), so a
  /// concurrent install_ring never splits an operation across two epochs
  /// and the epoch a frame is tagged with is the one its keys were placed
  /// under.
  class Snapshot {
   public:
    /// The epoch to tag frames with; 0 for a static view (no tag).
    std::uint64_t epoch() const noexcept {
      return ring_ != nullptr ? ring_->epoch() : 0;
    }
    std::uint32_t replication() const noexcept {
      return ring_ != nullptr ? ring_->replication()
                              : placement_->replication();
    }
    /// Write the replicas of `item` into `out` (size() == replication()) in
    /// replica order; out[0] is the distinguished copy.
    void replicas(ItemId item, std::span<ServerId> out) const {
      if (ring_ != nullptr)
        ring_->replicas(item, out);
      else
        placement_->replicas(item, out);
    }

   private:
    friend class ClusterView;
    const PlacementPolicy* placement_ = nullptr;
    std::shared_ptr<const elastic::RingEpoch> ring_;
  };

  /// Static views return their fixed placement and take no lock.
  Snapshot snapshot() const {
    Snapshot s;
    s.placement_ = placement_.get();
    s.ring_ = ring();
    return s;
  }

  /// Publish a newer epoch (the membership controller, after migration).
  void install_ring(std::shared_ptr<const elastic::RingEpoch> ring) {
    RNB_REQUIRE(ring != nullptr);
    RNB_REQUIRE(ring->members().back() < num_servers());
    const std::lock_guard lock(ring_mu_);
    ring_ = std::move(ring);
  }

  /// The current epoch; 0 for a static view (no tag). Operations tag with
  /// their snapshot's epoch instead, so tag and placement always agree.
  std::uint64_t epoch() const {
    const auto current = ring();
    return current != nullptr ? current->epoch() : 0;
  }

  bool elastic() const noexcept { return placement_ == nullptr; }

  /// Key -> item id. The simulator places item ids with the same policies,
  /// so live placement agrees with everything validated there.
  static ItemId item_of(std::string_view key) noexcept {
    return fnv1a64(key);
  }

  /// Replica servers of `key` in replica order; [0] is the distinguished
  /// copy. Ignores health — callers filter with is_down() when planning.
  /// Elastic mode computes against the current ring; operations plan
  /// against one snapshot() instead.
  std::vector<ServerId> replicas(std::string_view key) const {
    const Snapshot s = snapshot();
    std::vector<ServerId> out(s.replication());
    s.replicas(item_of(key), out);
    return out;
  }

  ServerId distinguished(std::string_view key) const {
    if (placement_ != nullptr)
      return placement_->distinguished(item_of(key));
    return ring()->replicas(item_of(key))[0];
  }

  /// Advance the view's virtual clock; call once per client operation.
  void tick() noexcept { ops_.fetch_add(1, std::memory_order_relaxed); }

  /// The current op count. Capture before an operation's first send and
  /// hand it back to mark_down() so a slow failing operation cannot
  /// overrule successes recorded while it was in flight.
  std::uint64_t ops() const noexcept {
    return ops_.load(std::memory_order_relaxed);
  }

  /// True while the server's down mark is younger than reprobe_interval.
  /// An expired mark reads as up — the next cover probes the server and
  /// the result either clears (mark_up) or renews (mark_down) the mark.
  bool is_down(ServerId s) const noexcept {
    const std::uint64_t d = down_since_[s].load(std::memory_order_relaxed);
    if (d == kUp) return false;
    return ops_.load(std::memory_order_relaxed) - d <
           config_.reprobe_interval;
  }

  /// True when any client currently holds a down mark on `s`, expired or
  /// not (a probe target keeps its mark until a success clears it).
  bool marked(ServerId s) const noexcept {
    return down_since_[s].load(std::memory_order_relaxed) != kUp;
  }

  /// Record that `s` ate every attempt of a transaction that began at view
  /// op `op_started` (from ops()). The mark is suppressed when some client
  /// recorded a success against `s` *after* this operation began: the
  /// failure is then stale evidence — typically a slow retry loop that
  /// started before the server recovered — and applying it would re-mark a
  /// healthy server the moment a reprobe had cleared it, skipping it for
  /// another full reprobe interval every time the interleaving recurred.
  /// (A stale mark_down that read last_up_ just before a concurrent
  /// mark_up stamps it can still land, but at most once: the mark expires
  /// and the stamp now filters any repeat.)
  void mark_down(ServerId s, std::uint64_t op_started) noexcept {
    if (last_up_[s].load(std::memory_order_relaxed) > op_started) return;
    down_since_[s].store(ops_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    down_marks_.fetch_add(1, std::memory_order_relaxed);
  }

  /// mark_down() stamped "now": never suppressed (no success can postdate
  /// an operation that begins at the current op count).
  void mark_down(ServerId s) noexcept { mark_down(s, ops()); }

  /// Record a successful transaction against `s`; clears any mark and
  /// stamps the success so stale in-flight failures cannot re-mark it.
  /// The strict comparison in mark_down keeps same-tick evidence live: a
  /// success and a failure within one view op never suppress each other,
  /// so a server dying mid-operation is still marked immediately.
  void mark_up(ServerId s) noexcept {
    // Stamp before clearing: once the mark is gone the stamp must already
    // filter the stale mark_down that raced us.
    last_up_[s].store(ops_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    if (down_since_[s].exchange(kUp, std::memory_order_relaxed) != kUp)
      recoveries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Servers currently considered down (availability metric).
  ServerId down_count() const noexcept {
    ServerId n = 0;
    for (ServerId s = 0; s < num_servers(); ++s)
      if (is_down(s)) ++n;
    return n;
  }

  std::uint64_t down_marks() const noexcept {
    return down_marks_.load(std::memory_order_relaxed);
  }
  std::uint64_t recoveries() const noexcept {
    return recoveries_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kUp =
      std::numeric_limits<std::uint64_t>::max();

  ClusterViewConfig config_;
  std::unique_ptr<PlacementPolicy> placement_;  // null in elastic mode
  mutable std::mutex ring_mu_;
  std::shared_ptr<const elastic::RingEpoch> ring_;  // null in static mode
  std::atomic<std::uint64_t> ops_{0};
  std::vector<std::atomic<std::uint64_t>> down_since_;
  /// Op stamp of the latest mark_up per server (0 = never marked up).
  std::vector<std::atomic<std::uint64_t>> last_up_;
  std::atomic<std::uint64_t> down_marks_{0};
  std::atomic<std::uint64_t> recoveries_{0};
};

}  // namespace rnb::dserve
