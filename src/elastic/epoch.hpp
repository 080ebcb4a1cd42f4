// Versioned ring epochs: the membership history the whole cluster agrees on.
//
// Every membership change produces a new immutable RingEpoch — (epoch
// number, member ring) — and the EpochStore hands out shared_ptr snapshots,
// so a client can plan a whole multi-get against one consistent view while
// the controller installs the next one underneath. The epoch number is the
// staleness currency on the wire: clients tag requests with the epoch they
// planned against, servers configured for a newer epoch answer WRONG_EPOCH,
// and the client re-plans from a fresh snapshot (dserve/cluster_client).
//
// Transitions are two-phase on purpose: propose_*() builds epoch N+1
// without publishing it, the MigrationDriver streams affected keys while
// epoch N still serves, and only then does commit() make N+1 current.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "elastic/member_ring.hpp"

namespace rnb::elastic {

/// One immutable membership version. Epoch numbers start at 1 so tagging a
/// frame with epoch 0 can mean "no tag" on the wire, mirroring the trace
/// tag's absent encoding.
class RingEpoch {
 public:
  RingEpoch(std::uint64_t epoch, MemberRing ring)
      : epoch_(epoch), ring_(std::move(ring)) {}

  std::uint64_t epoch() const noexcept { return epoch_; }
  const MemberRing& ring() const noexcept { return ring_; }

  const std::vector<ServerId>& members() const noexcept {
    return ring_.members();
  }
  std::uint32_t replication() const noexcept { return ring_.replication(); }
  bool contains(ServerId server) const noexcept {
    return ring_.contains(server);
  }
  std::vector<ServerId> replicas(ItemId item) const {
    return ring_.replicas(item);
  }
  void replicas(ItemId item, std::span<ServerId> out) const {
    ring_.replicas(item, out);
  }

 private:
  std::uint64_t epoch_;
  MemberRing ring_;
};

/// Thread-safe holder of the current epoch plus the propose/commit seam the
/// membership controller drives. Reads are snapshot copies of a shared_ptr,
/// so lookups on a captured epoch never block on a concurrent commit.
class EpochStore {
 public:
  EpochStore(const MemberRingConfig& config,
             std::vector<ServerId> initial_members);

  std::shared_ptr<const RingEpoch> current() const;
  std::uint64_t epoch() const;

  /// Build (but do not publish) the next epoch with `server` added/removed.
  std::shared_ptr<const RingEpoch> propose_join(ServerId server) const;
  std::shared_ptr<const RingEpoch> propose_leave(ServerId server) const;

  /// Publish a proposed epoch. Must be exactly current()+1 — commits are
  /// serialized through the controller, never raced.
  void commit(std::shared_ptr<const RingEpoch> next);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const RingEpoch> current_;
};

}  // namespace rnb::elastic
