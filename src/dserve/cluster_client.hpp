// KvClusterClient: the RnB client of the paper's Section IV, against a
// live ServerGroup or any fleet behind a KvTransport.
//
//   set           writes every logical replica (replica 0 pinned),
//   multi_get     bundles keys per server via greedy set cover, falls back
//                 to distinguished copies for evicted replicas, and writes
//                 missing replicas back; multi_get_at_least and
//                 multi_get_within are its LIMIT forms (Section III-F),
//   atomic_update drops the non-distinguished replicas, CASes the
//                 distinguished copy, and lets reads repopulate replicas.
//
// Placement comes from a shared ClusterView (one policy object for the
// whole process instead of one per client; a fixed fleet uses a static
// view), and covers are planned over *surviving* replicas — a server that
// ate every attempt of a bundled get is marked down in the view, so the
// next thousand requests from every worker route around it instead of
// each burning a retry budget rediscovering the crash. Down marks expire
// in view-op time and the next cover probes the server; a success clears
// the mark (restore), a failure renews it.
//
// The failure machinery (bounded retries, decorrelated-jitter backoff,
// quantile hedging, virtual deadlines) is the shared KvExchange engine
// (kv/failure_policy.hpp), and every frame carries the ambient `@trace`
// tag, so multi-server runs stitch into the same client→server span trees
// the single-server path produces.
//
// Elastic views add stale-view tolerance: each operation plans against one
// placement snapshot (ClusterView::Snapshot), tags every frame with that
// snapshot's epoch, and treats a WRONG_EPOCH bounce as "my ring is old"
// rather than a server failure — the operation takes a fresh snapshot (the
// controller publishes the ring before bumping servers, so the newer ring
// is always there) and re-plans the unsatisfied keys in a recover round.
// Static views carry epoch 0 and never tag.
//
// multi_get plans in scratch the client owns and reuses (one client per
// thread): each key is hashed once, deduplicated through a flat table that
// also maps returned keys back to items, placed into one flat items ×
// replicas array, and bundled through per-server lists indexed by
// ServerId. Each response is parsed once, into views. A warmed-up call
// allocates only for the MultiGetResult it returns.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dserve/cluster_view.hpp"
#include "kv/failure_policy.hpp"
#include "kv/kv_transport.hpp"
#include "kv/protocol.hpp"

namespace rnb::dserve {

struct KvClusterClientConfig {
  /// Replica write-back after a fallback hit (Section III-C2 write rule).
  bool write_back_misses = true;
  /// Hitchhiking (Section III-C2): piggyback covered keys onto
  /// transactions already visiting a server that holds one of their
  /// replicas.
  bool hitchhiking = false;
  /// Retry / hedging / deadline policy; defaults are inert on a clean
  /// transport.
  kv::KvFailurePolicy failure;
};

class KvClusterClient {
 public:
  /// One client per worker thread, all sharing one ClusterView. The
  /// transport is this worker's own connection (ServerGroup::connect()).
  KvClusterClient(kv::KvTransport& transport, ClusterView& view,
                  const KvClusterClientConfig& config);
  ~KvClusterClient();

  /// Store `value` on every logical replica (replica 0 pinned). Returns
  /// the number of STORED acks.
  std::uint32_t set(std::string_view key, std::string_view value);

  /// Single-key read: distinguished copy first, degrading through the
  /// remaining replicas when it is unreachable. This is also the per-item
  /// baseline the multi-get-hole bench compares bundling against.
  std::optional<std::string> get(std::string_view key);

  struct MultiGetResult {
    std::unordered_map<std::string, std::string> values;
    /// Keys not returned: found on no reachable server, or skipped (never
    /// sent) by a LIMIT or budgeted cover. values.size() + missing.size()
    /// is the number of distinct keys.
    std::vector<std::string> missing;
    std::uint32_t round1_transactions = 0;
    std::uint32_t round2_transactions = 0;
    std::uint32_t recover_transactions = 0;
    std::uint32_t hitchhiker_keys = 0;
    /// This operation's slice of the failure counters.
    std::uint32_t retries = 0;
    std::uint32_t hedged_sends = 0;
    /// Servers newly marked down by this operation.
    std::uint32_t servers_marked_down = 0;
    /// Ring refreshes after WRONG_EPOCH bounces (elastic views only).
    std::uint32_t epoch_replans = 0;
    bool deadline_missed = false;

    std::uint32_t transactions() const noexcept {
      return round1_transactions + round2_transactions +
             recover_transactions;
    }
  };

  /// Fetch all keys with RnB bundling over surviving replicas. A response
  /// carrying a key its bundle did not ask for is malformed: it is counted
  /// and retried like any garbled frame. In every multi_get form,
  /// values.size() + missing.size() is the number of distinct keys.
  MultiGetResult multi_get(std::span<const std::string> keys);

  /// LIMIT fetch (Section III-F): at least ceil(fraction * distinct keys)
  /// of the keys. The cover chooses which keys to skip; a skipped key is
  /// never sent and is reported in `missing`.
  MultiGetResult multi_get_at_least(std::span<const std::string> keys,
                                    double fraction);

  /// Budgeted fetch: as many keys as at most `max_transactions` bundled
  /// round-1 transactions cover (the "as many items as possible within
  /// X ms" LIMIT form, with a transaction budget for the deadline). Round 1
  /// only: no recover round, no round 2, no write-back — a deadline-bound
  /// caller would rather go without than wait.
  MultiGetResult multi_get_within(std::span<const std::string> keys,
                                  std::uint32_t max_transactions);

  /// Delete every replica (distinguished last, so concurrent fallback
  /// readers never outlive it). True if the distinguished copy existed.
  bool remove(std::string_view key);

  enum class UpdateOutcome { kUpdated, kNotFound, kConflict };

  /// Read-modify-write with memcached-level atomicity (Section IV): delete
  /// the non-distinguished replicas, then CAS the distinguished copy,
  /// retrying up to `retries` times on version conflicts. Later multi_get
  /// write-backs recreate the replicas. An unreachable distinguished copy
  /// reports kConflict, and so does a deadline cut: once the policy's
  /// deadline has passed, no further frame (versioned get or CAS) is sent.
  UpdateOutcome atomic_update(
      std::string_view key,
      const std::function<std::string(std::string_view)>& mutate,
      int retries = 4);

  ClusterView& view() noexcept { return view_; }
  const kv::KvFailureStats& failure_stats() const noexcept {
    return exchange_.stats();
  }

 private:
  struct Scratch;
  enum class Fetch { kValues, kStale, kFailed };

  /// Finish a begun transaction into response_; a success clears the
  /// server's down mark.
  bool finish(kv::KvExchange::Pending& txn, double& elapsed,
              const std::function<bool(const std::string&)>& valid = {},
              bool allow_hedge = true);
  /// Finish a begun get whose keys are the scratch's open bundle. kValues
  /// leaves the response's values parsed in the scratch; kStale is a
  /// WRONG_EPOCH bounce (a healthy answer: never retried, never a down
  /// mark — the caller refreshes and re-plans).
  Fetch fetch(kv::KvExchange::Pending& txn, double& elapsed);
  /// The validity check fetch() runs on each delivered frame: a VALUE
  /// frame, in the open bundle's version mode, naming only keys of the
  /// open bundle; or a WRONG_EPOCH bounce.
  bool accept(const std::string& frame);
  /// The bundled read behind every multi_get form: cover at least
  /// `fraction` of the distinct keys or, given a `budget`, as many as
  /// `budget` round-1 transactions reach and stop after round 1.
  MultiGetResult read(std::span<const std::string> keys, double fraction,
                      std::optional<std::uint32_t> budget);
  /// Delete `key` on every server in `servers` as one wave tagged with
  /// `epoch`: all deletes go out before the first answer is read. Sets
  /// `bounced` on a WRONG_EPOCH answer. True when the last server
  /// answered DELETED.
  bool drop(std::string_view key, std::span<const ServerId> servers,
            std::uint64_t epoch, double& elapsed, bool& bounced);
  /// `key`'s replicas under `placement`, in a scratch buffer.
  std::span<const ServerId> replicas_of(const ClusterView::Snapshot& placement,
                                        std::string_view key);

  kv::KvTransport& transport_;
  ClusterView& view_;
  KvClusterClientConfig config_;
  // Reused reply buffers; one client per thread, like a web worker. The
  // request frames live in the scratch.
  std::string response_;
  std::string ack_;
  kv::KvExchange exchange_;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace rnb::dserve
