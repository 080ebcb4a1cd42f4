#include "dserve/cluster_client.hpp"

#include <limits>

#include "common/error.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"
#include "setcover/cover.hpp"
#include "setcover/greedy.hpp"

namespace rnb::dserve {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Item lists keyed by ServerId, threaded through one node pool: appending
/// keeps each list in insertion order, and a warm pool allocates nothing.
class ServerLists {
 public:
  void reset(std::size_t servers) {
    head_.assign(servers, kNone);
    tail_.assign(servers, kNone);
    next_.clear();
    item_.clear();
  }

  void push(ServerId s, std::uint32_t item) {
    const auto node = static_cast<std::uint32_t>(item_.size());
    item_.push_back(item);
    next_.push_back(kNone);
    if (head_[s] == kNone)
      head_[s] = node;
    else
      next_[tail_[s]] = node;
    tail_[s] = node;
  }

  bool empty(ServerId s) const { return head_[s] == kNone; }

  template <typename Fn>
  void for_each(ServerId s, Fn&& fn) const {
    for (std::uint32_t n = head_[s]; n != kNone; n = next_[n]) fn(item_[n]);
  }

 private:
  std::vector<std::uint32_t> head_, tail_;  // per server: first/last node
  std::vector<std::uint32_t> next_, item_;  // per node
};

}  // namespace

/// Everything one operation plans in, reused across operations. Items are
/// the request's distinct keys in first-appearance order, as views into the
/// caller's keys.
struct KvClusterClient::Scratch {
  explicit Scratch(ServerId num_servers)
      : servers(num_servers),
        contacted(num_servers, 0),
        failed(num_servers, 0),
        planned(num_servers, 0) {}

  ServerId servers;
  std::uint64_t op = 0;  // stamps the per-server marks below

  // Items, their fnv1a64 hashes (placement's item ids), and an
  // open-addressing table of item indices keyed by those hashes.
  std::vector<std::string_view> items;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> slots;
  unsigned shift = 0;

  // Placement: item i's replicas are locations[i * stride, +stride). The
  // cover instance reuses the same layout for its candidates.
  std::size_t stride = 0;
  std::vector<ServerId> locations;
  std::vector<ServerId> candidates;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> pool;  // a recover round's items
  GreedyScratch greedy;
  CoverResult cover;
  std::vector<ServerId> assignment;
  std::vector<ServerId> single;  // a single-key operation's replicas

  // Per-item state.
  std::vector<std::uint8_t> satisfied;
  std::vector<std::uint8_t> stranded;
  std::vector<std::uint64_t> bundle_of;  // last bundle holding the item
  std::vector<std::string*> value_of;    // its slot in result.values

  // Per-server state, stamped with `op` so nothing is cleared per call.
  std::vector<std::uint64_t> contacted;
  std::vector<std::uint64_t> failed;
  std::vector<std::uint64_t> planned;  // in the round-1 cover
  std::uint32_t contacted_count = 0;
  ServerLists bundles;
  ServerLists hitchhikers;

  // The open bundle: the stamp accept() checks items against, its version
  // mode, and the keys of the frame being encoded.
  std::uint64_t bundle = 0;
  bool versioned = false;
  std::vector<std::string_view> keys;
  // What accept() made of the frame fetch() kept.
  std::vector<kv::ValueView> views;
  std::vector<std::uint32_t> view_items;
  bool bounced = false;

  // The wave in flight: a frame and a begun transaction per bundle, and
  // round 2's servers. Round 2's write-backs for one reply have their own
  // frames and tickets: they go out while later round-2 frames are still
  // in flight.
  std::vector<std::string> frames;
  std::vector<kv::KvExchange::Pending> txns;
  std::vector<ServerId> round2;
  std::vector<std::string> writebacks;
  std::vector<kv::Ticket> writeback_tickets;

  /// Deduplicate `requested` into items; returns the item count.
  template <typename Keys>
  std::size_t index(const Keys& requested) {
    items.clear();
    hashes.clear();
    std::size_t capacity = 16;
    shift = 60;
    while (capacity < 2 * std::size(requested)) {
      capacity <<= 1;
      --shift;
    }
    slots.assign(capacity, kNone);
    for (const std::string_view key : requested) {
      const std::uint64_t h = ClusterView::item_of(key);
      std::uint32_t& slot = probe(key, h);
      if (slot != kNone) continue;
      slot = static_cast<std::uint32_t>(items.size());
      items.push_back(key);
      hashes.push_back(h);
    }
    const std::size_t m = items.size();
    satisfied.assign(m, 0);
    stranded.assign(m, 0);
    bundle_of.assign(m, 0);
    value_of.assign(m, nullptr);
    return m;
  }

  /// The item named `key`, or kNone.
  std::uint32_t find(std::string_view key) {
    return probe(key, ClusterView::item_of(key));
  }

  /// The table slot holding `key` (hash `h`), or the empty slot it would
  /// go in. High hash bits pick the start: FNV-1a's low bits only mix the
  /// keys' low bits.
  std::uint32_t& probe(std::string_view key, std::uint64_t h) {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t p = static_cast<std::size_t>(h >> shift);;
         p = (p + 1) & mask) {
      std::uint32_t& slot = slots[p];
      if (slot == kNone || (hashes[slot] == h && items[slot] == key))
        return slot;
    }
  }

  /// Place every item under `placement`.
  void place(const ClusterView::Snapshot& placement) {
    const std::size_t m = items.size();
    stride = placement.replication();
    locations.resize(m * stride);
    candidates.resize(m * stride);
    counts.resize(m);
    for (std::size_t i = 0; i < m; ++i) placement.replicas(hashes[i], row(i));
  }

  std::span<ServerId> row(std::size_t i) {
    return std::span<ServerId>(locations).subspan(i * stride, stride);
  }

  /// Cover instance row `j`: `i`'s replicas that pass `keep`, or all of
  /// them when `keep_all_if_none` and none do. Returns the row's size.
  template <typename Keep>
  std::uint32_t candidate_row(std::size_t j, std::size_t i, Keep keep,
                              bool keep_all_if_none) {
    ServerId* out = &candidates[j * stride];
    std::uint32_t n = 0;
    for (const ServerId s : row(i))
      if (keep(s)) out[n++] = s;
    if (n == 0 && keep_all_if_none)
      for (const ServerId s : row(i)) out[n++] = s;
    counts[j] = n;
    return n;
  }

  FlatCoverInstance instance(std::size_t n) const {
    return {candidates, std::span<const std::uint32_t>(counts).first(n),
            stride};
  }

  /// Room for an n-frame wave. Only between waves: in-flight tickets
  /// point into `frames`.
  void ready(std::size_t n) {
    if (frames.size() >= n) return;
    frames.resize(n);
    txns.resize(n);
  }

  /// `srv`'s bundle as keys: its list in `bundles`, then its hitchhikers
  /// in `extra` when given.
  void bundle_keys(ServerId srv, const ServerLists* extra) {
    keys.clear();
    bundles.for_each(srv, [&](std::uint32_t i) { keys.push_back(items[i]); });
    if (extra != nullptr)
      extra->for_each(srv, [&](std::uint32_t i) { keys.push_back(items[i]); });
  }

  /// Stamp `srv`'s bundle as the open one, for accept(). Returns its
  /// hitchhiker count.
  std::uint32_t open_bundle(ServerId srv, const ServerLists* extra) {
    ++bundle;
    versioned = false;
    bundles.for_each(srv, [&](std::uint32_t i) { bundle_of[i] = bundle; });
    std::uint32_t riders = 0;
    if (extra != nullptr)
      extra->for_each(srv, [&](std::uint32_t i) {
        bundle_of[i] = bundle;
        ++riders;
      });
    return riders;
  }

  /// Open a bundle of item 0 alone: a single-key operation's key.
  void open_key(bool with_versions) {
    bundle_of[0] = ++bundle;
    versioned = with_versions;
  }
};

KvClusterClient::KvClusterClient(kv::KvTransport& transport, ClusterView& view,
                                 const KvClusterClientConfig& config)
    : transport_(transport),
      view_(view),
      config_(config),
      exchange_(transport, config.failure),
      scratch_(std::make_unique<Scratch>(view.num_servers())) {
  // Elastic fleets size the transport to capacity; the view may know the
  // same capacity or (a static view over a subset) fewer servers.
  RNB_REQUIRE(transport.num_servers() >= view.num_servers());
}

KvClusterClient::~KvClusterClient() = default;

bool KvClusterClient::finish(
    kv::KvExchange::Pending& txn, double& elapsed,
    const std::function<bool(const std::string&)>& valid, bool allow_hedge) {
  const ServerId server = txn.ticket.server;
  const bool ok =
      exchange_.finish(txn, response_, elapsed, valid, allow_hedge);
  if (ok && view_.marked(server)) view_.mark_up(server);
  return ok;
}

bool KvClusterClient::accept(const std::string& frame) {
  // A WRONG_EPOCH bounce is a well-formed response from a healthy server —
  // it must pass validity (retrying the same stale frame cannot help) and
  // must not be confused with a truncated VALUE block.
  Scratch& s = *scratch_;
  s.bounced = false;
  if (kv::parse_value_views(frame, s.versioned, s.views)) {
    s.view_items.clear();
    for (const kv::ValueView& v : s.views) {
      const std::uint32_t i = s.find(v.key);
      if (i == kNone || s.bundle_of[i] != s.bundle) return false;
      s.view_items.push_back(i);
    }
    return true;
  }
  s.bounced = kv::parse_wrong_epoch(frame).has_value();
  return s.bounced;
}

KvClusterClient::Fetch KvClusterClient::fetch(kv::KvExchange::Pending& txn,
                                              double& elapsed) {
  if (!finish(txn, elapsed,
              [this](const std::string& frame) { return accept(frame); }))
    return Fetch::kFailed;
  return scratch_->bounced ? Fetch::kStale : Fetch::kValues;
}

std::span<const ServerId> KvClusterClient::replicas_of(
    const ClusterView::Snapshot& placement, std::string_view key) {
  std::vector<ServerId>& out = scratch_->single;
  out.resize(placement.replication());
  placement.replicas(ClusterView::item_of(key), out);
  return out;
}

std::uint32_t KvClusterClient::set(std::string_view key,
                                   std::string_view value) {
  view_.tick();
  const std::uint64_t op_started = view_.ops();
  double elapsed = 0.0;
  std::uint32_t stored = 0;
  Scratch& s = *scratch_;
  // One bounded replan: a WRONG_EPOCH bounce means the view moved under
  // us; take a fresh snapshot once and redo the bounced writes (a re-set
  // is idempotent, so redoing acked replicas is harmless).
  for (int plan = 0; plan < 2; ++plan) {
    const ClusterView::Snapshot placement = view_.snapshot();
    const std::span<const ServerId> servers = replicas_of(placement, key);
    const std::size_t n = servers.size();
    bool bounced = false;
    stored = 0;
    // Every replica's write goes out before the first ack is read; the
    // acks are read in replica order.
    s.ready(n);
    for (std::size_t r = 0; r < n; ++r) {
      std::string& frame = s.frames[r];
      frame.clear();
      kv::encode_set(key, value, /*pin=*/r == 0, frame);
      kv::append_epoch_tag(frame, placement.epoch());
      exchange_.begin(s.txns[r], servers[r], frame);
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r > 0 && exchange_.deadline_exceeded(elapsed)) {
        for (; r < n; ++r) exchange_.cancel(s.txns[r]);
        ++exchange_.stats().deadline_misses;
        return stored;
      }
      if (!finish(s.txns[r], elapsed)) {
        view_.mark_down(servers[r], op_started);
        continue;
      }
      if (kv::parse_simple(response_) == "STORED")
        ++stored;
      else if (kv::parse_wrong_epoch(response_).has_value())
        bounced = true;
    }
    if (!bounced) break;
  }
  return stored;
}

std::optional<std::string> KvClusterClient::get(std::string_view key) {
  view_.tick();
  const std::uint64_t op_started = view_.ops();
  double elapsed = 0.0;
  Scratch& s = *scratch_;
  s.index(std::span<const std::string_view>(&key, 1));
  // One bounded replan on a WRONG_EPOCH bounce, as in set().
  for (int plan = 0; plan < 2; ++plan) {
    const ClusterView::Snapshot placement = view_.snapshot();
    // Distinguished copy first (the paper's rule for unbundled fetches);
    // degrade through the remaining replicas when it is unreachable.
    const std::span<const ServerId> servers = replicas_of(placement, key);
    bool bounced = false;
    for (std::size_t r = 0; r < servers.size() && !bounced; ++r) {
      s.ready(1);
      s.open_key(/*with_versions=*/false);
      std::string& frame = s.frames[0];
      frame.clear();
      kv::encode_get({key}, /*with_versions=*/false, frame);
      kv::append_epoch_tag(frame, placement.epoch());
      exchange_.begin(s.txns[0], servers[r], frame);
      const Fetch got = fetch(s.txns[0], elapsed);
      if (got == Fetch::kValues) {
        if (!s.views.empty()) return std::string(s.views.front().data);
        if (r == 0) return std::nullopt;  // distinguished miss: key absent
        continue;  // cold replica — keep degrading
      }
      if (got == Fetch::kStale) {
        bounced = true;
        break;
      }
      view_.mark_down(servers[r], op_started);
      if (exchange_.deadline_exceeded(elapsed)) {
        ++exchange_.stats().deadline_misses;
        return std::nullopt;
      }
    }
    if (!bounced) break;
  }
  return std::nullopt;
}

KvClusterClient::MultiGetResult KvClusterClient::multi_get(
    std::span<const std::string> keys) {
  return read(keys, 1.0, std::nullopt);
}

KvClusterClient::MultiGetResult KvClusterClient::multi_get_at_least(
    std::span<const std::string> keys, double fraction) {
  RNB_REQUIRE(fraction > 0.0 && fraction <= 1.0);
  return read(keys, fraction, std::nullopt);
}

KvClusterClient::MultiGetResult KvClusterClient::multi_get_within(
    std::span<const std::string> keys, std::uint32_t max_transactions) {
  return read(keys, 1.0, max_transactions);
}

KvClusterClient::MultiGetResult KvClusterClient::read(
    std::span<const std::string> keys, double fraction,
    std::optional<std::uint32_t> budget) {
  view_.tick();
  const std::uint64_t op_started = view_.ops();
  Scratch& s = *scratch_;
  const std::uint64_t op = ++s.op;
  s.contacted_count = 0;
  // The whole cover is planned against one placement snapshot, and every
  // frame carries that snapshot's epoch; a WRONG_EPOCH bounce strands the
  // bundle's keys and the next recover round takes a fresh snapshot and
  // re-plans them.
  ClusterView::Snapshot placement = view_.snapshot();
  std::uint64_t op_epoch = placement.epoch();
  // Root of the distributed trace for this operation; every transaction
  // and remote server span hangs off this span's trace id.
  obs::SpanScope req_span("request", "kv_client",
                          obs::SpanScope::Kind::kRoot);
  MultiGetResult result;

  const std::size_t m = s.index(keys);
  if (m == 0) return result;
  result.values.reserve(m);
  s.place(placement);

  // Plan over surviving replicas: a server the view believes dead is not
  // a bundling candidate, so its crash costs this request nothing — the
  // difference between one client discovering a crash (retry budget) and
  // every client re-discovering it per request. A key whose replicas are
  // all marked down keeps its full list: probing a possibly-restored
  // server beats reporting the key unavailable without trying.
  const auto live = [this](ServerId srv) { return !view_.is_down(srv); };
  for (std::size_t i = 0; i < m; ++i)
    s.candidate_row(i, i, live, /*keep_all_if_none=*/true);
  // A LIMIT cover leaves the items it skips at kInvalidServer: they join no
  // bundle, ride no hitchhike, and take part in no later round.
  if (budget.has_value())
    greedy_cover_budget(s.instance(m), *budget, s.cover, s.greedy);
  else
    greedy_cover_partial(s.instance(m),
                         CoverInstance::target_from_fraction(m, fraction),
                         s.cover, s.greedy);
  // Mutable: recover rounds re-assign items stranded on failed servers.
  s.assignment = s.cover.assignment;

  const kv::KvFailureStats before = exchange_.stats();
  double elapsed = 0.0;
  std::uint32_t waves = 0;
  // Set when any bundle bounced WRONG_EPOCH: the next recover round
  // refreshes the snapshot before re-planning.
  bool stale_view = false;
  const auto out_of_time = [&]() {
    if (!exchange_.deadline_exceeded(elapsed)) return false;
    if (!result.deadline_missed) {
      result.deadline_missed = true;
      ++exchange_.stats().deadline_misses;
    }
    return true;
  };
  // `failed`: servers that ate every attempt of a bundled get this
  // operation.
  const auto unreachable = [&](ServerId srv) {
    return s.failed[srv] == op || view_.is_down(srv);
  };
  const auto contact = [&](ServerId srv) {
    if (s.contacted[srv] == op) return;
    s.contacted[srv] = op;
    ++s.contacted_count;
  };
  const auto fail = [&](ServerId srv) {
    s.failed[srv] = op;
    view_.mark_down(srv, op_started);
    ++result.servers_marked_down;
  };
  const auto store = [&](std::size_t k) {
    const kv::ValueView& v = s.views[k];
    std::string*& slot = s.value_of[s.view_items[k]];
    if (slot == nullptr)
      slot = &result.values.emplace(v.key, v.data).first->second;
    else
      slot->assign(v.data);
    s.satisfied[s.view_items[k]] = 1;
  };

  // One wave of bundled gets under the failure policy, one per server in
  // `servers`: srv's list in s.bundles, plus its hitchhikers when given.
  // Every frame is issued before the first reply is read; the replies are
  // then finished in the same order, out_of_time() before each, and a
  // deadline cut cancels the rest. Items whose bundle dies (server failure
  // or epoch bounce) are stranded for the recover rounds; a server that
  // eats every attempt is marked down in the shared view. On kValues the
  // response's values are stored and still parsed in s.views when
  // `after(got)` runs.
  const auto run_wave = [&](std::span<const ServerId> servers,
                            const ServerLists* extra,
                            std::uint32_t& txn_counter, auto&& after) {
    if (out_of_time()) return;
    const std::size_t n = servers.size();
    s.ready(n);
    for (std::size_t j = 0; j < n; ++j) {
      s.bundle_keys(servers[j], extra);
      std::string& frame = s.frames[j];
      frame.clear();
      kv::encode_get(s.keys, /*with_versions=*/false, frame);
      kv::append_epoch_tag(frame, op_epoch);
      exchange_.begin(s.txns[j], servers[j], frame);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (out_of_time()) {
        for (; j < n; ++j) exchange_.cancel(s.txns[j]);
        break;
      }
      const ServerId srv = servers[j];
      result.hitchhiker_keys += s.open_bundle(srv, extra);
      ++txn_counter;
      contact(srv);
      const Fetch got = fetch(s.txns[j], elapsed);
      const std::uint8_t stranded = got == Fetch::kValues ? 0 : 1;
      s.bundles.for_each(srv,
                         [&](std::uint32_t i) { s.stranded[i] = stranded; });
      if (got == Fetch::kStale) {
        // Healthy server, old ring: strand the keys for a re-plan but leave
        // the server's health alone.
        stale_view = true;
      } else if (got == Fetch::kFailed) {
        fail(srv);
      } else {
        for (std::size_t k = 0; k < s.views.size(); ++k) store(k);
      }
      after(got);
    }
  };
  const auto nothing_after = [](Fetch) {};

  // Round 1 bundles, and hitchhikers: covered keys appended to
  // transactions whose server also holds one of their replicas (zero extra
  // transactions).
  s.bundles.reset(s.servers);
  for (std::size_t i = 0; i < m; ++i)
    if (s.assignment[i] != kInvalidServer)
      s.bundles.push(s.assignment[i], static_cast<std::uint32_t>(i));
  if (config_.hitchhiking) {
    s.hitchhikers.reset(s.servers);
    for (const ServerId srv : s.cover.servers_used) s.planned[srv] = op;
    for (std::size_t i = 0; i < m; ++i) {
      if (s.assignment[i] == kInvalidServer) continue;
      for (const ServerId srv : s.row(i))
        if (srv != s.assignment[i] && s.planned[srv] == op)
          s.hitchhikers.push(srv, static_cast<std::uint32_t>(i));
    }
  }

  if (!s.cover.servers_used.empty()) {
    ++waves;
    obs::SpanScope wave_span("wave", "kv_client");
    wave_span.note("kind", "round1");
    wave_span.arg("transactions",
                  static_cast<std::int64_t>(s.cover.servers_used.size()));
    run_wave(s.cover.servers_used,
             config_.hitchhiking ? &s.hitchhikers : nullptr,
             result.round1_transactions, nothing_after);
  }

  // A budgeted read stops after round 1: no recover round, no round 2 and
  // so no write-back; whatever round 1 did not bring is missing.
  const bool round1_only = budget.has_value();

  // Recover rounds: items stranded on a failed server get the cover re-run
  // over their surviving replicas — replication means a dead bundle costs
  // extra transactions, not the keys. An epoch bounce strands the same way,
  // but first the round takes a fresh snapshot (the controller published
  // the newer ring before any server started bouncing) and re-places the
  // items against it.
  const std::uint32_t recover_rounds =
      round1_only ? 0 : config_.failure.max_recover_rounds;
  for (std::uint32_t round = 0; round < recover_rounds; ++round) {
    if (out_of_time()) break;
    if (stale_view) {
      stale_view = false;
      ++result.epoch_replans;
      placement = view_.snapshot();
      op_epoch = placement.epoch();
      // Satisfied items are re-placed too; nothing reads their rows again.
      s.place(placement);
    }
    s.pool.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (s.satisfied[i] != 0 || s.stranded[i] == 0) continue;
      if (s.candidate_row(s.pool.size(), i,
                          [&](ServerId srv) { return !unreachable(srv); },
                          /*keep_all_if_none=*/false) == 0)
        continue;
      s.pool.push_back(static_cast<std::uint32_t>(i));
    }
    if (s.pool.empty()) break;
    ++exchange_.stats().recover_rounds;
    ++waves;
    obs::SpanScope wave_span("wave", "kv_client");
    wave_span.note("kind", "recover");
    wave_span.arg("round", static_cast<std::int64_t>(round + 1));
    greedy_cover(s.instance(s.pool.size()), s.cover, s.greedy);
    s.bundles.reset(s.servers);
    for (std::size_t j = 0; j < s.pool.size(); ++j) {
      s.assignment[s.pool[j]] = s.cover.assignment[j];
      s.bundles.push(s.cover.assignment[j], s.pool[j]);
    }
    run_wave(s.cover.servers_used, nullptr, result.recover_transactions,
             nothing_after);
  }

  // Round 2: bundled fallbacks for evicted replicas — the distinguished
  // copy by default, or the first reachable replica when servers failed.
  // Items a LIMIT cover skipped were never asked for, so they have no miss
  // to fall back from.
  s.bundles.reset(s.servers);
  std::int64_t fallback_servers = 0;
  for (std::size_t i = 0; i < m && !round1_only; ++i) {
    if (s.satisfied[i] != 0 || s.assignment[i] == kInvalidServer) continue;
    // A miss on a *reachable* distinguished server is authoritative — the
    // key does not exist; no fallback can change that. (A stranded item
    // never got an answer, so its miss proves nothing.)
    if (s.stranded[i] == 0 && s.assignment[i] == s.row(i)[0]) continue;
    for (const ServerId srv : s.row(i))
      if (srv != s.assignment[i] && !unreachable(srv)) {
        if (s.bundles.empty(srv)) ++fallback_servers;
        s.bundles.push(srv, static_cast<std::uint32_t>(i));
        break;
      }
  }

  if (fallback_servers > 0) {
    ++waves;
    obs::SpanScope wave_span("wave", "kv_client");
    wave_span.note("kind", "round2");
    wave_span.arg("transactions", fallback_servers);
    // Ascending server id. A bounce this late stays unrecovered (recover
    // rounds are spent); the keys report missing rather than risk an
    // unbounded loop.
    s.round2.clear();
    for (ServerId srv = 0; srv < s.servers; ++srv)
      if (!s.bundles.empty(srv)) s.round2.push_back(srv);
    run_wave(s.round2, nullptr, result.round2_transactions, [&](Fetch got) {
      if (got != Fetch::kValues || !config_.write_back_misses) return;
      // Re-install the replica round 1 expected (write-back rule) —
      // best-effort: a lost write-back only costs a future round 2. This
      // reply's write-backs go out together and are all acked before the
      // next round-2 reply is read.
      if (s.writebacks.size() < s.views.size()) {
        s.writebacks.resize(s.views.size());
        s.writeback_tickets.resize(s.views.size());
      }
      std::size_t n = 0;
      for (std::size_t k = 0; k < s.views.size(); ++k) {
        const ServerId home = s.assignment[s.view_items[k]];
        if (unreachable(home)) continue;
        std::string& frame = s.writebacks[n];
        frame.clear();
        kv::encode_set(s.views[k].key, s.views[k].data, /*pin=*/false,
                       frame);
        kv::append_epoch_tag(frame, op_epoch);
        s.writeback_tickets[n++] = transport_.issue(home, frame);
      }
      for (std::size_t j = 0; j < n; ++j)
        transport_.collect(s.writeback_tickets[j], ack_);
    });
  }

  for (std::size_t i = 0; i < m; ++i)
    if (s.satisfied[i] == 0) result.missing.emplace_back(s.items[i]);
  result.retries =
      static_cast<std::uint32_t>(exchange_.stats().retries - before.retries);
  result.hedged_sends = static_cast<std::uint32_t>(
      exchange_.stats().hedged_sends - before.hedged_sends);
  req_span.arg("items", static_cast<std::int64_t>(m));
  req_span.arg("transactions",
               static_cast<std::int64_t>(result.transactions()));
  req_span.arg("retries", static_cast<std::int64_t>(result.retries));
  if (obs::SlowLog* slow = obs::SlowLog::current()) {
    obs::SlowRequest sr;
    sr.trace_id = req_span.context().trace_id;
    sr.cost = static_cast<std::uint64_t>(elapsed * 1e6);
    sr.items = static_cast<std::uint32_t>(m);
    sr.transactions = result.transactions();
    sr.waves = waves;
    sr.hitchhikes = result.hitchhiker_keys;
    sr.retries = result.retries;
    sr.servers = s.contacted_count;
    sr.deadline_missed = result.deadline_missed;
    // The epoch the cover was (last) planned against: a slow entry stamped
    // with a migration's epoch is the correlation the flight recorder
    // surfaces.
    sr.epoch = op_epoch;
    slow->record(sr);
  }
  return result;
}

bool KvClusterClient::drop(std::string_view key,
                           std::span<const ServerId> servers,
                           std::uint64_t epoch, double& elapsed,
                           bool& bounced) {
  Scratch& s = *scratch_;
  s.ready(servers.size());
  for (std::size_t r = 0; r < servers.size(); ++r) {
    std::string& frame = s.frames[r];
    frame.clear();
    kv::encode_delete(key, frame);
    kv::append_epoch_tag(frame, epoch);
    exchange_.begin(s.txns[r], servers[r], frame);
  }
  bool deleted = false;
  for (std::size_t r = 0; r < servers.size(); ++r) {
    deleted = false;
    if (!finish(s.txns[r], elapsed)) continue;
    if (kv::parse_wrong_epoch(response_).has_value()) bounced = true;
    deleted = kv::parse_simple(response_) == "DELETED";
  }
  return deleted;
}

bool KvClusterClient::remove(std::string_view key) {
  view_.tick();
  bool existed = false;
  double elapsed = 0.0;
  // One bounded replan on a WRONG_EPOCH bounce (deletes are idempotent).
  for (int plan = 0; plan < 2; ++plan) {
    const ClusterView::Snapshot placement = view_.snapshot();
    const std::span<const ServerId> servers = replicas_of(placement, key);
    bool bounced = false;
    // Distinguished copy last: a concurrent reader that misses a replica
    // falls back to the distinguished copy, so it must outlive the others.
    // The other deletes go out together, and all are answered before the
    // distinguished one is sent.
    drop(key, servers.subspan(1), placement.epoch(), elapsed, bounced);
    if (exchange_.deadline_exceeded(elapsed)) break;
    existed =
        drop(key, servers.first(1), placement.epoch(), elapsed, bounced);
    if (!bounced) break;
  }
  return existed;
}

KvClusterClient::UpdateOutcome KvClusterClient::atomic_update(
    std::string_view key,
    const std::function<std::string(std::string_view)>& mutate, int retries) {
  view_.tick();
  const std::uint64_t op_started = view_.ops();
  double elapsed = 0.0;
  Scratch& s = *scratch_;
  s.index(std::span<const std::string_view>(&key, 1));
  // Past the deadline nothing more goes out: a CAS sent late would land
  // while its caller is told the update failed. A transaction the deadline
  // cut short is a miss, not evidence against the server.
  const auto out_of_time = [&]() {
    if (!exchange_.deadline_exceeded(elapsed)) return false;
    ++exchange_.stats().deadline_misses;
    return true;
  };
  // One bounded replan on a WRONG_EPOCH bounce, as in set(): both steps are
  // redone under the fresh snapshot, whose replicas may differ.
  for (int plan = 0; plan < 2; ++plan) {
    if (out_of_time()) return UpdateOutcome::kConflict;
    const ClusterView::Snapshot placement = view_.snapshot();
    const std::span<const ServerId> servers = replicas_of(placement, key);
    const ServerId home = servers[0];
    bool bounced = false;
    // Step 1 (Section IV): remove all but the distinguished copy, so no
    // reader can observe a stale replica after the CAS lands.
    drop(key, servers.subspan(1), placement.epoch(), elapsed, bounced);
    // Step 2: CAS the distinguished copy, retrying on version conflicts.
    for (int attempt = 0; attempt <= retries && !bounced; ++attempt) {
      if (out_of_time()) return UpdateOutcome::kConflict;
      s.ready(1);
      s.open_key(/*with_versions=*/true);
      std::string& frame = s.frames[0];
      frame.clear();
      kv::encode_get({key}, /*with_versions=*/true, frame);
      kv::append_epoch_tag(frame, placement.epoch());
      exchange_.begin(s.txns[0], home, frame);
      const Fetch got = fetch(s.txns[0], elapsed);
      if (got == Fetch::kStale) {
        bounced = true;
        break;
      }
      if (got == Fetch::kFailed) {
        if (!out_of_time()) view_.mark_down(home, op_started);
        return UpdateOutcome::kConflict;  // unreachable, not absent
      }
      if (s.views.empty()) return UpdateOutcome::kNotFound;
      if (out_of_time()) return UpdateOutcome::kConflict;

      const std::string next = mutate(s.views.front().data);
      frame.clear();
      kv::encode_cas(key, next, s.views.front().version, frame);
      kv::append_epoch_tag(frame, placement.epoch());
      exchange_.begin(s.txns[0], home, frame);
      // Never hedged: a duplicate CAS that loses the race to its own twin
      // would answer EXISTS.
      if (!finish(s.txns[0], elapsed, {}, /*allow_hedge=*/false)) {
        if (!out_of_time()) view_.mark_down(home, op_started);
        return UpdateOutcome::kConflict;
      }
      const std::string_view verdict = kv::parse_simple(response_);
      if (verdict == "STORED") return UpdateOutcome::kUpdated;
      if (verdict == "NOT_FOUND") return UpdateOutcome::kNotFound;
      bounced = kv::parse_wrong_epoch(response_).has_value();
      // EXISTS: someone raced us; re-read and retry.
    }
    if (!bounced) break;
  }
  return UpdateOutcome::kConflict;
}

}  // namespace rnb::dserve
