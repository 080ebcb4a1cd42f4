// KvClusterClient's failure policy over faulty transports and a static
// ClusterView: the zero-byte response regression, retry/backoff, cover
// re-planning, hedging, and virtual deadlines. All fault patterns are
// schedule-driven, so every assertion here is deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "faultsim/fault_transport.hpp"
#include "kv/transport.hpp"

namespace rnb::dserve {
namespace {

using kv::KvTransport;
using kv::LoopbackTransport;
using kv::TransportResult;

constexpr std::size_t kBudget = 1 << 20;

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) keys.push_back("key" + std::to_string(i));
  return keys;
}

/// kOk with zero bytes — what a peer that died mid-accept produces. The
/// old client treated this as a clean miss (get) or crashed on the
/// malformed frame (multi_get); it must be handled as a transport error.
class EmptyResponseTransport final : public KvTransport {
 public:
  ServerId num_servers() const noexcept override { return 4; }
  TransportResult roundtrip(ServerId, std::string_view,
                            std::string& response) override {
    ++calls_;
    response.clear();
    return {};
  }
  int calls() const noexcept { return calls_; }

 private:
  int calls_ = 0;
};

TEST(KvClientFault, ZeroByteResponseIsATransportErrorNotAMiss) {
  EmptyResponseTransport transport;
  ClusterView view(4, {.replication = 2});
  KvClusterClient client(transport, view, {});

  EXPECT_EQ(client.get("anything"), std::nullopt);
  EXPECT_GT(client.failure_stats().empty_responses, 0u);
  // Every configured attempt was spent refusing to trust the empty frame.
  EXPECT_GT(client.failure_stats().retries, 0u);
}

TEST(KvClientFault, ZeroByteResponsesDoNotCrashMultiGet) {
  EmptyResponseTransport transport;
  ClusterView view(4, {.replication = 2});
  KvClusterClient client(transport, view, {});

  const auto keys = test_keys(6);
  const auto result = client.multi_get(keys);  // used to RNB_ENSURE-crash
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(result.missing.size(), keys.size());
  EXPECT_GT(client.failure_stats().empty_responses, 0u);
}

TEST(KvClientFault, RetriesRecoverFromTransientDrops) {
  LoopbackTransport inner(4, kBudget);
  faultsim::FaultSpec spec;
  spec.all.drop = 0.3;
  spec.seed = 23;
  faultsim::FaultInjectingTransport faulty(inner,
                                           faultsim::FaultSchedule(spec, 4));
  ClusterView view(4, {.replication = 3});
  KvClusterClientConfig config;
  config.failure.max_attempts = 6;
  // Populate through the clean inner transport so setup cannot fail.
  {
    KvClusterClient loader(inner, view, config);
    for (const auto& k : test_keys(20)) loader.set(k, "value-" + k);
  }
  KvClusterClient client(faulty, view, config);
  const auto keys = test_keys(20);
  // Several batches so the 30% drop rate is certain to be observed; every
  // batch must still come back complete.
  std::uint64_t retries = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto result = client.multi_get(keys);
    EXPECT_EQ(result.values.size(), keys.size())
        << result.missing.size() << " keys lost despite retries";
    retries += result.retries;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(client.failure_stats().transport_errors, 0u);
}

TEST(KvClientFault, AlwaysTruncatedFramesFailCleanlyAsMissing) {
  LoopbackTransport inner(4, kBudget);
  faultsim::FaultSpec spec;
  spec.all.trunc = 1.0;
  faultsim::FaultInjectingTransport faulty(inner,
                                           faultsim::FaultSchedule(spec, 4));
  ClusterView view(4, {.replication = 2});
  KvClusterClientConfig config;
  config.failure.max_attempts = 2;
  {
    KvClusterClient loader(inner, view, config);
    for (const auto& k : test_keys(5)) loader.set(k, "v");
  }
  KvClusterClient client(faulty, view, config);
  const auto keys = test_keys(5);
  const auto result = client.multi_get(keys);
  EXPECT_EQ(result.missing.size(), keys.size());
  EXPECT_GT(client.failure_stats().malformed_responses +
                client.failure_stats().empty_responses,
            0u);
}

TEST(KvClientFault, CrashedServerIsRecoveredViaReplicaCover) {
  LoopbackTransport inner(4, kBudget);
  // r=2 over 4 servers: the bundling cover cannot avoid the dead server,
  // yet every key keeps exactly one live replica.
  ClusterView view(4, {.replication = 2});
  KvClusterClientConfig config;
  {
    KvClusterClient loader(inner, view, config);
    for (const auto& k : test_keys(24)) loader.set(k, "value-" + k);
  }
  // Server 1 refuses every roundtrip for the whole run.
  faultsim::FaultSpec spec;
  spec.per_server[1].crash.push_back({0, ~faultsim::Tick{0}});
  faultsim::FaultInjectingTransport faulty(inner,
                                           faultsim::FaultSchedule(spec, 4));
  config.failure.max_attempts = 2;
  KvClusterClient client(faulty, view, config);

  const auto keys = test_keys(24);
  const auto result = client.multi_get(keys);
  EXPECT_EQ(result.values.size(), keys.size())
      << result.missing.size() << " keys lost to a single crashed server";
  for (const auto& [key, value] : result.values)
    EXPECT_EQ(value, "value-" + key);
  EXPECT_GT(result.recover_transactions + result.round2_transactions, 0u);
}

TEST(KvClientFault, VirtualDeadlineCutsTheOperationShort) {
  LoopbackTransport inner(4, kBudget);
  faultsim::FaultSpec spec;
  spec.all.extra_latency = 0.050;  // every roundtrip costs >= 50 ms
  faultsim::FaultInjectingTransport faulty(inner,
                                           faultsim::FaultSchedule(spec, 4));
  ClusterView view(4, {.replication = 2});
  KvClusterClientConfig config;
  config.failure.deadline = 0.060;  // budget for barely one roundtrip
  {
    KvClusterClient loader(inner, view, config);
    for (const auto& k : test_keys(40)) loader.set(k, "v");
  }
  KvClusterClient client(faulty, view, config);
  const auto keys = test_keys(40);
  const auto result = client.multi_get(keys);
  EXPECT_TRUE(result.deadline_missed);
  EXPECT_LT(result.values.size(), keys.size());
  EXPECT_GT(client.failure_stats().deadline_misses, 0u);
}

/// Hands each frame to a loopback fleet the moment it is issued, as TCP
/// does, so a frame the client later cancels has still reached its server.
/// Records every frame; every attempt costs `latency`, and with `drop_gets`
/// every versioned get is lost.
class SendAtIssueTransport final : public KvTransport {
 public:
  SendAtIssueTransport(KvTransport& inner, double latency, bool drop_gets)
      : inner_(inner), latency_(latency), drop_gets_(drop_gets) {}
  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  TransportResult roundtrip(ServerId s, std::string_view request,
                            std::string& response) override {
    frames_.emplace_back(request);
    if (drop_gets_ && request.starts_with("gets ")) {
      response.clear();
      return {kv::TransportStatus::kDropped, latency_};
    }
    TransportResult r = inner_.roundtrip(s, request, response);
    r.latency = latency_;
    return r;
  }
  kv::Ticket issue(ServerId s, std::string_view frame) override {
    replies_.emplace_back();
    results_.push_back(roundtrip(s, frame, replies_.back()));
    return {s, frame, replies_.size() - 1, 0};
  }
  TransportResult collect(const kv::Ticket& ticket,
                          std::string& response) override {
    response = replies_[ticket.seq];
    return results_[ticket.seq];
  }
  std::size_t count(std::string_view verb) const {
    std::size_t n = 0;
    for (const std::string& frame : frames_) n += frame.starts_with(verb);
    return n;
  }

 private:
  KvTransport& inner_;
  double latency_;
  bool drop_gets_;
  std::vector<std::string> frames_;
  std::vector<std::string> replies_;
  std::vector<TransportResult> results_;
};

TEST(KvClientFault, AtomicUpdatePastItsDeadlineSendsNothingMore) {
  const auto increment = [](std::string_view v) {
    return std::to_string(std::stoi(std::string(v)) + 1);
  };
  // Each roundtrip costs `latency` against a 15 ms deadline, r = 2: the
  // step-1 delete costs one roundtrip, so at 10 ms the versioned get goes
  // out and its reply lands (or, dropped, its retry would start) past the
  // deadline; at 20 ms the deadline passes during step 1.
  struct Case {
    double latency;
    bool drop_gets;
    std::size_t gets_sent;
  };
  for (const Case c : {Case{0.010, false, 1}, Case{0.010, true, 1},
                       Case{0.020, false, 0}}) {
    SCOPED_TRACE(testing::Message() << "latency " << c.latency
                                    << (c.drop_gets ? ", gets dropped" : ""));
    LoopbackTransport inner(4, kBudget);
    ClusterView view(4, {.replication = 2});
    KvClusterClient loader(inner, view, {});
    loader.set("counter", "0");
    SendAtIssueTransport wire(inner, c.latency, c.drop_gets);
    KvClusterClientConfig config;
    config.failure.deadline = 0.015;
    KvClusterClient client(wire, view, config);

    EXPECT_EQ(client.atomic_update("counter", increment),
              KvClusterClient::UpdateOutcome::kConflict);
    EXPECT_EQ(wire.count("delete "), 1u);
    EXPECT_EQ(wire.count("gets "), c.gets_sent);
    EXPECT_EQ(wire.count("cas "), 0u) << "a CAS went out past the deadline";
    EXPECT_EQ(client.failure_stats().deadline_misses, 1u);
    // A deadline cut is no evidence against the distinguished server.
    EXPECT_EQ(view.down_marks(), 0u);
    EXPECT_EQ(loader.get("counter"), "0");
  }
}

/// Delivers through a loopback fleet but scripts latency: fast for the
/// first `fast_calls` roundtrips, then a 100x tail.
class TailLatencyTransport final : public KvTransport {
 public:
  TailLatencyTransport(KvTransport& inner, int fast_calls)
      : inner_(inner), fast_calls_(fast_calls) {}
  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  TransportResult roundtrip(ServerId s, std::string_view request,
                            std::string& response) override {
    TransportResult r = inner_.roundtrip(s, request, response);
    r.latency = (calls_++ < fast_calls_) ? 1e-3 : 1e-1;
    return r;
  }

 private:
  KvTransport& inner_;
  int fast_calls_;
  int calls_ = 0;
};

TEST(KvClientFault, HedgingFiresOnTailLatency) {
  LoopbackTransport inner(4, kBudget);
  TailLatencyTransport scripted(inner, /*fast_calls=*/30);
  ClusterView view(4, {.replication = 1});
  KvClusterClientConfig config;
  config.failure.hedging = true;
  config.failure.hedge_quantile = 0.9;
  {
    KvClusterClient loader(inner, view, config);
    for (const auto& k : test_keys(60)) loader.set(k, "v");
  }
  KvClusterClient client(scripted, view, config);
  // The first 30 gets fill the latency window with 1 ms samples; once the
  // transport degrades to 100 ms, responses land far past the learned p90
  // and the client must start issuing hedged duplicates.
  for (const auto& k : test_keys(60)) ASSERT_TRUE(client.get(k).has_value());
  EXPECT_GT(client.failure_stats().hedged_sends, 0u);
  EXPECT_EQ(client.failure_stats().transport_errors, 0u);
}

TEST(KvClientFault, FaultedRunsAreReproducible) {
  const auto run = [] {
    LoopbackTransport inner(4, kBudget);
    ClusterView view(4, {.replication = 2});
    KvClusterClientConfig config;
    config.failure.max_attempts = 3;
    {
      KvClusterClient loader(inner, view, config);
      for (const auto& k : test_keys(30)) loader.set(k, "value-" + k);
    }
    faultsim::FaultSpec spec;
    spec.all.drop = 0.2;
    spec.all.trunc = 0.05;
    spec.seed = 31;
    faultsim::FaultInjectingTransport faulty(
        inner, faultsim::FaultSchedule(spec, 4));
    KvClusterClient client(faulty, view, config);
    const auto keys = test_keys(30);
    const auto result = client.multi_get(keys);
    const kv::KvFailureStats& stats = client.failure_stats();
    return std::tuple{result.values.size(), result.missing.size(),
                      result.transactions(), result.retries, stats.attempts,
                      stats.transport_errors, stats.malformed_responses};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rnb::dserve
