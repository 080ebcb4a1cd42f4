// Golden wire transcript for KvClusterClient::multi_get.
//
// A seeded script of multi-gets runs against a loopback ServerGroup through
// a transport that hashes every frame the client sends, in order, together
// with each call's MultiGetResult (counts, missing keys, values sorted by
// key). The digest pins the client's observable behaviour: which servers it
// plans, how it bundles, which frames it sends in which order, and what it
// returns. Any change to planning, bundle order or bytes on the wire shows
// up as a different digest. The script covers duplicate keys, absent keys,
// cold replicas (round 2 and write-backs), hitchhiking, and a crashed
// server (down marks, recover rounds, reprobes).
//
// The same script also runs through a transport that answers every frame
// the moment it is issued, the way a pipelined wire could: the client must
// return the same results and failure counts as on the lazy schedule, and
// keep the wave shape — each wave's frames all issued before its first
// reply is collected, and each round-2 reply's write-backs acked before
// the next round-2 reply.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <deque>

#include "common/rng.hpp"
#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"

namespace rnb::dserve {
namespace {

/// Incremental FNV-1a/64 over a length-prefixed field stream.
class Digest {
 public:
  void add(std::string_view bytes) {
    add_u64(bytes.size());
    for (const char c : bytes) mix(static_cast<std::uint8_t>(c));
  }
  void add_u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) mix(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Forwards to the group connection, digesting (server, request) per send.
class RecordingTransport final : public kv::KvTransport {
 public:
  RecordingTransport(kv::KvTransport& inner, Digest& digest)
      : inner_(inner), digest_(digest) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    digest_.add_u64(s);
    digest_.add(request);
    ++frames_;
    return inner_.roundtrip(s, request, response);
  }
  std::uint64_t frames() const { return frames_; }

 private:
  kv::KvTransport& inner_;
  Digest& digest_;
  std::uint64_t frames_ = 0;
};

/// How the client's tickets interleaved, as EagerTransport saw them.
struct WaveShape {
  std::uint64_t max_gets_in_flight = 0;
  // Gets issued after a collect of their own wave (must stay 0).
  std::uint64_t late_issues = 0;
  // Get collects with a write-back still unacked (must stay 0).
  std::uint64_t gets_past_writebacks = 0;
  // Write-backs issued while a later round-2 get was in flight.
  std::uint64_t overlapped_writebacks = 0;
};

/// Overrides issue/collect and answers each frame at issue time from the
/// connection beneath it, recording the shape of the issue/collect
/// sequence. A wave is a run of get tickets; sets are write-backs.
class EagerTransport final : public kv::KvTransport {
 public:
  EagerTransport(kv::KvTransport& inner, WaveShape& shape)
      : inner_(inner), shape_(shape) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }
  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    return inner_.roundtrip(s, request, response);
  }
  kv::Ticket issue(ServerId s, std::string_view frame) override {
    Answer& a = answers_.emplace_back();
    a.get = frame.starts_with("get ");
    if (a.get) {
      if (gets_in_flight_ == 0) wave_collected_ = false;
      if (wave_collected_) ++shape_.late_issues;
      ++gets_in_flight_;
      shape_.max_gets_in_flight =
          std::max(shape_.max_gets_in_flight, gets_in_flight_);
    } else {
      ++sets_in_flight_;
      if (gets_in_flight_ > 0) ++shape_.overlapped_writebacks;
    }
    a.result = inner_.roundtrip(s, frame, a.response);
    return kv::Ticket{s, frame, answers_.size() - 1, 0};
  }
  kv::TransportResult collect(const kv::Ticket& ticket,
                              std::string& response) override {
    Answer& a = redeem(ticket);
    response = std::move(a.response);
    return a.result;
  }
  void cancel(const kv::Ticket& ticket) override { redeem(ticket); }

 private:
  struct Answer {
    bool get = false;
    kv::TransportResult result;
    std::string response;
  };

  Answer& redeem(const kv::Ticket& ticket) {
    Answer& a = answers_[ticket.seq];
    if (a.get) {
      --gets_in_flight_;
      wave_collected_ = true;
      if (sets_in_flight_ > 0) ++shape_.gets_past_writebacks;
    } else {
      --sets_in_flight_;
    }
    return a;
  }

  kv::KvTransport& inner_;
  WaveShape& shape_;
  std::deque<Answer> answers_;  // by ticket seq
  std::uint64_t gets_in_flight_ = 0;
  std::uint64_t sets_in_flight_ = 0;
  bool wave_collected_ = false;
};

void digest_result(const KvClusterClient::MultiGetResult& r, Digest& d) {
  d.add_u64(r.round1_transactions);
  d.add_u64(r.round2_transactions);
  d.add_u64(r.recover_transactions);
  d.add_u64(r.hitchhiker_keys);
  d.add_u64(r.retries);
  d.add_u64(r.servers_marked_down);
  d.add_u64(r.epoch_replans);
  d.add_u64(r.deadline_missed ? 1 : 0);
  d.add_u64(r.missing.size());
  for (const std::string& key : r.missing) d.add(key);
  std::vector<std::pair<std::string, std::string>> values(r.values.begin(),
                                                          r.values.end());
  std::sort(values.begin(), values.end());
  d.add_u64(values.size());
  for (const auto& [key, value] : values) {
    d.add(key);
    d.add(value);
  }
}

struct Scenario {
  bool preinstall_replicas;
  bool hitchhiking;
  const char* fault_spec;
};

struct Transcript {
  std::uint64_t digest = 0;
  std::uint64_t frames = 0;
  // The MultiGetResults alone, the client's failure counters, and (eager
  // runs) the wave shape.
  std::uint64_t results = 0;
  kv::KvFailureStats stats;
  WaveShape shape;
  // Totals over the script, so each scenario can show it reached the
  // paths it is meant to pin.
  std::uint64_t duplicates = 0;
  std::uint64_t missing = 0;
  std::uint64_t round2 = 0;
  std::uint64_t recover = 0;
  std::uint64_t hitchhikes = 0;
  std::uint64_t marked_down = 0;
};

/// Runs the script on the lazy schedule, recording every frame, or (eager)
/// through EagerTransport.
Transcript run_script(const Scenario& sc, bool eager = false) {
  ServerGroupConfig config;
  config.num_servers = 8;
  config.wire = GroupWire::kLoopback;
  config.view.replication = 3;
  config.view.placement_seed = 5;
  config.view.reprobe_interval = 16;
  config.fault_spec = sc.fault_spec;
  ServerGroup group(config);

  std::vector<std::string> loaded;
  for (int k = 0; k < 400; ++k) loaded.push_back("t:" + std::to_string(k));
  group.load(loaded, [](std::string_view key) { return "val/" + std::string(key); },
             sc.preinstall_replicas);

  Transcript t;
  Digest digest;
  Digest results;
  const auto connection = group.connect();
  RecordingTransport recording(*connection, digest);
  EagerTransport eager_wire(*connection, t.shape);
  KvClusterClientConfig client_config;
  client_config.hitchhiking = sc.hitchhiking;
  client_config.failure.max_attempts = 2;
  KvClusterClient client(
      eager ? static_cast<kv::KvTransport&>(eager_wire) : recording,
      group.view(), client_config);

  Xoshiro256 rng(0x7a11);
  std::vector<std::string> batch;
  for (int call = 0; call < 120; ++call) {
    batch.clear();
    const std::size_t m = 1 + rng.below(48);
    for (std::size_t i = 0; i < m; ++i) {
      // A skewed draw from a small pool: requests repeat keys, and one key
      // in ~25 was never loaded.
      const std::uint64_t k = rng.below(1 + rng.below(420));
      batch.push_back("t:" + std::to_string(k));
    }
    const auto result = client.multi_get(batch);
    digest_result(result, digest);
    digest_result(result, results);
    t.duplicates += batch.size() - result.values.size() - result.missing.size();
    t.missing += result.missing.size();
    t.round2 += result.round2_transactions;
    t.recover += result.recover_transactions;
    t.hitchhikes += result.hitchhiker_keys;
    t.marked_down += result.servers_marked_down;
  }
  t.digest = digest.value();
  t.frames = recording.frames();
  t.results = results.value();
  t.stats = client.failure_stats();
  return t;
}

void expect_digest(const Transcript& t, std::uint64_t golden) {
  EXPECT_EQ(t.digest, golden) << std::hex << "digest 0x" << t.digest
                              << std::dec << " over " << t.frames << " frames";
  EXPECT_GT(t.duplicates, 0u);
  EXPECT_GT(t.missing, 0u);
}

// Digests recorded with the client as it was before the allocation-free
// rewrite; the rewrite reproduces them byte for byte.
TEST(WireTranscript, PreinstalledReplicasWithHitchhiking) {
  const Transcript t =
      run_script({/*preinstall_replicas=*/true, /*hitchhiking=*/true, ""});
  expect_digest(t, 0x1359d8a1bb4c72b2ULL);
  EXPECT_GT(t.hitchhikes, 0u);
}

TEST(WireTranscript, ColdReplicasRoundTwoAndWriteBacks) {
  const Transcript t =
      run_script({/*preinstall_replicas=*/false, /*hitchhiking=*/false, ""});
  expect_digest(t, 0xbca8f3ca59b1a212ULL);
  EXPECT_GT(t.round2, 0u);
}

TEST(WireTranscript, CrashedServerRecoverRoundsAndReprobes) {
  // Server 2 is down for the first 150 roundtrips on the connection, then
  // restored: the script marks it down, recovers its bundles from other
  // replicas, and later reprobes it back into covers.
  const Transcript t = run_script(
      {/*preinstall_replicas=*/false, /*hitchhiking=*/true, "crash@2=0:150"});
  expect_digest(t, 0x8af3d4a4c694fa90ULL);
  EXPECT_GT(t.recover, 0u);
  EXPECT_GT(t.marked_down, 0u);
  EXPECT_GT(t.round2, 0u);
  EXPECT_GT(t.hitchhikes, 0u);
}

void expect_same_stats(const kv::KvFailureStats& a,
                       const kv::KvFailureStats& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transport_errors, b.transport_errors);
  EXPECT_EQ(a.malformed_responses, b.malformed_responses);
  EXPECT_EQ(a.empty_responses, b.empty_responses);
  EXPECT_EQ(a.hedged_sends, b.hedged_sends);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.recover_rounds, b.recover_rounds);
}

TEST(WireTranscript, EagerWavesReturnWhatTheLazyScheduleReturns) {
  const Scenario scenarios[] = {
      {/*preinstall_replicas=*/true, /*hitchhiking=*/true, ""},
      {/*preinstall_replicas=*/false, /*hitchhiking=*/false, ""},
      {/*preinstall_replicas=*/false, /*hitchhiking=*/true, "crash@2=0:150"},
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.fault_spec);
    const Transcript lazy = run_script(sc);
    const Transcript eager = run_script(sc, /*eager=*/true);
    EXPECT_EQ(eager.results, lazy.results);
    expect_same_stats(eager.stats, lazy.stats);
    EXPECT_GE(eager.shape.max_gets_in_flight, 2u);
    EXPECT_EQ(eager.shape.late_issues, 0u);
    EXPECT_EQ(eager.shape.gets_past_writebacks, 0u);
    if (!sc.preinstall_replicas) {
      // Round 2 ran with write-backs going out while later round-2 frames
      // were still in flight.
      EXPECT_GT(lazy.round2, 0u);
      EXPECT_GT(eager.shape.overlapped_writebacks, 0u);
    }
  }
}

}  // namespace
}  // namespace rnb::dserve
