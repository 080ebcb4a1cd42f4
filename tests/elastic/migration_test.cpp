// MigrationDriver: background replica migration across ring epochs — the
// zero-key-loss invariant under clean wires, crash/restore schedules,
// torn responses, and stalled receivers, plus the scan verb served through
// the reactor under SimPoller fault scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "elastic/epoch.hpp"
#include "elastic/migration.hpp"
#include "faultsim/fault_transport.hpp"
#include "kv/protocol.hpp"
#include "kv/reactor.hpp"
#include "kv/sim_poller.hpp"
#include "kv/transport.hpp"

namespace rnb::elastic {
namespace {

constexpr std::size_t kBudget = 8u << 20;

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i)
    keys.push_back("mig:key:" + std::to_string(i));
  return keys;
}

MemberRingConfig ring_config() {
  MemberRingConfig config;
  config.replication = 2;
  return config;
}

/// Install every key under `epoch`'s placement: pinned distinguished copy
/// on rank 0, evictable replica copies on the rest.
void load_keys(kv::KvTransport& wire, const RingEpoch& epoch,
               const std::vector<std::string>& keys) {
  std::string request, response;
  for (const std::string& key : keys) {
    const auto replicas = epoch.replicas(fnv1a64(key));
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      request.clear();
      kv::encode_set(key, "value-" + key, /*pin=*/r == 0, request);
      wire.roundtrip(replicas[r], request, response);
      ASSERT_EQ(kv::parse_simple(response), "STORED") << key;
    }
  }
}

/// Scan one server completely; returns key -> pinned flag.
std::map<std::string, bool> scan_all(kv::KvTransport& wire, ServerId s) {
  std::map<std::string, bool> entries;
  std::string request, response;
  std::uint64_t cursor = 0;
  do {
    request.clear();
    kv::encode_scan(cursor, 32, request);
    wire.roundtrip(s, request, response);
    const auto page = kv::parse_scan_page(response);
    EXPECT_TRUE(page.has_value()) << response;
    if (!page) return entries;
    for (const kv::Value& v : page->entries)
      entries[v.key] = (v.flags & kv::kValueFlagPinned) != 0;
    cursor = page->next_cursor;
  } while (cursor != 0);
  return entries;
}

/// The zero-loss postcondition: every key has its pinned distinguished
/// copy exactly where `epoch` places it, exactly one pinned copy exists
/// fleet-wide, and (with delete_source) no copy lives off-ring.
void expect_converged(kv::KvTransport& wire, const RingEpoch& epoch,
                      const std::vector<std::string>& keys,
                      ServerId capacity) {
  std::vector<std::map<std::string, bool>> tables;
  for (ServerId s = 0; s < capacity; ++s)
    tables.push_back(scan_all(wire, s));
  for (const std::string& key : keys) {
    const auto replicas = epoch.replicas(fnv1a64(key));
    std::size_t pinned_copies = 0;
    for (ServerId s = 0; s < capacity; ++s) {
      const auto it = tables[s].find(key);
      const bool assigned =
          std::find(replicas.begin(), replicas.end(), s) != replicas.end();
      if (it != tables[s].end() && it->second) ++pinned_copies;
      if (!assigned) {
        EXPECT_EQ(it, tables[s].end())
            << key << " still on off-ring server " << s;
      }
    }
    EXPECT_EQ(pinned_copies, 1u) << key;
    const auto home = tables[replicas[0]].find(key);
    ASSERT_NE(home, tables[replicas[0]].end())
        << key << " lost its distinguished copy";
    EXPECT_TRUE(home->second) << key << " distinguished copy not pinned";
  }
}

TEST(MigrationDriver, JoinMigrationMovesEveryAffectedCopy) {
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2});
  const auto from = store.current();
  const auto to = store.propose_join(3);
  const auto keys = test_keys(120);
  load_keys(fleet, *from, keys);

  MigrationDriver driver(fleet, MigrationConfig{});
  ASSERT_TRUE(driver.migrate(*from, *to));
  EXPECT_EQ(driver.checkpoint(), MigrationCheckpoint{});
  const MigrationStats& stats = driver.stats();
  EXPECT_EQ(stats.entries_scanned, keys.size() * 2);  // r=2 copies per key
  EXPECT_GT(stats.pinned_moved, 0u);
  EXPECT_GT(stats.source_deletes, 0u);
  EXPECT_EQ(stats.failed_transfers, 0u);
  expect_converged(fleet, *to, keys, 4);
}

TEST(MigrationDriver, LeaveMigrationDrainsTheLeaver) {
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2, 3});
  const auto from = store.current();
  const auto to = store.propose_leave(2);
  const auto keys = test_keys(120);
  load_keys(fleet, *from, keys);

  MigrationDriver driver(fleet, MigrationConfig{});
  ASSERT_TRUE(driver.migrate(*from, *to));
  expect_converged(fleet, *to, keys, 4);
  // The leaver holds nothing: every copy it owned was re-homed + deleted.
  EXPECT_TRUE(scan_all(fleet, 2).empty());
}

TEST(MigrationDriver, MigrationIsIdempotentWhenRepeated) {
  // Every transfer is a re-set and every delete a NOT_FOUND the second
  // time: running the same migration twice converges to the same state
  // with nothing lost or double-counted.
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2});
  const auto from = store.current();
  const auto to = store.propose_join(3);
  const auto keys = test_keys(80);
  load_keys(fleet, *from, keys);

  MigrationDriver driver(fleet, MigrationConfig{});
  ASSERT_TRUE(driver.migrate(*from, *to));
  const auto first = scan_all(fleet, 3);
  MigrationDriver again(fleet, MigrationConfig{});
  ASSERT_TRUE(again.migrate(*from, *to));
  EXPECT_EQ(scan_all(fleet, 3), first);
  expect_converged(fleet, *to, keys, 4);
}

TEST(MigrationDriver, CrashDuringMigrationResumesFromCheckpointAfterRestore) {
  // The joiner crashes mid-migration and later restores (a faultsim crash
  // window). The first migrate() fails past its retry budget and records a
  // checkpoint; repeating the call after the restore finishes the stream
  // with zero keys lost and no copy duplicated.
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2});
  const auto from = store.current();
  const auto to = store.propose_join(3);
  const auto keys = test_keys(120);
  load_keys(fleet, *from, keys);

  faultsim::FaultSpec spec;
  spec.per_server[3].crash.push_back({0, 120});  // down for the first ticks
  faultsim::FaultInjectingTransport faulty(fleet,
                                           faultsim::FaultSchedule(spec, 4));
  MigrationConfig config;
  config.batch_keys = 16;
  config.failure.max_attempts = 2;
  MigrationDriver driver(faulty, config);

  ASSERT_FALSE(driver.migrate(*from, *to))
      << "first pass must fail while the joiner is down";
  EXPECT_GT(driver.stats().failed_transfers, 0u);

  // Resume until the crash window has passed (each roundtrip advances the
  // schedule's tick); the driver re-scans from its checkpoint each time.
  bool done = false;
  for (int attempt = 0; attempt < 50 && !done; ++attempt)
    done = driver.migrate(*from, *to);
  ASSERT_TRUE(done) << "migration never completed after the restore";
  EXPECT_EQ(driver.checkpoint(), MigrationCheckpoint{});
  expect_converged(fleet, *to, keys, 4);
}

TEST(MigrationDriver, TornResponsesMidStreamAreRetriedNotApplied) {
  // Reset-mid-stream: a fraction of responses arrive cut mid-frame. The
  // exchange layer rejects the malformed frame and retries, so the driver
  // converges to the exact same state a clean wire produces.
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2});
  const auto from = store.current();
  const auto to = store.propose_join(3);
  const auto keys = test_keys(100);
  load_keys(fleet, *from, keys);

  faultsim::FaultSpec spec;
  spec.all.trunc = 0.2;
  spec.seed = 11;
  faultsim::FaultInjectingTransport faulty(fleet,
                                           faultsim::FaultSchedule(spec, 4));
  MigrationConfig config;
  config.failure.max_attempts = 8;
  MigrationDriver driver(faulty, config);
  bool done = false;
  for (int attempt = 0; attempt < 20 && !done; ++attempt)
    done = driver.migrate(*from, *to);
  ASSERT_TRUE(done);
  EXPECT_GT(driver.failure_stats().retries, 0u);
  expect_converged(fleet, *to, keys, 4);
}

TEST(MigrationDriver, StalledReceiverSlowsButNeverWedgesTheStream) {
  // A limping joiner (every roundtrip 50x slower) stalls the stream in
  // virtual time but costs no correctness: bounded batches keep paging,
  // and the stall is visible in the driver's elapsed accounting.
  kv::ShardedMapLoopbackTransport fleet(4, kBudget, 1);
  EpochStore store(ring_config(), {0, 1, 2});
  const auto from = store.current();
  const auto to = store.propose_join(3);
  const auto keys = test_keys(60);
  load_keys(fleet, *from, keys);

  faultsim::FaultSpec spec;
  spec.per_server[3].slow = 50.0;
  faultsim::FaultInjectingTransport faulty(fleet,
                                           faultsim::FaultSchedule(spec, 4));
  MigrationDriver driver(faulty, MigrationConfig{});
  ASSERT_TRUE(driver.migrate(*from, *to));
  expect_converged(fleet, *to, keys, 4);
  // The stalled receiver dominates elapsed: 50x the healthy base latency
  // on every transfer it received.
  EXPECT_GT(driver.stats().elapsed, 0.0);
}

kv::EventLoop::Config sim_config() {
  kv::EventLoop::Config config;
  config.listen_handle = kv::SimPoller::kListener;
  return config;
}

void drive(kv::EventLoop& loop) {
  while (loop.step(/*timeout_ms=*/0) > 0) {
  }
}

TEST(MigrationDriver, ReactorServesScanAndIsolatesMidScanResets) {
  // The scan verb through the reactor serving core under a SimPoller fault
  // script: one peer tears its connection mid-scan-request, a healthy peer
  // scans the same engine to completion — blast radius stays one socket.
  kv::SimPoller sim;
  kv::ShardedMapKvServer engine(kBudget, 4);
  std::string frame, ignored;
  for (int i = 0; i < 10; ++i) {
    frame.clear();
    kv::encode_set("scan:k" + std::to_string(i), "v", i % 2 == 0, frame);
    engine.handle(frame, ignored, nullptr);
  }
  kv::EventLoop loop(sim, engine, sim_config());

  std::string scan_frame;
  kv::encode_scan(0, 100, scan_frame);
  kv::SimConnectionScript victim;
  victim.reads.push_back(
      kv::SimReadStep::data(scan_frame.substr(0, scan_frame.size() / 2)));
  victim.reads.push_back(kv::SimReadStep::reset());
  kv::SimConnectionScript healthy;
  healthy.reads.push_back(kv::SimReadStep::data(scan_frame));
  healthy.reads.push_back(kv::SimReadStep::eof());

  const int hv = sim.add_connection(std::move(victim));
  const int hh = sim.add_connection(std::move(healthy));
  drive(loop);

  EXPECT_TRUE(sim.closed(hv));
  EXPECT_EQ(sim.output(hv), "");
  EXPECT_EQ(loop.resets(), 1u);
  const auto page = kv::parse_scan_page(sim.output(hh));
  ASSERT_TRUE(page.has_value()) << sim.output(hh);
  EXPECT_EQ(page->next_cursor, 0u);
  EXPECT_EQ(page->entries.size(), 10u);
  std::size_t pinned = 0;
  for (const kv::Value& v : page->entries)
    if ((v.flags & kv::kValueFlagPinned) != 0) ++pinned;
  EXPECT_EQ(pinned, 5u);
}

}  // namespace
}  // namespace rnb::elastic
