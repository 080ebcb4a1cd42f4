// Allocation count of one warmed-up KvClusterClient::multi_get.
//
// A counting global operator new tallies the allocations made on the
// calling thread while one M=64 multi_get runs. The transport replays
// canned responses recorded on an earlier call, so no server work (and no
// server allocation) happens inside the measured call. The client plans in
// scratch it owns and reuses; after a warm-up call the only allocations
// left are the ones its MultiGetResult needs: the bucket array reserved
// for `values`, one node per returned key, and each key or value string
// too long for the small-string buffer.
//
// Measured on the M=64 preinstalled-replica case (keys fit the small-string
// buffer, values are 100 B): 779 allocations per call with the client that
// planned in per-call hash maps and vectors and parsed each response twice
// (962 with hitchhiking, 862 with cold replicas), and 129 = 1 bucket array
// + 64 nodes + 64 values with the scratch-reusing client, in all three
// cases. The count is the same when the transport overrides issue/collect
// and every wave has all its frames in flight at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "dserve/server_group.hpp"
#include "support/alloc_counter.hpp"

namespace rnb::dserve {
namespace {

/// Record mode forwards to the group and keeps every response; replay mode
/// answers each (server, request) from the recording. A ticketed replay
/// overrides issue/collect: issue() looks the answer up, collect() hands
/// it over, so a wave's frames are all in flight before the first reply.
class ReplayTransport final : public kv::KvTransport {
 public:
  ReplayTransport(kv::KvTransport& inner, bool ticketed)
      : inner_(inner), canned_(inner.num_servers()), ticketed_(ticketed) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override {
    if (!replaying_) {
      const kv::TransportResult r = inner_.roundtrip(s, request, response);
      canned_[s].insert_or_assign(std::string(request), response);
      return r;
    }
    const auto it = canned_[s].find(request);
    if (it == canned_[s].end()) {
      ++unmatched_;
      response.clear();
      return {kv::TransportStatus::kDropped, 0.0};
    }
    response.assign(it->second);
    return {};
  }

  kv::Ticket issue(ServerId s, std::string_view frame) override {
    if (!ticketed_ || !replaying_) return KvTransport::issue(s, frame);
    const auto it = canned_[s].find(frame);
    answers_.push_back(it == canned_[s].end() ? nullptr : &it->second);
    ++open_;
    return kv::Ticket{s, frame, answers_.size() - 1, 0};
  }

  kv::TransportResult collect(const kv::Ticket& ticket,
                              std::string& response) override {
    if (!ticketed_ || !replaying_)
      return KvTransport::collect(ticket, response);
    const std::string* answer = answers_[ticket.seq];
    redeem();
    if (answer == nullptr) {
      ++unmatched_;
      response.clear();
      return {kv::TransportStatus::kDropped, 0.0};
    }
    response.assign(*answer);
    return {};
  }

  void cancel(const kv::Ticket& /*ticket*/) override {
    if (ticketed_ && replaying_) redeem();
  }

  void replay() { replaying_ = true; }
  std::uint64_t unmatched() const { return unmatched_; }
  std::uint64_t max_open() const { return max_open_; }

 private:
  void redeem() {
    max_open_ = std::max(max_open_, open_);
    if (--open_ == 0) answers_.clear();  // keeps its capacity
  }

  kv::KvTransport& inner_;
  std::vector<std::map<std::string, std::string, std::less<>>> canned_;
  const bool ticketed_;
  bool replaying_ = false;
  std::uint64_t unmatched_ = 0;
  // Ticketed replay: answers by ticket seq, and how many are unredeemed.
  std::vector<const std::string*> answers_;
  std::uint64_t open_ = 0;
  std::uint64_t max_open_ = 0;
};

/// What `r` needs to allocate when every key was found: its reserved
/// buckets, one node per value, and every string past the small-string
/// buffer.
std::uint64_t result_allocations(const KvClusterClient::MultiGetResult& r) {
  const std::string probe;
  const auto heap = [&](const std::string& s) {
    return s.size() > probe.capacity() ? 1u : 0u;
  };
  std::uint64_t n = 1;
  for (const auto& [key, value] : r.values) n += 1 + heap(key) + heap(value);
  return n;
}

std::uint64_t allocations_of_one_multi_get(bool preinstall_replicas,
                                           bool hitchhiking,
                                           bool ticketed = false) {
  ServerGroupConfig config;
  config.num_servers = 8;
  config.wire = GroupWire::kLoopback;
  config.view.replication = 3;
  ServerGroup group(config);
  std::vector<std::string> keys;
  for (int k = 0; k < 64; ++k) keys.push_back("alloc:" + std::to_string(k));
  group.load(keys,
             [](std::string_view) { return std::string(100, 'v'); },
             preinstall_replicas);

  const auto connection = group.connect();
  ReplayTransport replay(*connection, ticketed);
  KvClusterClientConfig client_config;
  client_config.hitchhiking = hitchhiking;
  KvClusterClient client(replay, group.view(), client_config);
  (void)client.multi_get(keys);  // record the frames and their answers
  replay.replay();
  (void)client.multi_get(keys);  // warm-up on the replayed answers

  std::uint64_t counted = 0;
  KvClusterClient::MultiGetResult result;
  {
    const testing::AllocationCounter counter;
    result = client.multi_get(keys);
    counted = counter.allocations();
  }

  EXPECT_EQ(replay.unmatched(), 0u) << "the measured call sent a new frame";
  EXPECT_EQ(result.values.size(), keys.size());
  EXPECT_TRUE(result.missing.empty());
  EXPECT_LE(counted, result_allocations(result))
      << "allocations beyond what the MultiGetResult needs";
  if (ticketed) {
    EXPECT_GE(replay.max_open(), 2u) << "no wave overlapped";
  }
  return counted;
}

TEST(MultiGetAllocations, WarmCallAllocatesOnlyItsResult) {
  const std::uint64_t n = allocations_of_one_multi_get(
      /*preinstall_replicas=*/true, /*hitchhiking=*/false);
  RecordProperty("allocations", static_cast<int>(n));
}

TEST(MultiGetAllocations, HitchhikingAddsNoAllocations) {
  allocations_of_one_multi_get(/*preinstall_replicas=*/true,
                               /*hitchhiking=*/true);
}

TEST(MultiGetAllocations, RoundTwoAndWriteBacksAddNoAllocations) {
  allocations_of_one_multi_get(/*preinstall_replicas=*/false,
                               /*hitchhiking=*/false);
}

TEST(MultiGetAllocations, OverlappingWavesAddNoAllocations) {
  const std::uint64_t n =
      allocations_of_one_multi_get(/*preinstall_replicas=*/true,
                                   /*hitchhiking=*/false, /*ticketed=*/true);
  RecordProperty("allocations", static_cast<int>(n));
  allocations_of_one_multi_get(/*preinstall_replicas=*/true,
                               /*hitchhiking=*/true, /*ticketed=*/true);
  allocations_of_one_multi_get(/*preinstall_replicas=*/false,
                               /*hitchhiking=*/false, /*ticketed=*/true);
}

}  // namespace
}  // namespace rnb::dserve
