// TcpClientTransport's split-phase tickets against real servers: replies
// come back in per-connection order, so a ticket collected ahead of an
// earlier one parks the earlier reply; a cancelled ticket's reply is
// drained, never handed to a later collect; and a peer that goes away is
// a kServerDown status on every frame it still owed, never an exception.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "kv/protocol.hpp"
#include "kv/tcp.hpp"

namespace rnb::kv {
namespace {

std::string get_frame(std::string_view key) {
  std::string frame;
  encode_get({key}, /*with_versions=*/false, frame);
  return frame;
}

std::string set_frame(std::string_view key, std::string_view value) {
  std::string frame;
  encode_set(key, value, /*pin=*/false, frame);
  return frame;
}

/// The value a single-key get reply carries, or "" for a miss.
std::string value_of(const std::string& reply) {
  const auto values = parse_values(reply, /*with_versions=*/false);
  EXPECT_TRUE(values.has_value()) << reply;
  return values && !values->empty() ? values->front().data : "";
}

class TcpTickets : public ::testing::Test {
 protected:
  TcpTickets() : fleet_(2, 1 << 20) {
    TcpClientTransport setup(fleet_.ports());
    std::string ack;
    for (ServerId s = 0; s < 2; ++s)
      for (const char* key : {"a", "b", "c"}) {
        const std::string value = std::string(key) + std::to_string(s);
        setup.roundtrip(s, set_frame(key, value), ack);
        EXPECT_EQ(ack, "STORED\r\n");
      }
  }

  TcpFleet fleet_;
};

TEST_F(TcpTickets, OutOfOrderCollectsOnOneConnection) {
  TcpClientTransport wire(fleet_.ports());
  const std::string fa = get_frame("a"), fb = get_frame("b"),
                    fc = set_frame("c", "c-new");
  const Ticket ta = wire.issue(0, fa);
  const Ticket tb = wire.issue(0, fb);
  const Ticket tc = wire.issue(0, fc);
  std::string reply;
  ASSERT_TRUE(wire.collect(tc, reply).ok());
  EXPECT_EQ(reply, "STORED\r\n");
  ASSERT_TRUE(wire.collect(ta, reply).ok());
  EXPECT_EQ(value_of(reply), "a0");
  ASSERT_TRUE(wire.collect(tb, reply).ok());
  EXPECT_EQ(value_of(reply), "b0");
  // The connection is still in step.
  ASSERT_TRUE(wire.roundtrip(0, get_frame("c"), reply).ok());
  EXPECT_EQ(value_of(reply), "c-new");
}

TEST_F(TcpTickets, OutOfOrderCollectsAcrossTwoConnections) {
  TcpClientTransport wire(fleet_.ports());
  const std::string fa = get_frame("a"), fb = get_frame("b");
  const Ticket t0a = wire.issue(0, fa);
  const Ticket t1a = wire.issue(1, fa);
  const Ticket t0b = wire.issue(0, fb);
  const Ticket t1b = wire.issue(1, fb);
  std::string reply;
  ASSERT_TRUE(wire.collect(t1b, reply).ok());
  EXPECT_EQ(value_of(reply), "b1");
  ASSERT_TRUE(wire.collect(t0b, reply).ok());
  EXPECT_EQ(value_of(reply), "b0");
  ASSERT_TRUE(wire.collect(t1a, reply).ok());
  EXPECT_EQ(value_of(reply), "a1");
  ASSERT_TRUE(wire.collect(t0a, reply).ok());
  EXPECT_EQ(value_of(reply), "a0");
}

TEST_F(TcpTickets, RoundtripsInterleaveWithOpenTickets) {
  TcpClientTransport wire(fleet_.ports());
  const std::string fa = get_frame("a");
  const Ticket ta = wire.issue(0, fa);
  std::string reply;
  ASSERT_TRUE(wire.roundtrip(0, get_frame("b"), reply).ok());
  EXPECT_EQ(value_of(reply), "b0");
  ASSERT_TRUE(wire.collect(ta, reply).ok());
  EXPECT_EQ(value_of(reply), "a0");
}

TEST_F(TcpTickets, CancelledRepliesNeverReachALaterCollect) {
  TcpClientTransport wire(fleet_.ports());
  const std::string fa = get_frame("a"), fb = get_frame("b"),
                    fc = get_frame("c");
  std::string reply;
  // Cancelled before its reply was read: drained by the next collect.
  const Ticket ta = wire.issue(0, fa);
  wire.cancel(ta);
  const Ticket tb = wire.issue(0, fb);
  ASSERT_TRUE(wire.collect(tb, reply).ok());
  EXPECT_EQ(value_of(reply), "b0");
  // Cancelled after its reply was parked.
  const Ticket ta2 = wire.issue(0, fa);
  const Ticket tb2 = wire.issue(0, fb);
  ASSERT_TRUE(wire.collect(tb2, reply).ok());
  EXPECT_EQ(value_of(reply), "b0");
  wire.cancel(ta2);
  const Ticket tc = wire.issue(0, fc);
  ASSERT_TRUE(wire.collect(tc, reply).ok());
  EXPECT_EQ(value_of(reply), "c0");
  // Several cancelled in a row, then a roundtrip.
  for (int i = 0; i < 5; ++i) wire.cancel(wire.issue(0, fa));
  ASSERT_TRUE(wire.roundtrip(0, fc, reply).ok());
  EXPECT_EQ(value_of(reply), "c0");
}

TEST(TcpTicketsDeadPeer, StoppedServerIsAStatusNotAnException) {
  TcpFleet fleet(2, 1 << 20);
  std::vector<std::atomic<bool>> active(2);
  for (auto& a : active) a.store(true);
  TcpClientTransport wire(fleet, std::span<const std::atomic<bool>>(active),
                          2);
  std::string reply;
  ASSERT_TRUE(wire.roundtrip(1, set_frame("k", "v"), reply).ok());

  // Frames in flight to server 1 when it goes away, and one sent after:
  // the late one fails, nothing throws, and server 0's frame is untouched.
  const std::string fk = get_frame("k");
  const Ticket t1 = wire.issue(1, fk);
  const Ticket t0 = wire.issue(0, fk);
  fleet.wire(1).shutdown();
  const Ticket t1_late = wire.issue(1, fk);
  EXPECT_EQ(wire.collect(t1_late, reply).status,
            TransportStatus::kServerDown);
  EXPECT_TRUE(reply.empty());
  // The server may have answered the first frame before it stopped.
  const TransportResult r1 = wire.collect(t1, reply);
  if (r1.ok()) {
    EXPECT_EQ(value_of(reply), "v");
  } else {
    EXPECT_EQ(r1.status, TransportStatus::kServerDown);
  }
  ASSERT_TRUE(wire.collect(t0, reply).ok());
  EXPECT_EQ(value_of(reply), "");

  // Later frames redial, find the listener gone, and fail the same way.
  EXPECT_EQ(wire.roundtrip(1, fk, reply).status, TransportStatus::kServerDown);
  EXPECT_EQ(wire.collect(wire.issue(1, fk), reply).status,
            TransportStatus::kServerDown);

  // The active gate: a stopped slot answers kServerDown without dialing.
  active[0].store(false);
  EXPECT_EQ(wire.roundtrip(0, fk, reply).status, TransportStatus::kServerDown);
  active[0].store(true);
  ASSERT_TRUE(wire.roundtrip(0, fk, reply).ok());
}

}  // namespace
}  // namespace rnb::kv
