// EventLoop state machines over SimPoller scripts: every interleaving a
// kernel could produce — torn frames at each byte boundary, EAGAIN between
// header and body, pipelined bursts, short writes, mid-write resets — is
// replayed deterministically and checked byte-for-byte against the engine
// run directly. No sockets, no timing, same result under TSan forever.
#include "kv/reactor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kv/protocol.hpp"
#include "kv/sim_poller.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {
namespace {

constexpr std::size_t kBudget = 1 << 20;
constexpr std::size_t kShards = 4;

/// A reactor wired to a scripted poller plus a lock-step reference engine:
/// every frame the loop serves is also run directly on `ref`, so expected
/// bytes track mutable-state responses (DELETED vs NOT_FOUND, versions).
struct Rig {
  SimPoller sim;
  ShardedMapKvServer engine{kBudget, kShards};
  ShardedMapKvServer ref{kBudget, kShards};
  EventLoop loop;

  static EventLoop::Config make_config(std::size_t read_chunk = 16384,
                                       std::size_t max_reads = 16) {
    EventLoop::Config config;
    config.listen_handle = SimPoller::kListener;
    config.read_chunk = read_chunk;
    config.max_reads_per_event = max_reads;
    return config;
  }

  explicit Rig(EventLoop::Config config = make_config())
      : loop(sim, engine, config) {}

  /// Step until no readiness remains (scripts drained or connections
  /// blocked on steps a test will extend later).
  void drive() {
    while (loop.step(/*timeout_ms=*/0) > 0) {
    }
  }

  /// Serve `frame` on the reference engine and return its response.
  std::string reference(const std::string& frame) {
    std::string response;
    HandleInfo info;
    ref.handle(frame, response, &info);
    return response;
  }

  /// Install a key on BOTH engines so gets agree.
  void preload(std::string_view key, std::string_view value) {
    std::string frame;
    encode_set(key, value, /*pin=*/false, frame);
    std::string response;
    engine.handle(frame, response, nullptr);
    ref.handle(frame, response, nullptr);
  }
};

std::vector<std::string> interesting_frames() {
  std::vector<std::string> frames;
  std::string f;
  encode_get({"alpha"}, /*with_versions=*/false, f);
  frames.push_back(std::move(f));
  f.clear();
  encode_get({"alpha", "beta", "missing"}, /*with_versions=*/true, f,
             TraceTag{0xabcu, 0x12u, true});
  frames.push_back(std::move(f));
  f.clear();
  encode_set("gamma", "gamma-value-bytes", /*pin=*/false, f);
  frames.push_back(std::move(f));
  f.clear();
  encode_set("delta", std::string(64, 'x'), /*pin=*/true, f,
             TraceTag{0xdeadu, 0x1u, true});
  frames.push_back(std::move(f));
  f.clear();
  encode_delete("gamma", f);
  frames.push_back(std::move(f));
  return frames;
}

// The tentpole guarantee: a frame split at ANY byte boundary — including
// inside a set's data block and inside the trailing CRLF — produces bytes
// identical to serving the unsplit frame. One scripted connection per
// (frame, boundary) pair, each with an EAGAIN between the halves.
TEST(Reactor, TornFrameAtEveryByteBoundaryMatchesDirectServe) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  rig.preload("beta", "beta-value");
  const std::vector<std::string> frames = interesting_frames();
  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    const std::string& frame = frames[fi];
    for (std::size_t split = 1; split < frame.size(); ++split) {
      SimConnectionScript script;
      script.reads.push_back(SimReadStep::data(frame.substr(0, split)));
      script.reads.push_back(SimReadStep::would_block());
      script.reads.push_back(SimReadStep::data(frame.substr(split)));
      script.reads.push_back(SimReadStep::eof());
      const int h = rig.sim.add_connection(std::move(script));
      rig.drive();
      ASSERT_EQ(rig.sim.output(h), rig.reference(frame))
          << "frame " << fi << " split at byte " << split;
      ASSERT_TRUE(rig.sim.closed(h)) << "frame " << fi << " split " << split;
    }
  }
  EXPECT_EQ(rig.loop.resets(), 0u);
  EXPECT_EQ(rig.loop.open_connections(), 0u);
}

// Several requests arriving in one readable burst are all parsed, served
// in order, and answered back-to-back (request pipelining).
TEST(Reactor, PipelinedBurstServesEveryFrameInOrder) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string burst;
  encode_get({"alpha"}, false, burst);
  encode_set("gamma", "v1", /*pin=*/false, burst);
  encode_get({"gamma", "alpha"}, false, burst);
  std::string f1, f2, f3;
  encode_get({"alpha"}, false, f1);
  encode_set("gamma", "v1", /*pin=*/false, f2);
  encode_get({"gamma", "alpha"}, false, f3);

  SimConnectionScript script;
  // Deliver the burst torn across two reads at an arbitrary odd boundary.
  script.reads.push_back(SimReadStep::data(burst.substr(0, 17)));
  script.reads.push_back(SimReadStep::data(burst.substr(17)));
  script.reads.push_back(SimReadStep::eof());
  const int h = rig.sim.add_connection(std::move(script));
  rig.drive();

  // Evaluate in request order: the set must hit the reference engine
  // between the two gets, exactly as the loop served them.
  std::string expected = rig.reference(f1);
  expected += rig.reference(f2);
  expected += rig.reference(f3);
  EXPECT_EQ(rig.sim.output(h), expected);
  EXPECT_EQ(rig.loop.responses_sent(), 3u);
  EXPECT_TRUE(rig.sim.closed(h));
}

// A tiny read chunk plus a fairness bound of one read per event forces the
// loop to interleave two connections instead of camping on either; both
// still reassemble their frames correctly.
TEST(Reactor, FairnessBoundInterleavesConnections) {
  Rig rig(Rig::make_config(/*read_chunk=*/4, /*max_reads=*/1));
  rig.preload("alpha", "alpha-value");
  rig.preload("beta", "beta-value");
  std::string fa, fb;
  encode_get({"alpha"}, false, fa);
  encode_get({"beta"}, true, fb);

  SimConnectionScript a;
  for (std::size_t i = 0; i < fa.size(); i += 3)
    a.reads.push_back(SimReadStep::data(fa.substr(i, 3)));
  a.reads.push_back(SimReadStep::eof());
  SimConnectionScript b;
  for (std::size_t i = 0; i < fb.size(); i += 2)
    b.reads.push_back(SimReadStep::data(fb.substr(i, 2)));
  b.reads.push_back(SimReadStep::eof());
  const int ha = rig.sim.add_connection(std::move(a));
  const int hb = rig.sim.add_connection(std::move(b));
  rig.drive();

  EXPECT_EQ(rig.sim.output(ha), rig.reference(fa));
  EXPECT_EQ(rig.sim.output(hb), rig.reference(fb));
  // Both connections were ready in the same wait batches.
  EXPECT_GE(rig.loop.stats().max_batch(), 2u);
}

// A response that leaves the socket a few bytes at a time: each short
// write arms the write interest, the flush resumes on writable events, and
// the peer still receives every byte in order.
TEST(Reactor, ShortWritesResumeUntilResponseFullyFlushed) {
  Rig rig;
  rig.preload("alpha", std::string(200, 'a'));
  std::string frame;
  encode_get({"alpha"}, false, frame);
  const std::string expected = rig.reference(frame);

  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame));
  script.reads.push_back(SimReadStep::eof());
  script.writes.push_back(SimWriteStep::accept(3));
  script.writes.push_back(SimWriteStep::would_block());
  script.writes.push_back(SimWriteStep::accept(7));
  script.writes.push_back(SimWriteStep::would_block());
  script.writes.push_back(SimWriteStep::accept(expected.size() / 2));
  const int h = rig.sim.add_connection(std::move(script));
  rig.drive();

  EXPECT_EQ(rig.sim.output(h), expected);
  EXPECT_TRUE(rig.sim.closed(h));  // EOF drain finished after the flush
  EXPECT_EQ(rig.loop.resets(), 0u);
  EXPECT_EQ(rig.loop.stats().queued_bytes(), 0u);  // nothing left buffered
}

// EAGAIN on the very first write attempt: the response stays queued (and
// counted in queued_bytes) until a writable event drains it.
TEST(Reactor, WouldBlockWriteKeepsResponseQueuedUntilWritable) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string frame;
  encode_get({"alpha"}, false, frame);
  const std::string expected = rig.reference(frame);

  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame));
  script.writes.push_back(SimWriteStep::would_block());
  const int h = rig.sim.add_connection(std::move(script));

  // First step: accept; second: read + handle + blocked flush.
  rig.loop.step(0);
  rig.loop.step(0);
  EXPECT_EQ(rig.sim.output(h), "");
  EXPECT_EQ(rig.loop.stats().queued_bytes(), expected.size());

  rig.drive();  // writable now that the block step was consumed
  EXPECT_EQ(rig.sim.output(h), expected);
  EXPECT_EQ(rig.loop.stats().queued_bytes(), 0u);
  EXPECT_FALSE(rig.sim.closed(h));  // no EOF scripted: stays open
  EXPECT_EQ(rig.loop.open_connections(), 1u);
}

// Peer resets while half a response is on the wire: the connection is torn
// down, counted as a reset, and its queued bytes leave the gauge.
TEST(Reactor, ResetMidWriteDestroysConnectionAndCountsReset) {
  Rig rig;
  rig.preload("alpha", std::string(100, 'a'));
  std::string frame;
  encode_get({"alpha"}, false, frame);

  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame));
  script.writes.push_back(SimWriteStep::accept(5));
  script.writes.push_back(SimWriteStep::reset());
  const int h = rig.sim.add_connection(std::move(script));
  rig.drive();

  EXPECT_EQ(rig.sim.output(h).size(), 5u);
  EXPECT_TRUE(rig.sim.closed(h));
  EXPECT_EQ(rig.loop.resets(), 1u);
  EXPECT_EQ(rig.loop.open_connections(), 0u);
  EXPECT_EQ(rig.loop.stats().queued_bytes(), 0u);
}

// Peer resets with half a frame buffered: the torn input is abandoned, no
// response is produced, the engine never sees a partial frame.
TEST(Reactor, ResetMidFrameAbandonsTornInput) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string frame;
  encode_set("omega", "data-we-never-finish", /*pin=*/false, frame);

  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame.substr(0, frame.size() / 2)));
  script.reads.push_back(SimReadStep::reset());
  const int h = rig.sim.add_connection(std::move(script));
  rig.drive();

  EXPECT_EQ(rig.sim.output(h), "");
  EXPECT_EQ(rig.loop.responses_sent(), 0u);
  EXPECT_EQ(rig.loop.resets(), 1u);
  EXPECT_TRUE(rig.sim.closed(h));

  // The half-written key must not exist: serving a get for it (on a fresh
  // connection) answers END only.
  std::string probe;
  encode_get({"omega"}, false, probe);
  SimConnectionScript probe_script;
  probe_script.reads.push_back(SimReadStep::data(probe));
  probe_script.reads.push_back(SimReadStep::eof());
  const int hp = rig.sim.add_connection(std::move(probe_script));
  rig.drive();
  EXPECT_EQ(rig.sim.output(hp), rig.reference(probe));
}

// Orderly EOF with responses still queued behind a blocked write: the loop
// drains the outbox first, then closes — pipelined requests sent just
// before the client half-closes still get their answers.
TEST(Reactor, EofDrainsQueuedResponsesBeforeClosing) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string frame;
  encode_get({"alpha"}, false, frame);
  const std::string expected = rig.reference(frame);

  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame));
  script.reads.push_back(SimReadStep::eof());
  script.writes.push_back(SimWriteStep::would_block());
  const int h = rig.sim.add_connection(std::move(script));
  rig.drive();

  EXPECT_EQ(rig.sim.output(h), expected);
  EXPECT_TRUE(rig.sim.closed(h));
  EXPECT_EQ(rig.loop.resets(), 0u);  // an orderly drain is not a reset
}

// Accept/active/response counters and the loop-health stats line up with
// what the scripts did.
TEST(Reactor, CountersTrackAcceptsServesAndCloses) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string frame;
  encode_get({"alpha"}, false, frame);

  for (int i = 0; i < 3; ++i) {
    SimConnectionScript script;
    script.reads.push_back(SimReadStep::data(frame));
    script.reads.push_back(SimReadStep::eof());
    rig.sim.add_connection(std::move(script));
  }
  SimConnectionScript idle;  // accepted but never sends anything
  idle.reads.push_back(SimReadStep::would_block());
  const int hi = rig.sim.add_connection(std::move(idle));
  rig.drive();

  EXPECT_EQ(rig.loop.connections_accepted(), 4u);
  EXPECT_EQ(rig.loop.open_connections(), 1u);  // only the idle one remains
  EXPECT_EQ(rig.loop.responses_sent(), 3u);
  EXPECT_EQ(rig.loop.accept_errors(), 0u);
  EXPECT_GE(rig.loop.stats().wakeups(), 1u);
  EXPECT_GE(rig.loop.stats().ready_events(), 4u);
  EXPECT_FALSE(rig.sim.closed(hi));
}

// A tagged request's batched write is attributed to the request's trace:
// the flush emits a "write" span whose trace id / parent are the tag — the
// same shape the thread-per-connection server produces.
TEST(Reactor, FlushAttributesWriteSpanToTheRequestTrace) {
  obs::Tracer tracer(obs::Tracer::ClockMode::kVirtual);
  obs::Tracer::set_current(&tracer);
  {
    Rig rig;
    rig.preload("alpha", "alpha-value");
    const TraceTag tag{0xfeedu, 0x77u, true};
    std::string frame;
    encode_get({"alpha"}, false, frame, tag);

    SimConnectionScript script;
    script.reads.push_back(SimReadStep::data(frame));
    script.reads.push_back(SimReadStep::eof());
    rig.sim.add_connection(std::move(script));
    rig.drive();

    bool found = false;
    for (const obs::TraceEvent& event : tracer.snapshot_events()) {
      if (std::string_view(event.name) != "write") continue;
      EXPECT_EQ(event.trace_id, tag.trace_id);
      EXPECT_EQ(event.parent_id, tag.span_id);
      found = true;
    }
    EXPECT_TRUE(found) << "no write span recorded for the tagged request";
  }
  obs::Tracer::set_current(nullptr);
}

// close_all (the shutdown path) tears down live connections and returns
// the gauges to zero even with responses still queued.
TEST(Reactor, CloseAllReclaimsLiveConnections) {
  Rig rig;
  rig.preload("alpha", "alpha-value");
  std::string frame;
  encode_get({"alpha"}, false, frame);
  SimConnectionScript script;
  script.reads.push_back(SimReadStep::data(frame));
  script.writes.push_back(SimWriteStep::would_block());  // response stuck
  const int h = rig.sim.add_connection(std::move(script));
  rig.loop.step(0);
  rig.loop.step(0);
  EXPECT_EQ(rig.loop.open_connections(), 1u);
  EXPECT_GT(rig.loop.stats().queued_bytes(), 0u);

  rig.loop.close_all();
  EXPECT_EQ(rig.loop.open_connections(), 0u);
  EXPECT_EQ(rig.loop.stats().queued_bytes(), 0u);
  EXPECT_TRUE(rig.sim.closed(h));
}

}  // namespace
}  // namespace rnb::kv
