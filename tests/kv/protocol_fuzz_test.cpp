// Property/fuzz tests for the wire protocol: random valid commands must
// roundtrip exactly; random garbage must be rejected without crashes; and
// the server must answer *something* well-formed to any byte soup.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kv/kv_server.hpp"
#include "kv/protocol.hpp"
#include "kv/tcp.hpp"

namespace rnb::kv {
namespace {

std::string random_key(Xoshiro256& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:.-";
  const std::size_t len = 1 + rng.below(40);
  std::string key;
  key.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    key.push_back(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
  return key;
}

std::string random_bytes(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string bytes;
  bytes.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    bytes.push_back(static_cast<char>(rng.below(256)));
  return bytes;
}

/// parse_value_views and parse_values accept exactly the same frames and
/// agree field for field.
void expect_same_value_parse(std::string_view frame, bool versions) {
  std::vector<ValueView> views;
  const bool ok = parse_value_views(frame, versions, views);
  const auto values = parse_values(frame, versions);
  ASSERT_EQ(ok, values.has_value()) << "frame: " << frame;
  if (!ok) return;
  ASSERT_EQ(views.size(), values->size()) << "frame: " << frame;
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i].key, (*values)[i].key);
    ASSERT_EQ(views[i].data, (*values)[i].data);
    ASSERT_EQ(views[i].version, (*values)[i].version);
    ASSERT_EQ(views[i].flags, (*values)[i].flags);
  }
}

TEST(ProtocolFuzz, RandomSetCommandsRoundtrip) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string key = random_key(rng);
    const std::string data = random_bytes(rng, 200);  // arbitrary bytes OK
    const bool pin = rng.chance(0.3);
    std::string frame;
    encode_set(key, data, pin, frame);
    std::string error;
    const auto cmd = parse_command(frame, &error);
    ASSERT_TRUE(cmd.has_value()) << error;
    const auto& set = std::get<SetCommand>(*cmd);
    ASSERT_EQ(set.key, key);
    ASSERT_EQ(set.data, data);
    ASSERT_EQ(set.pin, pin);
  }
}

TEST(ProtocolFuzz, RandomGetCommandsRoundtrip) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> keys;
    const std::size_t n = 1 + rng.below(50);
    for (std::size_t i = 0; i < n; ++i) keys.push_back(random_key(rng));
    const bool versions = rng.chance(0.5);
    std::string frame;
    encode_get(keys, versions, frame);
    const auto cmd = parse_command(frame, nullptr);
    ASSERT_TRUE(cmd.has_value());
    ASSERT_EQ(std::get<GetCommand>(*cmd).keys, keys);
    ASSERT_EQ(std::get<GetCommand>(*cmd).with_versions, versions);
  }
}

TEST(ProtocolFuzz, RandomValueResponsesRoundtrip) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Value> values;
    const std::size_t n = rng.below(20);
    for (std::size_t i = 0; i < n; ++i)
      values.push_back(Value{random_key(rng), random_bytes(rng, 100), rng()});
    std::string frame;
    encode_values(values, true, frame);
    expect_same_value_parse(frame, true);
    const auto parsed = parse_values(frame, true);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), values.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ((*parsed)[i].key, values[i].key);
      ASSERT_EQ((*parsed)[i].data, values[i].data);
      ASSERT_EQ((*parsed)[i].version, values[i].version);
    }
  }
}

TEST(ProtocolFuzz, GarbageNeverCrashesParser) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string garbage = random_bytes(rng, 300);
    std::string error;
    // Must not crash or hang; may or may not parse.
    (void)parse_command(garbage, &error);
    expect_same_value_parse(garbage, rng.chance(0.5));
    (void)parse_simple(garbage);
  }
}

/// VALUE frames of every shape a client reads: hits with and without
/// versions, empty data, data embedding CRLFs and a fake VALUE line, a bare
/// END, and a scan page with flags.
std::vector<std::pair<std::string, bool>> representative_value_frames() {
  std::vector<std::pair<std::string, bool>> frames;
  std::string f;
  encode_values({{"alpha", "0123456789", 0}}, false, f);
  frames.emplace_back(std::exchange(f, {}), false);
  encode_values({{"a", "x", 7}, {"bb", "", 8}, {"ccc", "yz", 9}}, true, f);
  frames.emplace_back(std::exchange(f, {}), true);
  encode_values({{"tricky", "\r\nVALUE fake 0 3\r\nEND\r\n", 0}}, false, f);
  frames.emplace_back(std::exchange(f, {}), false);
  encode_values({}, false, f);
  frames.emplace_back(std::exchange(f, {}), false);
  ScanPage page;
  page.next_cursor = 42;
  page.entries = {{"pinned", "p", 0, kValueFlagPinned}, {"plain", "q", 0, 0}};
  encode_scan_page(page, f);
  frames.emplace_back(std::exchange(f, {}), false);
  return frames;
}

TEST(ProtocolFuzz, ValueViewsMatchOwnedParseAtEveryByteOffset) {
  // Cut each frame at every byte offset, and separately overwrite each
  // byte with characters the grammar cares about: both parsers must
  // accept the same results and agree on every field.
  for (const auto& [frame, versions] : representative_value_frames()) {
    expect_same_value_parse(frame, versions);
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
      expect_same_value_parse(std::string_view(frame).substr(0, cut),
                              versions);
      expect_same_value_parse(std::string_view(frame).substr(cut), versions);
    }
    for (std::size_t at = 0; at < frame.size(); ++at)
      for (const char c : {' ', '\r', '\n', '0', '9', 'x', '\0'}) {
        std::string mutated = frame;
        mutated[at] = c;
        expect_same_value_parse(mutated, versions);
        expect_same_value_parse(mutated, !versions);
      }
  }
}

TEST(ProtocolFuzz, ValueViewsMatchOwnedParseOnMalformedFrames) {
  const std::vector<std::string> table = {
      "",
      "END",
      "END\r",
      "END\r\nEND\r\n",
      "VALUE\r\nEND\r\n",
      "VALUE k\r\nEND\r\n",
      "VALUE k 0\r\nEND\r\n",
      "VALUE k x 1\r\nz\r\nEND\r\n",
      "VALUE k 0 x\r\nz\r\nEND\r\n",
      "VALUE k 0 -1\r\nz\r\nEND\r\n",
      "VALUE k 0 2\r\nz\r\nEND\r\n",
      "VALUE k 0 1\r\nzz\r\nEND\r\n",
      "VALUE k 0 1\r\nz\r\n",
      "VALUE k 0 1\r\nz\r\nEN\r\n",
      "VALUE k 0 1 5\r\nz\r\nEND\r\n",
      "VALUE k 0 1\r\nz\r\nVALUE\r\nEND\r\n",
      "VALUE  k  0  1\r\nz\r\nEND\r\n",
      "value k 0 1\r\nz\r\nEND\r\n",
      "WRONG_EPOCH 3\r\n",
      "STORED\r\n",
      "SERVER_ERROR out of memory\r\n",
      std::string("VALUE k 0 1\r\n\0\r\nEND\r\n", 21),
  };
  for (const std::string& frame : table) {
    expect_same_value_parse(frame, false);
    expect_same_value_parse(frame, true);
  }
}

TEST(ProtocolFuzz, TruncatedValidFramesAreRejectedNotCrashed) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::string frame;
    encode_set(random_key(rng), random_bytes(rng, 50), false, frame);
    // Every strict prefix must be cleanly rejected.
    const std::size_t cut = rng.below(frame.size());
    ASSERT_FALSE(parse_command(frame.substr(0, cut), nullptr).has_value());
  }
}

TEST(ProtocolFuzz, ServerAnswersGarbageWithWellFormedError) {
  KvServer server(1 << 20);
  Xoshiro256 rng(6);
  std::string response;
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = random_bytes(rng, 200);
    garbage += "\r\n";  // framed garbage, as the TCP splitter would deliver
    server.handle(garbage, response);
    ASSERT_FALSE(response.empty());
    ASSERT_TRUE(response.ends_with("\r\n"));
  }
}

TraceTag random_tag(Xoshiro256& rng) {
  TraceTag tag;
  tag.trace_id = rng() | 1;  // any nonzero id is a valid tag
  tag.span_id = rng();
  tag.sampled = rng.chance(0.5);
  return tag;
}

TEST(ProtocolFuzz, TaggedAndUntaggedCommandsRoundtripExactly) {
  // decode(encode(x)) == x for every verb, with and without a trace tag —
  // including the tag itself (the command structs compare it).
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    const TraceTag tag = rng.chance(0.5) ? random_tag(rng) : TraceTag{};
    std::string frame;
    Command expected;
    switch (rng.below(5)) {
      case 0: {
        GetCommand cmd;
        const std::size_t n = 1 + rng.below(20);
        for (std::size_t i = 0; i < n; ++i)
          cmd.keys.push_back(random_key(rng));
        cmd.with_versions = rng.chance(0.5);
        cmd.trace = tag;
        encode_get(cmd.keys, cmd.with_versions, frame, tag);
        expected = std::move(cmd);
        break;
      }
      case 1: {
        SetCommand cmd;
        cmd.key = random_key(rng);
        cmd.data = random_bytes(rng, 100);
        cmd.pin = rng.chance(0.3);
        cmd.trace = tag;
        encode_set(cmd.key, cmd.data, cmd.pin, frame, tag);
        expected = std::move(cmd);
        break;
      }
      case 2: {
        CasCommand cmd;
        cmd.key = random_key(rng);
        cmd.data = random_bytes(rng, 100);
        cmd.version = rng();
        cmd.trace = tag;
        encode_cas(cmd.key, cmd.data, cmd.version, frame, tag);
        expected = std::move(cmd);
        break;
      }
      case 3: {
        DeleteCommand cmd;
        cmd.key = random_key(rng);
        cmd.trace = tag;
        encode_delete(cmd.key, frame, tag);
        expected = std::move(cmd);
        break;
      }
      default: {
        StatsCommand cmd;
        cmd.trace = tag;
        encode_stats(frame, tag);
        expected = std::move(cmd);
        break;
      }
    }
    std::string error;
    const auto parsed = parse_command(frame, &error);
    ASSERT_TRUE(parsed.has_value()) << error << " frame: " << frame;
    ASSERT_TRUE(*parsed == expected) << "frame: " << frame;
  }
}

TEST(ProtocolFuzz, UntaggedFramesAreByteIdenticalToPreTagGrammar) {
  // The exact bytes the encoders produced before the trace-tag extension
  // existed — pinned literally so a tag-default regression cannot slip in.
  std::string frame;
  encode_get({"a", "bb"}, false, frame);
  EXPECT_EQ(frame, "get a bb\r\n");
  frame.clear();
  encode_get({"a"}, true, frame);
  EXPECT_EQ(frame, "gets a\r\n");
  frame.clear();
  encode_set("k", "hello", false, frame);
  EXPECT_EQ(frame, "set k 0 0 5\r\nhello\r\n");
  frame.clear();
  encode_set("k", "hello", true, frame);
  EXPECT_EQ(frame, "set k 0 0 5 pin\r\nhello\r\n");
  frame.clear();
  encode_cas("k", "hi", 7, frame);
  EXPECT_EQ(frame, "cas k 0 0 2 7\r\nhi\r\n");
  frame.clear();
  encode_delete("k", frame);
  EXPECT_EQ(frame, "delete k\r\n");
  frame.clear();
  encode_stats(frame);
  EXPECT_EQ(frame, "stats\r\n");
}

TEST(ProtocolFuzz, AppendTraceTagMatchesDirectTaggedEncoding) {
  // Retro-tagging an already encoded frame (what the clients do to their
  // reused request buffers) must produce the same bytes as encoding with
  // the tag in the first place — for every verb, including storage frames
  // whose data block follows the command line.
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const TraceTag tag = random_tag(rng);
    const std::string key = random_key(rng);
    const std::string data = random_bytes(rng, 60);
    std::string direct, retro;
    switch (rng.below(5)) {
      case 0:
        encode_get({key}, false, direct, tag);
        encode_get({key}, false, retro);
        break;
      case 1: {
        const bool pin = rng.chance(0.5);
        encode_set(key, data, pin, direct, tag);
        encode_set(key, data, pin, retro);
        break;
      }
      case 2:
        encode_cas(key, data, 3, direct, tag);
        encode_cas(key, data, 3, retro);
        break;
      case 3:
        encode_delete(key, direct, tag);
        encode_delete(key, retro);
        break;
      default:
        encode_stats(direct, tag);
        encode_stats(retro);
        break;
    }
    append_trace_tag(retro, tag);
    ASSERT_EQ(retro, direct);
  }
}

TEST(ProtocolFuzz, TracePrefixIsReservedAndMalformedTagsAreRejected) {
  EXPECT_FALSE(parse_command("get a @trace=zz\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get a @trace=1:2\r\n", nullptr).has_value());
  EXPECT_FALSE(
      parse_command("get a @trace=1:2:3:4\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get a @trace=0:1:0\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get a @trace=\r\n", nullptr).has_value());
  std::string error;
  EXPECT_FALSE(parse_command("get @trace=1:2:3\r\n", &error).has_value())
      << "a tag with no keys left must not parse as a bare get";
  const auto tagged = parse_command("get a @trace=deadbeef:7:1\r\n", nullptr);
  ASSERT_TRUE(tagged.has_value());
  const auto& get = std::get<GetCommand>(*tagged);
  ASSERT_EQ(get.keys, std::vector<std::string>{"a"});
  EXPECT_EQ(get.trace.trace_id, 0xdeadbeefull);
  EXPECT_EQ(get.trace.span_id, 7u);
  EXPECT_TRUE(get.trace.sampled);
}

TEST(ProtocolFuzz, MgetPartialMissesPreserveRequestOrderOfHits) {
  // An MGET over a mix of present and absent keys must answer with exactly
  // the present keys, in request order, and silently omit the misses —
  // the contract the cluster client's recover planning relies on to tell
  // a missing replica from a transport error.
  KvServer server(8u << 20);
  Xoshiro256 rng(10);
  std::string req, resp;
  for (int trial = 0; trial < 200; ++trial) {
    // Fresh namespace per trial so earlier trials can't turn a planned
    // miss into a hit.
    const std::string ns = "t" + std::to_string(trial) + ":";
    std::vector<std::string> keys;
    std::vector<bool> present;
    const std::size_t n = 1 + rng.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(ns + random_key(rng) + ":" + std::to_string(i));
      present.push_back(rng.chance(0.5));
      if (present.back()) {
        req.clear();
        encode_set(keys.back(), "v:" + keys.back(), false, req);
        server.handle(req, resp);
        ASSERT_EQ(parse_simple(resp), "STORED");
      }
    }
    req.clear();
    encode_get(keys, rng.chance(0.5), req);
    const bool versions = std::get<GetCommand>(*parse_command(req, nullptr))
                              .with_versions;
    server.handle(req, resp);
    const auto values = parse_values(resp, versions);
    ASSERT_TRUE(values.has_value()) << resp;
    std::size_t vi = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!present[i]) continue;
      ASSERT_LT(vi, values->size());
      ASSERT_EQ((*values)[vi].key, keys[i]) << "hits out of request order";
      ASSERT_EQ((*values)[vi].data, "v:" + keys[i]);
      ++vi;
    }
    ASSERT_EQ(vi, values->size()) << "response contains a key never stored";
  }
}

TEST(ProtocolFuzz, MgetAllMissesYieldsBareEndFrame) {
  KvServer server(1 << 20);
  Xoshiro256 rng(11);
  std::string req, resp;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> keys;
    const std::size_t n = 1 + rng.below(20);
    for (std::size_t i = 0; i < n; ++i)
      keys.push_back("absent:" + random_key(rng));
    req.clear();
    encode_get(keys, false, req);
    server.handle(req, resp);
    ASSERT_EQ(resp, "END\r\n");
    const auto values = parse_values(resp, false);
    ASSERT_TRUE(values.has_value());
    ASSERT_TRUE(values->empty());
  }
}

TEST(ProtocolFuzz, EmptyValueFramesRoundtripAndServeCorrectly) {
  // Zero-length values produce a "VALUE <key> ... 0" header followed by an
  // empty data block — an edge the frame splitter and parser must both
  // treat as a hit, not a miss, including mixed into partial-miss MGETs.
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> values;
    const std::size_t n = 1 + rng.below(10);
    for (std::size_t i = 0; i < n; ++i) {
      const bool empty = rng.chance(0.5);
      values.push_back(Value{random_key(rng) + ":" + std::to_string(i),
                             empty ? "" : random_bytes(rng, 40), rng()});
    }
    const bool versions = rng.chance(0.5);
    std::string frame;
    encode_values(values, versions, frame);
    const auto parsed = parse_values(frame, versions);
    ASSERT_TRUE(parsed.has_value()) << frame;
    ASSERT_EQ(parsed->size(), values.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ((*parsed)[i].key, values[i].key);
      ASSERT_EQ((*parsed)[i].data, values[i].data);
    }
  }

  KvServer server(1 << 20);
  std::string req, resp;
  encode_set("empty", "", false, req);
  server.handle(req, resp);
  ASSERT_EQ(parse_simple(resp), "STORED");
  req.clear();
  encode_get({"miss:a", "empty", "miss:b"}, false, req);
  server.handle(req, resp);
  const auto values = parse_values(resp, false);
  ASSERT_TRUE(values.has_value()) << resp;
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].key, "empty");
  EXPECT_EQ((*values)[0].data, "");
}

/// One frame per verb shape — get/mget/gets/set(+pin)/cas/delete/stats —
/// each in tagged and untagged form, plus a data block that embeds CRLFs
/// and a full fake command line (the splitter must honor <bytes>, never
/// scan the body for terminators).
std::vector<std::string> representative_frames() {
  const TraceTag tag{0x1234u, 0x9u, true};
  std::vector<std::string> frames;
  std::string f;
  const auto take = [&frames, &f] {
    frames.push_back(f);
    f.clear();
  };
  encode_get({"alpha"}, false, f);
  take();
  encode_get({"alpha"}, false, f, tag);
  take();
  encode_get({"a", "bb", "ccc"}, false, f);
  take();
  encode_get({"a", "bb", "ccc"}, true, f, tag);
  take();
  encode_set("key", "some value bytes", false, f);
  take();
  encode_set("key", "some value bytes", true, f, tag);
  take();
  encode_set("empty", "", false, f);
  take();
  encode_set("tricky", "body with \r\n and a fake\r\nget x\r\n inside", false,
             f);
  take();
  encode_cas("key", "data", 42, f, tag);
  take();
  encode_delete("key", f);
  take();
  encode_delete("key", f, tag);
  take();
  encode_stats(f);
  take();
  encode_stats(f, tag);
  take();
  // The migration/epoch verbs, in every tag combination that can appear on
  // the wire: bare, traced, epoch-tagged, and both (`@epoch` before
  // `@trace`, the canonical order).
  encode_scan(0, 64, f);
  take();
  encode_scan(12345, 1, f, tag);
  take();
  encode_scan(7, 32, f);
  append_epoch_tag(f, 9);
  take();
  encode_scan(7, 32, f);
  append_epoch_tag(f, 9);
  append_trace_tag(f, tag);
  take();
  encode_epoch(0, f);
  take();
  encode_epoch(42, f);
  take();
  encode_epoch(42, f, tag);
  take();
  encode_get({"a", "bb"}, false, f);
  append_epoch_tag(f, 3);
  take();
  encode_set("key", "epoch tagged body", true, f);
  append_epoch_tag(f, 3);
  append_trace_tag(f, tag);
  take();
  return frames;
}

TEST(ProtocolFuzz, IncrementalSplitAtEveryByteOffsetMatchesOneShotParse) {
  // The reactor's framing guarantee, tested at the parser layer: a frame
  // torn at ANY byte boundary reassembles byte-identically through the
  // incremental FrameSplitter and parses to the same Command as the
  // unsplit frame — for every verb, with and without a trace tag.
  for (const std::string& frame : representative_frames()) {
    std::string error;
    const auto one_shot = parse_command(frame, &error);
    ASSERT_TRUE(one_shot.has_value()) << error << " frame: " << frame;
    for (std::size_t split = 1; split < frame.size(); ++split) {
      FrameSplitter splitter;
      std::string out;
      splitter.feed(std::string_view(frame).substr(0, split));
      ASSERT_FALSE(splitter.next_frame(out))
          << "strict prefix yielded a frame at split " << split << " of "
          << frame;
      splitter.feed(std::string_view(frame).substr(split));
      ASSERT_TRUE(splitter.next_frame(out)) << "split " << split;
      ASSERT_EQ(out, frame) << "split " << split;
      const auto incremental = parse_command(out, &error);
      ASSERT_TRUE(incremental.has_value()) << error;
      ASSERT_TRUE(*incremental == *one_shot) << "split " << split;
      ASSERT_FALSE(splitter.next_frame(out)) << "residue after split "
                                             << split;
    }
  }
}

TEST(ProtocolFuzz, RandomManyWayChopsReassembleExactly) {
  // Generalize the single-boundary sweep: a frame delivered as k random
  // fragments (including empty ones) still yields exactly one identical
  // frame, and a pipelined pair chopped together yields both in order.
  Xoshiro256 rng(13);
  const std::vector<std::string> frames = representative_frames();
  for (int trial = 0; trial < 400; ++trial) {
    const std::string& a = frames[rng.below(frames.size())];
    const std::string& b = frames[rng.below(frames.size())];
    const std::string wire = a + b;
    FrameSplitter splitter;
    std::vector<std::string> got;
    std::string out;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = rng.below(9);  // 0..8 byte fragments
      splitter.feed(std::string_view(wire).substr(pos, n));
      pos += std::min(n, wire.size() - pos);
      while (splitter.next_frame(out)) got.push_back(out);
    }
    ASSERT_EQ(got.size(), 2u) << "a: " << a << " b: " << b;
    ASSERT_EQ(got[0], a);
    ASSERT_EQ(got[1], b);
  }
}

TEST(ProtocolFuzz, EpochTaggedCommandsRoundtripExactly) {
  // decode(encode(x) + epoch tag) == x for every verb, with and without a
  // trace tag riding alongside — the epoch field included (the command
  // structs compare it).
  Xoshiro256 rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t epoch = 1 + rng.below(1u << 20);
    const TraceTag tag = rng.chance(0.5) ? random_tag(rng) : TraceTag{};
    std::string frame;
    Command expected;
    switch (rng.below(6)) {
      case 0: {
        GetCommand cmd;
        cmd.keys.push_back(random_key(rng));
        cmd.with_versions = rng.chance(0.5);
        encode_get(cmd.keys, cmd.with_versions, frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
      case 1: {
        SetCommand cmd;
        cmd.key = random_key(rng);
        cmd.data = random_bytes(rng, 100);
        cmd.pin = rng.chance(0.3);
        encode_set(cmd.key, cmd.data, cmd.pin, frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
      case 2: {
        DeleteCommand cmd;
        cmd.key = random_key(rng);
        encode_delete(cmd.key, frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
      case 3: {
        ScanCommand cmd;
        cmd.cursor = rng();
        cmd.max_keys = 1 + rng.below(1000);
        encode_scan(cmd.cursor, cmd.max_keys, frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
      case 4: {
        EpochCommand cmd;
        cmd.set_epoch = rng.chance(0.5) ? 1 + rng.below(100) : 0;
        encode_epoch(cmd.set_epoch, frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
      default: {
        StatsCommand cmd;
        encode_stats(frame);
        cmd.trace = tag;
        cmd.epoch = epoch;
        expected = std::move(cmd);
        break;
      }
    }
    append_epoch_tag(frame, epoch);
    append_trace_tag(frame, tag);
    std::string error;
    const auto parsed = parse_command(frame, &error);
    ASSERT_TRUE(parsed.has_value()) << error << " frame: " << frame;
    ASSERT_TRUE(*parsed == expected) << "frame: " << frame;
  }
}

TEST(ProtocolFuzz, EpochFreeFramesAreByteIdenticalToTheOldGrammar) {
  // Epoch-free encodings must not change by a byte: an epoch-0 tag is a
  // no-op, and the new verbs pin their exact untagged spellings.
  std::string frame;
  encode_get({"a", "bb"}, false, frame);
  const std::string before = frame;
  append_epoch_tag(frame, 0);
  EXPECT_EQ(frame, before) << "epoch 0 must encode as no tag at all";
  frame.clear();
  encode_scan(5, 64, frame);
  EXPECT_EQ(frame, "scan 5 64\r\n");
  frame.clear();
  encode_scan(0, 1, frame);
  EXPECT_EQ(frame, "scan 0 1\r\n");
  frame.clear();
  encode_epoch(0, frame);
  EXPECT_EQ(frame, "epoch\r\n");
  frame.clear();
  encode_epoch(3, frame);
  EXPECT_EQ(frame, "epoch 3\r\n");
  frame.clear();
  encode_get({"a"}, false, frame);
  append_epoch_tag(frame, 7);
  EXPECT_EQ(frame, "get a @epoch=7\r\n");
  frame.clear();
  encode_set("k", "hello", false, frame);
  append_epoch_tag(frame, 7);
  EXPECT_EQ(frame, "set k 0 0 5 @epoch=7\r\nhello\r\n")
      << "epoch tag must land on the command line, never the data block";
}

TEST(ProtocolFuzz, EpochPrefixIsReservedAndMalformedTagsAreRejected) {
  EXPECT_FALSE(parse_command("get a @epoch=0\r\n", nullptr).has_value())
      << "epoch 0 means 'untagged' and must never appear explicitly";
  EXPECT_FALSE(parse_command("get a @epoch=\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get a @epoch=xy\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get a @epoch=1z\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("get @epoch=2\r\n", nullptr).has_value())
      << "a tag with no keys left must not parse as a bare get";
  // Reversed tag order is rejected: the wire order is @epoch then @trace.
  EXPECT_FALSE(
      parse_command("get a @trace=1:2:1 @epoch=2\r\n", nullptr).has_value());
  const auto ok = parse_command("get a @epoch=2 @trace=1:2:1\r\n", nullptr);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(std::get<GetCommand>(*ok).epoch, 2u);
  EXPECT_EQ(std::get<GetCommand>(*ok).trace.trace_id, 1u);
}

TEST(ProtocolFuzz, ScanArgumentErrorsAreRejected) {
  EXPECT_TRUE(parse_command("scan 0 10\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("scan\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("scan 0\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("scan 0 0\r\n", nullptr).has_value())
      << "a zero-entry page could never make progress";
  EXPECT_FALSE(parse_command("scan x 10\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("scan 0 10 extra\r\n", nullptr).has_value());
  EXPECT_FALSE(parse_command("epoch 0\r\n", nullptr).has_value())
      << "installing epoch 0 would re-open the staleness gate";
  EXPECT_FALSE(parse_command("epoch 1 2\r\n", nullptr).has_value());
}

TEST(ProtocolFuzz, ScanPagesRoundtripWithFlags) {
  Xoshiro256 rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    ScanPage page;
    page.next_cursor = rng.chance(0.3) ? 0 : rng();
    const std::size_t n = rng.below(20);
    for (std::size_t i = 0; i < n; ++i) {
      Value v{random_key(rng), random_bytes(rng, 60), rng()};
      v.flags = rng.chance(0.4) ? kValueFlagPinned : 0;
      page.entries.push_back(std::move(v));
    }
    std::string frame;
    encode_scan_page(page, frame);
    const auto parsed = parse_scan_page(frame);
    ASSERT_TRUE(parsed.has_value()) << frame;
    ASSERT_EQ(parsed->next_cursor, page.next_cursor);
    ASSERT_EQ(parsed->entries.size(), page.entries.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(parsed->entries[i].key, page.entries[i].key);
      ASSERT_EQ(parsed->entries[i].data, page.entries[i].data);
      ASSERT_EQ(parsed->entries[i].flags, page.entries[i].flags);
    }
  }
  // A plain VALUE block without the @cursor header is not a scan page.
  std::string frame;
  encode_values({Value{"k", "v", 0}}, false, frame);
  EXPECT_FALSE(parse_scan_page(frame).has_value());
  EXPECT_FALSE(parse_scan_page("garbage\r\n").has_value());
}

TEST(ProtocolFuzz, WrongEpochLineRoundtrips) {
  Xoshiro256 rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t epoch = 1 + rng.below(1u << 30);
    std::string frame;
    encode_wrong_epoch(epoch, frame);
    ASSERT_EQ(parse_wrong_epoch(frame), epoch);
  }
  EXPECT_FALSE(parse_wrong_epoch("STORED\r\n").has_value());
  EXPECT_FALSE(parse_wrong_epoch("WRONG_EPOCH\r\n").has_value());
  EXPECT_FALSE(parse_wrong_epoch("WRONG_EPOCH x\r\n").has_value());
  EXPECT_FALSE(parse_wrong_epoch("WRONG_EPOCH 1 2\r\n").has_value());
}

TEST(ProtocolFuzz, ServerStateConsistentUnderRandomOperations) {
  // Differential test: random set/get/delete against a std::map reference.
  KvServer server(8u << 20);
  std::map<std::string, std::string> reference;
  Xoshiro256 rng(7);
  std::string req, resp;
  for (int op = 0; op < 3000; ++op) {
    const std::string key = "k" + std::to_string(rng.below(50));
    const auto action = rng.below(3);
    req.clear();
    if (action == 0) {
      const std::string value = "v" + std::to_string(rng());
      encode_set(key, value, false, req);
      server.handle(req, resp);
      ASSERT_EQ(parse_simple(resp), "STORED");
      reference[key] = value;
    } else if (action == 1) {
      encode_get({key}, false, req);
      server.handle(req, resp);
      const auto values = parse_values(resp, false);
      ASSERT_TRUE(values.has_value());
      const auto it = reference.find(key);
      if (it == reference.end()) {
        ASSERT_TRUE(values->empty());
      } else {
        ASSERT_EQ(values->size(), 1u);
        ASSERT_EQ((*values)[0].data, it->second);
      }
    } else {
      encode_delete(key, req);
      server.handle(req, resp);
      ASSERT_EQ(parse_simple(resp),
                reference.erase(key) ? "DELETED" : "NOT_FOUND");
    }
  }
}

}  // namespace
}  // namespace rnb::kv
