// End-to-end trace stitching over the loopback transport: the wire tag a
// client appends must make every server span a child of that client's
// transaction span, in one trace, with the full parse > dispatch > handle
// and format breakdown underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dserve/cluster_client.hpp"
#include "kv/transport.hpp"
#include "obs/slow_log.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {
namespace {

using obs::TraceEvent;
using obs::Tracer;

struct TracedRun {
  std::vector<TraceEvent> events;
  std::string json;
  std::vector<obs::SlowRequest> slow;
};

// One fixed workload under tracer + slow log: store 20 keys, then bundle a
// multi-get over all of them. Single-threaded and virtual-clocked, so the
// result is a pure function of the inputs.
TracedRun traced_run() {
  Tracer tracer(Tracer::ClockMode::kVirtual);
  obs::SlowLog slow_log(4);
  Tracer::set_current(&tracer);
  obs::SlowLog::set_current(&slow_log);
  {
    LoopbackTransport transport(8, 1 << 22);
    dserve::ClusterView view(8, {.replication = 3});
    dserve::KvClusterClient client(transport, view, {});
    std::vector<std::string> keys;
    for (int i = 0; i < 20; ++i) keys.push_back("key:" + std::to_string(i));
    for (const auto& k : keys) client.set(k, "v/" + k);
    const auto result = client.multi_get(keys);
    EXPECT_TRUE(result.missing.empty());
  }
  obs::SlowLog::set_current(nullptr);
  Tracer::set_current(nullptr);
  TracedRun run;
  run.events = tracer.snapshot_events();
  std::ostringstream os;
  tracer.export_chrome_json(os);
  run.json = os.str();
  run.slow = slow_log.top();
  return run;
}

bool is_span(const TraceEvent& e, const char* name, const char* cat) {
  return e.phase == 'X' && std::string(e.name) == name &&
         std::string(e.cat) == cat;
}

TEST(TraceStitching, EveryClientTransactionHasExactlyOneServerChild) {
  const TracedRun run = traced_run();
  std::size_t client_transactions = 0;
  for (const TraceEvent& e : run.events) {
    if (!is_span(e, "transaction", "kv_client")) continue;
    ASSERT_NE(e.trace_id, 0u) << "client transaction missing trace identity";
    ++client_transactions;
    std::size_t server_children = 0;
    for (const TraceEvent& s : run.events) {
      if (is_span(s, "transaction", "server") && s.parent_id == e.span_id) {
        EXPECT_EQ(s.trace_id, e.trace_id);
        ++server_children;
      }
    }
    EXPECT_EQ(server_children, 1u)
        << "client span " << e.span_id << " stitched to " << server_children
        << " server transactions";
  }
  // 20 sets x 3 replicas plus the multi-get's bundled transactions.
  EXPECT_GT(client_transactions, 60u);
}

// Every server transaction in `events` has exactly one parse, dispatch and
// format child, with one handle span nested under the dispatch. Returns the
// number of server transactions checked.
std::size_t check_server_trees(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events)
    if (e.span_id != 0) by_span[e.span_id] = &e;
  std::size_t server_transactions = 0;
  for (const TraceEvent& e : events) {
    if (!is_span(e, "transaction", "server")) continue;
    ++server_transactions;
    std::size_t parse = 0, dispatch = 0, format = 0, handle = 0;
    for (const TraceEvent& c : events) {
      if (c.parent_id == e.span_id) {
        parse += is_span(c, "parse", "server");
        dispatch += is_span(c, "dispatch", "server");
        format += is_span(c, "format", "server");
      }
      // handle nests under dispatch, one level deeper.
      if (is_span(c, "handle", "server")) {
        const auto parent = by_span.find(c.parent_id);
        if (parent != by_span.end() &&
            is_span(*parent->second, "dispatch", "server") &&
            parent->second->parent_id == e.span_id)
          ++handle;
      }
    }
    EXPECT_EQ(parse, 1u);
    EXPECT_EQ(dispatch, 1u);
    EXPECT_EQ(format, 1u);
    EXPECT_EQ(handle, 1u);
  }
  return server_transactions;
}

TEST(TraceStitching, ServerTreesBreakDownIntoParseDispatchHandleFormat) {
  EXPECT_GT(check_server_trees(traced_run().events), 0u);
}

TEST(TraceStitching, EpochTransactionsRecordTheFullServerTree) {
  // During a membership change the controller sets and reads each member's
  // epoch, and clients still planning on the old ring are answered
  // WRONG_EPOCH; each of those transactions breaks down like any other.
  Tracer tracer(Tracer::ClockMode::kVirtual);
  Tracer::set_current(&tracer);
  {
    ShardedKvServer server(1 << 20, /*num_shards=*/2);
    std::string request, response;
    const auto send = [&](auto encode) {
      obs::SpanScope client("transaction", "kv_client", obs::SpanKind::kRoot);
      const obs::TraceContext ctx = client.context();
      request.clear();
      encode(TraceTag{ctx.trace_id, ctx.span_id, ctx.sampled});
      server.handle(request, response);
    };
    send([&](const TraceTag& tag) { encode_epoch(7, request, tag); });
    EXPECT_EQ(parse_simple(response), "OK");
    send([&](const TraceTag& tag) { encode_epoch(0, request, tag); });
    EXPECT_EQ(parse_simple(response), "EPOCH 7");
    send([&](const TraceTag& tag) {
      encode_get({"k"}, false, request);
      append_epoch_tag(request, 6);
      append_trace_tag(request, tag);
    });
    EXPECT_EQ(server.counters().wrong_epoch, 1u);
  }
  Tracer::set_current(nullptr);
  EXPECT_EQ(check_server_trees(tracer.snapshot_events()), 3u);
}

TEST(TraceStitching, NoSpanReferencesAMissingParent) {
  const TracedRun run = traced_run();
  std::map<std::uint64_t, bool> present;
  for (const TraceEvent& e : run.events)
    if (e.span_id != 0) present[e.span_id] = true;
  for (const TraceEvent& e : run.events) {
    if (e.parent_id != 0) {
      EXPECT_TRUE(present.count(e.parent_id))
          << "orphan span " << e.span_id << " (" << e.name << ")";
    }
  }
}

TEST(TraceStitching, IdenticalRunsExportByteIdenticalTraces) {
  // Virtual clock + per-tracer id counters: the trace file is part of the
  // deterministic surface, like the simulator's metrics.
  EXPECT_EQ(traced_run().json, traced_run().json);
}

TEST(TraceStitching, SlowLogEntriesResolveIntoTheTrace) {
  const TracedRun run = traced_run();
  ASSERT_FALSE(run.slow.empty());
  for (const obs::SlowRequest& r : run.slow) {
    EXPECT_NE(r.trace_id, 0u);
    const bool in_trace =
        std::any_of(run.events.begin(), run.events.end(),
                    [&](const TraceEvent& e) {
                      return e.trace_id == r.trace_id;
                    });
    EXPECT_TRUE(in_trace) << "slow-log trace id not found in trace";
    EXPECT_GT(r.items, 0u);
    EXPECT_GE(r.transactions, 1u);
    EXPECT_GE(r.waves, 1u);
    EXPECT_GE(r.servers, 1u);
  }
}

}  // namespace
}  // namespace rnb::kv
