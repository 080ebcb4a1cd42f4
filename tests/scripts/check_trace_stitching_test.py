#!/usr/bin/env python3
"""Unit tests for scripts/check_trace_stitching.py — the CI stitching gate.

CI runs the checker over the traces of the loadgen smoke, the multi-server
TCP smoke and the elastic churn run; the churn trace holds close to a
million events, so the checker must stay linear in the trace size.
Registered as a ctest (see tests/CMakeLists.txt), whose 60 s timeout is the
bound on the large-trace case; stdlib only.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "scripts"))
import check_trace_stitching as checker  # noqa: E402


class TraceBuilder:
    """Chrome trace events with the span ids the kv tracer writes."""

    def __init__(self):
        self.events = []
        self.next_id = 1

    def span(self, name, cat, trace_id, parent_id=None):
        span_id = self.next_id
        self.next_id += 1
        args = {"trace_id": trace_id, "span_id": span_id}
        if parent_id is not None:
            args["parent_id"] = parent_id
        self.events.append({"ph": "X", "name": name, "cat": cat,
                            "ts": span_id, "dur": 1, "pid": 1, "tid": 1,
                            "args": args})
        return span_id

    def stitched_transaction(self, trace_id):
        """A client transaction and the server tree it stitches to."""
        client = self.span("transaction", "kv_client", trace_id)
        server = self.span("transaction", "server", trace_id, client)
        self.span("parse", "server", trace_id, server)
        dispatch = self.span("dispatch", "server", trace_id, server)
        self.span("handle", "server", trace_id, dispatch)
        self.span("format", "server", trace_id, server)
        return server


def stitched_trace(transactions):
    trace = TraceBuilder()
    for t in range(transactions):
        trace.stitched_transaction(trace_id=t + 1)
    return trace


class TraceStitchingCheckTest(unittest.TestCase):
    def run_checker(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"traceEvents": events}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = checker.main(["check", path])
            return code, out.getvalue()

    def test_clean_stitched_trace_passes(self):
        code, out = self.run_checker(stitched_trace(3).events)
        self.assertEqual(code, 0, out)
        self.assertIn("3 client transactions", out)

    def test_orphan_is_reported(self):
        trace = stitched_trace(3)
        trace.span("handle", "server", trace_id=1, parent_id=999)
        code, out = self.run_checker(trace.events)
        self.assertEqual(code, 1)
        self.assertIn("1 spans reference a missing parent", out)

    def test_server_transaction_without_dispatch_fails(self):
        # handle straight under the transaction, format nested inside it.
        trace = stitched_trace(1)
        server = trace.span("transaction", "server", trace_id=2)
        trace.span("parse", "server", 2, server)
        handle = trace.span("handle", "server", 2, server)
        trace.span("format", "server", 2, handle)
        code, out = self.run_checker(trace.events)
        self.assertEqual(code, 1)
        self.assertIn("expected one dispatch", out)

    def test_large_trace_checks_in_linear_time(self):
        # 72k spans: a checker quadratic in the span count runs for minutes
        # here and trips the ctest timeout.
        trace = stitched_trace(12_000)
        self.assertGreaterEqual(len(trace.events), 70_000)
        code, out = self.run_checker(trace.events)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
