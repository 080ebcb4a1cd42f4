#!/usr/bin/env python3
"""Validate end-to-end trace stitching in a Chrome trace file.

Takes a trace emitted by `loadgen_kv --trace` (or any traced kv run) and
checks the wire-propagation invariants the tracing PR promises:

  1. Every client transaction span ('X' phase, name "transaction", category
     "loadgen" or "kv_client") carries a trace id, and at least
     --min-stitch-rate of them have exactly one server transaction child.
  2. Every server transaction breaks down into parse, dispatch, and format
     children with a handle span nested under dispatch.
  3. No span references a parent span id that is absent from the file
     (instant events are exempt: exemplars point at a trace, not a span).
  4. Every exemplar instant resolves to a trace id that exists in the file.

Exit code 0 when all hold, 1 otherwise (one line per violation class).
Stdlib only.
"""

import argparse
import json
import sys
from collections import defaultdict

CLIENT_CATS = {"loadgen", "kv_client", "client"}


def args_of(event):
    return event.get("args", {})


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("--min-stitch-rate", type=float, default=0.99,
                        help="required fraction of client transactions "
                             "stitched to exactly one server child")
    opts = parser.parse_args(argv[1:])

    with open(opts.trace, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]

    spans = [e for e in events if e["ph"] == "X"]
    span_ids = {args_of(e).get("span_id") for e in spans} - {None}
    trace_ids = {args_of(e).get("trace_id") for e in events} - {None}
    children = defaultdict(list)
    for e in spans:
        parent = args_of(e).get("parent_id")
        if parent is not None:
            children[parent].append(e)

    problems = []

    def is_txn(event, cats):
        return event["name"] == "transaction" and event["cat"] in cats

    # 1. Client transactions stitch to exactly one server transaction.
    client_txns = [e for e in spans if is_txn(e, CLIENT_CATS)]
    if not client_txns:
        problems.append("no client transaction spans found")
    untraced = [e for e in client_txns if "trace_id" not in args_of(e)]
    if untraced:
        problems.append(
            f"{len(untraced)} client transactions carry no trace id")
    stitched = 0
    for e in client_txns:
        kids = [c for c in children[args_of(e).get("span_id")]
                if is_txn(c, {"server"})
                and args_of(c).get("trace_id") == args_of(e).get("trace_id")]
        stitched += len(kids) == 1
    rate = stitched / len(client_txns) if client_txns else 0.0
    if rate < opts.min_stitch_rate:
        problems.append(
            f"stitch rate {rate:.4f} below {opts.min_stitch_rate} "
            f"({stitched}/{len(client_txns)})")

    # 2. Server span trees: parse + dispatch(+handle) + format.
    for e in spans:
        if not is_txn(e, {"server"}):
            continue
        kids = children[args_of(e).get("span_id")]
        names = [k["name"] for k in kids]
        for expected in ("parse", "dispatch", "format"):
            if names.count(expected) != 1:
                problems.append(
                    f"server transaction span {args_of(e).get('span_id')} "
                    f"has children {names}, expected one {expected}")
                break
        dispatch = [k for k in kids if k["name"] == "dispatch"]
        if dispatch and not any(
                k["name"] == "handle"
                for k in children[args_of(dispatch[0]).get("span_id")]):
            problems.append(
                f"dispatch span {args_of(dispatch[0]).get('span_id')} "
                "has no handle child")

    # 3. No orphan spans (a root span carries no parent_id).
    known_parents = span_ids | {None}
    orphans = [e for e in spans
               if args_of(e).get("parent_id") not in known_parents]
    if orphans:
        problems.append(
            f"{len(orphans)} spans reference a missing parent, e.g. "
            f"{orphans[0]['name']}/{args_of(orphans[0]).get('span_id')}")

    # 4. Exemplars resolve.
    exemplars = [e for e in events
                 if e["ph"] == "i" and e["name"] == "exemplar"]
    dangling = [e for e in exemplars
                if args_of(e).get("trace_id") not in trace_ids]
    if dangling:
        problems.append(f"{len(dangling)} exemplars point at unknown traces")

    for p in problems:
        print(p)
    print(f"checked {len(events)} events: {len(client_txns)} client "
          f"transactions, stitch rate {rate:.4f}, "
          f"{len(exemplars)} exemplars: "
          f"{'OK' if not problems else f'{len(problems)} violation(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
