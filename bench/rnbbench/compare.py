#!/usr/bin/env python3
"""Compare two rnbbench result sets under the BENCHMARK.json bounds.

    python3 bench/rnbbench/compare.py BASE CHANGE
        For each workload x metric: median and quartiles of both sets, the
        fraction of runs paired by seed that CHANGE won, and a verdict.
        Exits 1 if any end-to-end metric regressed.
    python3 bench/rnbbench/compare.py --agree A B
        Two sets from the same code: exits 1 if any end-to-end median moved
        by more than its bound.
    python3 bench/rnbbench/compare.py --self-test
        Checks the verdicts on the fixtures in testdata/.

A result set is one or more files written by run.py, or directories of them.

Verdicts, for end-to-end metrics (per-layer metrics have no bound):
  unresolved  either set's spread (quartile distance over median) is wider
              than the bound, and not every CHANGE run beats every BASE run
  regressed   CHANGE's median is worse than BASE's by more than the bound
  improved    CHANGE won at least 9 in 10 pairs and the medians differ by
              more than BASE's quartile distance (or, when unresolved by
              spread, every CHANGE run beats every BASE run)
  no change   otherwise
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG = HERE.parent.parent / "BENCHMARK.json"
TESTDATA = HERE / "testdata"


def load_set(paths):
    """{(workload, section, metric): {seed: value}} from run.py files."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = {}
    for f in files:
        for run in json.loads(f.read_text())["runs"]:
            for section in ("end_to_end", "per_layer"):
                for name, metric in run.get(section, {}).items():
                    key = (run["workload"], section, name)
                    values.setdefault(key, {})[run["seed"]] = metric["value"]
    if not values:
        raise SystemExit(f"compare.py: no runs in {', '.join(paths)}")
    return values


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare_metric(base, change, entry):
    """Verdict row for one workload x metric; base/change map seed -> value."""
    lower = entry.get("better", "lower") == "lower"
    a, b = list(base.values()), list(change.values())
    med_a, q1_a, q3_a = summary(a)
    med_b, _, _ = summary(b)

    def better(x, y):
        return x < y if lower else x > y

    seeds = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in seeds] or list(zip(a, b))
    won = sum(better(y, x) for x, y in pairs) / len(pairs) if pairs else 0.0
    worse = ((med_b - med_a) if lower else (med_a - med_b)) / abs(med_a) \
        if med_a else 0.0
    row = {"base": (med_a, q1_a, q3_a), "change": summary(b), "won": won,
           "delta": (med_b - med_a) / abs(med_a) if med_a else 0.0,
           "spread": max(spread(a), spread(b))}
    bound = entry.get("bound")
    if bound is None:
        row["verdict"] = "n/a"
    elif row["spread"] > bound:
        dominated = all(better(y, x) for x in a for y in b)
        row["verdict"] = "improved" if dominated else "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif won >= 0.9 and worse < 0 and abs(med_b - med_a) > q3_a - q1_a:
        row["verdict"] = "improved"
    else:
        row["verdict"] = "no change"
    return row


def compare_sets(base, change, catalog):
    """Rows for every workload x catalogued metric present in both sets."""
    entries = {(section, e["name"]): e
               for section in ("end_to_end", "per_layer")
               for e in catalog[section]}
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, section, name = key
        entry = entries.get((section, name))
        if entry is not None:
            row = compare_metric(base[key], change[key], entry)
            row.update(workload=workload, section=section, metric=name,
                       bound=entry.get("bound"))
            rows.append(row)
    return rows


def print_rows(rows):
    print(f"{'workload':<18} {'metric':<36} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'spread':>7} "
          f"{'won':>5}  verdict")
    for r in rows:
        cols = ["%.5g [%.5g, %.5g]" % r[k] for k in ("base", "change")]
        print(f"{r['workload']:<18} {r['metric']:<36} {cols[0]:>32} "
              f"{cols[1]:>32} {r['delta']:>+8.2%} {r['spread']:>7.2%} "
              f"{r['won']:>5.2f}  {r['verdict']}")


def agree(rows):
    """Same code twice: every end-to-end median within its bound."""
    bad = [r for r in rows if r["bound"] is not None
           and abs(r["delta"]) > r["bound"]]
    for r in bad:
        print(f"disagree: {r['workload']} {r['metric']} moved "
              f"{r['delta']:+.2%}, bound {r['bound']:.0%}")
    return not bad


def self_test():
    catalog = json.loads((TESTDATA / "catalog.json").read_text())
    base = load_set([TESTDATA / "base.json"])
    checks = []

    def verdicts(other):
        rows = compare_sets(base, load_set([TESTDATA / other]), catalog)
        return {(r["workload"], r["metric"]): r for r in rows}, rows

    same, same_rows = verdicts("same.json")
    checks.append(("same code agrees", agree(same_rows)))
    checks.append(("same code: no end-to-end verdict but 'no change'",
                   all(r["verdict"] == "no change"
                       for r in same_rows if r["bound"] is not None)))
    changed, changed_rows = verdicts("changed.json")
    expect = {
        ("point_tcp", "req_per_s"): "regressed",
        ("point_tcp", "lat_p50_us"): "regressed",
        ("plan_loopback_m64", "req_per_s"): "improved",
        ("plan_loopback_m64", "lat_p99_us"): "unresolved",
        ("plan_loopback_m64", "cpu_us_per_req"): "improved",
        ("point_tcp", "txns_per_req"): "no change",
        ("point_tcp", "dserve.self.share"): "n/a",
    }
    for key, want in expect.items():
        got = changed[key]["verdict"] if key in changed else "missing"
        checks.append((f"{key[0]} {key[1]}: {want}", got == want))
    checks.append(("a regressed set does not agree", not agree(changed_rows)))
    checks.append(("won counts pairs by seed",
                   changed[("point_tcp", "req_per_s")]["won"] == 0.0 and
                   changed[("plan_loopback_m64", "req_per_s")]["won"] == 1.0))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return not failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help="BASE and CHANGE: run.py result files or dirs")
    parser.add_argument("--agree", action="store_true",
                        help="the two sets come from the same code")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if len(args.sets) != 2:
        parser.error("give two result sets (files or directories)")
    catalog = json.loads(CATALOG.read_text())
    rows = compare_sets(load_set([args.sets[0]]), load_set([args.sets[1]]),
                        catalog)
    print_rows(rows)
    if args.agree:
        sys.exit(0 if agree(rows) else 1)
    sys.exit(1 if any(r["verdict"] == "regressed" for r in rows) else 0)


if __name__ == "__main__":
    main()
