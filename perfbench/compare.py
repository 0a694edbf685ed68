"""Compare two sets of benchmark runs, per workload and per metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `perfbench/run.py --out FILE` appends, one
run per line.  Runs are paired in file order within each workload and
trace mode, so record them alternating parent and change (see
perfbench/README.md).  For every metric the table gives each side's median
and quartiles over its runs, the change's difference from the parent, the
share of pairs the change wins (ties count for neither) and a verdict:

  gain        at least ten pairs, the change wins at least 9/10 of them,
              and the medians differ by more than the parent's own
              quartile spread
  REGRESSION  an end-to-end metric is worse than the parent's median by
              more than its bound in BENCHMARK.json
  unresolved  the parent's spread is wider than the bound and the change
              does not beat every parent run
  same        none of the above; for counts: equal on every run
  differs     a count that changed (counts repeat exactly on one commit)

The exit code is 1 when a verdict is REGRESSION or a change run was not
correct, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10                  # fewer pairs than this never make a gain
EXACT_UNITS = ("count", "ratio")  # counters and their ratios repeat exactly on one commit


def load(path):
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def wins(p, c, lower):
    """Pairs, in file order, that the change wins; ties count for neither side."""
    return sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))


def verdict(p, c, better, unit, bound):
    lower = better == "lower"
    pm, cm = statistics.median(p), statistics.median(c)
    if unit in EXACT_UNITS:
        return "same" if set(p) == set(c) and len(set(p)) == 1 else "differs"
    pairs = min(len(p), len(c))
    q1, q3 = quartiles(p)
    gained = (cm < pm) if lower else (cm > pm)
    if pairs >= MIN_PAIRS and wins(p, c, lower) >= 0.9 * pairs and gained \
            and abs(cm - pm) > q3 - q1:
        return "gain"
    if bound is not None and pm:
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        if worse > bound:
            return "REGRESSION"
        beats_all = max(c) < min(p) if lower else min(c) > max(p)
        if (q3 - q1) / pm > bound and not beats_all:
            return "unresolved"
    return "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    for key in sorted(set(parent) & set(change)):
        prs, chs = parent[key], change[key]
        print(f"\n== {key[0]} (trace {key[1]}): {len(prs)} parent runs, {len(chs)} change runs")
        for side, recs in (("parent", prs), ("change", chs)):
            wrong = sum(1 for r in recs if not r["correct"])
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            shas = sorted({str(r["meta"]["git_sha"])[:10] for r in recs})
            lines = sorted({r["meta"]["src_nonblank_lines"] for r in recs})
            print(f"   {side}: sha {','.join(shas)}  src lines {lines}  "
                  f"failed {failed}/{attempted} checks  incorrect runs {wrong}")
            bad = bad or (side == "change" and wrong > 0)
        print(f"   {'metric':<40} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
              f" {'diff':>8} {'wins':>6}  verdict")
        for name in sorted({k for r in prs + chs for k in r["metrics"]}):
            p = [r["metrics"][name] for r in prs if r["metrics"].get(name) is not None]
            c = [r["metrics"][name] for r in chs if r["metrics"].get(name) is not None]
            if name not in info or not p or not c or not any(p + c):
                continue            # unknown, missing, or a layer this workload never runs
            m = info[name]
            v = verdict(p, c, m["better"], m["unit"], m.get("bound"))
            bad = bad or v == "REGRESSION"
            pm, cm = statistics.median(p), statistics.median(c)
            diff = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            won = f"{wins(p, c, m['better'] == 'lower')}/{min(len(p), len(c))}"
            side = [f"{med:.5g} [{q[0]:.5g}, {q[1]:.5g}]" for med, q in
                    ((pm, quartiles(p)), (cm, quartiles(c)))]
            print(f"   {name:<40} {side[0]:>36} {side[1]:>36} {diff:>8} {won:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
