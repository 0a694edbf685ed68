"""The capelli benchmark: three certification workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; capelli is imported from ./src, so there
is nothing to build.  Load model: a closed loop with one client, one pass
at a time, each pass in a fresh interpreter (no threads; at most one child
process at a time).  Passes start while the next one is predicted to end
within --seconds, and at least two always run.

Workloads (see perfbench/README.md for why each was chosen):
  bs-verify-all  a cold `capelli bs verify-all --sizes default --json` process
  plain-diff     verify_annihilation(inst, 5) and equivalence_witness on the
                 nine minimal pairs, lambda in {0, 1/2, -1} plus two seeded
  normal-forms   confluence, parser round trips and ladders on the
                 presentations of (1,2), (4,3), (2,4)

Before measuring, each run makes one small pass with a planted wrong
compute_b and requires the oracle to reject it.  The run pins itself and
its children to one CPU.  Every untraced pass is stopped every SLICE_S
seconds while one chunk of perfbench/reference.py runs on that CPU, and
pass_wall_ref and pass_cpu_ref are the pass's times (stops left out)
divided by the mean chunk time of its own stops: the pass time in units of
what the CPU could do at that moment.  With --trace 0 the last line
reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of traced passes, which alternate with untraced ones so
that the tracing overhead is measured too.  --out appends the full record
of the run (samples, metadata, checks) to FILE as one JSON line, for
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "capelli"
TMP = ROOT / ".perfbench-tmp"
CHILD = [sys.executable, str(HERE / "child.py")]
PASS_TIMEOUT_S = 120
MIN_PASSES = 2
SLICE_S = 0.2           # a gauged child runs this long between two reference chunks
SETUP_REPS = 15         # cold `catalog list` processes per bs-verify-all run
# evaluating (delta + f + theta)^k on the (2,4) presentation takes 0.15 s at
# k = 10 and 2.3 s at k = 20; one unbounded tree once doubled a whole pass
MAX_TREE_DEGREE = 10
# the fuzz words of normal-forms are the same for every --seed: they are
# most of its pass, and their cost changes with the words drawn
FUZZ_SEED = 1

# what the run prints; the metrics of its result line are END_TO_END
PRINTED = {"pass_wall_s": "s", "pass_cpu_s": "s", "pass_wall_ref": "ref", "pass_cpu_ref": "ref",
           "setup_s": "s", "peak_rss_mb": "MB"}
END_TO_END = {k: PRINTED[k] for k in ("pass_wall_ref", "pass_cpu_ref", "setup_s", "peak_rss_mb")}

# layers that the set-up of plain-diff and normal-forms runs (compute_b)
SETUP_LAYERS = ["poly", "weyl", "catalog", "bfunction"]

# per-layer metric -> unit; every name is reported on every workload.  They
# describe the pass; setup.* describe the traced set-up in the same process.
PER_LAYER = {
    "poly.divide_exact.calls": "count",
    "poly.divide_exact.ok_ratio": "ratio",
    "poly.divide_exact.fail_self_s": "s",
    "poly.divide_exact.self_s": "s",
    "poly.mul.calls": "count",
    "poly.mul.out_terms": "count",
    "poly.mul.self_s": "s",
    "poly.partial.calls": "count",
    "poly.partial.self_s": "s",
    "poly.upoly_mul.calls": "count",
    "poly.upoly_shift.calls": "count",
    "poly.upoly.self_s": "s",
    "weyl.twisted_apply.calls": "count",
    "weyl.twisted_apply.self_s": "s",
    "weyl.twisted_canonical.calls": "count",
    "weyl.twisted_canonical.levels_removed": "count",
    "weyl.twisted_canonical.peak_q_terms": "count",
    "weyl.twisted_canonical.self_s": "s",
    "weyl.weyl_apply.calls": "count",
    "weyl.weyl_apply.out_terms": "count",
    "weyl.weyl_apply.self_s": "s",
    "catalog.instantiate.self_s": "s",
    "bfunction.compute_b.calls": "count",
    "bfunction.compute_b.self_s": "s",
    "bfunction.verify_table.self_s": "s",
    "bfunction.verify_annihilation.self_s": "s",
    "modules.psi_of_ladder.self_s": "s",
    "modules.equivalence_witness.self_s": "s",
    "modules.build_ladder.self_s": "s",
    "modules.validate.self_s": "s",
    "modules.mat_mul.calls": "count",
    "algebra.a_mul.calls": "count",
    "algebra.a_mul.self_s": "s",
    "algebra.confluence.words_checked": "count",
    "algebra.confluence.self_s": "s",
    "expr.parse_expr.self_s": "s",
    "expr.eval_expr.self_s": "s",
    "cli.main.self_s": "s",
    **{layer + ".self_s": "s" for layer in tracer.LAYERS},
    **{f"setup.{layer}.self_s": "s" for layer in SETUP_LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# -- child processes ---------------------------------------------------------


def spawn(args, timeout=PASS_TIMEOUT_S, gauge=False):
    """Run one child to completion; wall time, rusage of that child, its output and report.

    With gauge, the child is stopped every SLICE_S seconds while one
    reference chunk runs in its place on the same CPU (run.py pins itself,
    and so its children, to one CPU).  The stops and the chunks are
    returned, so that the child's times can leave the stops out and be read
    against the chunks.
    """
    out_path, err_path = TMP / "stdout", TMP / "stderr"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    stops, chunks = [], []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(CHILD + args, stdout=out, stderr=err, cwd=ROOT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        timed_out = ended = False
        try:
            while True:
                wait = SLICE_S if gauge else max(0.0, start + timeout - time.perf_counter())
                if select.select([pidfd], [], [], wait)[0]:
                    ended = True
                    break
                if time.perf_counter() - start > timeout:
                    timed_out = True
                    break
                if gauge and not _stop_and_gauge(proc.pid, stops, chunks):
                    ended = True
                    break
        finally:
            end = time.perf_counter()
            os.close(pidfd)
            if not ended:
                proc.kill()             # also ends a stopped child
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    report = None
    for line in stderr.splitlines():
        if line.startswith("PERFBENCH-REPORT "):
            report = json.loads(line[len("PERFBENCH-REPORT "):])
    return {
        "code": proc.returncode, "timed_out": timed_out, "span": (start, end),
        "elapsed": end - start, "stops": stops, "chunks": chunks,
        "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024,
        "stdout": out_path.read_text(errors="replace"), "stderr": stderr, "report": report,
    }


def _stop_and_gauge(pid, stops, chunks):
    """Stop the child, run one reference chunk, let it go on; False if it had already exited."""
    t0 = time.perf_counter()
    os.kill(pid, signal.SIGSTOP)
    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if info.si_code != os.CLD_STOPPED:
        return False
    try:
        chunks.append(reference.gauge())
    finally:
        os.kill(pid, signal.SIGCONT)
    stops.append((t0, time.perf_counter()))
    return True


def in_window(res, lo, hi):
    """Wall time of [lo, hi] without the child's stops, and the mean (cpu, wall) of its chunks."""
    stopped = sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in res["stops"])
    inside = [c for c in res["chunks"] if lo <= c[0] <= hi]
    ref = tuple(statistics.fmean(c[i] for c in inside) for i in (1, 2)) if inside else (None, None)
    return hi - lo - stopped, ref


def _flags(trace, fault):
    return (["--trace"] if trace else []) + (["--plant-fault"] if fault else [])


# -- workloads ---------------------------------------------------------------


def _failure_note(res):
    if res["timed_out"]:
        return f"timed out after {PASS_TIMEOUT_S} s"
    tail = res["stderr"].strip().splitlines()[-3:]
    return f"exit {res['code']}: " + " | ".join(t[:200] for t in tail)


class BsVerifyAll:
    """One pass is a cold `capelli bs verify-all --sizes default --json` process."""

    name = "bs-verify-all"
    seeded = False

    def __init__(self, seed):
        pass

    def _verify_all(self, sizes, trace, fault, gauge=False):
        """Run verify-all; the oracle's verdict on the rows, and the process result."""
        pairs = oracle.DEFAULT_PAIRS if sizes == "default" else oracle.MIN_PAIRS
        res = spawn(["cli"] + _flags(trace, fault) + ["--", "bs", "verify-all", "--sizes", sizes,
                                                      "--json"], gauge=gauge)
        try:
            rows = json.loads(res["stdout"])
        except ValueError:
            rows = None
        return res, oracle.check_certificates(rows, pairs)

    def selftest(self):
        # the oracle alone must reject the planted rows, whatever the exit code says
        return self._verify_all("min", False, True)[1]

    def setup_samples(self):
        """Cold `capelli catalog list --json` processes: interpreter start plus import."""
        samples, checks = [], [0, 0, []]
        spawn(["cli", "--", "catalog", "list", "--json"])      # writes the bytecode cache
        for _ in range(SETUP_REPS):
            res = spawn(["cli", "--", "catalog", "list", "--json"])
            samples.append(res["elapsed"])
            checks[0] += 1
            try:
                ok = res["code"] == 0 and [r["case_id"] for r in json.loads(res["stdout"])] == \
                    list(range(1, 9))
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                checks[1] += 1
                checks[2].append("catalog list: " + _failure_note(res))
        return samples, checks

    def run_pass(self, trace):
        res, checks = self._verify_all("default", trace, False, gauge=not trace)
        if res["code"] != 0 or res["timed_out"]:
            checks = (checks[0], checks[0], checks[2] + [_failure_note(res)])
        report = res["report"] or {}
        wall, (ref_cpu, ref_wall) = in_window(res, *res["span"])
        return {"wall": wall, "cpu": res["cpu"], "ref_wall": ref_wall, "ref_cpu": ref_cpu,
                "rss_mb": res["rss_mb"], "setup": None, "checks": checks,
                "trace": report.get("trace"), "trace_setup": None, "elapsed": res["elapsed"]}


class _InputPass:
    """A workload whose pass is a child given generated inputs through a JSON file."""

    def __init__(self, seed):
        self.inputs = self.make_inputs(random.Random(seed), tiny=False)
        self.tiny = self.make_inputs(random.Random(seed), tiny=True)

    def _spawn(self, inputs, flags, gauge=False):
        path = TMP / "input.json"
        path.write_text(json.dumps(inputs))
        return spawn([self.name] + flags + [str(path)], gauge=gauge)

    def _run(self, inputs, trace, fault, gauge=False):
        res = self._spawn(inputs, _flags(trace, fault), gauge)
        rep = res["report"]
        if rep is None or rep.get("error") or res["timed_out"]:
            n = self.check(None, inputs)[0]
            note = (rep or {}).get("error") or _failure_note(res)
            return res, rep or {}, (n, n, [note.strip().splitlines()[-1][:300]])
        return res, rep, self.check(rep["results"], inputs)

    def selftest(self):
        return self._run(self.tiny, False, True)[2]

    def setup_samples(self):
        """One set-up-only process; every measured pass adds its own set-up sample."""
        res = self._spawn(self.inputs, ["--setup-only"])
        rep = res["report"] or {}
        if res["code"] != 0 or rep.get("setup_s") is None:
            return [], [1, 1, ["set-up: " + _failure_note(res)]]
        return [rep["setup_s"]], [1, 0, []]

    def run_pass(self, trace):
        """The child times its set-up and its pass; the stops in those windows are left out."""
        res, rep, checks = self._run(self.inputs, trace, False, gauge=not trace)
        wall = setup = ref_cpu = ref_wall = None
        if rep.get("pass_window"):
            wall, (ref_cpu, ref_wall) = in_window(res, *rep["pass_window"])
            setup = in_window(res, *rep["setup_window"])[0]
        return {"wall": wall, "cpu": rep.get("pass_cpu_s"), "ref_wall": ref_wall,
                "ref_cpu": ref_cpu, "rss_mb": res["rss_mb"], "setup": setup, "checks": checks,
                "trace": rep.get("trace"), "trace_setup": rep.get("trace_setup"),
                "elapsed": res["elapsed"]}


def _lambda_draw(rng):
    """A rational twist with denominator at least 3."""
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(3, 7))
        if q.denominator >= 3:
            return oracle.fmt(q)


class PlainDiff(_InputPass):
    """verify_annihilation(inst, 5) and five equivalence witnesses per minimal pair."""

    name = "plain-diff"
    seeded = True        # only the two drawn lambdas depend on the seed

    def make_inputs(self, rng, tiny):
        lams = ["0/1", "1/2", "-1/1", _lambda_draw(rng), _lambda_draw(rng)]
        if tiny:
            return {"pairs": [[1, 2], [4, 2]], "m_max": 2, "lams": lams, "window": [0, 4]}
        return {"pairs": [list(p) for p in oracle.MIN_PAIRS], "m_max": 5, "lams": lams,
                "window": [0, 4]}

    check = staticmethod(oracle.check_plain_diff)


def _tree(rng, depth):
    """A random expression tree, as nested lists (the test suite's distribution)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ["sym", rng.choice(["f", "theta", "delta"])]
        return ["rat", oracle.fmt(Fraction(rng.randint(0, 9), rng.randint(1, 9)))]
    roll = rng.random()
    if roll < 0.45:
        return ["bin", rng.choice(["+", "-"]), _tree(rng, depth - 1), _tree(rng, depth - 1)]
    if roll < 0.85:
        return ["bin", "*", _tree(rng, depth - 1), _tree(rng, depth - 1)]
    return ["pow", _tree(rng, depth - 1), rng.randint(0, 5)]


def _degree(t):
    """Upper bound on the number of generators in any word of the expanded tree."""
    kind = t[0]
    if kind in ("sym", "rat"):
        return int(kind == "sym")
    if kind == "pow":
        return t[2] * _degree(t[1])
    left, right = _degree(t[2]), _degree(t[3])
    return left + right if t[1] == "*" else max(left, right)


def _bounded_tree(rng):
    """A tree of degree at most MAX_TREE_DEGREE, so that no seed draws a far costlier pass."""
    while True:
        t = _tree(rng, 4)
        if _degree(t) <= MAX_TREE_DEGREE:
            return t


def _ladder(rng):
    lo = rng.randint(-4, 2)
    return [oracle.fmt(Fraction(rng.randint(-6, 6), rng.randint(1, 4))), lo, lo + rng.randint(1, 6)]


class NormalForms(_InputPass):
    """Confluence, 500 parser round trips and 200 ladders on each of three presentations."""

    name = "normal-forms"
    seeded = True

    def make_inputs(self, rng, tiny):
        pairs, length, trials, n_expr, n_lad = [(1, 2), (4, 3), (2, 4)], 6, 1000, 500, 200
        if tiny:
            pairs, length, trials, n_expr, n_lad = [(4, 2)], 3, 20, 10, 20
        blocks = [{"pair": list(p), "exprs": [_bounded_tree(rng) for _ in range(n_expr)],
                   "ladders": [_ladder(rng) for _ in range(n_lad)]} for p in pairs]
        return {"confluence_len": length, "fuzz_trials": trials, "fuzz_seed": FUZZ_SEED,
                "blocks": blocks}

    check = staticmethod(oracle.check_normal_forms)


WORKLOADS = {w.name: w for w in (BsVerifyAll, PlainDiff, NormalForms)}


# -- statistics and metadata ----------------------------------------------------


def tail(samples):
    """(p, value) of the highest of p50..p99 with at least ten samples beyond it, or None."""
    xs = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[math.ceil(p / 100 * len(xs)) - 1]
    return None


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_meta():
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += sum(1 for line in data.decode().splitlines() if line.strip())
    return digest.hexdigest(), lines


# -- the run -----------------------------------------------------------------------


def measure(wl, seconds, trace):
    """Closed loop of passes; in trace mode traced and untraced passes alternate."""
    kinds = [True, False] if trace else [False]
    passes = []
    deadline = time.perf_counter() + seconds

    def enough():
        if len(passes) < MIN_PASSES + (1 if trace else 0):
            return False
        est = statistics.median(p["elapsed"] for p in passes)
        return time.perf_counter() + est > deadline

    while not enough():
        traced = kinds[len(passes) % len(kinds)]
        p = wl.run_pass(traced)
        p["traced"] = traced
        passes.append(p)
    return passes


def _ratio(x, ref):
    return None if None in (x, ref) else x / ref


def summarize(values):
    vals = [v for v in values if v is not None]
    return {"median": statistics.median(vals) if vals else None, "n": len(vals),
            "tail": tail(vals), "samples": vals}


def trace_metrics(traced, untraced_wall):
    """Per-layer metrics of the traced passes, their counters, and whether those repeat."""
    empty = tracer.Tracer().report()
    per_pass, counters = [], []
    for p in traced:
        if p["trace"] is None:
            continue
        setup = p["trace_setup"] or empty
        m = tracer.layer_metrics(p["trace"])
        m.update({f"setup.{layer}.self_s": tracer.layer_self_s(setup, layer)
                  for layer in SETUP_LAYERS})
        per_pass.append(m)
        counters.append({"setup": tracer.counters(setup), "pass": tracer.counters(p["trace"])})
    repeat = len(counters) == len(traced) and all(c == counters[0] for c in counters)
    layer = {}
    for name, unit in PER_LAYER.items():
        vals = [m.get(name, 0) for m in per_pass] or [0]
        # counts and ratios repeat exactly (checked above); times are medians
        layer[name] = statistics.median(vals) if unit == "s" else vals[0]
    wall = summarize(p["wall"] for p in traced)["median"]
    layer["trace.overhead_s"] = wall - untraced_wall if None not in (wall, untraced_wall) else 0.0
    return layer, (counters[0] if counters else None), repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, help="append the run's full record to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no capelli source at {SRC.relative_to(ROOT)}; "
              "run from the root of a capelli checkout", file=sys.stderr)
        return 2

    # the reference chunks must run on the CPU the pass runs on, and the
    # children inherit this; SIGTERM unwinds, so that no child outlives the run
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src_sha, src_lines = source_meta()
    meta = {"cpu": cpu, "git_sha": git_sha(), "src_sha256": src_sha, "src_nonblank_lines": src_lines,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(), "seed": args.seed,
            "seed_used": WORKLOADS[args.workload].seeded}
    TMP.mkdir(exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed)
        planted = wl.selftest()
        setup, setup_checks = wl.setup_samples()
        passes = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    refs = [p["ref_cpu"] for p in passes if p.get("ref_cpu") is not None]
    meta["ref_chunk_cpu_s"] = statistics.median(refs) if refs else None

    attempted = setup_checks[0] + sum(p["checks"][0] for p in passes)
    failed = setup_checks[1] + sum(p["checks"][1] for p in passes)
    notes = setup_checks[2] + [n for p in passes for n in p["checks"][2]]
    planted_ok = planted[1] > 0
    untraced = [p for p in passes if not p["traced"]]
    stats = {
        "pass_wall_s": summarize(p["wall"] for p in untraced),
        "pass_cpu_s": summarize(p["cpu"] for p in untraced),
        "pass_wall_ref": summarize(_ratio(p["wall"], p["ref_wall"]) for p in untraced),
        "pass_cpu_ref": summarize(_ratio(p["cpu"], p["ref_cpu"]) for p in untraced),
        "setup_s": summarize(setup + [p["setup"] for p in untraced]),
        "peak_rss_mb": summarize(p["rss_mb"] for p in untraced),
    }
    correct = failed == 0 and planted_ok
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer, counters, repeat = trace_metrics(traced, stats["pass_wall_s"]["median"])
        correct = correct and repeat
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    else:
        counters = repeat = None
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END.items()}

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("meta " + json.dumps(meta))
    print(f"planted-fault self-test: fail_ratio {planted[1] / planted[0]:.4f} "
          f"({planted[1]}/{planted[0]}) -> oracle {'catches' if planted_ok else 'MISSES'} it")
    for name, unit in PRINTED.items():
        s = stats[name]
        tl = f"p{s['tail'][0]} {s['tail'][1]:.4f}" if s["tail"] else "no percentile with 10 beyond"
        med = "n/a" if s["median"] is None else f"{s['median']:.4f}"
        print(f"{name:<13} {med} {unit}  (median of {s['n']}; {tl})")
    print(f"{'fail_ratio':<13} {fail_ratio:.4f}  ({failed}/{attempted} checks)")
    if args.trace:
        print(f"traced counters repeat exactly across the traced passes: {repeat}")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    for note in notes[:20]:
        print("  fail: " + note)

    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "meta": meta, "correct": correct,
                  "attempted": attempted, "failed": failed,
                  "planted": {"attempted": planted[0], "failed": planted[1]},
                  "counters_repeat": repeat,
                  "metrics": {k: m["value"] for k, m in metrics.items()},
                  "samples": {k: s["samples"] for k, s in stats.items()},
                  "counters": counters}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
