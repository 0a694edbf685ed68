"""One pass of one workload, in a fresh interpreter.

Usage (from the root of the repository, with src on PYTHONPATH):

    python3 perfbench/child.py cli [--trace] [--plant-fault] -- ARGS...
    python3 perfbench/child.py plain-diff [--trace] [--plant-fault] [--setup-only] INPUT.json
    python3 perfbench/child.py normal-forms [--trace] [--plant-fault] [--setup-only] INPUT.json

`cli` runs `capelli ARGS...` exactly as the console script does.  The other
modes time the set-up (import, instantiate, presentation_for) and the pass
separately, from inside the process.  The process writes one line
"PERFBENCH-REPORT <json>" to stderr before it exits: timings, the outputs
the oracle checks, and with --trace the span reports of the set-up and of
the pass.  --plant-fault swaps in a wrong compute_b, so that the oracle
can be seen to catch it; --setup-only stops after the set-up.
"""

import json
import sys
import time
import traceback
from fractions import Fraction

import tracer

REPORT_TAG = "PERFBENCH-REPORT "


def _fmt(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _report(report):
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")


def plant_fault():
    """Replace compute_b with one whose b has the right degree and the root -1, but wrong roots."""
    from capelli import bfunction
    from capelli.poly import UniPoly

    def wrong_compute_b(inst):
        return UniPoly.from_offsets("s", [1, 7, 8, 9, 10, 11][:inst.d]), Fraction(1)

    tracer.rebind(bfunction.compute_b, wrong_compute_b)


def _tracer(trace):
    if not trace:
        return None
    tr = tracer.Tracer()
    tr.install()
    return tr


def run_cli(args, trace, fault):
    from capelli import cli
    if fault:
        plant_fault()
    tr = _tracer(trace)
    code = 1
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        _report({"trace": tr.report() if tr else None})
    return code


# -- the two library workloads: set-up, then a pass built from the inputs ------


def plain_diff(inp, insts, pres):
    """verify_annihilation and equivalence_witness on every pair."""
    from capelli import bfunction, modules
    lams = [Fraction(x) for x in inp["lams"]]
    window = tuple(inp["window"])

    def work():
        out = []
        for p, inst in insts.items():
            ann = bfunction.verify_annihilation(inst, inp["m_max"])
            wit = [modules.equivalence_witness(inst, lam, window, pres=pres[p]) for lam in lams]
            out.append((p, ann, wit))
        return out

    def results(out):
        """Outputs for the oracle; the gauged psi edges are recomputed after the pass."""
        res = []
        for p, ann, wit in out:
            ws = []
            for lam, w in zip(inp["lams"], wit):
                T = modules.gauge_normalize(modules.psi_of_ladder(insts[p], Fraction(lam), window))
                edges = [[_fmt(a), _fmt(T.D[a][0][0])] for a in sorted(T.D)]
                ws.append({"lam": lam, "passed": w.passed, "edges": edges})
            res.append({"case": p[0], "size": p[1], "annihilation": ann.passed, "witness": ws})
        return res

    return work, results


def _tree(node):
    from capelli.expr import BinOp, Pow, RatLit, Sym
    kind = node[0]
    if kind == "sym":
        return Sym(node[1])
    if kind == "rat":
        return RatLit(Fraction(node[1]))
    if kind == "pow":
        return Pow(_tree(node[1]), node[2])
    return BinOp(node[1], _tree(node[2]), _tree(node[3]))


def normal_forms(inp, insts, pres):
    """Confluence, parser round trips and relation-side ladders on each presentation."""
    from capelli import algebra, expr, modules
    blocks = [(pres[tuple(b["pair"])], [_tree(t) for t in b["exprs"]],
               [(Fraction(lam), (lo, hi)) for lam, lo, hi in b["ladders"]])
              for b in inp["blocks"]]

    def work():
        out = []
        for P, trees, ladders in blocks:
            ex = algebra.confluence_exhaustive(P, inp["confluence_len"])
            fz = algebra.confluence_fuzz(P, inp["fuzz_trials"], inp["fuzz_seed"])
            df = expr.eval_expr(expr.parse_expr("delta*f"), P)
            rounds = []
            for t in trees:
                back = expr.parse_expr(expr.fmt_expr(t))
                expr.eval_expr(back, P)
                rounds.append(back == t)
            lad = []
            for lam, window in ladders:
                T = modules.build_ladder(P, lam, window)
                lad.append((modules.validate(T), modules.break_points(P, lam, window)))
            out.append((ex, fz, df, rounds, lad))
        return out

    def results(out):
        res = []
        for b, (ex, fz, df, rounds, lad) in zip(inp["blocks"], out):
            res.append({
                "case": b["pair"][0], "size": b["pair"][1],
                "delta_f": {str(k): [_fmt(c) for c in v.coeffs] for k, v in df.parts.items()},
                "exhaustive": {"words_checked": ex.words_checked,
                               "discrepancies": len(ex.discrepancies)},
                "fuzz": {"trials": fz.trials, "discrepancies": len(fz.discrepancies)},
                "exprs": rounds,
                "ladders": [{"violations": len(v), "breaks": [[k, m] for k, m in sorted(br.items())]}
                            for v, br in lad],
            })
        return res

    return work, results


MODES = {"plain-diff": plain_diff, "normal-forms": normal_forms}


def run_pass(mode, path, trace, fault, setup_only):
    with open(path) as fh:
        inp = json.load(fh)
    pairs = [tuple(p) for p in inp["pairs"]] if "pairs" in inp else \
        [tuple(b["pair"]) for b in inp["blocks"]]
    report = {"error": None}
    t0 = time.perf_counter()
    try:
        from capelli import bfunction, catalog
        if fault:
            plant_fault()
        tr = _tracer(trace)
        insts = {p: catalog.instantiate(*p) for p in pairs}
        pres = {p: bfunction.presentation_for(i) for p, i in insts.items()}
        report["setup_window"] = [t0, time.perf_counter()]
        report["setup_s"] = report["setup_window"][1] - t0
        if not setup_only:
            if tr:
                report["trace_setup"] = tr.report()
                tr.reset()
            work, results = MODES[mode](inp, insts, pres)
            c0, w0 = time.process_time(), time.perf_counter()
            out = work()
            report["pass_window"] = [w0, time.perf_counter()]
            report["pass_wall_s"] = report["pass_window"][1] - w0
            report["pass_cpu_s"] = time.process_time() - c0
            if tr:
                report["trace"] = tr.report()
            report["results"] = results(out)
    except Exception:
        report["error"] = traceback.format_exc(limit=4)
    _report(report)
    return 0 if report["error"] is None else 1


def main(argv):
    mode, rest = argv[0], argv[1:]
    cli_args = []
    if "--" in rest:
        i = rest.index("--")
        rest, cli_args = rest[:i], rest[i + 1:]
    flags = ("--trace", "--plant-fault", "--setup-only")
    trace, fault, setup_only = (f in rest for f in flags)
    rest = [a for a in rest if a not in flags]
    if mode == "cli":
        return run_cli(cli_args, trace, fault)
    if mode in MODES and len(rest) == 1:
        return run_pass(mode, rest[0], trace, fault, setup_only)
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
