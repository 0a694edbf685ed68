"""Command-line front end.

Exit codes: 0 success (including soft disputed-row mismatches), 1 hard
mismatch / failed verification / non-proportional twisted result, 2
usage errors (bad flags, bad sizes, bad expressions, and any ValueError a
command raises, such as a result past the interpreter's int-string limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bfunction, catalog, modules
from .algebra import confluence_fuzz
from .bfunction import VERDICT_DISPUTED, VERDICT_MATCH, factored, presentation_for
from .expr import ExprError, element_to_expr, eval_expr, fmt_expr, parse_expr
from .poly import format_rational, parse_rational
from .weyl import NotProportional


class UsageError(Exception):
    pass


def _parse_window(text: str):
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise UsageError(f"bad window {text!r}: expected a:b with integers")
    if lo > hi:
        raise UsageError(f"bad window {text!r}: lower end exceeds upper end")
    return (lo, hi)


def _parse_lambda(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}: expected p/q or integer")


def _instance(args):
    try:
        return catalog.instantiate(args.case, args.size)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit_json(obj):
    print(json.dumps(obj, indent=2))


# -- catalog ---------------------------------------------------------------


def cmd_catalog_list(args) -> int:
    if args.json:
        _emit_json(catalog.catalog_json())
        return 0
    print(f"{'case':<6}{'(G, V)':<34}{'deg f':<8}{'b(s) as printed':<34}flags")
    for spec in catalog.list_cases():
        flags = "disputed" if spec.disputed else ""
        print(f"({spec.case_id})".ljust(6) + f"{spec.name:<34}{spec.deg_f_rule:<8}"
              + f"{spec.b_rule:<34}{flags}")
        if spec.disputed:
            print(" " * 6 + f"catalog rule: {spec.corrected_b_rule}")
    return 0


# -- bs ---------------------------------------------------------------------


def _certificate_line(cert) -> str:
    return (f"case ({cert.case_id}) n={cert.size}:  "
            f"b = {factored(cert.b_monic)}  c = {cert.c}  "
            f"table = {factored(cert.expected)}  verdict = {cert.verdict}")


def cmd_bs_compute(args) -> int:
    inst = _instance(args)
    cert = bfunction.verify_table(args.case, args.size)
    if args.json:
        _emit_json(cert.to_json_dict())
    else:
        print(_certificate_line(cert))
        roots = ", ".join(format_rational(r) for r in cert.roots)
        print(f"  roots: {roots}   (deg f = {inst.d})")
        if cert.verdict == VERDICT_DISPUTED:
            print("  note: disputed table row; the computed b is the oracle value")
    return 0 if cert.verdict in (VERDICT_MATCH, VERDICT_DISPUTED) else 1


def cmd_bs_verify_all(args) -> int:
    pairs = catalog.MIN_VERIFY_SIZES if args.sizes == "min" else catalog.DEFAULT_VERIFY_SIZES
    certs = bfunction.verify_all(pairs)
    if args.json:
        _emit_json([c.to_json_dict() for c in certs])
    hard = 0
    for cert in certs:
        if not args.json:
            print(_certificate_line(cert))
        if cert.verdict == VERDICT_DISPUTED and not args.json:
            print(f"  warning: case ({cert.case_id}) table row is disputed; "
                  f"computed and printed b differ as shown")
        if cert.verdict not in (VERDICT_MATCH, VERDICT_DISPUTED):
            hard += 1
    if not args.json:
        soft = sum(1 for c in certs if c.verdict == VERDICT_DISPUTED)
        print(f"{len(certs)} rows verified: {len(certs) - hard - soft} match, "
              f"{soft} disputed, {hard} hard mismatches")
    return 1 if hard else 0


# -- algebra -----------------------------------------------------------------


def cmd_algebra_nf(args) -> int:
    inst = _instance(args)
    pres = presentation_for(inst)
    try:
        tree = parse_expr(args.expr)
    except ExprError as exc:
        raise UsageError(f"bad expression: {exc}")
    element = eval_expr(tree, pres)
    print(fmt_expr(element_to_expr(element)))
    return 0


def cmd_algebra_fuzz(args) -> int:
    if args.trials < 1:
        raise UsageError(f"bad trial count {args.trials}: expected at least 1")
    inst = _instance(args)
    pres = presentation_for(inst)
    report = confluence_fuzz(pres, args.trials, args.seed)
    print(f"case ({args.case}) n={args.size}: {report.trials} random words, "
          f"{len(report.discrepancies)} discrepancies")
    for word in report.discrepancies[:10]:
        print(f"  counterexample: {word}")
    return 0 if report.passed else 1


# -- module ------------------------------------------------------------------


def _print_ladder(T, violations) -> None:
    d = T.pres.d
    print(f"weights (d = {d}): " + ", ".join(str(a) for a in T.weights))
    for a in T.weights:
        f_edge = T.F.get(a)
        d_edge = T.D.get(a)
        fs = f"F -> {f_edge[0][0]}" if f_edge else "F exits window"
        ds = f"D -> {d_edge[0][0]}" if d_edge else "D exits window"
        print(f"  weight {a}: dim {T.dims[a]}, {fs}, {ds}")
    if violations:
        print(f"validate: {len(violations)} violations")
        for v in violations:
            print(f"  at weight {v.weight}: {v.kind}: {v.detail}")
    else:
        print("validate: ok")


def cmd_module_ladder(args) -> int:
    inst = _instance(args)
    pres = presentation_for(inst)
    T = modules.build_ladder(pres, args.lam, args.window)
    violations = modules.validate(T)
    if args.json:
        _emit_json(T.to_json_dict())
    else:
        _print_ladder(T, violations)
    return 1 if violations else 0


def cmd_module_psi(args) -> int:
    inst = _instance(args)
    pres = presentation_for(inst)
    T = modules.psi_of_ladder(inst, args.lam, args.window, pres=pres)
    violations = modules.validate(T)
    witness = modules.equivalence_witness(inst, args.lam, args.window, pres=pres)
    if args.json:
        doc = T.to_json_dict()
        doc["witness"] = {"passed": witness.passed, "detail": witness.detail}
        _emit_json(doc)
    else:
        _print_ladder(T, violations)
        print(f"equivalence witness: {'pass' if witness.passed else 'FAIL'} ({witness.detail})")
    return 0 if witness.passed and not violations else 1


def cmd_module_breaks(args) -> int:
    inst = _instance(args)
    pres = presentation_for(inst)
    breaks = modules.break_points(pres, args.lam, args.window)
    if not breaks:
        print("{}")
        return 0
    inner = ", ".join(
        f"{k}" + (f" (multiplicity {m})" if m > 1 else "")
        for k, m in sorted(breaks.items()))
    print("{" + inner + "}")
    return 0


# -- wiring ------------------------------------------------------------------


def _add_case_size(p):
    p.add_argument("--case", type=int, required=True, help="catalog case id, 1..8")
    p.add_argument("--size", type=int, required=True, help="size parameter n")


def _add_module_flags(p):
    _add_case_size(p)
    p.add_argument("--lambda", dest="lam", type=str, required=True,
                   help="twist lambda as p/q")
    p.add_argument("--window", type=str, required=True, help="step window a:b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Bernstein-Sato polynomials and graded modules for the "
                    "eight Capelli-type representations with one-dimensional quotient")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="catalog metadata")
    cat_sub = p_cat.add_subparsers(dest="subcommand", required=True)
    p = cat_sub.add_parser("list", help="print the eight table rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog_list)

    p_bs = sub.add_parser("bs", help="Bernstein-Sato computation and certification")
    bs_sub = p_bs.add_subparsers(dest="subcommand", required=True)
    p = bs_sub.add_parser("compute", help="compute and certify one case")
    _add_case_size(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bs_compute)
    p = bs_sub.add_parser("verify-all", help="certify the whole catalog")
    p.add_argument("--sizes", choices=["default", "min"], default="default")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bs_verify_all)

    p_alg = sub.add_parser("algebra", help="normal forms in the quotient algebra")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    p = alg_sub.add_parser("nf", help="normal form of an expression")
    _add_case_size(p)
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_algebra_nf)
    p = alg_sub.add_parser("fuzz", help="confluence fuzzing")
    _add_case_size(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_algebra_fuzz)

    p_mod = sub.add_parser("module", help="graded ladder modules")
    mod_sub = p_mod.add_subparsers(dest="subcommand", required=True)
    p = mod_sub.add_parser("ladder", help="relation-side ladder + validation")
    _add_module_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_module_ladder)
    p = mod_sub.add_parser("psi", help="differentiation-side ladder + witness")
    _add_module_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_module_psi)
    p = mod_sub.add_parser("breaks", help="vanishing D edges in a window")
    _add_module_flags(p)
    p.set_defaults(func=cmd_module_breaks)

    return parser


def _merge_value_flags(argv):
    """Join `--lambda -1/2` / `--window -4:4` into single tokens so argparse
    does not mistake the negative values for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--lambda", "--window") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(list(argv)))
    if hasattr(args, "lam"):
        try:
            args.lam = _parse_lambda(args.lam)
            args.window = _parse_window(args.window)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # a library ValueError is an input the command cannot serve, such as
        # a result too long to print
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotProportional as exc:
        print(f"error: twisted computation not proportional: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
