"""Command-line front end.

Exit codes: 0 success (including soft disputed-row mismatches), 1 hard
mismatch / failed verification / non-proportional twisted result, 2
input errors.  argparse rejects bad flags itself; every other input error
is a ValueError (a bad case or size, window, rational, expression or trial
count, or a result past the interpreter's int-string limit), which main
prints as one ``error:`` line before exiting 2.
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
from .poly import format_rational
from .weyl import NotProportional


def _is_integer(text: str) -> bool:
    # [-]digits, digits by str.isdecimal as in the expression grammar
    return text.removeprefix("-").isdecimal()


def _parse_window(text: str):
    a, colon, b = text.partition(":")
    if colon and _is_integer(a) and _is_integer(b):
        try:
            lo, hi = int(a), int(b)
        except ValueError:                          # past the digit limit
            pass
        else:
            if lo > hi:
                raise ValueError(f"bad window {text[:40]!r}: lower end exceeds upper end")
            return (lo, hi)
    raise ValueError(f"bad window {text[:40]!r}: expected a:b with integers")


def _parse_lambda(text: str) -> Fraction:
    # [-]digits[/digits] only
    num, slash, den = text.partition("/")
    if _is_integer(num) and (den.isdecimal() or not slash):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):     # past the digit limit, or q = 0
            pass
    raise ValueError(f"bad rational {text[:40]!r}: expected p/q or integer")


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
    cert = bfunction.verify_table(args.case, args.size)
    if args.json:
        _emit_json(cert.to_json_dict())
    else:
        print(_certificate_line(cert))
        roots = ", ".join(format_rational(r) for r in cert.roots)
        print(f"  roots: {roots}   (deg f = {cert.b_monic.degree()})")
        if cert.verdict == VERDICT_DISPUTED:
            print("  note: disputed table row; the computed b is the oracle value")
    return 0 if cert.verdict in (VERDICT_MATCH, VERDICT_DISPUTED) else 1


def cmd_bs_verify_all(args) -> int:
    pairs = catalog.MIN_VERIFY_SIZES if args.sizes == "min" else catalog.DEFAULT_VERIFY_SIZES
    certs = bfunction.verify_all(pairs)
    hard = sum(1 for c in certs if c.verdict not in (VERDICT_MATCH, VERDICT_DISPUTED))
    if args.json:
        _emit_json([c.to_json_dict() for c in certs])
    else:
        for cert in certs:
            print(_certificate_line(cert))
            if cert.verdict == VERDICT_DISPUTED:
                print(f"  warning: case ({cert.case_id}) table row is disputed; "
                      f"computed and printed b differ as shown")
        soft = sum(1 for c in certs if c.verdict == VERDICT_DISPUTED)
        print(f"{len(certs)} rows verified: {len(certs) - hard - soft} match, "
              f"{soft} disputed, {hard} hard mismatches")
    return 1 if hard else 0


# -- algebra -----------------------------------------------------------------


def cmd_algebra_nf(args) -> int:
    inst = catalog.instantiate(args.case, args.size)
    pres = presentation_for(inst)
    try:
        tree = parse_expr(args.expr)
    except ExprError as exc:
        raise ValueError(f"bad expression: {exc}")
    element = eval_expr(tree, pres)
    print(fmt_expr(element_to_expr(element)))
    return 0


def cmd_algebra_fuzz(args) -> int:
    if args.trials < 1:
        raise ValueError(f"bad trial count {args.trials}: expected at least 1")
    inst = catalog.instantiate(args.case, args.size)
    pres = presentation_for(inst)
    report = confluence_fuzz(pres, args.trials, args.seed)
    print(f"case ({args.case}) n={args.size}: {report.trials} random words, "
          f"{len(report.discrepancies)} discrepancies")
    for word in report.discrepancies[:10]:
        print(f"  counterexample: {word}")
    return 0 if report.passed else 1


# -- module ------------------------------------------------------------------


def _ladder_text(T, violations) -> str:
    """The text report of a ladder, built whole so a failure prints nothing."""
    d = T.pres.d
    lines = [f"weights (d = {d}): " + ", ".join(str(a) for a in T.weights)]
    for a in T.weights:
        f_edge = T.F.get(a)
        d_edge = T.D.get(a)
        fs = f"F -> {f_edge[0][0]}" if f_edge else "F exits window"
        ds = f"D -> {d_edge[0][0]}" if d_edge else "D exits window"
        lines.append(f"  weight {a}: dim {T.dims[a]}, {fs}, {ds}")
    if violations:
        lines.append(f"validate: {len(violations)} violations")
        lines.extend(f"  at weight {v.weight}: {v.kind}: {v.detail}" for v in violations)
    else:
        lines.append("validate: ok")
    return "\n".join(lines)


def cmd_module_ladder(args) -> int:
    inst = catalog.instantiate(args.case, args.size)
    pres = presentation_for(inst)
    T = modules.build_ladder(pres, args.lam, args.window)
    violations = modules.validate(T)
    if args.json:
        _emit_json(T.to_json_dict())
    else:
        print(_ladder_text(T, violations))
    return 1 if violations else 0


def cmd_module_psi(args) -> int:
    inst = catalog.instantiate(args.case, args.size)
    pres = presentation_for(inst)
    T = modules.psi_of_ladder(inst, args.lam, args.window, pres=pres)
    violations = modules.validate(T)
    witness = modules.equivalence_witness(inst, args.lam, args.window, pres=pres)
    if args.json:
        doc = T.to_json_dict()
        doc["witness"] = {"passed": witness.passed, "detail": witness.detail}
        _emit_json(doc)
    else:
        verdict = "pass" if witness.passed else "FAIL"
        print(_ladder_text(T, violations)
              + f"\nequivalence witness: {verdict} ({witness.detail})")
    return 0 if witness.passed and not violations else 1


def cmd_module_breaks(args) -> int:
    inst = catalog.instantiate(args.case, args.size)
    pres = presentation_for(inst)
    breaks = modules.break_points(pres, args.lam, args.window)
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
    try:
        if hasattr(args, "lam"):
            args.lam = _parse_lambda(args.lam)
            args.window = _parse_window(args.window)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotProportional as exc:
        print(f"error: twisted computation not proportional: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
