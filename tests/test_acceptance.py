"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Everything is exact rational arithmetic; "tolerance"
is zero throughout.
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from capelli import bfunction
from capelli.algebra import (DELTA, F, THETA, confluence_exhaustive, confluence_fuzz,
                             from_word)
from capelli.cli import main as cli_main
from capelli.expr import BinOp, Pow, RatLit, Sym, fmt_expr, parse_expr
from capelli.modules import (act, break_points, build_ladder, equivalence_witness,
                             ladder_weight, psi_of_ladder, validate)
from capelli.poly import UniPoly, rational_roots
from capelli.weyl import (WeylOp, commutator, f_power_element, twisted_apply,
                          twisted_scalar_profile)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{label}]: FAIL")
        raise
    print(f"criterion {num} [{label}]: PASS")


EXPECTED_MATCH_ROWS = {
    (1, 2): [1, 1],
    (2, 2): [1, Fraction(3, 2)],
    (4, 2): [1, 2],
    (4, 3): [1, 2, 3],
    (5, 2): [1, 4],
    (7, 7): [1, Fraction(7, 2)],
    (8, 4): [1, 2, 3, 4],
}

EXPECTED_DISPUTED_ROWS = {
    (3, 4): ([1, 3], [1, 3, 5, 7]),     # computed, printed
    (6, 8): ([1, 4], [2, 4]),
}


def test_criterion_1_table_reproduction(min_certificates):
    with criterion(1, "table reproduction, zero tolerance"):
        for key, offsets in EXPECTED_MATCH_ROWS.items():
            cert = min_certificates[key]
            assert cert.verdict == "match", key
            assert cert.b_monic == UniPoly.from_offsets("s", offsets), key
        for key, (computed, printed) in EXPECTED_DISPUTED_ROWS.items():
            cert = min_certificates[key]
            assert cert.verdict == "mismatch-disputed-row", key
            assert cert.b_monic == UniPoly.from_offsets("s", computed), key
            assert cert.expected == UniPoly.from_offsets("s", printed), key
        # the CLI path, in a fresh process, under the stated runtime budget
        start = time.time()
        run = subprocess.run(
            [sys.executable, "-m", "capelli.cli", "bs", "verify-all", "--sizes", "min"],
            capture_output=True, text=True, timeout=300)
        elapsed = time.time() - start
        assert run.returncode == 0, run.stderr
        assert elapsed < 300
        out = run.stdout
        assert "case (4) n=3:  b = (s+1)(s+2)(s+3)" in out
        assert "case (3) n=4:  b = (s+1)(s+3)" in out
        assert out.count("mismatch-disputed-row") == 2
        assert "0 hard mismatches" in out


def test_criterion_2_relation_suite(min_instances, min_certificates):
    with criterion(2, "operator relations and root rationality"):
        for key, inst in min_instances.items():
            f_op = WeylOp.from_poly(inst.f)
            assert commutator(inst.theta, f_op) == inst.d * f_op, key
            assert commutator(inst.theta, inst.delta) == -inst.d * inst.delta, key
            cert = min_certificates[key]
            assert cert.b_monic.evaluate(-1) == 0, key          # (s+1) divides b
            roots = rational_roots(cert.b_monic)
            assert len(roots) == inst.d == cert.b_monic.degree(), key


def test_criterion_3_annihilation(min_instances):
    with criterion(3, "f*Delta - b(theta-d) annihilates C[f] up to degree 6"):
        for key, inst in min_instances.items():
            report = bfunction.verify_annihilation(inst, 6)
            assert report.passed, (key, report.first_failing)


def test_criterion_4_rewriting_soundness(min_presentations):
    with criterion(4, "confluence: 1000 random + exhaustive length <= 6"):
        start = time.time()
        for key in [(1, 2), (4, 2)]:
            pres = min_presentations[key]
            fuzz = confluence_fuzz(pres, trials=1000, seed=20240809)
            assert fuzz.passed, (key, fuzz.discrepancies[:3])
            full = confluence_exhaustive(pres, 6)
            assert full.passed, (key, full.discrepancies[:3])
            assert full.words_checked == sum(3 ** n for n in range(1, 7))
        assert time.time() - start < 60


def _generator_words(max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product((F, THETA, DELTA), repeat=length)


_GENERATOR_OPS = {
    F: lambda inst: WeylOp.from_poly(inst.f),
    THETA: lambda inst: inst.theta,
    DELTA: lambda inst: inst.delta,
}


def test_criterion_5_oracle_faithfulness(min_instances, min_presentations):
    with criterion(5, "normal forms and twisted action agree on ladders"):
        lo, hi = -2, 3
        for key in [(1, 2), (4, 2)]:
            inst = min_instances[key]
            pres = min_presentations[key]
            ops = {name: make(inst) for name, make in _GENERATOR_OPS.items()}
            # the twisted images carry a symbolic exponent and do not depend on
            # lambda, so compute them once per (word, k) and evaluate per twist
            profiles = []
            for word in _generator_words(4):
                element = from_word(pres, list(word))
                weyl_word = ops[word[0]]
                for name in word[1:]:
                    weyl_word = weyl_word * ops[name]
                shift = word.count(F) - word.count(DELTA)
                for k in range(lo, hi + 1):
                    if not lo <= k + shift <= hi:
                        continue
                    image = twisted_apply(weyl_word, f_power_element(k, inst.f), inst.f)
                    profile = twisted_scalar_profile(image, inst.f, k + shift)
                    profiles.append((word, element, k, shift, profile))
            for lam in (Fraction(0), Fraction(1, 2), Fraction(-1)):
                ladder = psi_of_ladder(inst, lam, (lo, hi), pres=pres)
                for word, element, k, shift, profile in profiles:
                    direct = profile.evaluate(lam)
                    alpha = ladder_weight(pres, lam, k)
                    target = ladder_weight(pres, lam, k + shift)
                    via_algebra = act(ladder, element, alpha)
                    assert list(via_algebra) == [target], (key, lam, word, k)
                    assert via_algebra[target] == [[direct]], (key, lam, word, k)


def test_criterion_6_equivalence_witness(min_instances, min_presentations):
    with criterion(6, "desk-scale functor-pair witness on ladders"):
        for cid, n in [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2), (6, 8), (7, 7), (8, 4)]:
            inst = min_instances[(cid, n)]
            pres = min_presentations[(cid, n)]
            for lam in (Fraction(0), Fraction(1, 2)):
                report = equivalence_witness(inst, lam, (0, 4), pres=pres)
                assert report.passed, (cid, n, lam, report.detail)


def test_criterion_7_break_points(min_presentations):
    with criterion(7, "break points against root prediction, 50 random triples"):
        rng = random.Random(20240809)
        keys = sorted(min_presentations)
        for _ in range(50):
            pres = min_presentations[rng.choice(keys)]
            lam = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            lo = rng.randint(-6, 2)
            window = (lo, lo + rng.randint(0, 8))
            roots = set(rational_roots(pres.b_monic))
            predicted = {k for k in range(window[0], window[1] + 1)
                         if k + lam - 1 in roots}
            assert set(break_points(pres, lam, window)) == predicted


def test_criterion_8_mutation_sensitivity(min_presentations):
    # lambda is drawn with denominator >= 3, so no edge in the window can
    # vanish (all catalog b-roots are integers or half-integers): every
    # single-edge perturbation is then visible to exactly the two
    # relation checks that touch it.  Perturbing an F edge next to a
    # vanished D edge would be an isomorphism and provably invisible.
    with criterion(8, "single-edge mutations break exactly two relations"):
        rng = random.Random(1717)
        keys = [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2)]
        generic = [Fraction(1, 3), Fraction(2, 5), Fraction(-2, 3), Fraction(5, 3),
                   Fraction(1, 7), Fraction(-4, 5)]
        for _ in range(20):
            pres = min_presentations[rng.choice(keys)]
            lam = rng.choice(generic)
            lo = rng.randint(-3, 0)
            window = (lo, lo + rng.randint(3, 5))
            ladder = build_ladder(pres, lam, window)
            assert validate(ladder) == []
            assert all(m[0][0] != 0 for m in ladder.D.values())
            edges = [("F", a) for a in ladder.F] + [("D", a) for a in ladder.D]
            kind, alpha = rng.choice(edges)
            bump = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            if kind == "F":
                ladder.F[alpha][0][0] += bump
                expected = {(alpha, "delta-f"), (alpha + pres.d, "f-delta")}
            else:
                ladder.D[alpha][0][0] += bump
                expected = {(alpha - pres.d, "delta-f"), (alpha, "f-delta")}
            violations = validate(ladder)
            assert {(v.weight, v.kind) for v in violations} == expected
            assert len(violations) == 2


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Sym(rng.choice(["f", "theta", "delta"]))
        return RatLit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    roll = rng.random()
    if roll < 0.45:
        return BinOp(rng.choice(["+", "-"]), _random_ast(rng, depth - 1),
                     _random_ast(rng, depth - 1))
    if roll < 0.85:
        return BinOp("*", _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Pow(_random_ast(rng, depth - 1), rng.randint(0, 5))


def _run_cli(args):
    try:
        return cli_main(args)
    except SystemExit as exc:
        return exc.code


def test_criterion_9_parser_and_exit_codes(monkeypatch, capsys):
    with criterion(9, "parser round-trip and CLI exit codes"):
        rng = random.Random(90210)
        for _ in range(500):
            tree = _random_ast(rng, 4)
            assert parse_expr(fmt_expr(tree)) == tree
        # exit 0: healthy paths (soft disputed rows included)
        assert _run_cli(["catalog", "list"]) == 0
        assert _run_cli(["bs", "verify-all", "--sizes", "min"]) == 0
        assert _run_cli(["module", "psi", "--case", "4", "--size", "2",
                         "--lambda", "0", "--window", "0:3"]) == 0
        # exit 2: usage errors
        assert _run_cli(["bs", "compute", "--case", "9", "--size", "2"]) == 2
        assert _run_cli(["bs", "compute", "--case", "3", "--size", "5"]) == 2
        assert _run_cli(["algebra", "nf", "--case", "4", "--size", "2", "f + + 2"]) == 2
        assert _run_cli(["module", "ladder", "--case", "4", "--size", "2",
                         "--lambda", "0", "--window", "3:1"]) == 2
        # exit 1: a hard mismatch (forced through a stubbed computation)
        wrong = UniPoly.from_offsets("s", [1, 7])
        monkeypatch.setattr(bfunction, "compute_b", lambda inst: (wrong, Fraction(1)))
        assert _run_cli(["bs", "compute", "--case", "4", "--size", "2"]) == 1
        assert _run_cli(["bs", "verify-all", "--sizes", "min"]) == 1
        capsys.readouterr()
