"""Cross-checks against sympy, an oracle that shares no code with capelli.

sympy is only a test dependency of capelli (the `test` extra); without it this
module is skipped.
"""

import random
from fractions import Fraction

import pytest

from capelli.catalog import MIN_VERIFY_SIZES, instantiate
from capelli.poly import MultiPoly, UniPoly
from capelli.weyl import weyl_apply

sympy = pytest.importorskip("sympy")


def symbols(arity):
    return sympy.symbols(f"x1:{arity + 1}")


def to_sympy(p, xs):
    return sympy.Add(*[sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       * sympy.Mul(*[x ** k for x, k in zip(xs, e)])
                       for e, c in p.terms.items()])


def from_sympy(expr, xs):
    terms = sympy.Poly(sympy.expand(expr), *xs).as_dict()
    return MultiPoly(len(xs), {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items() if c})


@pytest.mark.parametrize("case_id, size", [(4, 3), (5, 2)])
class TestFPowers:
    def test_products(self, case_id, size):
        f = instantiate(case_id, size).f
        xs = symbols(f.arity)
        fs = to_sympy(f, xs)
        g = f
        for k in range(2, 5):
            g = g * f
            assert g == from_sympy(fs ** k, xs)

    def test_divide_exact(self, case_id, size):
        f = instantiate(case_id, size).f
        xs = symbols(f.arity)
        f3 = f * f * f
        q, r = sympy.div(to_sympy(f3, xs), to_sympy(f, xs), *xs)
        assert r == 0
        assert f3.divide_exact(f) == from_sympy(q, xs) == f * f
        q, r = sympy.div(to_sympy(f3 + 1, xs), to_sympy(f, xs), *xs)
        assert r != 0
        assert (f3 + 1).divide_exact(f) is None


@pytest.mark.parametrize("case_id, size", MIN_VERIFY_SIZES)
def test_delta_through_sympy_diff(case_id, size):
    inst = instantiate(case_id, size)
    xs = symbols(inst.f.arity)
    for k in (1, 2):
        g = sympy.Poly(to_sympy(inst.f ** k, xs), *xs)
        expected = sympy.Poly(0, *xs)
        for (alpha, beta), c in inst.delta.terms.items():
            x_alpha = sympy.Poly(sympy.Mul(*[x ** a for x, a in zip(xs, alpha)]), *xs)
            spec = [(x, b) for x, b in zip(xs, beta) if b]
            expected += x_alpha * (g.diff(*spec) if spec else g) * c     # diff() is d/dx1
        assert weyl_apply(inst.delta, inst.f ** k) == from_sympy(expected.as_expr(), xs)


def test_unipoly_shift_through_expand():
    rng = random.Random(11)
    t = sympy.Symbol("s")
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        sigma = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        shifted = UniPoly("s", coeffs).shift(sigma)
        expr = sympy.expand(sum(sympy.Rational(c.numerator, c.denominator) * (t + sympy.Rational(
            sigma.numerator, sigma.denominator)) ** k for k, c in enumerate(coeffs)))
        expected = [sympy.Poly(expr, t).coeff_monomial(t ** k) for k in range(len(coeffs))]
        assert UniPoly("s", [Fraction(int(c.p), int(c.q)) for c in expected]) == shifted
