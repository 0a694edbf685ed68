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


# exponents at the edges of one-, two- and three-byte fields
EDGE_EXPONENTS = [0, 1, 127, 128, 255, 256, 2**16]


def division_oracle(p, q):
    """sympy's quotient of p by q as a MultiPoly, or None when sympy's
    division leaves a nonzero remainder.  It divides in sympy's sparse
    polynomial ring, whose div is sympy.div without the dense conversion
    (which takes seconds at exponent 2^16)."""
    ring, *_ = sympy.polys.rings.ring([f"x{i}" for i in range(1, p.arity + 1)], sympy.QQ)

    def to_ring(m):
        return ring.from_dict({e: sympy.QQ(Fraction(c).numerator, Fraction(c).denominator)
                               for e, c in m.terms.items()})

    quotient, remainder = to_ring(p).div(to_ring(q))
    if remainder:
        return None
    return MultiPoly(p.arity, {e: Fraction(int(c.numerator), int(c.denominator))
                               for e, c in quotient.items()})


def edge_division_examples():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    return [
        (x ** 256 - y ** 256 + 1, x - y),           # fails after 256 cancelling rounds
        ((x ** 128 - y ** 128) * (x + y), x - y),   # cancels, then divides exactly
        (MultiPoly.zero(2), x ** 127 * y - 1),      # zero dividend
        (MultiPoly.zero(0), MultiPoly.constant(0, 5)),
        (MultiPoly.constant(0, 3), MultiPoly.constant(0, Fraction(-2, 3))),
        (x ** 255 + 1, x ** 256 * y),               # the divisor is the wider one
    ]


def test_divide_exact_matches_sympy_div_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)).filter(bool)

    @st.composite
    def divisions(draw):
        arity = draw(st.integers(0, 3))
        exps = st.tuples(*[st.sampled_from(EDGE_EXPONENTS)] * arity)
        polys = st.dictionaries(exps, coefs, max_size=3).map(lambda t: MultiPoly(arity, t))
        a, q, r = draw(polys), draw(polys.filter(lambda m: not m.is_zero())), draw(polys)
        return a * q + r, q         # exact when r = 0, or when q divides r

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(divisions())
    def matches(division):
        p, q = division
        assert p.divide_exact(q) == division_oracle(p, q)

    for division in edge_division_examples():
        matches = hypothesis.example(division)(matches)
    matches()


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
