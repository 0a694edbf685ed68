import random
from fractions import Fraction
from math import comb, gcd

import pytest

from capelli.poly import MultiPoly, UniPoly, _width, power, rational_roots
from capelli.weyl import WeylOp


def x(i, arity=2):
    return MultiPoly.variable(arity, i)


def det2():
    # x11*x22 - x12*x21 in 4 variables
    return (MultiPoly.variable(4, 0) * MultiPoly.variable(4, 3)
            - MultiPoly.variable(4, 1) * MultiPoly.variable(4, 2))


def random_poly(rng, arity, max_terms=5, max_exp=3, max_coef=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(arity))
        c = rng.randint(-max_coef, max_coef)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MultiPoly(arity, {e: c for e, c in terms.items() if c})


class TestMultiPolyMul:
    def test_difference_of_squares(self):
        a, b = x(0), x(1)
        assert (a + b) * (a - b) == a * a - b * b

    def test_mul_by_one(self):
        f = det2()
        assert f * MultiPoly.one(4) == f

    def test_det_square_against_bruteforce(self):
        # independent oracle: expand the product with raw nested loops
        f = det2()
        expected = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in f.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                expected[e] = expected.get(e, 0) + c1 * c2
        expected = {e: c for e, c in expected.items() if c}
        assert (f * f).terms == expected

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.one(2) * MultiPoly.one(3)

    def test_ring_axioms_random(self):
        rng = random.Random(20240801)
        for _ in range(50):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            r = random_poly(rng, 3)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p
            assert p + (q + r) == (p + q) + r


def naive_product(p, q):
    """Tuple-keyed reference product, one exponent tuple per term pair."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# exponents at and around the edges of one-, two-, four- and eight-byte fields
EDGES = [0, 1, 100, 127, 128, 200, 255, 256, 2**16 - 1, 2**16, 2**32, 2**64]


class TestPackedProduct:
    """The product packs each exponent into a field of whole bytes, as wide
    as the operands' largest exponents need; no field may carry into the next."""

    @pytest.mark.parametrize("a, b", [(127, 1), (128, 127), (255, 1), (200, 100),
                                      (2**16 - 1, 1), (2**32, 2**32), (2**64, 1)])
    def test_field_edges(self, a, b):
        p = MultiPoly.monomial(1, (a,), 3)
        q = MultiPoly.monomial(1, (b,), -2)
        assert (p * q).terms == naive_product(p, q) == {(a + b,): -6}

    @pytest.mark.parametrize("big", [127, 128, 255, 256, 300, 2**16, 2**40])
    def test_no_carry_into_the_next_variable(self, big):
        # a carry out of one variable would land in a neighbour whose own
        # exponents are small
        p = MultiPoly(3, {(big, 0, 1): 2, (1, big, 0): -1, (0, 1, big): 3, (0, 0, 0): 1})
        q = MultiPoly(3, {(big, 1, 0): 1, (1, 0, big): 5, (0, 0, 0): -2, (big, big, big): 1})
        assert (p * q).terms == naive_product(p, q)
        assert q * p == p * q

    def test_cancellation_across_wide_fields(self):
        x0, x1 = MultiPoly.monomial(2, (200, 0)), MultiPoly.monomial(2, (0, 300))
        assert ((x0 + x1) * (x0 - x1)).terms == {(400, 0): 1, (0, 600): -1}

    def test_arity_zero_and_one(self):
        assert (MultiPoly.constant(0, 3) * MultiPoly.constant(0, -2)).terms == {(): -6}
        t = MultiPoly.variable(1, 0)
        assert ((t + 1) * (t - 1)).terms == {(2,): 1, (0,): -1}

    @pytest.mark.parametrize("arity", [0, 1, 3])
    def test_zero_polynomial(self, arity):
        p = MultiPoly.monomial(arity, (255,) * arity, 7)
        assert (p * MultiPoly.zero(arity)).is_zero()
        assert (MultiPoly.zero(arity) * p).is_zero()

    def test_random_near_the_edges(self):
        rng = random.Random(20261018)
        for _ in range(300):
            arity = rng.randint(0, 3)
            p, q = (MultiPoly(arity, {tuple(rng.choice(EDGES) for _ in range(arity)):
                                      rng.choice([-2, -1, 1, 3])
                                      for _ in range(rng.randint(0, 4))})
                    for _ in range(2))
            assert (p * q).terms == naive_product(p, q)


class TestDivideExact:
    def test_square_by_base(self):
        f = det2()
        assert (f * f).divide_exact(f) == f

    def test_indivisible(self):
        p = x(0) * x(0) + x(1) * x(1) + MultiPoly.one(2)
        q = x(0) * x(0) + x(1) * x(1)
        assert p.divide_exact(q) is None

    def test_det_cube_by_det(self):
        f = det2()
        cube = f * f * f
        quotient = cube.divide_exact(f)
        assert quotient == f * f
        assert quotient * f == cube   # multiply back

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            MultiPoly.one(2).divide_exact(MultiPoly.zero(2))

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_poly(rng, 2)
            q = random_poly(rng, 2)
            if q.is_zero():
                continue
            assert (p * q).divide_exact(q) == p

    def test_roundtrip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).filter(bool)
        exps = st.tuples(*[st.integers(0, 3)] * 3)
        polys = st.dictionaries(exps, coefs, max_size=6).map(lambda t: MultiPoly(3, t))

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(polys, polys.filter(lambda b: not b.is_zero()))
        def roundtrip(a, b):
            assert (a * b).divide_exact(b) == a

        roundtrip()

    @pytest.mark.parametrize("arity", [0, 1, 3])
    def test_zero_dividend(self, arity):
        q = MultiPoly.one(arity) if arity == 0 else MultiPoly.variable(arity, 0) + 1
        got = MultiPoly.zero(arity).divide_exact(q)
        assert got == MultiPoly.zero(arity) and got.arity == arity

    @pytest.mark.parametrize("n", range(1, 7))
    def test_geometric_sum(self, n):
        # x^n - y^n = (x - y)(x^(n-1) + x^(n-2) y + ... + y^(n-1)); y^n cancels last
        got = (x(0) ** n - x(1) ** n).divide_exact(x(0) - x(1))
        assert got == MultiPoly(2, {(n - 1 - i, i): 1 for i in range(n)})

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fails_after_cancelling_rounds(self, n):
        # the division runs n rounds, cancels y^n, and only then meets the 1
        assert (x(0) ** n - x(1) ** n + 1).divide_exact(x(0) - x(1)) is None
        # a cancelled key that x's lead divides is skipped, not taken as a quotient term
        p = (x(0) ** n - x(1) ** n) * (x(0) + x(1))
        assert p.divide_exact(x(0) - x(1)) == (x(0) + x(1)) * sum(
            (x(0) ** (n - 1 - i) * x(1) ** i for i in range(n)), MultiPoly.zero(2))


def assert_no_zero_stored(p):
    assert all(c != 0 for c in p.terms.values()), p.terms


class TestNoZeroStored:
    """No sparse result stores a zero coefficient, on inputs built to cancel."""

    def test_difference_of_squares_with_shared_monomials(self):
        a = x(0) * x(1) + x(0)
        b = x(0) * x(1) - x(1)
        got = (a + b) * (a - b)
        assert got == a * a - b * b
        assert_no_zero_stored(got)
        assert_no_zero_stored(a - a)
        assert (a - a).terms == {}

    def test_substitute_last_cancels(self):
        # (x1 + 1)(x2 - 3) at x2 = 3 is zero term by term
        p = (x(0) + 1) * (x(1) - 3) + x(0) * x(1) - 3 * x(0)
        got = p.substitute_last(3)
        assert got == MultiPoly.zero(1) and got.terms == {}

    def test_sums_products_and_quotients_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)
        # few monomials, so that the operands share many of them
        exps = st.tuples(*[st.integers(0, 2)] * 2)
        polys = st.dictionaries(exps, coefs, max_size=5).map(lambda t: MultiPoly(2, t))

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(polys, polys, st.integers(-2, 2))
        def no_zero(a, b, v):
            root = x(1) - v
            values = [a + b, a - b, b - a, a + (-a), (a + b) * (a - b), a * a - b * b,
                      (a * root + b).substitute_last(v), (a + b).substitute_last(v)]
            if not b.is_zero():
                values.append(((a + b) * (a - b) * b).divide_exact(b))
                values.append((a * b - b * a + b * b).divide_exact(b))
            for value in values:
                assert_no_zero_stored(value)
            assert values[4] == values[5]
            assert values[6] == b.substitute_last(v)

        no_zero()


class TestStoredLayout:
    """Each value has one stored form: its keys sit at the field width its
    total degree fixes, so equal values reached different ways store equal
    key dicts, also after a width boundary was crossed on the way."""

    def test_equal_values_store_equal_keys_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)
        # degrees on both sides of the one- and two-byte boundaries, 127/128 and 255/256
        polys = st.dictionaries(st.tuples(st.integers(0, 130), st.integers(0, 130)), coefs,
                                max_size=4).map(lambda t: MultiPoly(2, t))
        s = MultiPoly.variable(3, 2)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.example(MultiPoly.monomial(2, (127, 0)), MultiPoly.monomial(2, (0, 1)),
                            MultiPoly.monomial(2, (128, 128)), 1)
        @hypothesis.given(polys, polys, polys.filter(lambda h: not h.is_zero()),
                          st.integers(-2, 2))
        def layout(a, b, h, v):
            pairs = [
                (a * b, MultiPoly(2, naive_product(a, b))),
                ((a + h) + (-h), a),            # the sum's top degree cancels
                ((a.with_extra_symbol() * (s - v) + h.with_extra_symbol()).substitute_last(v), h),
                ((a * h).divide_exact(h), a),
            ]
            for got, want in pairs:
                assert got._terms == want._terms and got.width == want.width
                assert got.width == _width(max(got.total_degree(), 0))
                tuples = dict(got.terms.items())
                assert MultiPoly(2, tuples)._terms == got._terms
                assert got.total_degree() == max(map(sum, tuples), default=-1)

        layout()

    def test_weyl_op_store_property(self):
        # a WeylOp stores x^alpha d^beta as the packed flat tuple alpha + beta,
        # so its width follows max |alpha| + |beta| as a polynomial's does
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)
        parts = st.tuples(st.integers(0, 70), st.integers(0, 70))
        ops = st.dictionaries(st.tuples(parts, parts), coefs, max_size=4).map(
            lambda t: WeylOp(2, t))

        def summed(*values):
            out = {}
            for v in values:
                for k, c in v.terms.items():
                    out[k] = out.get(k, 0) + c
            return WeylOp(2, {k: c for k, c in out.items() if c})

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.example(WeylOp(2, {((127, 0), (0, 0)): 1}), WeylOp(2, {((0, 0), (0, 1)): 1}),
                            WeylOp(2, {((64, 0), (0, 64)): 1}), Fraction(1))
        @hypothesis.given(ops, ops, ops.filter(lambda h: not h.is_zero()), coefs)
        def layout(a, b, h, c):
            pairs = [
                ((a + h) + (-h), a),            # the sum's top degree cancels
                (a - b, summed(a, -1 * b)),
                (-a, WeylOp(2, {k: -v for k, v in a.terms.items()})),
                (c * a + b, summed(WeylOp(2, {k: c * v for k, v in a.terms.items()}), b)),
                (a * 0, WeylOp.zero(2)),
            ]
            for got, want in pairs:
                assert got._terms == want._terms and got.width == want.width
                assert got.width == _width(max(got.total_degree(), 0))
                keyed = dict(got.terms)
                assert WeylOp(2, keyed)._terms == got._terms
                assert got.total_degree() == max((sum(al) + sum(be) for al, be in keyed),
                                                 default=-1)
                with pytest.raises(TypeError):
                    got.terms[((0, 0), (0, 0))] = 1

        layout()

    # a pair is a WeylOp key (alpha, beta), which must hold two tuples of length arity
    @pytest.mark.parametrize("exps", [(1,), (1, 2, 3), ((1,), (0, 0)), ((1, 0), (0,)),
                                      ((1, 0, 0), (0, 0, 0)), ((1,), (0, 0, 0))])
    def test_key_of_another_arity_is_refused(self, exps):
        # packed, it would read back as some other monomial of arity 2
        cls = WeylOp if isinstance(exps[0], tuple) else MultiPoly
        with pytest.raises(ValueError):
            cls(2, {exps: 1})


class TestExactScalars:
    # a scalar is an int or a Fraction; anything else raises instead of
    # being stored as a coefficient
    @pytest.mark.parametrize("combine", [
        pytest.param(lambda: MultiPoly.one(2) * 1.5, id="poly-times-float"),
        pytest.param(lambda: 1.5 * MultiPoly.one(2), id="float-times-poly"),
        pytest.param(lambda: MultiPoly.one(2) + 0.5, id="poly-plus-float"),
        pytest.param(lambda: MultiPoly.constant(2, 0.0), id="float-zero-constant"),
        pytest.param(lambda: MultiPoly.one(2) + UniPoly.variable("s"), id="poly-plus-unipoly"),
        pytest.param(lambda: UniPoly.variable("s") + MultiPoly.one(2), id="unipoly-plus-poly"),
        pytest.param(lambda: WeylOp.euler(2) * UniPoly.variable("s"), id="op-times-unipoly"),
        pytest.param(lambda: UniPoly.variable("s") * MultiPoly.one(2), id="unipoly-times-poly"),
        pytest.param(lambda: UniPoly.variable("s") * 0.5, id="unipoly-times-float"),
        pytest.param(lambda: UniPoly.constant("s", 2.0), id="float-unipoly-constant"),
        pytest.param(lambda: UniPoly("s", (1, 2, 3)).shift(0.5), id="unipoly-shift-float"),
        pytest.param(lambda: UniPoly("s", (1, 2, 3)).shift(0.0), id="unipoly-shift-float-zero"),
        pytest.param(lambda: UniPoly("s", (1, 2, 3)).scale_arg(0.5), id="unipoly-scale-float"),
        pytest.param(lambda: UniPoly("s", (1, 2, 3)).scale_arg(UniPoly.variable("s")),
                     id="unipoly-scale-by-unipoly"),
    ])
    def test_inexact_or_foreign_scalar_raises(self, combine):
        with pytest.raises(TypeError):
            combine()


class TestUniPoly:
    def test_shift_binomial(self):
        t_sq = UniPoly("s", (0, 0, 1))
        assert t_sq.shift(1) == UniPoly("s", (1, 2, 1))

    def test_shift_zero_is_identity(self):
        p = UniPoly("s", (3, Fraction(-1, 2), 0, 5))
        assert p.shift(0) == p
        assert p.shift(0) is p

    def test_shift_involution_random(self):
        rng = random.Random(99)
        for _ in range(40):
            p = UniPoly("s", [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(rng.randint(0, 6))])
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert p.shift(a).shift(-a) == p

    def test_shift_matches_expanded_powers(self):
        # p(t + sigma) = sum_k c_k (t + sigma)^k, expanded with UniPoly * and +
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rationals = st.one_of(st.integers(-9, 9),
                              st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
        polys = st.lists(rationals, max_size=9).map(lambda cs: UniPoly("s", cs))

        @hypothesis.settings(max_examples=300)
        @hypothesis.given(polys, rationals)
        def taylor(p, sigma):
            lin = UniPoly("s", (sigma, 1))
            expected = UniPoly.zero("s")
            for k, c in enumerate(p.coeffs):
                expected = expected + lin ** k * c
            assert p.shift(sigma) == expected

        taylor()

    def test_shift_of_contraction_polynomial(self):
        # B(t) = (t/2 + 1)(t/2 + 2); shifted by -2 it vanishes at t = 0
        B = UniPoly("theta", (2, Fraction(3, 2), Fraction(1, 4)))
        assert B.shift(-2).evaluate(0) == 0
        assert B.evaluate(-2) == 0

    def test_symbol_mismatch(self):
        with pytest.raises(ValueError):
            UniPoly("s", (1,)) + UniPoly("theta", (1,))

    def test_monic(self):
        p = UniPoly("s", (4, 6, 2))
        lead, mono = p.monic()
        assert lead == 2
        assert mono == UniPoly("s", (2, 3, 1))

    def test_scale_arg(self):
        p = UniPoly("s", (1, 2, 4))     # 4t^2 + 2t + 1
        assert p.scale_arg(Fraction(1, 2)) == UniPoly("s", (1, 1, 1))


def schoolbook_product(a, b):
    """All-Fraction product of two coefficient lists, low to high."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def schoolbook_shift(a, sigma):
    """All-Fraction coefficients of sum_k a_k (t + sigma)^k, by the binomial theorem."""
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += Fraction(c) * comb(k, j) * Fraction(sigma) ** (k - j)
    return out


def assert_same_poly(got, want):
    assert got == want
    assert not got.coeffs or got.coeffs[-1] != 0
    assert hash(got) == hash(want)


class TestCommonDenominatorKernel:
    """UniPoly products and Taylor shifts against all-Fraction schoolbook arithmetic.

    The operands mix int and Fraction coefficients, negative values,
    interior zeros, and denominators that are coprime (3 and 64) or share a
    factor (6 and 10, whose lcm 30 is not their product 60).
    """

    @staticmethod
    def strategies():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        dens = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 27, 64])
        fractions = st.builds(Fraction, st.integers(-40, 40), dens)
        coeffs = st.one_of(st.integers(-20, 20), st.just(0), fractions)
        polys = st.lists(coeffs, max_size=8).map(lambda cs: UniPoly("theta", cs))
        return hypothesis, st, fractions, polys

    def test_product_property(self):
        hypothesis, _, _, polys = self.strategies()

        @hypothesis.settings(max_examples=400)
        @hypothesis.given(polys, polys)
        def product(p, q):
            assert_same_poly(p * q, UniPoly("theta", schoolbook_product(p.coeffs, q.coeffs)))

        product()

    def test_shift_property(self):
        hypothesis, st, fractions, polys = self.strategies()

        @hypothesis.settings(max_examples=400)
        @hypothesis.given(polys, st.one_of(st.integers(-12, 12), fractions))
        def shifted(p, sigma):
            assert_same_poly(p.shift(sigma), UniPoly("theta", schoolbook_shift(p.coeffs, sigma)))

        shifted()


def assert_canonical(p):
    """p is stored as int numerators over a positive int denominator, in lowest terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int for n in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1


class TestCanonicalStorage:
    """One stored form per value: no trailing zero numerator, den > 0, gcd(den, *nums) == 1."""

    def test_storage_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # ints and Fractions whose denominators share factors, then trailing zeros
        rationals = st.one_of(st.integers(-12, 12), st.builds(
            Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 12])))
        lists = st.tuples(st.lists(rationals, max_size=6),
                          st.lists(st.sampled_from([0, Fraction(0)]), max_size=3))
        coeff_lists = lists.map(lambda parts: parts[0] + parts[1])

        @hypothesis.settings(max_examples=400)
        @hypothesis.given(coeff_lists, coeff_lists, rationals)
        def canonical(a, b, c):
            p, q = UniPoly("s", a), UniPoly("s", b)
            for r in (p, q, p + q, p - q, -p, p * q, p * c, c * p, p.shift(c),
                      p.scale_arg(c), p.with_symbol("theta")):
                assert_canonical(r)
            # coeffs gives the input back, an int wherever a value is integral
            values = list(a)
            while values and values[-1] == 0:
                values.pop()
            assert list(p.coeffs) == values
            assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in p.coeffs)
            # equal values are equal and hash equal, however they were reached
            for one, other in ((p, UniPoly("s", map(Fraction, a))), ((p + q) - q, p),
                               (p * q, q * p), (p * 2 * Fraction(1, 2), p)):
                assert one == other and hash(one) == hash(other)

        canonical()

    def test_zero_is_empty_over_one(self):
        zero = UniPoly("s", (0, Fraction(0, 5)))
        assert (zero.nums, zero.den) == ((), 1)
        assert zero.shift(Fraction(1, 3)) is zero
        assert UniPoly("s", (Fraction(1, 2),)) * 0 == zero

    def test_float_coefficient_raises(self):
        # the bare constructor reads .numerator and .denominator
        with pytest.raises(AttributeError):
            UniPoly("s", (1, 0.5))


class TestRationalRoots:
    def test_two_linear_factors(self):
        p = UniPoly.from_offsets("s", [1, 2])      # (s+1)(s+2)
        assert rational_roots(p) == [Fraction(-2), Fraction(-1)]

    def test_half_integer_root(self):
        # the symmetric-matrix row at n=2: (s+1)(s+3/2)
        p = UniPoly.from_offsets("s", [1, Fraction(3, 2)])
        assert rational_roots(p) == [Fraction(-3, 2), Fraction(-1)]

    def test_irrational_factor_ignored(self):
        p = UniPoly("s", (1, 0, 1)) * UniPoly.from_offsets("s", [1])  # (s^2+1)(s+1)
        assert rational_roots(p) == [Fraction(-1)]

    def test_multiplicity(self):
        p = UniPoly.from_offsets("s", [1, 1, Fraction(5, 3)])
        assert rational_roots(p) == [Fraction(-5, 3), Fraction(-1), Fraction(-1)]

    def test_zero_roots(self):
        p = UniPoly("s", (0, 0, 1, 1))   # s^2(s+1)
        assert rational_roots(p) == [Fraction(-1), Fraction(0), Fraction(0)]

    def test_all_returned_are_roots_random(self):
        rng = random.Random(4242)
        for _ in range(30):
            offsets = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 4))]
            p = UniPoly.from_offsets("s", offsets)
            if rng.random() < 0.5:
                p = p * UniPoly("s", (2, 0, 1))    # irreducible s^2 + 2
            roots = rational_roots(p)
            assert all(p.evaluate(r) == 0 for r in roots)
            for o in offsets:
                assert roots.count(-o) >= offsets.count(o) and -o in roots

    def test_offsets_are_the_negated_roots_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.lists(rationals, max_size=5))
        def roots_of_product(offsets):
            p = UniPoly.from_offsets("s", offsets)
            expected = sorted(-o for o in offsets)
            assert rational_roots(p) == expected
            assert rational_roots(p * UniPoly("s", (2, 0, 1))) == expected   # s^2 + 2

        roots_of_product()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(UniPoly.zero("s"))


class TestPower:
    def test_multiplies_left_to_right(self):
        # string concatenation is not commutative, so the order shows
        assert power("x", 3, "1", lambda acc, x: f"({acc}*{x})") == "(((1*x)*x)*x)"
        assert power("x", 0, "1", None) == "1"

    @pytest.mark.parametrize("n", [-1, 1.0, Fraction(1)])
    def test_exponent_validated(self, n):
        with pytest.raises(ValueError):
            power("x", n, "1", lambda acc, x: acc + x)

    def test_polynomial_powers_agree(self):
        p = x(0) + 2 * x(1) - 1
        assert p ** 3 == p * p * p and p ** 0 == MultiPoly.one(2)
        u = UniPoly("s", (1, 1))
        assert u ** 3 == UniPoly("s", (1, 3, 3, 1)) and u ** 0 == UniPoly("s", (1,))
