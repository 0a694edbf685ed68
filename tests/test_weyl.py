import random
from fractions import Fraction
from math import factorial

import pytest

from capelli import weyl
from capelli.catalog import instantiate
from capelli import poly
from capelli.poly import MultiPoly, UniPoly
from capelli.weyl import (NotProportional, TwistedElement, WeylOp, commutator,
                          f_power_element, twisted_add, twisted_apply, twisted_canonical,
                          twisted_scalar_profile, weyl_apply, weyl_mul)


def twisted_specialize(e, k, f):
    """The plain polynomial q|_{s=k} * f^(k-m) of e = q * f^(s-m), for an int k >= m."""
    return e.q.substitute_last(k) * f ** (k - e.m)


def random_op(rng, arity, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(arity))
        b = tuple(rng.randint(0, max_exp) for _ in range(arity))
        c = rng.randint(-5, 5)
        if c:
            terms[(a, b)] = terms.get((a, b), 0) + c
    return WeylOp(arity, {k: c for k, c in terms.items() if c})


def random_poly(rng, arity, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(arity))
        c = rng.randint(-5, 5)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MultiPoly(arity, {e: c for e, c in terms.items() if c})


class TestWeylMul:
    def test_canonical_commutation(self):
        d1 = WeylOp.partial(1, 0)
        x1 = WeylOp.from_poly(MultiPoly.variable(1, 0))
        got = weyl_mul(d1, x1)
        expected = weyl_mul(x1, d1) + WeylOp.constant(1, 1)
        assert got == expected

    def test_theta_f_commutator_dim2(self):
        # Leibniz on sum(x_i d_i) against x1^2 + x2^2: [theta, f] = 2 f
        f = (MultiPoly.variable(2, 0) ** 2 + MultiPoly.variable(2, 1) ** 2)
        theta = WeylOp.euler(2)
        f_op = WeylOp.from_poly(f)
        assert commutator(theta, f_op) == 2 * f_op

    def test_associativity_random(self):
        rng = random.Random(31337)
        for _ in range(25):
            a = random_op(rng, 2)
            b = random_op(rng, 2)
            c = random_op(rng, 2)
            assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            weyl_mul(WeylOp.euler(2), WeylOp.euler(3))


class TestWeylApply:
    def test_mul_consistent_with_apply(self):
        rng = random.Random(777)
        for _ in range(25):
            a = random_op(rng, 2)
            b = random_op(rng, 2)
            p = random_poly(rng, 2)
            assert weyl_apply(weyl_mul(a, b), p) == weyl_apply(a, weyl_apply(b, p))

    def test_euler_on_homogeneous(self):
        inst = instantiate(4, 2)
        assert weyl_apply(inst.theta, inst.f) == 2 * inst.f

    def test_cayley_constant(self):
        # det(d) applied to det(x) at n=2 gives b(0) = 2 by direct differentiation
        inst = instantiate(4, 2)
        assert weyl_apply(inst.delta, inst.f) == MultiPoly.constant(4, 2)

    def test_delta_kills_constants(self):
        inst = instantiate(4, 2)
        assert weyl_apply(inst.delta, MultiPoly.one(4)).is_zero()


def naive_apply(a, p):
    """Tuple-keyed reference for weyl_apply: x^alpha d^beta on each x^e."""
    out = {}
    for (alpha, beta), c in a.terms.items():
        for e, pc in p.terms.items():
            if all(x >= b for x, b in zip(e, beta)):
                coef = c * pc
                for x, b in zip(e, beta):
                    coef *= factorial(x) // factorial(x - b)
                ne = tuple(x - b + y for x, b, y in zip(e, beta, alpha))
                out[ne] = out.get(ne, 0) + coef
    return {e: c for e, c in out.items() if c}


def term(arity, alpha, beta, c=1):
    return WeylOp(arity, {(tuple(alpha), tuple(beta)): c})


class TestPackedApply:
    """weyl_apply groups the monomials by their exponents capped at B, the
    operator's largest beta entry, and tests e >= beta once per class and
    operator term, in every packed field at once through a guard bit per
    field; no field may borrow from or carry into the next.  A member of a
    surviving class has its exponents read once; a field with beta_i = 1
    multiplies in e_i, one with beta_i >= 2 the falling factorial perm."""

    @pytest.mark.parametrize("k", [0, 1, 126, 127, 128, 255, 256, 300])
    def test_no_borrow_from_the_next_variable(self, k):
        # d_1 on x_1^0 x_2^k, and d_2 on x_1^k x_2^0: both are zero
        assert weyl_apply(WeylOp.partial(2, 0), MultiPoly.monomial(2, (0, k))).is_zero()
        assert weyl_apply(WeylOp.partial(2, 1), MultiPoly.monomial(2, (k, 0))).is_zero()

    def test_high_derivative_of_a_wide_field(self):
        d130 = term(1, (0,), (130,))
        assert weyl_apply(d130, MultiPoly.monomial(1, (200,))).terms == {
            (70,): factorial(200) // factorial(70)}
        assert weyl_apply(d130, MultiPoly.monomial(1, (130,))).terms == {(0,): factorial(130)}
        assert weyl_apply(d130, MultiPoly.monomial(1, (129,))).is_zero()

    @pytest.mark.parametrize("e, alpha, beta", [
        (127, 0, 1), (127, 0, 127), (127, 0, 128), (128, 0, 128), (64, 63, 1),
        (64, 64, 0), (255, 1, 1), (255, 0, 256), (300, 300, 299), (2**16, 0, 1)])
    def test_field_edges(self, e, alpha, beta):
        a = term(2, (alpha, 1), (beta, 0), 3)
        p = MultiPoly(2, {(e, 2): 1, (e - 1, 0): -2, (0, e): 5})
        assert weyl_apply(a, p).terms == naive_apply(a, p)

    def test_arity_zero_and_one(self):
        assert weyl_apply(WeylOp.constant(0, 3), MultiPoly.constant(0, 2)).terms == {(): 6}
        t = MultiPoly.variable(1, 0)
        assert weyl_apply(WeylOp.euler(1), t ** 3 + 1).terms == {(3,): 3}

    @pytest.mark.parametrize("arity", [0, 1, 3])
    def test_zero_operand(self, arity):
        p = MultiPoly.monomial(arity, (255,) * arity, 7)
        assert weyl_apply(WeylOp.zero(arity), p).is_zero()
        assert weyl_apply(WeylOp.one(arity), MultiPoly.zero(arity)).is_zero()

    def test_random_near_the_edges(self):
        rng = random.Random(20261018)
        edges = [0, 1, 2, 63, 64, 127, 128, 129, 255, 256, 300]
        for _ in range(300):
            arity = rng.randint(0, 3)

            def exps():
                return tuple(rng.choice(edges) for _ in range(arity))

            a = WeylOp(arity, {(exps(), exps()): rng.choice([-1, 1, 2])
                               for _ in range(rng.randint(0, 3))})
            p = MultiPoly(arity, {exps(): rng.choice([-3, 1, 2]) for _ in range(rng.randint(0, 4))})
            assert weyl_apply(a, p).terms == naive_apply(a, p)

    def test_class_meets_a_fitting_and_a_failing_term(self):
        # B = 3: x1^5 x2^2 and x1^4 x2^2 share the class (3, 2), which
        # d1^2 fits and d2^3 does not
        a = term(2, (0, 1), (2, 0), 2) + term(2, (1, 0), (0, 3), 5)
        p = MultiPoly(2, {(5, 2): 1, (4, 2): -3})
        assert weyl_apply(a, p).terms == naive_apply(a, p) == {(3, 3): 40, (2, 3): -72}

    def test_cap_127_in_one_byte_fields(self, monkeypatch):
        repacks = []

        def repacked(terms, n, w, w2):
            repacks.append((w, w2))
            return poly._repacked(terms, n, w, w2)

        monkeypatch.setattr(poly, "_repacked", repacked)
        # every exponent, degree, e - beta + alpha and beta is at most 127:
        # one byte per field, the keys used as stored, and the cap fills
        # each field up to its guard bit
        a = term(2, (0, 0), (127, 0)) + term(2, (0, 0), (1, 1), -2)
        p = MultiPoly(2, {(127, 0): 1, (126, 1): 3, (120, 7): -1, (0, 127): 2, (1, 1): 4})
        assert p.width == 8 and max(p._terms) < 1 << 24
        got = weyl_apply(a, p)
        assert repacks == [] and got.width == 8
        assert got.terms == naive_apply(a, p) == {
            (0, 0): factorial(127) - 8, (125, 0): -6 * 126, (119, 6): 1680}
        # one more degree needs a second byte per field
        assert MultiPoly(2, {(127, 1): 1}).width == 16

    def test_monomials_that_differ_above_the_cap(self):
        # B = 2: x1^5 x2 and x1^7 x2 fall in the class (2, 1), yet each
        # keeps its own falling factorials and its own image
        a = term(2, (0, 0), (2, 0)) + term(2, (0, 0), (0, 1), 3)
        p = MultiPoly(2, {(5, 1): 1, (7, 1): 1})
        assert weyl_apply(a, p).terms == naive_apply(a, p) == {
            (3, 1): 20, (5, 1): 42, (5, 0): 3, (7, 0): 3}

    WIDTHS = {0: 8, 200: 16, 2**16: 24}

    @pytest.mark.parametrize("base", WIDTHS)
    def test_term_mixing_first_and_higher_order(self, base):
        # x2 d1 d2^2: e1 from the first-order field, e2 (e2 - 1) from perm;
        # base 200 needs two-byte fields, base 2^16 three
        a = term(2, (0, 1), (1, 2), 3)
        p = MultiPoly(2, {(base + 1, base + 2): 1, (base + 4, base + 5): -2,
                          (0, base + 7): 5, (base + 3, 1): 1})
        assert p.width == self.WIDTHS[base]
        got = weyl_apply(a, p).terms
        assert got == naive_apply(a, p) and len(got) == 2
        if base == 0:
            assert got == {(0, 1): 6, (3, 4): -480}

    @pytest.mark.parametrize("base", WIDTHS)
    def test_class_members_differ_in_a_first_order_field(self, base):
        # B = 2: the three monomials share the class (2, 2) and differ only
        # in x1, which d1 reads off each member
        a = term(2, (0, 0), (1, 0)) + term(2, (0, 0), (0, 2), 3)
        p = MultiPoly(2, {(base + 3, base + 2): 1, (base + 5, base + 2): 2,
                          (base + 2, base + 2): -1})
        assert p.width == self.WIDTHS[base]
        got = weyl_apply(a, p).terms
        assert got == naive_apply(a, p) and len(got) == 6
        if base == 0:
            assert got == {(2, 2): 3, (4, 2): 10, (1, 2): -2, (3, 0): 6, (5, 0): 12,
                           (2, 0): -6}

    def test_cost_shape(self, monkeypatch):
        perms, reads = [], []

        def perm(e, b):
            perms.append(b)
            return factorial(e) // factorial(e - b)

        def exponents(key, n, w):
            reads.append(key)
            return poly._exponents(key, n, w)

        monkeypatch.setattr(weyl, "perm", perm)
        monkeypatch.setattr(weyl, "_exponents", exponents)
        # every beta entry of Delta on (8,4) is 1, and every monomial of f^3
        # survives some term: no falling factorial, one read per monomial
        inst = instantiate(8, 4)
        p = inst.f ** 3
        weyl_apply(inst.delta, p)
        assert (len(perms), len(reads), len(set(reads))) == (0, 1848, 1848)
        # one perm per surviving (member, term, field with beta_i >= 2), and
        # one read per member that some term survives
        perms.clear()
        reads.clear()
        a = term(2, (0, 1), (1, 2), 3) + term(2, (1, 0), (2, 0)) + term(2, (0, 0), (0, 1), -1)
        p = MultiPoly(2, {(1, 2): 1, (4, 5): -2, (0, 7): 5, (3, 1): 1, (1, 0): 4, (2, 3): 1})
        fits = [(e, beta) for e in p.terms for (_, beta) in a.terms
                if all(x >= b for x, b in zip(e, beta))]
        assert weyl_apply(a, p).terms == naive_apply(a, p)
        assert sorted(perms) == sorted(b for _, beta in fits for b in beta if b >= 2)
        assert len(reads) == len({e for e, _ in fits}) == 5

    def test_mixed_orders_near_the_edges_property(self):
        # operators that mix derivative orders, so B exceeds some terms'
        # beta entries, with alpha != 0 and exponents at the field edges
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        edges = st.sampled_from([0, 1, 2, 63, 64, 127, 128, 129, 255, 256, 300])

        @st.composite
        def cases(draw):
            arity = draw(st.integers(0, 3))
            exps = st.tuples(*[edges] * arity)
            low = st.tuples(*[st.integers(0, 2)] * arity)
            alphas = exps.filter(any) if arity else exps
            coefs = st.integers(-4, 4).filter(bool)
            ops = st.dictionaries(st.tuples(alphas, st.one_of(exps, low)), coefs,
                                  min_size=1, max_size=4)
            polys = st.dictionaries(exps, coefs, max_size=5)
            return WeylOp(arity, draw(ops)), MultiPoly(arity, draw(polys))

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(cases())
        def agrees(case):
            a, p = case
            assert weyl_apply(a, p).terms == naive_apply(a, p)

        agrees()

    def test_delta_on_a_catalog_power(self):
        # (8,4): Delta has 24 terms and f^3 has 1,848, the shape the
        # annihilation check differentiates up to f^5
        inst = instantiate(8, 4)
        p = inst.f ** 3
        assert (len(inst.delta.terms), len(p.terms)) == (24, 1848)
        assert weyl_apply(inst.delta, p).terms == naive_apply(inst.delta, p)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_product_acts_as_composition_property(self, arity):
        # weyl_mul and weyl_apply share no code: (ab)p = a(bp)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        exps = st.tuples(*[st.integers(0, 3)] * arity)
        coefs = st.integers(-4, 4).filter(bool)
        ops = st.dictionaries(st.tuples(exps, exps), coefs, max_size=4).map(
            lambda terms: WeylOp(arity, terms))
        polys = st.dictionaries(exps, coefs, max_size=5).map(
            lambda terms: MultiPoly(arity, terms))

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(ops, ops, polys)
        def acts(a, b, p):
            assert weyl_apply(weyl_mul(a, b), p) == weyl_apply(a, weyl_apply(b, p))

        acts()


def assert_no_zero_stored(value):
    assert all(c != 0 for c in value.terms.values()), value.terms


class TestNoZeroStored:
    """weyl_mul and weyl_apply store no zero coefficient, on inputs built to cancel."""

    def test_rotation_kills_the_invariant(self):
        # x1 d2 - x2 d1 sends x1^2 + x2^2 to 2 x1 x2 - 2 x1 x2
        rot = WeylOp(2, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1})
        r2 = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        for k in range(1, 4):
            got = weyl_apply(rot, r2 ** k)
            assert got.terms == {}

    def test_commuting_operators(self):
        # x1 d1 and x2 d2 commute: the two products cancel term by term
        a = WeylOp(2, {((1, 0), (1, 0)): 1})
        b = WeylOp(2, {((0, 1), (0, 1)): 1})
        assert (weyl_mul(a, b) - weyl_mul(b, a)).terms == {}
        # (d1 + x1)(d1 - x1) = d1^2 - 1 - x1^2: -d1 x1 and x1 d1 leave
        # -x1 d1 and +x1 d1, which cancel inside weyl_mul
        d1 = WeylOp.partial(2, 0)
        x1 = WeylOp.from_poly(MultiPoly.variable(2, 0))
        got = weyl_mul(d1 + x1, d1 - x1)
        assert got == weyl_mul(d1, d1) - 1 - weyl_mul(x1, x1)
        assert_no_zero_stored(got)

    def test_products_and_applications_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        exps = st.tuples(*[st.integers(0, 2)] * 2)
        coefs = st.integers(-3, 3).filter(bool)
        ops = st.dictionaries(st.tuples(exps, exps), coefs, max_size=4).map(
            lambda terms: WeylOp(2, terms))
        polys = st.dictionaries(exps, coefs, max_size=5).map(
            lambda terms: MultiPoly(2, terms))
        rot = WeylOp(2, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1})
        r2 = MultiPoly(2, {(2, 0): 1, (0, 2): 1})

        @hypothesis.settings(max_examples=150)
        @hypothesis.given(ops, ops, polys)
        def no_zero(a, b, p):
            values = [weyl_mul(a, b), weyl_mul(a, b) - weyl_mul(b, a), commutator(a, b),
                      weyl_mul(a + b, a - b), a + b, a - a,
                      weyl_apply(a, p), weyl_apply(a - b, p), weyl_apply(commutator(a, b), p),
                      weyl_apply(rot, r2 * p), weyl_apply(a + rot, r2)]
            for value in values:
                assert_no_zero_stored(value)
            assert values[9] == r2 * weyl_apply(rot, p)

        no_zero()


class TestCatalogCommutators:
    @pytest.mark.parametrize("case_id,size", [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2)])
    def test_relations(self, case_id, size):
        inst = instantiate(case_id, size)
        f_op = WeylOp.from_poly(inst.f)
        assert commutator(inst.theta, f_op) == inst.d * f_op
        assert commutator(inst.theta, inst.delta) == -inst.d * inst.delta


class TestTwisted:
    def test_chain_rule(self):
        # d1 on f^s for f = x^2 + y^2 gives 2 x s f^(s-1)
        inst = instantiate(1, 2)
        e = f_power_element(0, inst.f)
        got = twisted_apply(WeylOp.partial(2, 0), e, inst.f)
        q = (MultiPoly.variable(3, 0) * MultiPoly.variable(3, 2)) * 2
        assert got == TwistedElement(q, 1)

    def test_laplacian_on_quadric(self):
        # hand computation: Laplacian of (x^2+y^2)^(s+1) is 4(s+1)^2 (x^2+y^2)^s
        inst = instantiate(1, 2)
        got = twisted_apply(inst.delta, f_power_element(1, inst.f), inst.f)
        s = MultiPoly.variable(3, 2)
        expected = TwistedElement((s + 1) * (s + 1) * 4, 0)
        assert got == expected

    def test_cayley_identity_n2(self):
        # det(d) det^(s+1) = (s+1)(s+2) det^s
        inst = instantiate(4, 2)
        got = twisted_apply(inst.delta, f_power_element(1, inst.f), inst.f)
        s = MultiPoly.variable(5, 4)
        assert got == TwistedElement((s + 1) * (s + 2), 0)

    def test_canonical_divides_out(self):
        inst = instantiate(1, 2)
        fl = inst.f.with_extra_symbol()
        # f * f^(s-1) is f^s
        assert twisted_canonical(TwistedElement(fl, 1), inst.f) == \
            TwistedElement(MultiPoly.one(3), 0)
        # f^2 * q at level 3 with f not dividing q drops to level 1
        q = MultiPoly.variable(3, 0)
        got = twisted_canonical(TwistedElement(fl * fl * q, 3), inst.f)
        assert got == TwistedElement(q, 1)

    @pytest.mark.parametrize("case_id,size", [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2), (7, 7)])
    def test_bernstein_sato_result_is_level_zero(self, case_id, size):
        inst = instantiate(case_id, size)
        got = twisted_apply(inst.delta, f_power_element(1, inst.f), inst.f)
        assert got.m == 0

    def test_specialization_matches_plain_application(self):
        for case_id, size in [(1, 2), (4, 2)]:
            inst = instantiate(case_id, size)
            image = twisted_apply(inst.delta, f_power_element(1, inst.f), inst.f)
            for k in range(4):
                assert twisted_specialize(image, k, inst.f) == \
                    weyl_apply(inst.delta, inst.f ** (k + 1))

    def test_add_to_zero_needs_no_power_of_f(self, monkeypatch):
        inst = instantiate(1, 2)
        x = TwistedElement(MultiPoly.variable(3, 0), 3)
        zero = TwistedElement(MultiPoly.zero(3), 0)

        def refuse(self, k):
            raise AssertionError("a power of f was computed")

        monkeypatch.setattr(MultiPoly, "__pow__", refuse)
        assert twisted_add(zero, x, inst.f) == x
        assert twisted_add(x, zero, inst.f) == x

    def test_scalar_profile(self):
        inst = instantiate(4, 2)
        image = twisted_apply(inst.delta, f_power_element(1, inst.f), inst.f)
        profile = twisted_scalar_profile(image, inst.f, 0)
        assert profile == UniPoly("s", (2, 3, 1))    # (s+1)(s+2)

    def test_scalar_profile_rejects_non_invariant(self):
        inst = instantiate(1, 2)
        # x1 * f^s is not rho(s) * f^(s+k)
        e = TwistedElement(MultiPoly.variable(3, 0), 0)
        with pytest.raises(NotProportional):
            twisted_scalar_profile(e, inst.f, 0)

    def test_scalar_profile_rejects_mixed_monomial(self):
        inst = instantiate(1, 2)
        x1, s = MultiPoly.variable(3, 0), MultiPoly.variable(3, 2)
        # x1 * s and s + x1 * s depend on x1 beside a positive power of s
        for q in (x1 * s, s + x1 * s):
            with pytest.raises(NotProportional, match="residual"):
                twisted_scalar_profile(TwistedElement(q, 0), inst.f, 0)

    def test_scalar_profile_rejects_division_shortfall(self):
        inst = instantiate(1, 2)
        fl = inst.f.with_extra_symbol()
        # f * f^s is f^(s+1): offset 1 divides once and gives 1
        assert twisted_scalar_profile(TwistedElement(fl, 0), inst.f, 1) == UniPoly("s", (1,))
        # offset 2 needs f^2 in the numerator; the second division fails
        with pytest.raises(NotProportional, match="not divisible"):
            twisted_scalar_profile(TwistedElement(fl, 0), inst.f, 2)


def assert_specializes(op, inst, k, extra=0):
    """twisted_apply at s = j against weyl_apply, which shares none of its code."""
    image = twisted_apply(op, f_power_element(k, inst.f), inst.f)
    j = max(image.m, -k) + extra
    assert twisted_specialize(image, j, inst.f) == weyl_apply(op, inst.f ** (j + k))


class TestTwistedAgainstPlain:
    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_same_support_other_coefficients(self, k):
        # x1 (d1 + d2) + x2 (d1 - d2) + x1 x2 (2 d1 + d2) + 3 d1 d2: three
        # P's on one support, told apart only by their coefficient ratios
        inst = instantiate(1, 2)
        z, e1, e2, e12 = (0, 0), (1, 0), (0, 1), (1, 1)
        op = WeylOp(2, {(e1, e1): 1, (e1, e2): 1, (e2, e1): 1, (e2, e2): -1,
                        (e12, e1): 2, (e12, e2): 1, (z, e12): 3})
        assert_specializes(op, inst, k)

    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_opposite_operators_share_an_entry(self, k):
        # x1 d1 d2 - x2 d1 d2 - 1/2 d1 d2: one entry scaled by 1, -1 and -1/2
        inst = instantiate(4, 2)
        z, d = (0, 0, 0, 0), (1, 0, 0, 1)
        op = WeylOp(4, {((1, 0, 0, 0), d): 1, ((0, 1, 0, 0), d): -1,
                        (z, d): Fraction(-1, 2)})
        assert_specializes(op, inst, k)

    @pytest.mark.parametrize("case_id,size", [(4, 2), (2, 2), (1, 3), (4, 3)])
    def test_specializes_to_plain_application(self, case_id, size):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        inst = instantiate(case_id, size)
        n = inst.f.arity

        def exponents(indices):
            e = [0] * n
            for i in indices:
                e[i] += 1
            return tuple(e)

        parts = st.lists(st.integers(0, n - 1), max_size=3).map(exponents)
        ops = st.dictionaries(st.tuples(parts, parts),
                              st.integers(-3, 3).filter(bool), max_size=4).map(
            lambda terms: WeylOp(n, terms))

        @hypothesis.settings(max_examples=100)
        @hypothesis.given(ops, st.integers(-2, 2), st.integers(0, 1))
        def agrees(op, k, extra):
            assert_specializes(op, inst, k, extra)

        agrees()


class TestSharedTermMap:
    def test_never_equal_to_a_polynomial(self):
        # both have terms == {} and arity 2
        assert MultiPoly.zero(2) != WeylOp.zero(2)
        assert WeylOp.zero(2) != MultiPoly.zero(2)
        assert not MultiPoly.zero(2) == WeylOp.zero(2)

    def test_unhashable(self):
        for value in (MultiPoly.one(2), WeylOp.euler(2)):
            with pytest.raises(TypeError):
                hash(value)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            WeylOp.euler(2) + WeylOp.euler(3)

    def test_scalar_zero_and_self_difference(self):
        op = WeylOp.euler(2) + WeylOp.partial(2, 0)
        assert (0 * op).is_zero() and (op * 0).is_zero()
        assert (op - op).is_zero()
        assert 2 * op == op + op == op * 2

    def test_constants(self):
        theta = WeylOp.euler(2)
        assert WeylOp.one(2) * theta == theta == theta * WeylOp.one(2)
        assert (1 - theta) + theta == WeylOp.constant(2, 1)

    @pytest.mark.parametrize("combine", [
        pytest.param(lambda: MultiPoly.one(2) + WeylOp.one(2), id="poly-plus-op"),
        pytest.param(lambda: MultiPoly.one(2) * WeylOp.euler(2), id="poly-times-op"),
        pytest.param(lambda: WeylOp.euler(2) * MultiPoly.one(2), id="op-times-poly"),
        pytest.param(lambda: WeylOp.one(2) - MultiPoly.one(2), id="op-minus-poly"),
    ])
    def test_polynomial_and_operator_do_not_combine(self, combine):
        # neither is a scalar of the other
        with pytest.raises(TypeError):
            combine()
