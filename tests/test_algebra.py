import itertools
import random
from fractions import Fraction

import pytest

from capelli import algebra
from capelli.algebra import (DELTA, F, GENERATORS, THETA, AElement, APresentation,
                             a_add, a_mul, a_neg, a_pow, a_sub, confluence_exhaustive,
                             confluence_fuzz, from_word)
from capelli.bfunction import presentation_for
from capelli.catalog import instantiate
from capelli.poly import UniPoly, rational_roots


@pytest.fixture(scope="module")
def pres4():
    return presentation_for(instantiate(4, 2))


@pytest.fixture(scope="module")
def pres1():
    return presentation_for(instantiate(1, 2))


def random_element(rng, pres, span=2, max_deg=2):
    parts = {}
    for key in range(-span, span + 1):
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_deg + 1))]
            p = UniPoly(THETA, coeffs)
            if not p.is_zero():
                parts[key] = p
    return AElement(pres, parts)


def graded_components(x):
    """The theta-adjoint-degree homogeneous pieces of x, keyed by the degree."""
    return {k * x.pres.d: AElement(x.pres, {k: p}) for k, p in x.parts.items()}


class TestPresentation:
    def test_from_b_checks_degree(self):
        with pytest.raises(ValueError):
            APresentation.from_b(3, 1, UniPoly.from_offsets("s", [1, 2]))

    def test_from_b_checks_constant(self):
        with pytest.raises(ValueError):
            APresentation.from_b(2, -1, UniPoly.from_offsets("s", [1, 2]))

    def test_relation_needs_root_at_minus_one(self):
        # without the factor (s+1), B(-d) != 0
        with pytest.raises(ValueError):
            APresentation.from_b(2, 1, UniPoly.from_offsets("s", [2, 3]))

    def test_b_data_roundtrip(self, pres4):
        rebuilt = APresentation(d=pres4.d, B=pres4.B)
        assert rebuilt.b_monic == pres4.b_monic
        assert rebuilt.c == pres4.c

    def test_memo_keeps_equality_and_hash(self, pres4):
        filled = APresentation(d=pres4.d, B=pres4.B)
        fresh = APresentation(d=pres4.d, B=pres4.B)
        from_word(filled, [F, F, DELTA, DELTA, F])
        assert filled.B_shift(-1) == pres4.B.shift(-pres4.d)
        assert filled.b_roots() == tuple(rational_roots(pres4.b_monic))
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)

    def test_integral_fraction_coefficients_equal_ints(self, pres1):
        # B = (theta + 2)^2 of (1,2), stored with Fraction or with int coefficients
        as_fractions = UniPoly(THETA, (Fraction(4), Fraction(4), Fraction(1)))
        as_ints = UniPoly(THETA, (4, 4, 1))
        assert as_fractions == as_ints == pres1.B
        assert hash(as_fractions) == hash(as_ints)
        a = APresentation(d=2, B=as_fractions)
        b = APresentation(d=2, B=as_ints)
        assert a == b and hash(a) == hash(b)
        word = [DELTA, F, F, THETA, DELTA]
        assert from_word(a, word).parts == from_word(b, word).parts

    def test_memo_is_per_presentation(self, pres4, pres1):
        # same d, different B: each presentation shifts its own B
        assert pres4.d == pres1.d and pres4.B != pres1.B
        a = APresentation(d=pres4.d, B=pres4.B)
        b = APresentation(d=pres1.d, B=pres1.B)
        for t in (-2, -1, 0, 1, 2):
            assert a.B_shift(t) == pres4.B.shift(t * pres4.d)
            assert b.B_shift(t) == pres1.B.shift(t * pres1.d)
        assert a.b_roots() == tuple(rational_roots(pres4.b_monic))
        assert b.b_roots() == tuple(rational_roots(pres1.b_monic)) != a.b_roots()


def test_theta_products_run_through_unipoly(pres4, monkeypatch):
    # a basis product shifts and multiplies UniPolys, the methods the tracer times
    pres = APresentation(d=pres4.d, B=pres4.B)
    delta, f2 = from_word(pres, [DELTA]), from_word(pres, [F, F])
    calls = []
    mul, shift = UniPoly.__mul__, UniPoly.shift
    monkeypatch.setattr(UniPoly, "__mul__", lambda p, q: calls.append("mul") or mul(p, q))
    monkeypatch.setattr(UniPoly, "shift", lambda p, s: calls.append("shift") or shift(p, s))
    assert a_mul(delta, f2) == from_word(pres4, [DELTA, F, F])
    assert {"mul", "shift"} <= set(calls)


E0 = {0: UniPoly.constant("s", 1)}       # f^s, the vector e_0


def _act(x, vector):
    """x applied to sum_j c_j(s) e_j in the faithful module of sums of
    Q[s] f^(s+k): theta e_k = d(s+k) e_k, f e_k = e_(k+1), and
    Delta e_k = B(d(s+k-1)) e_(k-1).  A theta-polynomial p meets e_j as
    p(d(s+j)), read off p itself, never off APresentation.B_shift."""
    d = x.pres.d

    def at(p, j):
        return p.scale_arg(d).with_symbol("s").shift(j)

    out = {}
    for key, p in x.parts.items():
        for j, c in vector.items():
            if key >= 0:
                c, j = at(p, j) * c, j + key
            else:
                for _ in range(-key):
                    c, j = at(x.pres.B, j - 1) * c, j - 1
                c = at(p, j) * c
            out[j] = out[j] + c if j in out else c
    return {j: c for j, c in out.items() if not c.is_zero()}


def _acts_as_product(x, y):
    """a_mul(x, y) e_0 == x (y e_0); on e_0 the action is faithful, so this
    pins the product itself."""
    return _act(a_mul(x, y), E0) == _act(x, _act(y, E0))


def _failing_short_pairs(key):
    """The pairs (u, v) of generator words with |u| + |v| <= 5 whose normal
    forms a_mul multiplies wrongly, on a presentation whose memo starts
    empty; the normal forms are grown one generator at a time."""
    built = presentation_for(instantiate(*key))
    pres = APresentation(d=built.d, B=built.B)
    nf = {(): AElement.scalar(pres, 1)}
    layer = [()]
    for _ in range(5):
        layer = [w + (g,) for w in layer for g in GENERATORS]
        for w in layer:
            nf[w] = a_mul(nf[w[:-1]], AElement.generator(pres, w[-1]))
    pairs = [(u, v) for u in nf for v in nf if len(u) + len(v) <= 5]
    assert len(pairs) == 2005
    return [(u, v) for u, v in pairs if not _acts_as_product(nf[u], nf[v])]


@pytest.mark.parametrize("key", [(1, 2), (4, 3), (2, 4)], ids=lambda k: "case%d-size%d" % k)
def test_words_match_fresh_shifts(key):
    assert _failing_short_pairs(key) == []


@pytest.mark.parametrize("key", [(1, 2), (4, 3), (2, 4)], ids=lambda k: "case%d-size%d" % k)
def test_short_words_catch_planted_fault(key, planted_fault):
    assert len(_failing_short_pairs(key)) == 28


@pytest.mark.parametrize("key", [(1, 2), (4, 3), (2, 4)], ids=lambda k: "case%d-size%d" % k)
def test_numerator_chain_matches_reference_property(key):
    # single basis words with rational theta-polynomials: the one-chain
    # product acts as the product, and gives an int wherever it can
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pres = presentation_for(instantiate(*key))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    polys = st.lists(coeffs, min_size=1, max_size=5).map(
        lambda cs: UniPoly(THETA, cs)).filter(lambda p: not p.is_zero())
    keys = st.integers(-4, 4)

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(keys, polys, keys, polys)
    def chain(k1, p1, k2, p2):
        x, y = AElement(pres, {k1: p1}), AElement(pres, {k2: p2})
        assert _acts_as_product(x, y)
        got = a_mul(x, y)
        for p in got.parts.values():
            assert all(type(c) is int or c.denominator != 1 for c in p.coeffs)

    chain()


class TestFromWord:
    def test_euler_commutator(self, pres4):
        got = a_sub(from_word(pres4, [THETA, F]), from_word(pres4, [F, THETA]))
        expected = a_mul(AElement.scalar(pres4, pres4.d), from_word(pres4, [F]))
        assert got == expected

    def test_delta_f_contracts(self, pres4):
        assert from_word(pres4, [DELTA, F]) == AElement(pres4, {0: pres4.B})

    def test_f_delta_contracts_shifted(self, pres4):
        got = from_word(pres4, [F, DELTA])
        assert got == AElement(pres4, {0: pres4.B.shift(-pres4.d)})

    def test_sandwich_word(self, pres4):
        got = from_word(pres4, [DELTA, F, DELTA])
        assert got == AElement(pres4, {-1: pres4.B})

    def test_scalar_tokens(self, pres4):
        got = from_word(pres4, [Fraction(3, 2), F, Fraction(2)])
        expected = a_mul(AElement.scalar(pres4, 3), from_word(pres4, [F]))
        assert got == expected


class TestArithmetic:
    def test_mul_matches_from_word(self, pres4):
        assert a_mul(from_word(pres4, [F]), from_word(pres4, [DELTA])) == \
            from_word(pres4, [F, DELTA])

    def test_two_rewriting_routes(self, pres4):
        got = a_mul(from_word(pres4, [DELTA]), from_word(pres4, [F, F]))
        assert got == from_word(pres4, [DELTA, F, F])

    def test_unit(self, pres4):
        one = AElement.scalar(pres4, 1)
        x = from_word(pres4, [F, THETA, DELTA])
        assert a_mul(one, x) == x
        assert a_mul(x, one) == x

    def test_add_zero(self, pres4):
        x = from_word(pres4, [F, THETA])
        assert a_add(x, AElement.zero(pres4)) == x

    def test_add_cancellation(self, pres4):
        x = from_word(pres4, [F, THETA])
        assert a_add(x, a_neg(x)).is_zero()

    def test_relation_as_identity(self, pres4):
        # Delta f - B(theta) = 0 in the algebra
        diff = a_sub(from_word(pres4, [DELTA, F]), AElement(pres4, {0: pres4.B}))
        assert diff.is_zero()

    def test_presentation_mismatch(self, pres4, pres1):
        with pytest.raises(ValueError):
            a_mul(from_word(pres4, [F]), from_word(pres1, [F]))

    def test_associativity_random(self, pres4):
        rng = random.Random(1234)
        for _ in range(40):
            x = random_element(rng, pres4)
            y = random_element(rng, pres4)
            z = random_element(rng, pres4)
            assert a_mul(a_mul(x, y), z) == a_mul(x, a_mul(y, z))
            assert a_mul(x, a_add(y, z)) == a_add(a_mul(x, y), a_mul(x, z))

    def test_power(self, pres4):
        w = from_word(pres4, [F, DELTA])
        assert a_pow(w, 2) == a_mul(w, w)
        assert a_pow(w, 0) == AElement.scalar(pres4, 1)


class TestGrading:
    def test_component_degrees(self, pres4):
        x = a_add(a_add(from_word(pres4, [F, F, THETA]),
                        from_word(pres4, [THETA, THETA, THETA])),
                  from_word(pres4, [DELTA]))
        comps = graded_components(x)
        assert sorted(comps) == [-pres4.d, 0, 2 * pres4.d]

    def test_contraction_is_degree_zero(self, pres4):
        comps = graded_components(from_word(pres4, [DELTA, F]))
        assert list(comps) == [0]

    def test_graded_ring_axiom_random(self, pres4):
        rng = random.Random(555)
        for _ in range(20):
            u = random_element(rng, pres4)
            v = random_element(rng, pres4)
            cu = graded_components(u)
            cv = graded_components(v)
            product = graded_components(a_mul(u, v))
            for k in set(product):
                total = AElement.zero(pres4)
                for i, ui in cu.items():
                    for j, vj in cv.items():
                        if i + j == k:
                            total = a_add(total, a_mul(ui, vj))
                assert product[k] == total

    def test_adjoint_theta_eigenvalue(self, pres4):
        # [theta, x_k] = k * x_k for a homogeneous component of degree k
        theta = from_word(pres4, [THETA])
        x = a_add(from_word(pres4, [F, F]), from_word(pres4, [DELTA, THETA]))
        for k, comp in graded_components(x).items():
            bracket = a_sub(a_mul(theta, comp), a_mul(comp, theta))
            assert bracket == a_mul(AElement.scalar(pres4, k), comp)


def pair_id(key):
    return "case%d-size%d" % key


# one pair each with d = 2, 3 and 4
PAIRS_D234 = [(4, 2), (4, 3), (8, 4)]


class TestConfluence:
    @pytest.mark.parametrize("key", PAIRS_D234, ids=pair_id)
    def test_fuzz_clean(self, key, min_presentations):
        report = confluence_fuzz(min_presentations[key], trials=300, seed=42)
        assert report.passed
        assert report.trials == 300

    @pytest.mark.parametrize("key", [(1, 2), (4, 3), (8, 4)], ids=pair_id)
    def test_exhaustive_small(self, key, min_presentations):
        report = confluence_exhaustive(min_presentations[key], 4)
        assert report.passed
        assert report.words_checked == 3 + 9 + 27 + 81

    @pytest.mark.parametrize("key", PAIRS_D234, ids=pair_id)
    def test_mul_associative_property(self, key, min_presentations):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pres = min_presentations[key]
        polys = st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                         min_size=1, max_size=3)
        elements = st.dictionaries(st.integers(-3, 3), polys, max_size=3).map(
            lambda parts: AElement(pres, {k: p for k, cs in parts.items()
                                          if not (p := UniPoly(THETA, cs)).is_zero()}))

        @hypothesis.settings(max_examples=60)
        @hypothesis.given(elements, elements, elements)
        def associative(x, y, z):
            assert a_mul(a_mul(x, y), z) == a_mul(x, a_mul(y, z))

        associative()

    def test_overlap_word_two_routes(self, pres4):
        # Delta f Delta f reduced either way gives B(theta)^2
        left = a_mul(from_word(pres4, [DELTA, F]), from_word(pres4, [DELTA, F]))
        whole = from_word(pres4, [DELTA, F, DELTA, F])
        assert left == whole == AElement(pres4, {0: pres4.B * pres4.B})

    def test_trials_validated(self, pres4):
        with pytest.raises(ValueError):
            confluence_fuzz(pres4, trials=0, seed=1)

    def test_fuzz_forms_both_associations(self, pres4, monkeypatch):
        # every trial multiplies its split u, v, w as u(vw) and as (uv)w
        calls = []          # (x, y, x*y), all kept alive so that ids stay unique
        right = algebra.a_mul

        def spy(x, y):
            out = right(x, y)
            calls.append((x, y, out))
            return out

        monkeypatch.setattr(algebra, "a_mul", spy)
        report = confluence_fuzz(pres4, trials=40, seed=5)
        assert report.passed
        made = {id(out): (x, y) for x, y, out in calls}
        left_first = {(id(u), id(v), id(w)) for uv, w, _ in calls if id(uv) in made
                      for u, v in [made[id(uv)]]}
        right_first = {(id(u), id(v), id(w)) for u, vw, _ in calls if id(vw) in made
                       for v, w in [made[id(vw)]]}
        assert len(left_first & right_first) == 40


def right_fold(pres, word):
    """The right-to-left reduction of one word, from scratch."""
    out = AElement.scalar(pres, 1)
    for g in reversed(word):
        out = a_mul(AElement.generator(pres, g), out)
    return out


# the words confluence_fuzz(pres, 200, 3) draws that meet the planted fault
FAULT_FUZZ_WORDS = [
    [F, F, DELTA, DELTA, F, F],
    [DELTA, THETA, THETA, F, DELTA, F, F],
    [DELTA, THETA, THETA, THETA, DELTA, F, F],
    [DELTA, F, F, DELTA, F, THETA],
    [DELTA, F, F, THETA],
    [DELTA, F, F, F, DELTA, F, THETA, F],
    [DELTA, F, F, F, DELTA, F, THETA, F],
    [DELTA, Fraction(-1, 3), F, F, THETA],
    [THETA, F, DELTA, F, Fraction(-1), F],
    [DELTA, F, F, Fraction(-1)],
    [F, THETA, THETA, DELTA, F, F, THETA],
    [THETA, F, DELTA, DELTA, F, F, THETA],
    [DELTA, THETA, F, F, DELTA, THETA, F],
]


class TestConfluenceCatchesFault:
    @pytest.mark.parametrize("key", [(4, 2), (4, 3)], ids=pair_id)
    def test_exhaustive_reports_each_failing_word(self, key, min_presentations, planted_fault):
        pres = min_presentations[key]
        expected = [list(w) for n in range(1, 6) for w in itertools.product(GENERATORS, repeat=n)
                    if from_word(pres, w) != right_fold(pres, w)]
        report = confluence_exhaustive(pres, 5)
        assert len(expected) == 34 and expected[0] == [DELTA, F, F]
        assert report.discrepancies == expected
        assert report.words_checked == 3 + 9 + 27 + 81 + 243

    @pytest.mark.parametrize("key", [(4, 2), (4, 3)], ids=pair_id)
    def test_fuzz_reports_each_failing_word(self, key, min_presentations, planted_fault):
        report = confluence_fuzz(min_presentations[key], 200, 3)
        assert report.discrepancies == FAULT_FUZZ_WORDS
        assert (report.trials, report.words_checked) == (200, 200)


class TestPower:
    def test_negative_exponent_rejected(self, pres4):
        with pytest.raises(ValueError):
            a_pow(AElement.generator(pres4, F), -1)
