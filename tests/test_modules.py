import dataclasses
import random
from fractions import Fraction

import pytest

import capelli
from capelli import algebra, modules
from capelli.algebra import DELTA, F, THETA, AElement, APresentation, from_word
from capelli.bfunction import delta_scalar, presentation_for
from capelli.catalog import instantiate
from capelli.modules import (GradedModule, act, break_points, build_ladder,
                             direct_sum, equivalence_witness, gauge_normalize,
                             ladder_weight, mat_identity, mat_mul, mat_poly,
                             psi_of_ladder, validate)
from capelli.poly import MultiPoly, UniPoly
from capelli.weyl import NotProportional


@pytest.fixture(scope="module")
def inst4():
    return instantiate(4, 2)


@pytest.fixture(scope="module")
def pres4(inst4):
    return presentation_for(inst4)


@pytest.fixture(scope="module")
def inst1():
    return instantiate(1, 2)


@pytest.fixture(scope="module")
def pres1(inst1):
    return presentation_for(inst1)


class TestValidate:
    def test_zero_module(self, pres4):
        assert validate(GradedModule(pres4, {})) == []

    def test_ladder_generic_lambda(self, pres4):
        T = build_ladder(pres4, Fraction(1, 3), (-2, 3))
        assert validate(T) == []

    def test_mutated_d_edge(self, pres4):
        T = build_ladder(pres4, 0, (0, 3))
        alpha = sorted(T.D)[1]
        T.D[alpha][0][0] += 1
        violations = validate(T)
        assert len(violations) == 2
        kinds = {(v.weight, v.kind) for v in violations}
        assert kinds == {(alpha - pres4.d, "delta-f"), (alpha, "f-delta")}

    def test_mutated_f_edge(self, pres4):
        T = build_ladder(pres4, Fraction(1, 2), (0, 4))
        alpha = sorted(T.F)[2]
        T.F[alpha][0][0] += Fraction(5, 3)
        violations = validate(T)
        kinds = {(v.weight, v.kind) for v in violations}
        assert kinds == {(alpha, "delta-f"), (alpha + pres4.d, "f-delta")}

    def test_f_mutation_next_to_vanished_d_edge_is_a_gauge_move(self, pres4):
        # at a break point the adjacent D edge is zero, so rescaling the F
        # edge below it produces an isomorphic module: validate stays clean
        T = build_ladder(pres4, 0, (-3, 1))
        alpha = ladder_weight(pres4, 0, -1)            # D edge at step 0 is b(-1) = 0
        assert T.D[ladder_weight(pres4, 0, 0)][0][0] == 0
        T.F[alpha][0][0] = 7
        assert validate(T) == []

    # lambda = 1/3 puts the weights off the integers, so every shift is fractional
    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), Fraction(1, 3)], ids=str)
    def test_thick_module_with_nilpotent_part(self, pres4, lam):
        # two-dimensional spaces, N a Jordan block, F identity,
        # D_alpha := B((alpha-d) I + N): the relations hold by construction
        d = pres4.d
        N = [[0, 1], [0, 0]]
        weights = [ladder_weight(pres4, lam, k) for k in range(4)]
        dims = {a: 2 for a in weights}
        T = GradedModule(pres4, dims)

        def theta_on(a):
            return [[a, 1], [0, a]]

        for a in weights:
            T.N[a] = [row[:] for row in N]
            if a + d in dims:
                T.F[a] = mat_identity(2)
            else:
                T.f_boundary.add(a)
            if a - d in dims:
                T.D[a] = mat_poly(pres4.B, theta_on(a - d))
            else:
                T.d_boundary.add(a)
        assert validate(T) == []
        # theta acts as alpha I + N, Delta f as B(alpha I + N), and a theta
        # factor next to f or Delta at the weight it meets
        theta, delta_f, f_theta, theta_delta = (
            from_word(pres4, w) for w in ([THETA], [DELTA, F], [F, THETA], [THETA, DELTA]))
        for a in weights:
            assert act(T, theta, a) == {a: theta_on(a)}
            assert act(T, delta_f, a) == {a: mat_poly(pres4.B, theta_on(a))}
        low, high = weights[1], weights[2]
        assert act(T, f_theta, low) == {high: mat_mul(T.F[low], theta_on(low))}
        assert act(T, theta_delta, high) == {low: mat_mul(theta_on(low), T.D[high])}
        # breaking the N intertwine is detected
        T.N[weights[1]] = [[0, 2], [0, 0]]
        kinds = {v.kind for v in validate(T)}
        assert kinds & {"FN", "DN", "delta-f", "f-delta"}

    @pytest.mark.parametrize("plant", [
        pytest.param(lambda T: T.dims.update({0.5: 1}), id="float-weight"),
        pytest.param(lambda T: T.D.update({2: [[0.5]]}), id="float-entry"),
        # an F edge out of the top of the window: no relation reads it
        pytest.param(lambda T: T.F.update({6: [["1/2"]]}), id="string-entry"),
    ])
    def test_inexact_data_raises(self, pres4, plant):
        T = build_ladder(pres4, 0, (0, 3))
        plant(T)
        with pytest.raises(TypeError):
            validate(T)

    def test_B_is_shifted_once_per_weight(self, pres4, monkeypatch):
        shifts = []
        right = UniPoly.shift
        monkeypatch.setattr(UniPoly, "shift", lambda p, w: shifts.append(w) or right(p, w))
        T = build_ladder(pres4, Fraction(1, 3), (-3, 4))
        assert validate(T) == []
        assert len(T.dims) == 8 and len(shifts) <= 8

    def test_non_nilpotent_rejected(self, pres4):
        T = GradedModule(pres4, {Fraction(0): 1})
        T.N[Fraction(0)] = [[1]]
        T.f_boundary.add(Fraction(0))
        T.d_boundary.add(Fraction(0))
        assert [v.kind for v in validate(T)] == ["nilpotent"]


class TestBuildLadder:
    def test_edge_scalars(self, pres4):
        T = build_ladder(pres4, 0, (0, 3))
        edges = [T.D[ladder_weight(pres4, 0, k)][0][0] for k in (1, 2, 3)]
        assert edges == [2, 6, 12]
        assert validate(T) == []

    def test_bottom_edge_would_vanish(self, pres4):
        # the D edge leaving k=0 is out of a [0,*] window, but its scalar
        # b(-1) = 0 marks the bottom of the polynomial ladder
        assert pres4.edge_scalar(-1) == 0
        T = build_ladder(pres4, 0, (0, 3))
        assert ladder_weight(pres4, 0, 0) in T.d_boundary

    def test_generic_half_shift_no_zero_edges(self, pres1):
        T = build_ladder(pres1, Fraction(1, 2), (-3, 3))
        assert all(m[0][0] != 0 for m in T.D.values())

    def test_window_validation(self, pres4):
        with pytest.raises(ValueError):
            build_ladder(pres4, 0, (2, 1))


class TestExactScalarGates:
    @pytest.mark.parametrize("value", [0.1, "1/2"])
    @pytest.mark.parametrize("entry", [
        pytest.param(lambda inst, pres, v: build_ladder(pres, v, (0, 2)), id="build_ladder"),
        pytest.param(lambda inst, pres, v: psi_of_ladder(inst, v, (0, 2), pres=pres),
                     id="psi_of_ladder"),
        pytest.param(lambda inst, pres, v: break_points(pres, v, (0, 2)), id="break_points"),
        pytest.param(lambda inst, pres, v: equivalence_witness(inst, v, (0, 2), pres=pres),
                     id="equivalence_witness"),
        pytest.param(lambda inst, pres, v: ladder_weight(pres, v, 0), id="ladder_weight"),
        pytest.param(lambda inst, pres, v: delta_scalar(inst, v), id="delta_scalar"),
        pytest.param(lambda inst, pres, v: pres.edge_scalar(v), id="edge_scalar"),
        pytest.param(lambda inst, pres, v: MultiPoly.monomial(2, (1, 0), v), id="monomial"),
        pytest.param(lambda inst, pres, v: UniPoly.from_offsets("s", (1, v)),
                     id="from_offsets"),
    ])
    def test_inexact_scalar_raises(self, entry, value, inst4, pres4):
        with pytest.raises(TypeError):
            entry(inst4, pres4, value)

    def test_integral_lambda_as_int_or_fraction(self, inst4, pres4):
        for build in (lambda lam: build_ladder(pres4, lam, (-2, 3)),
                      lambda lam: psi_of_ladder(inst4, lam, (-2, 3), pres=pres4)):
            as_int, as_fraction = build(2), build(Fraction(2))
            assert as_int == as_fraction
            assert as_int.to_json_dict() == as_fraction.to_json_dict()


class TestBreakPoints:
    def test_determinant_window(self, pres4):
        assert break_points(pres4, 0, (-4, 4)) == {-1: 1, 0: 1}

    def test_generic_lambda_empty(self, pres4):
        assert break_points(pres4, Fraction(1, 3), (-4, 4)) == {}

    def test_double_root_multiplicity(self, pres1):
        assert break_points(pres1, 0, (-3, 3)) == {0: 2}

    # (1,2): b = (s+1)^2; (2,3): half-integer roots; (3,4), (4,3): simple roots
    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 4), (4, 3)],
                             ids=lambda p: f"case{p[0]}-size{p[1]}")
    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)], ids=str)
    def test_agrees_with_a_walk_over_the_window(self, pair, lam):
        pres = presentation_for(instantiate(*pair))
        b, window = pres.b_monic, (-8, 8)

        def order_of_vanishing(s):
            m, p = 0, b
            while p.evaluate(s) == 0:
                p, _ = p.deflate(s)
                m += 1
            return m

        walked = {}
        for k in range(window[0], window[1] + 1):
            m = order_of_vanishing(k + lam - 1)
            if m:
                walked[k] = m
        assert list(break_points(pres, lam, window).items()) == list(walked.items())

    def test_wide_window_costs_nothing_extra(self, pres4):
        assert break_points(pres4, 0, (0, 10**12)) == {0: 1}

    def test_roots_are_found_once(self, pres4, monkeypatch):
        calls = []
        right = algebra.rational_roots
        monkeypatch.setattr(algebra, "rational_roots", lambda p: calls.append(p) or right(p))
        fresh = APresentation(d=pres4.d, B=pres4.B)
        got = [break_points(fresh, Fraction(n, 5), (-4, 4)) for n in range(50)]
        assert len(calls) == 1
        assert got[0] == {-1: 1, 0: 1} and got[5] == {-2: 1, -1: 1}


class TestPsi:
    def test_determinant_edges_by_differentiation(self, inst4, pres4):
        T = psi_of_ladder(inst4, 0, (0, 2), pres=pres4)
        edges = {k: T.D[ladder_weight(pres4, 0, k)][0][0] for k in (1, 2)}
        assert edges == {1: 2, 2: 6}
        assert validate(T) == []

    def test_symmetric_edges(self, pres4):
        inst = instantiate(2, 2)
        pres = presentation_for(inst)
        T = psi_of_ladder(inst, 0, (0, 2), pres=pres)
        edges = [T.D[ladder_weight(pres, 0, k)][0][0] for k in (1, 2)]
        assert edges == [Fraction(3, 2), 5]

    def test_half_twist_weights(self, inst1, pres1):
        T = psi_of_ladder(inst1, Fraction(1, 2), (0, 2), pres=pres1)
        # f^(1 + 1/2) is homogeneous of degree 2 * 3/2 = 3
        assert ladder_weight(pres1, Fraction(1, 2), 1) == 3
        assert Fraction(3) in T.dims

    def test_negative_steps(self, inst4, pres4):
        T = psi_of_ladder(inst4, 0, (-2, 1), pres=pres4)
        # edges into k-1 carry b(k-1): zero at k = 0 and k = -1
        assert T.D[ladder_weight(pres4, 0, 0)][0][0] == 0
        assert T.D[ladder_weight(pres4, 0, -1)][0][0] == 0
        assert T.D[ladder_weight(pres4, 0, 1)][0][0] == 2
        assert validate(T) == []

    def test_theta_weight_mismatch(self, inst4, pres4):
        doubled = dataclasses.replace(inst4, theta=2 * inst4.theta)
        with pytest.raises(NotProportional, match="theta acts on"):
            psi_of_ladder(doubled, 0, (0, 2), pres=pres4)

    def test_theta_profile_is_checked_as_an_identity(self, inst4, pres4):
        # theta' = theta + theta(theta - d)(theta - 2d) has the profile
        # 8s^3 - 24s^2 + 18s, which agrees with d*s = 2s at s = 0, 1, 2 only
        theta, d = inst4.theta, pres4.d
        bent = dataclasses.replace(inst4, theta=theta + theta * (theta - d) * (theta - 2 * d))
        with pytest.raises(NotProportional, match="theta acts on"):
            psi_of_ladder(bent, 0, (0, 2), pres=pres4)
        with pytest.raises(NotProportional):
            equivalence_witness(bent, 0, (0, 2), pres=pres4)


class TestPsiValidatesEverywhere:
    def test_all_cases_three_twists(self, min_instances, min_presentations):
        for cid, n in [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2), (6, 8), (7, 7), (8, 4)]:
            inst = min_instances[(cid, n)]
            pres = min_presentations[(cid, n)]
            for lam in (Fraction(0), Fraction(1, 2), Fraction(-1)):
                T = psi_of_ladder(inst, lam, (0, 4), pres=pres)
                assert validate(T) == [], (cid, n, lam)


class TestWordFaithfulness:
    """Short generator words act the same through normal forms and through
    genuine operator application, across the catalog.  The deeper length-4
    check for the two smallest cases lives in the acceptance suite."""

    @pytest.mark.parametrize("key,max_len,hi", [
        ((2, 2), 2, 2), ((3, 4), 2, 2), ((5, 2), 2, 2), ((6, 8), 2, 2),
        ((7, 7), 2, 2), ((8, 4), 1, 1),
    ])
    def test_short_words(self, key, max_len, hi, min_instances, min_presentations):
        import itertools

        from capelli.weyl import (WeylOp, f_power_element, twisted_apply,
                                  twisted_scalar_profile)

        inst = min_instances[key]
        pres = min_presentations[key]
        ops = {F: WeylOp.from_poly(inst.f), THETA: inst.theta, DELTA: inst.delta}
        lo = -1
        # the twisted images carry a symbolic exponent, so compute them once
        # and evaluate per twist
        profiles = {}
        for length in range(1, max_len + 1):
            for word in itertools.product((F, THETA, DELTA), repeat=length):
                weyl_word = ops[word[0]]
                for name in word[1:]:
                    weyl_word = weyl_word * ops[name]
                shift = word.count(F) - word.count(DELTA)
                for k in range(lo, hi + 1):
                    if not lo <= k + shift <= hi:
                        continue
                    image = twisted_apply(weyl_word, f_power_element(k, inst.f),
                                          inst.f)
                    profiles[(word, k)] = (
                        shift, twisted_scalar_profile(image, inst.f, k + shift))
        for lam in (Fraction(0), Fraction(1, 2), Fraction(-1)):
            ladder = psi_of_ladder(inst, lam, (lo, hi), pres=pres)
            for (word, k), (shift, profile) in profiles.items():
                element = from_word(pres, list(word))
                direct = profile.evaluate(lam)
                alpha = ladder_weight(pres, lam, k)
                target = ladder_weight(pres, lam, k + shift)
                got = act(ladder, element, alpha)
                assert got == {target: [[direct]]}, (key, lam, word, k)


class TestWitness:
    def test_determinant_window(self, inst4, pres4):
        assert equivalence_witness(inst4, 0, (0, 4), pres=pres4).passed

    def test_quadric_half(self, inst1, pres1):
        assert equivalence_witness(inst1, Fraction(1, 2), (-2, 2), pres=pres1).passed

    def test_pfaffian(self):
        inst = instantiate(3, 4)
        assert equivalence_witness(inst, 0, (0, 3)).passed

    def test_wrong_d_edge_fails(self, inst4, pres4, monkeypatch):
        original = modules.delta_scalar
        monkeypatch.setattr(modules, "delta_scalar", lambda inst, e: original(inst, e) + 1)
        report = equivalence_witness(inst4, 0, (0, 3), pres=pres4)
        assert not report.passed
        assert report.detail == "D edge at weight 2: ladder 2 vs computed 3"

    @pytest.mark.parametrize("lam,detail", [
        (Fraction(1, 2), "D edge at weight 3: ladder 15/4 vs computed 19/4"),
        (Fraction(-1, 3), "D edge at weight 4/3: ladder 10/9 vs computed 19/9"),
    ])
    def test_wrong_d_edge_text_fractional_lambda(self, inst4, pres4, monkeypatch, lam, detail):
        original = modules.delta_scalar
        monkeypatch.setattr(modules, "delta_scalar", lambda inst, e: original(inst, e) + 1)
        report = equivalence_witness(inst4, lam, (0, 3), pres=pres4)
        assert (report.passed, report.detail) == (False, detail)

    def test_each_profile_is_computed_once(self, monkeypatch):
        # compute_b, the Delta profile and the theta profile, whatever the
        # number of twists; every module binding of twisted_apply is counted
        calls = []
        for name in ("bfunction", "modules"):
            mod = getattr(capelli, name)
            if hasattr(mod, "twisted_apply"):
                inner = mod.twisted_apply
                monkeypatch.setattr(mod, "twisted_apply",
                                    lambda *a, inner=inner: calls.append(1) or inner(*a))
        inst = dataclasses.replace(instantiate(4, 2))
        for lam in ("1/2", "1/3", "-1/2", "2/3", "-5/4"):
            assert equivalence_witness(inst, Fraction(lam), (-2, 2)).passed
        assert len(calls) == 3

    def test_gauge_normalization_recovers_edges(self, pres4):
        T = build_ladder(pres4, 0, (0, 3))
        # re-gauge the basis with arbitrary nonzero scales
        rng = random.Random(11)
        gammas = {a: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for a in T.weights}
        d = pres4.d
        for a in list(T.F):
            T.F[a][0][0] = T.F[a][0][0] * gammas[a] / gammas[a + d]
        for a in list(T.D):
            T.D[a][0][0] = T.D[a][0][0] * gammas[a] / gammas[a - d]
        assert validate(T) == []      # gauge change preserves the relations
        G = gauge_normalize(T)
        R = build_ladder(pres4, 0, (0, 3))
        assert all(G.F[a][0][0] == 1 for a in G.F)
        assert all(G.D[a][0][0] == R.D[a][0][0] for a in G.D)


class TestDirectSum:
    def test_sum_with_zero(self, pres4):
        T = build_ladder(pres4, 0, (0, 2))
        Z = GradedModule(pres4, {})
        S = direct_sum(T, Z)
        assert S.dims == T.dims
        assert validate(S) == []

    def test_dimensions_add(self, pres4):
        T1 = build_ladder(pres4, 0, (0, 2))
        T2 = build_ladder(pres4, Fraction(1, 3), (0, 2))
        S = direct_sum(T1, T2)
        for a in T1.dims:
            assert S.dim(a) == T1.dim(a) + T2.dim(a)
        assert validate(S) == []

    def test_same_weights_blocks(self, pres4):
        T1 = build_ladder(pres4, 0, (0, 2))
        T2 = build_ladder(pres4, 0, (0, 2))
        S = direct_sum(T1, T2)
        assert all(S.dim(a) == 2 for a in S.dims)
        assert validate(S) == []

    def test_presentation_mismatch(self, pres4, pres1):
        with pytest.raises(ValueError):
            direct_sum(build_ladder(pres4, 0, (0, 1)), build_ladder(pres1, 0, (0, 1)))


class TestAction:
    def test_degree_shift(self, pres4):
        # a component of adjoint degree k*d maps T_alpha into T_{alpha+k*d}
        T = build_ladder(pres4, 0, (-2, 3))
        words = [[F], [DELTA], [THETA], [F, DELTA], [DELTA, F], [F, F, THETA]]
        for word in words:
            elt = from_word(pres4, word)
            keys = set(elt.parts)
            for k in range(-2, 4):
                alpha = ladder_weight(pres4, 0, k)
                for target in act(T, elt, alpha):
                    assert (target - alpha) / pres4.d in keys

    def test_identity_acts_trivially(self, pres4):
        T = build_ladder(pres4, 0, (0, 2))
        one = AElement.scalar(pres4, 1)
        alpha = ladder_weight(pres4, 0, 1)
        assert act(T, one, alpha) == {alpha: [[1]]}

    def test_contraction_acts_as_scalar(self, inst4, pres4):
        # Delta f acts on f^k with the scalar c*b(k)
        T = psi_of_ladder(inst4, 0, (0, 3), pres=pres4)
        elt = from_word(pres4, [DELTA, F])
        for k in range(0, 3):
            alpha = ladder_weight(pres4, 0, k)
            image = act(T, elt, alpha)
            assert image == {alpha: [[pres4.edge_scalar(k)]]}


def test_json_document(pres4):
    T = build_ladder(pres4, Fraction(1, 2), (0, 1))
    doc = T.to_json_dict()
    assert doc["presentation"]["d"] == 2
    assert doc["weights"] == ["1/1", "3/1"]
    assert doc["dims"] == [1, 1]
    assert list(doc["F"]) == ["1/1"]
    assert list(doc["D"]) == ["3/1"]
    assert doc["f_boundary"] == ["3/1"]
    assert doc["d_boundary"] == ["1/1"]
