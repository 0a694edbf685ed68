import random

import pytest

from capelli.catalog import instantiate
from capelli.poly import MultiPoly, UniPoly
from capelli.weyl import (NotProportional, TwistedElement, WeylOp, commutator,
                          f_power_element, twisted_apply, twisted_canonical,
                          twisted_scalar_profile, twisted_specialize, weyl_apply,
                          weyl_mul)


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

    def test_specialize_below_level_rejected(self):
        inst = instantiate(1, 2)
        e = TwistedElement(MultiPoly.one(3), 2)
        with pytest.raises(ValueError):
            twisted_specialize(e, 1, inst.f)

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

    def test_scalar_profile_rejects_division_shortfall(self):
        inst = instantiate(1, 2)
        fl = inst.f.with_extra_symbol()
        # f * f^s is f^(s+1): offset 1 divides once and gives 1
        assert twisted_scalar_profile(TwistedElement(fl, 0), inst.f, 1) == UniPoly("s", (1,))
        # offset 2 needs f^2 in the numerator; the second division fails
        with pytest.raises(NotProportional, match="not divisible"):
            twisted_scalar_profile(TwistedElement(fl, 0), inst.f, 2)


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
