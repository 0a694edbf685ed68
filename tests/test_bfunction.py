import dataclasses
import json
from fractions import Fraction

import pytest

from capelli import bfunction
from capelli.bfunction import (VERDICT_DISPUTED, VERDICT_MATCH, compute_b,
                               delta_scalar, factored, presentation_for,
                               verify_annihilation)
from capelli.catalog import DEFAULT_VERIFY_SIZES, instantiate
from capelli.poly import UniPoly, rational_roots
from capelli.weyl import weyl_apply


class TestComputeB:
    def test_quadric_dim2(self):
        b, c = compute_b(instantiate(1, 2))
        assert b == UniPoly.from_offsets("s", [1, 1])
        assert c == 4

    def test_determinant_n2(self):
        b, c = compute_b(instantiate(4, 2))
        assert b == UniPoly.from_offsets("s", [1, 2])
        assert c == 1

    def test_symmetric_n2(self):
        # the 1/2 convention on the dual operator makes c come out 1
        b, c = compute_b(instantiate(2, 2))
        assert b == UniPoly.from_offsets("s", [1, Fraction(3, 2)])
        assert c == 1

    def test_pfaffian_n4(self):
        b, c = compute_b(instantiate(3, 4))
        assert b == UniPoly.from_offsets("s", [1, 3])
        assert c == 1

    @pytest.mark.parametrize("case_id,size,dim", [(1, 2, 2), (5, 2, 8), (6, 8, 8), (7, 7, 7)])
    def test_quadric_rule(self, case_id, size, dim):
        # every nondegenerate quadric follows (s+1)(s+D/2) in D variables
        b, _ = compute_b(instantiate(case_id, size))
        assert b == UniPoly.from_offsets("s", [1, Fraction(dim, 2)])

    @pytest.mark.parametrize("case_id,size", DEFAULT_VERIFY_SIZES)
    def test_cross_oracle_specialization(self, case_id, size):
        # substitute s = m: c*b(m) must equal Delta(f^(m+1)) / f^m computed
        # independently by plain differentiation
        inst = instantiate(case_id, size)
        b, c = compute_b(inst)
        fpow = inst.f ** 0
        for m in range(3):
            image = weyl_apply(inst.delta, fpow * inst.f)
            expected = fpow * (c * b.evaluate(m))
            assert image == expected
            fpow = fpow * inst.f


class TestVerifyTable:
    def test_match_rows(self, min_certificates):
        for key in [(1, 2), (2, 2), (4, 2), (4, 3), (5, 2), (7, 7), (8, 4)]:
            assert min_certificates[key].verdict == VERDICT_MATCH

    def test_disputed_pfaffian_row(self, min_certificates):
        cert = min_certificates[(3, 4)]
        assert cert.verdict == VERDICT_DISPUTED
        assert cert.b_monic == UniPoly.from_offsets("s", [1, 3])
        assert cert.expected == UniPoly.from_offsets("s", [1, 3, 5, 7])

    def test_disputed_spin_row(self, min_certificates):
        cert = min_certificates[(6, 8)]
        assert cert.verdict == VERDICT_DISPUTED
        assert cert.b_monic == UniPoly.from_offsets("s", [1, 4])
        assert cert.expected == UniPoly.from_offsets("s", [2, 4])

    def test_root_bookkeeping(self, min_certificates):
        for cert in min_certificates.values():
            assert len(cert.roots) == cert.b_monic.degree()
            assert Fraction(-1) in cert.roots
            assert cert.c > 0
            assert tuple(rational_roots(cert.b_monic)) == cert.roots

    def test_json_document(self, min_certificates):
        cert = min_certificates[(2, 2)]
        doc = cert.to_json_dict()
        assert doc == {
            "case_id": 2,
            "size": 2,
            "b_monic": ["3/2", "5/2", "1/1"],
            "c": "1/1",
            "b_expected": ["3/2", "5/2", "1/1"],
            "roots": ["-3/2", "-1/1"],
            "verdict": "match",
        }
        json.dumps(doc)   # serializable


class TestAnnihilation:
    def test_m0_and_m1_by_hand(self):
        # (f Delta)(1) = 0 = c*b(-1); (f Delta)(f) = 2 f = c*b(0) f for the n=2 determinant
        inst = instantiate(4, 2)
        b, c = compute_b(inst)
        assert c * b.evaluate(-1) == 0
        assert c * b.evaluate(0) == 2
        assert inst.f * weyl_apply(inst.delta, inst.f) == 2 * inst.f

    def test_quadric_m2_by_hand(self):
        # Laplacian of f^2 then multiply: (f Delta)(f^2) = 16 f^2 since 4*b(1) = 16
        inst = instantiate(1, 2)
        b, c = compute_b(inst)
        assert c * b.evaluate(1) == 16
        assert inst.f * weyl_apply(inst.delta, inst.f * inst.f) == 16 * (inst.f * inst.f)

    @pytest.mark.parametrize("case_id,size", [(1, 2), (2, 2), (3, 4), (4, 2), (5, 2)])
    def test_passes_small_cases(self, case_id, size):
        report = verify_annihilation(instantiate(case_id, size), 4)
        assert report.passed and report.first_failing is None

    def test_rejects_negative_mmax(self):
        with pytest.raises(ValueError):
            verify_annihilation(instantiate(1, 2), -1)

    def test_reports_first_failing_step(self, monkeypatch):
        # the true b of the n=2 determinant is (s+1)(s+2): m = 0 holds for any
        # b with the root -1, and m = 1 needs c*b(0) = 2, not 7
        wrong = UniPoly.from_offsets("s", [1, 7])
        monkeypatch.setattr(bfunction, "compute_b", lambda inst: (wrong, Fraction(1)))
        report = verify_annihilation(instantiate(4, 2), 4)
        assert not report.passed and report.first_failing == 1


class TestNotProportional:
    def _bad_instance(self):
        # a dual operator that is not the dual relative invariant
        from capelli.catalog import CaseInstance
        from capelli.poly import MultiPoly
        from capelli.weyl import WeylOp

        inst = instantiate(4, 2)
        wrong = WeylOp.const_coeff_from_poly(MultiPoly.variable(4, 0) ** 2)
        return CaseInstance(case_id=4, size=2, variables=inst.variables, f=inst.f,
                            delta=wrong, theta=inst.theta, d=2)

    def test_compute_b_rejects_wrong_dual(self):
        from capelli.weyl import NotProportional

        with pytest.raises(NotProportional):
            compute_b(self._bad_instance())

    def test_memo_is_not_shared_by_a_copy(self):
        from capelli.weyl import NotProportional

        inst = instantiate(4, 2)
        compute_b(inst)
        wrong = self._bad_instance().delta
        with pytest.raises(NotProportional):
            compute_b(dataclasses.replace(inst, delta=wrong))

    def test_plain_delta_scalar_rejects_wrong_dual(self):
        # Delta = d^2/dx11^2 takes f^2 to 2*x22^2, which is zero at every
        # monomial of f
        from capelli.weyl import NotProportional

        with pytest.raises(NotProportional):
            delta_scalar(self._bad_instance(), 2)

    @pytest.mark.parametrize("exps, coeffs", [
        # 6*x11*x22: nonzero, but zero at the monomial x12*x21 of f
        pytest.param([(1, 0, 0, 1), (0, 1, 1, 0)], [2, 1], id="zero-at-one-monomial"),
        # 4*x11*x22 - 2*x12*x21: nonzero at every monomial of f, ratios 4 and 2
        pytest.param([(1, 0, 0, 1)], [1], id="two-ratios"),
        # 6*f + 2*x22^2: ratio 6 at every monomial of f, and one monomial more
        pytest.param([(1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 0, 0)], [1, -1, 1],
                     id="extra-monomial"),
    ])
    def test_plain_delta_scalar_needs_one_ratio(self, exps, coeffs):
        from capelli.catalog import CaseInstance
        from capelli.poly import MultiPoly
        from capelli.weyl import NotProportional, WeylOp

        inst = instantiate(4, 2)
        symbol = MultiPoly(4, dict(zip(exps, coeffs)))
        delta = WeylOp.const_coeff_from_poly(symbol)
        assert not weyl_apply(delta, inst.f ** 2).is_zero()
        wrong = CaseInstance(case_id=4, size=2, variables=inst.variables, f=inst.f,
                             delta=delta, theta=inst.theta, d=2)
        with pytest.raises(NotProportional):
            delta_scalar(wrong, 2)

    def test_psi_rejects_wrong_dual(self):
        from capelli.modules import psi_of_ladder
        from capelli.weyl import NotProportional

        pres = presentation_for(instantiate(4, 2))
        with pytest.raises(NotProportional):
            psi_of_ladder(self._bad_instance(), 0, (0, 2), pres=pres)


def test_presentation_carries_b_data():
    inst = instantiate(4, 2)
    pres = presentation_for(inst)
    assert pres.d == 2
    assert pres.c == 1
    assert pres.b_monic == UniPoly.from_offsets("s", [1, 2])
    # B(theta) = (theta/2 + 1)(theta/2 + 2)
    assert pres.B == UniPoly("theta", (2, Fraction(3, 2), Fraction(1, 4)))


def test_factored_display():
    assert factored(UniPoly.from_offsets("s", [1, Fraction(3, 2)])) == "(s+1)(s+3/2)"
    assert factored(UniPoly.from_offsets("s", [1]) * UniPoly("s", (1, 0, 1))) \
        == "s^3 + s^2 + s + 1"
