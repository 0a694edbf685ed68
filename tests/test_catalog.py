from fractions import Fraction

import pytest

from capelli.catalog import (CASES, DEFAULT_VERIFY_SIZES, MIN_VERIFY_SIZES, _det, case_spec, catalog_json,
                             instantiate, list_cases)
from capelli.poly import MultiPoly, UniPoly
from capelli.weyl import weyl_apply


def printed_deg_f(case_id, n):
    """The table's deg f column ("2", "n", "n/2", ...) evaluated at n."""
    return Fraction(case_spec(case_id).deg_f_rule.replace("n", str(n)))


def test_eight_rows_in_order():
    cases = list_cases()
    assert [spec.case_id for spec in cases] == list(range(1, 9))


def test_disputed_flags():
    assert [spec.case_id for spec in CASES if spec.disputed] == [3, 6]


def test_blank_isotropy_strings():
    assert case_spec(7).isotropy_g == "" and case_spec(7).isotropy_derived == ""
    assert case_spec(8).isotropy_g == "" and case_spec(8).isotropy_derived == ""


def test_expected_b_rows():
    assert case_spec(4).expected_b(3) == UniPoly.from_offsets("s", [1, 2, 3])
    assert case_spec(1).expected_b(7) == case_spec(7).expected_b(7)
    assert case_spec(5).expected_b(2) == UniPoly.from_offsets("s", [1, 4])


def test_min_verify_sizes_follow_the_rows():
    # each row's fixed or minimum size, plus (4,3) for the degree-3 determinant
    assert MIN_VERIFY_SIZES == [(1, 2), (2, 2), (3, 4), (4, 2), (4, 3), (5, 2), (6, 8), (7, 7),
                                (8, 4)]
    assert all(case_spec(cid).valid_size(n) for cid, n in MIN_VERIFY_SIZES)


def test_disputed_row_rules():
    three = case_spec(3)
    assert three.expected_b(4) == UniPoly.from_offsets("s", [1, 3, 5, 7])
    assert three.catalog_b(4) == UniPoly.from_offsets("s", [1, 3])
    six = case_spec(6)
    assert six.expected_b(8) == UniPoly.from_offsets("s", [2, 4])
    assert six.catalog_b(8) == UniPoly.from_offsets("s", [1, 4])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_with_equal_rows_stores_no_term(n):
    # rows 0 and 1 alike: the permutations cancel in pairs, term by term
    got = _det(lambda i, j: (max(i - 1, 0) * n + j, 1), n, n * n)
    assert got == MultiPoly.zero(n * n) and got.terms == {}


class TestInstantiate:
    def test_matrix_case_n2(self):
        inst = instantiate(4, 2)
        assert inst.variables == ("x11", "x12", "x21", "x22")
        x11, x12, x21, x22 = (MultiPoly.variable(4, i) for i in range(4))
        assert inst.f == x11 * x22 - x12 * x21
        assert inst.d == 2
        # delta is the constant-coefficient dual: d11 d22 - d12 d21
        z = (0, 0, 0, 0)
        assert inst.delta.terms == {(z, (1, 0, 0, 1)): 1, (z, (0, 1, 1, 0)): -1}

    def test_quadric_n3(self):
        inst = instantiate(1, 3)
        expect = sum((MultiPoly.variable(3, i) ** 2 for i in range(3)),
                     MultiPoly.zero(3))
        assert inst.f == expect
        z = (0, 0, 0)
        assert inst.delta.terms == {(z, (2, 0, 0)): 1, (z, (0, 2, 0)): 1, (z, (0, 0, 2)): 1}
        assert inst.d == 2

    def test_pfaffian_n4(self):
        inst = instantiate(3, 4)
        assert len(inst.variables) == 6
        # column by column, so twisted_apply's split shares minors
        assert inst.variables == ("x12", "x13", "x23", "x14", "x24", "x34")
        v = {name: MultiPoly.variable(6, i) for i, name in enumerate(inst.variables)}
        assert inst.f == v["x12"] * v["x34"] - v["x13"] * v["x24"] + v["x14"] * v["x23"]
        assert inst.d == 2

    def test_symmetric_case_n2(self):
        inst = instantiate(2, 2)
        assert inst.variables == ("x11", "x12", "x22")
        x11, x12, x22 = (MultiPoly.variable(3, i) for i in range(3))
        assert inst.f == x11 * x22 - x12 * x12
        # dual convention: d11 d22 - (1/4) d12^2
        z = (0, 0, 0)
        assert inst.delta.terms == {(z, (1, 0, 1)): 1, (z, (0, 2, 0)): Fraction(-1, 4)}

    def test_pairing_case_n2(self):
        inst = instantiate(5, 2)
        assert len(inst.variables) == 8
        assert inst.f.total_degree() == 2
        assert len(inst.f.terms) == 4
        assert inst.d == 2

    def test_case8_reuses_determinant(self):
        inst8 = instantiate(8, 4)
        inst4 = instantiate(4, 4)
        assert inst8.f == inst4.f
        assert inst8.delta == inst4.delta
        assert inst8.theta == inst4.theta
        assert case_spec(8).expected_b(4) == case_spec(4).expected_b(4)

    @pytest.mark.parametrize("case_id,size", [
        (1, 1), (2, 1), (3, 3), (3, 2), (4, 1), (5, 1), (6, 7), (7, 8), (8, 3), (9, 2),
    ])
    def test_invalid_sizes(self, case_id, size):
        with pytest.raises(ValueError):
            instantiate(case_id, size)

    @pytest.mark.parametrize("case_id,size", DEFAULT_VERIFY_SIZES)
    def test_euler_degree(self, case_id, size):
        inst = instantiate(case_id, size)
        assert weyl_apply(inst.theta, inst.f) == inst.d * inst.f
        assert inst.f.total_degree() == inst.d
        assert printed_deg_f(case_id, size) == inst.d

    def test_deg_f_rules(self):
        assert printed_deg_f(2, 5) == instantiate(2, 5).d == 5
        assert printed_deg_f(3, 6) == instantiate(3, 6).d == 3
        assert printed_deg_f(4, 3) == instantiate(4, 3).d == 3


def test_catalog_json_shape():
    doc = catalog_json()
    assert len(doc) == 8
    for row in doc:
        assert set(row) == {"case_id", "name", "size_rule", "deg_f_rule", "b_rule",
                            "corrected_b_rule", "disputed", "isotropy_g",
                            "isotropy_derived"}
    assert doc[2]["disputed"] and doc[5]["disputed"]
    assert doc[0]["corrected_b_rule"] is None
