import itertools
from fractions import Fraction

import pytest

from capelli import algebra
from capelli.algebra import DELTA, F, GENERATORS, THETA, from_word
from capelli.bfunction import presentation_for, verify_table
from capelli.catalog import MIN_VERIFY_SIZES, instantiate
from capelli.modules import act, ladder_weight, psi_of_ladder
from capelli.weyl import WeylOp, f_power_element, twisted_apply, twisted_scalar_profile

try:
    import hypothesis
except ImportError:          # the properties skip themselves through importorskip
    pass
else:
    # reproducible properties with no example database and no time limit
    hypothesis.settings.register_profile(
        "capelli", deadline=None, database=None, derandomize=True)
    hypothesis.settings.load_profile("capelli")


@pytest.fixture(scope="session")
def min_instances():
    """The nine verified (case, size) instances, built once."""
    return {(cid, n): instantiate(cid, n) for cid, n in MIN_VERIFY_SIZES}


@pytest.fixture(scope="session")
def min_certificates(min_instances):
    return {(cid, n): verify_table(cid, n) for cid, n in MIN_VERIFY_SIZES}


@pytest.fixture(scope="session")
def min_presentations(min_instances):
    return {key: presentation_for(inst) for key, inst in min_instances.items()}


@pytest.fixture
def planted_fault(monkeypatch):
    """A wrong product rule: Delta times f^2 comes out doubled.

    Two reductions of a word that meet this product a different number
    of times then disagree, and the confluence checks must report the word.
    """
    right = algebra._basis_mul

    def doubled(pres, k1, p1, k2, p2):
        k, p = right(pres, k1, p1, k2, p2)
        return (k, p * 2) if (k1, k2) == (-1, 2) else (k, p)

    monkeypatch.setattr(algebra, "_basis_mul", doubled)


def _words_act_on_psi_ladders(inst, pres, max_len, window):
    """Every generator word of length <= max_len acts on the psi ladder over
    the window, for lambda in {0, 1/2, -1}, as the operators themselves do.

    The twisted image of f^(s+k) under the word is rho(s) f^(s+k+shift);
    act must send step k to step k + shift with the scalar rho(lambda).  The
    images carry a symbolic exponent and do not depend on lambda, so each
    (word, k) is computed once and evaluated per twist."""
    ops = {F: WeylOp.from_poly(inst.f), THETA: inst.theta, DELTA: inst.delta}
    lo, hi = window
    profiles = {}
    for length in range(1, max_len + 1):
        for word in itertools.product(GENERATORS, repeat=length):
            weyl_word = ops[word[0]]
            for name in word[1:]:
                weyl_word = weyl_word * ops[name]
            element = from_word(pres, list(word))
            shift = word.count(F) - word.count(DELTA)
            for k in range(lo, hi + 1):
                if not lo <= k + shift <= hi:
                    continue
                image = twisted_apply(weyl_word, f_power_element(k, inst.f), inst.f)
                profiles[word, k] = (
                    element, shift, twisted_scalar_profile(image, inst.f, k + shift))
    for lam in (Fraction(0), Fraction(1, 2), Fraction(-1)):
        ladder = psi_of_ladder(inst, lam, window, pres=pres)
        for (word, k), (element, shift, profile) in profiles.items():
            target = ladder_weight(pres, lam, k + shift)
            got = act(ladder, element, ladder_weight(pres, lam, k))
            assert got == {target: [[profile.evaluate(lam)]]}, (inst.case_id, lam, word, k)


@pytest.fixture(scope="session")
def words_act_on_psi_ladders():
    """The twisted-word check of the psi ladders, shared by criterion 5 and
    the short-word faithfulness tests."""
    return _words_act_on_psi_ladders
