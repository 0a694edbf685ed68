import pytest

from capelli import algebra
from capelli.bfunction import presentation_for, verify_table
from capelli.catalog import MIN_VERIFY_SIZES, instantiate

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
