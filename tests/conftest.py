import pytest

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
