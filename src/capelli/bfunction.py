"""Bernstein-Sato polynomials from first principles, plus certification.

compute_b applies Delta to f^(s+1) through the twisted module and reads
off the polynomial b with  Delta(f^(s+1)) = c * b(s) * f^s,  b monic and
c > 0.  The constant c depends on the normalization of Delta, so it is
reported separately and never folded into b.

verify_table compares the computed monic b against the published table
row; rows flagged as disputed in the catalog get a soft verdict when the
computation disagrees with the printing but confirms the corrected rule.

verify_annihilation checks that the operator f*Delta - b(theta-d) kills the
invariant polynomials f^m up to a chosen degree: Delta(f^m) equals
c * b(m-1) * f^(m-1), by direct differentiation, which is (f Delta)(f^m) =
c * b(m-1) * f^m divided by f.

Each instance keeps its differentiation results in its own memo: b, the
powers of f, the scalars of delta_scalar and the profiles of Delta and
theta (profile).  delta_scalar never reads b, so the ladders and the
annihilation check stay independent of compute_b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import APresentation
from .catalog import CaseInstance, case_spec, instantiate
from .poly import (MultiPoly, UniPoly, _check_scalar, format_rational, ratio,
                   rational_roots)
from .weyl import (NotProportional, f_power_element, twisted_apply,
                   twisted_scalar_profile, weyl_apply)

VERDICT_MATCH = "match"
VERDICT_DISPUTED = "mismatch-disputed-row"
VERDICT_MISMATCH = "mismatch"


def compute_b(inst: CaseInstance):
    """Return (monic b, c) with Delta(f^(s+1)) = c*b(s)*f^s, by twisted differentiation."""
    if "b" not in inst.memo:
        inst.memo["b"] = _compute_b(inst)
    return inst.memo["b"]


def _compute_b(inst: CaseInstance):
    # not c*b(s) = rho(s+1) off profile(): a fractional-lambda witness would check one profile twice
    e = f_power_element(1, inst.f)           # f^(s+1)
    result = twisted_apply(inst.delta, e, inst.f)
    if result.m != 0:
        raise NotProportional(
            f"case ({inst.case_id}) size {inst.size}: twisted result kept level {result.m}")
    profile = twisted_scalar_profile(result, inst.f, 0)
    if profile.is_zero():
        raise NotProportional(
            f"case ({inst.case_id}) size {inst.size}: Delta annihilates f^(s+1)")
    c, b = profile.monic()
    if c <= 0:
        raise NotProportional(
            f"case ({inst.case_id}) size {inst.size}: leading constant {c} is not positive")
    if b.degree() != inst.d:
        raise NotProportional(
            f"case ({inst.case_id}) size {inst.size}: deg b = {b.degree()} != deg f = {inst.d}")
    return b, c


def f_power(inst: CaseInstance, k: int) -> MultiPoly:
    """f^k for k >= 0; each power is multiplied out once per instance."""
    powers = inst.memo.setdefault("powers", {0: MultiPoly.one(inst.f.arity)})
    # keyed by exponent, so two threads filling it at once write equal values
    for j in range(len(powers), k + 1):
        powers[j] = powers[j - 1] * inst.f
    return powers[k]


def profile(inst: CaseInstance, name: str, offset: int) -> UniPoly:
    """rho with op(f^s) = rho(s) * f^(s+offset), op being inst.delta or
    inst.theta, by one twisted application per instance and operator."""
    key = ("profile", name, offset)
    if key not in inst.memo:
        image = twisted_apply(getattr(inst, name), f_power_element(0, inst.f), inst.f)
        inst.memo[key] = twisted_scalar_profile(image, inst.f, offset)
    return inst.memo[key]


def delta_scalar(inst: CaseInstance, exponent) -> int | Fraction:
    """The scalar rho with Delta(f^e) = rho * f^(e-1), by differentiation.

    Nonnegative integer exponents differentiate the plain polynomial f^e
    and compare the image with rho * f^(e-1), rho read off one monomial;
    everything else evaluates the symbolic profile of Delta.  Neither path
    reads b.
    """
    _check_scalar(exponent, "an exponent")
    if exponent.denominator != 1 or exponent < 0:
        return profile(inst, "delta", -1).evaluate(exponent)
    scalars = inst.memo.setdefault("delta", {})
    k = exponent.numerator
    if k not in scalars:
        scalars[k] = _plain_delta_scalar(inst, k)
    return scalars[k]


def _plain_delta_scalar(inst: CaseInstance, k: int) -> int | Fraction:
    image = weyl_apply(inst.delta, f_power(inst, k))
    if image.is_zero():
        return 0
    if k == 0:
        raise NotProportional("Delta does not annihilate constants")
    base, got = f_power(inst, k - 1)._terms, image._terms
    # the only candidate scalar is the ratio at any one monomial of f^(k-1);
    # on the stored keys, neither map stores a zero and equal values store
    # equal keys, so equal key counts and equal terms on the keys of f^(k-1)
    # mean image == rho * f^(k-1), with no product built
    e, c = next(iter(base.items()))
    rho = ratio(got.get(e, 0), c)
    if len(got) != len(base) or any(got.get(e) != rho * c for e, c in base.items()):
        raise NotProportional(f"Delta(f^{k}) is not a scalar multiple of f^{k - 1}")
    return rho


@dataclass(frozen=True)
class BCertificate:
    case_id: int
    size: int
    b_monic: UniPoly
    c: int | Fraction
    expected: UniPoly          # the table row as printed
    roots: tuple               # rational roots of b_monic, with multiplicity
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "size": self.size,
            "b_monic": [format_rational(c) for c in self.b_monic.coeffs],
            "c": format_rational(self.c),
            "b_expected": [format_rational(c) for c in self.expected.coeffs],
            "roots": [format_rational(r) for r in self.roots],
            "verdict": self.verdict,
        }


def factored(p: UniPoly) -> str:
    """Display form (s+1)(s+3/2)... when the rational roots account for all of p."""
    roots = rational_roots(p)
    if len(roots) != p.degree():
        return p.format()
    pieces = []
    for r in sorted(roots, reverse=True):
        off = -r
        if off == 0:
            pieces.append(f"{p.symbol}")
        elif off > 0:
            pieces.append(f"({p.symbol}+{off})")
        else:
            pieces.append(f"({p.symbol}{off})")
    return "".join(pieces)


def verify_table(case_id: int, size: int) -> BCertificate:
    """Compute b for the case and compare exactly against the printed table."""
    inst = instantiate(case_id, size)
    spec = case_spec(case_id)
    b, c = compute_b(inst)
    roots = rational_roots(b)
    if len(roots) != b.degree():
        raise NotProportional(
            f"case ({case_id}) size {size}: roots of b are not all rational")
    if b.evaluate(-1) != 0:
        raise NotProportional(f"case ({case_id}) size {size}: -1 is not a root of b")
    expected = spec.expected_b(size)
    if b == expected:
        verdict = VERDICT_MATCH
    elif spec.disputed and b == spec.catalog_b(size):
        verdict = VERDICT_DISPUTED
    else:
        verdict = VERDICT_MISMATCH
    return BCertificate(case_id, size, b, c, expected, tuple(roots), verdict)


@dataclass(frozen=True)
class AnnihilationReport:
    case_id: int
    size: int
    m_max: int
    passed: bool
    first_failing: Optional[int]


def verify_annihilation(inst: CaseInstance, m_max: int = 6) -> AnnihilationReport:
    """Check Delta(f^m) = c*b(m-1)*f^(m-1) for m = 0..m_max, exactly.

    Equivalently (f Delta)(f^m) = c*b(m-1)*f^m.  A step whose image is not
    a multiple of f^(m-1) fails like a wrong scalar.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    b, c = compute_b(inst)
    for m in range(m_max + 1):
        try:
            holds = delta_scalar(inst, m) == c * b.evaluate(m - 1)
        except NotProportional:
            holds = False
        if not holds:
            return AnnihilationReport(inst.case_id, inst.size, m_max, False, m)
    return AnnihilationReport(inst.case_id, inst.size, m_max, True, None)


def presentation_for(inst: CaseInstance):
    """Quotient-algebra presentation built from the oracle-computed b data."""
    b, c = compute_b(inst)
    return APresentation.from_b(inst.d, c, b)


def verify_all(pairs) -> list:
    """Certificates for a list of (case_id, size) pairs, in the given order."""
    return [verify_table(cid, n) for cid, n in pairs]
