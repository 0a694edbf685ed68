"""Graded modules over the (f, theta, Delta) algebra as weight-space data.

A module is a finite window of weights alpha, each carrying a finite
dimensional space, with a raising map F of degree +d, a lowering map D
of degree -d, and the nilpotent part N of theta - alpha on each space.
Away from window boundaries the contraction relations must hold as
matrix identities:

    D_{alpha+d} F_alpha = B(alpha*I + N_alpha)          (Delta f = B(theta))
    F_{alpha-d} D_alpha = B((alpha-d)*I + N_alpha)      (f Delta = B(theta-d))

together with the intertwining F N = N F and D N = N D across edges.
On the space at alpha theta acts as alpha*I + N_alpha, so p(w*I + N_alpha)
is mat_poly(p.shift(w), N_alpha): validate and act_component evaluate
every theta polynomial so, validate shifting B once per weight it meets.

Ladder constructors realize the rank-one modules spanned by the powers
f^(k+lambda).  One builder lays out the shared skeleton (weights, N = 0,
F = 1, window boundaries), and each side supplies its own D edges:
build_ladder writes them straight from the relation data
(APresentation.edge_scalar), psi_of_ladder recomputes them by genuine
differentiation (bfunction.delta_scalar) after checking the theta profile
as one polynomial identity, theta(f^s) = d*s*f^s, and equivalence_witness
compares the two D maps edge for edge.  Both ladders have F = 1, so no
gauge normalization is needed between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Optional

from .algebra import AElement, APresentation
from .bfunction import delta_scalar, presentation_for, profile
from .catalog import CaseInstance
from .poly import UniPoly, _check_scalar, format_rational
from .weyl import NotProportional

# -- tiny exact matrix helpers (lists of rows) ---------------------------


def mat_zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_add(m1, m2):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(m1, m2)]


def mat_mul(m1, m2):
    rows, inner, cols = len(m1), len(m2), len(m2[0]) if m2 else 0
    out = mat_zeros(rows, cols)
    for i in range(rows):
        row = m1[i]
        for k in range(inner):
            a = row[k]
            if a == 0:
                continue
            m2k = m2[k]
            outi = out[i]
            for j in range(cols):
                outi[j] += a * m2k[j]
    return out

def mat_is_zero(m):
    return all(all(x == 0 for x in row) for row in m)


def mat_poly(p: UniPoly, m):
    """Evaluate a univariate polynomial at a square matrix (Horner)."""
    n = len(m)
    out = mat_zeros(n, n)
    for c in reversed(p.coeffs):
        out = mat_mul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def mat_nilpotent(m) -> bool:
    n = len(m)
    power = m
    for _ in range(n):
        if mat_is_zero(power):
            return True
        power = mat_mul(power, m)
    return mat_is_zero(power)


# -- the module type ------------------------------------------------------


@dataclass
class Violation:
    weight: int | Fraction
    kind: str       # "delta-f", "f-delta", "FN", "DN", "nilpotent"
    detail: str


@dataclass
class GradedModule:
    pres: APresentation
    dims: dict                      # weight -> dimension
    F: dict = field(default_factory=dict)   # weight -> matrix T_a -> T_{a+d}
    D: dict = field(default_factory=dict)   # weight -> matrix T_a -> T_{a-d}
    N: dict = field(default_factory=dict)   # weight -> nilpotent square matrix
    f_boundary: set = field(default_factory=set)  # F edge leaves the window here
    d_boundary: set = field(default_factory=set)  # D edge leaves the window here

    @property
    def weights(self):
        return sorted(self.dims)

    def dim(self, alpha) -> int:
        return self.dims.get(alpha, 0)

    def n_at(self, alpha):
        if alpha in self.N:
            return self.N[alpha]
        return mat_zeros(self.dim(alpha), self.dim(alpha))

    def f_at(self, alpha):
        if alpha in self.F:
            return self.F[alpha]
        return mat_zeros(self.dim(alpha + self.pres.d), self.dim(alpha))

    def d_at(self, alpha):
        if alpha in self.D:
            return self.D[alpha]
        return mat_zeros(self.dim(alpha - self.pres.d), self.dim(alpha))

    def to_json_dict(self) -> dict:
        def fmt_matrix(m):
            return [[format_rational(x) for x in row] for row in m]

        weights = self.weights
        return {
            "presentation": self.pres.to_json_dict(),
            "weights": [format_rational(a) for a in weights],
            "dims": [self.dims[a] for a in weights],
            "F": {format_rational(a): fmt_matrix(self.F[a]) for a in sorted(self.F)},
            "D": {format_rational(a): fmt_matrix(self.D[a]) for a in sorted(self.D)},
            "N": {format_rational(a): fmt_matrix(self.N[a]) for a in sorted(self.N)},
            "f_boundary": [format_rational(a) for a in sorted(self.f_boundary)],
            "d_boundary": [format_rational(a) for a in sorted(self.d_boundary)],
        }


def validate(T: GradedModule) -> list:
    """All relation violations; empty list iff the data is a graded module.
    A weight or matrix entry that is not an int or a Fraction raises TypeError."""
    matrices = chain(T.F.values(), T.D.values(), T.N.values())
    entries = (x for m in matrices for row in m for x in row)
    for x in chain(T.dims, T.F, T.D, T.N, T.f_boundary, T.d_boundary, entries):
        _check_scalar(x, "a weight or matrix entry")
    d = T.pres.d
    B_at = cache(T.pres.B.shift)        # B(theta + w), shifted once per weight w
    out = []
    for alpha in T.weights:
        n_a = T.n_at(alpha)
        if not mat_nilpotent(n_a):
            out.append(Violation(alpha, "nilpotent", "N is not nilpotent"))
        up = alpha + d
        down = alpha - d
        has_up = up in T.dims and alpha not in T.f_boundary
        has_down = down in T.dims and alpha not in T.d_boundary
        if has_up:
            f_a = T.f_at(alpha)
            if mat_mul(f_a, n_a) != mat_mul(T.n_at(up), f_a):
                out.append(Violation(alpha, "FN", "F does not intertwine N"))
            # up then down: D_{a+d} F_a = B(a*I + N_a)
            if mat_mul(T.d_at(up), f_a) != mat_poly(B_at(alpha), n_a):
                out.append(Violation(alpha, "delta-f", "D.F != B(theta) at this weight"))
        if has_down:
            d_a = T.d_at(alpha)
            if mat_mul(d_a, n_a) != mat_mul(T.n_at(down), d_a):
                out.append(Violation(alpha, "DN", "D does not intertwine N"))
            # down then up: F_{a-d} D_a = B((a-d)*I + N_a)
            if mat_mul(T.f_at(down), d_a) != mat_poly(B_at(down), n_a):
                out.append(Violation(alpha, "f-delta", "F.D != B(theta-d) at this weight"))
    return out


# -- ladder constructors ---------------------------------------------------


def _window_range(lam, window):
    _check_scalar(lam, "lambda")
    k_min, k_max = window
    if k_min > k_max:
        raise ValueError("window must satisfy k_min <= k_max")
    return range(k_min, k_max + 1)


def ladder_weight(pres: APresentation, lam, k: int) -> int | Fraction:
    _check_scalar(lam, "lambda")
    return pres.d * (lam + k)


def _rank_one_ladder(pres: APresentation, lam, window, d_edge) -> GradedModule:
    """Rank-one ladder skeleton: step k sits at weight d*(k+lambda) with
    N = 0, F edges are 1, the D edge out of step k is d_edge(k), and an
    edge leaving the window is a boundary."""
    ks = _window_range(lam, window)
    T = GradedModule(pres, {ladder_weight(pres, lam, k): 1 for k in ks})
    for k in ks:
        alpha = ladder_weight(pres, lam, k)
        T.N[alpha] = [[0]]
        if k + 1 in ks:
            T.F[alpha] = [[1]]
        else:
            T.f_boundary.add(alpha)
        if k - 1 in ks:
            T.D[alpha] = [[d_edge(k)]]
        else:
            T.d_boundary.add(alpha)
    return T


def build_ladder(pres: APresentation, lam, window) -> GradedModule:
    """Rank-one ladder on the window, edges straight from the relation data.

    F edges are 1; the D edge out of step k carries c*b(k+lambda-1); the
    theta action is semisimple (N = 0).
    """
    return _rank_one_ladder(pres, lam, window, lambda k: pres.edge_scalar(k + lam - 1))


def psi_of_ladder(inst: CaseInstance, lam, window,
                  pres: Optional[APresentation] = None) -> GradedModule:
    """Invariant-section ladder computed by genuine differentiation.

    The basis at step k is f^(k+lambda); the theta and Delta actions are
    found by applying the operators (twisted for fractional or negative
    exponents) and must land back in the span of the basis -- otherwise
    NotProportional, which would contradict the invariant-theory input
    that C[V]^(G') = C[f].  theta is checked once, as the identity
    theta(f^s) = d*s*f^s in s, which fixes every weight d*(k+lambda) with
    N = 0.  Multiplication by f sends each basis vector to the next one on
    the nose (F = 1).
    """
    if pres is None:
        pres = presentation_for(inst)
    theta = profile(inst, "theta", 0)       # theta(f^s) = rho(s) f^s
    euler = UniPoly("s", (0, pres.d))
    if theta != euler:
        raise NotProportional(
            f"theta acts on f^s as ({theta.format()}) f^s, expected ({euler.format()}) f^s")
    return _rank_one_ladder(pres, lam, window, lambda k: delta_scalar(inst, lam + k))


def break_points(pres: APresentation, lam, window) -> dict:
    """Steps k in the window whose D edge c*b(k+lambda-1) vanishes, with root
    multiplicity: k = r - lambda + 1 for each rational root r of b, so the
    cost is O(deg b) whatever the window's length.  The roots are found
    once per presentation (APresentation.b_roots)."""
    ks = _window_range(lam, window)
    out = {}
    for r in pres.b_roots():
        k = r - lam + 1
        if k.denominator == 1 and k.numerator in ks:
            out[k.numerator] = out.get(k.numerator, 0) + 1
    return out


@dataclass
class WitnessReport:
    case_id: int
    size: int
    lam: int | Fraction
    window: tuple
    passed: bool
    detail: str


def gauge_normalize(T: GradedModule) -> GradedModule:
    """Rescale a rank-one-per-weight chain so interior F edges are all 1."""
    weights = T.weights
    if any(T.dims[a] != 1 for a in weights):
        raise ValueError("gauge normalization implemented for rank-one chains only")
    gamma = {}
    scale = Fraction(1)
    for a in weights:
        gamma[a] = scale
        if a in T.F:
            e = T.F[a][0][0]
            if e == 0:
                raise ValueError("cannot gauge a vanishing F edge")
            scale = scale * e
    out = GradedModule(T.pres, dict(T.dims),
                       f_boundary=set(T.f_boundary), d_boundary=set(T.d_boundary))
    d = T.pres.d
    for a in weights:
        out.N[a] = T.n_at(a)
        if a in T.F:
            out.F[a] = [[T.F[a][0][0] * gamma[a] / gamma[a + d]]]
        if a in T.D:
            out.D[a] = [[T.D[a][0][0] * gamma[a] / gamma[a - d]]]
    return out


def equivalence_witness(inst: CaseInstance, lam, window,
                        pres: Optional[APresentation] = None) -> WitnessReport:
    """Compare the D edges of the relation-side and differentiation-side
    ladders; the rest of their shared skeleton (F = 1) cannot differ."""
    if pres is None:
        pres = presentation_for(inst)
    abstract = build_ladder(pres, lam, window).D
    concrete = psi_of_ladder(inst, lam, window, pres=pres).D
    wrong = [a for a in sorted(abstract) if abstract[a] != concrete[a]]
    detail = "all gauged D edges agree"
    if wrong:
        a = wrong[0]
        detail = f"D edge at weight {a}: ladder {abstract[a][0][0]} vs computed {concrete[a][0][0]}"
    return WitnessReport(inst.case_id, inst.size, lam, tuple(window), not wrong, detail)


def direct_sum(T1: GradedModule, T2: GradedModule) -> GradedModule:
    """Blockwise direct sum."""
    if T1.pres != T2.pres:
        raise ValueError("presentation mismatch")
    pres = T1.pres
    dims = {}
    for a in set(T1.dims) | set(T2.dims):
        dims[a] = T1.dim(a) + T2.dim(a)
    out = GradedModule(pres, dims,
                       f_boundary=set(T1.f_boundary) | set(T2.f_boundary),
                       d_boundary=set(T1.d_boundary) | set(T2.d_boundary))

    def block(m1, m2, rows, cols, r1, c1):
        m = mat_zeros(rows, cols)
        for i, row in enumerate(m1):
            for j, x in enumerate(row):
                m[i][j] = x
        for i, row in enumerate(m2):
            for j, x in enumerate(row):
                m[r1 + i][c1 + j] = x
        return m

    d = pres.d
    for a in dims:
        out.N[a] = block(T1.n_at(a), T2.n_at(a), dims[a], dims[a],
                         T1.dim(a), T1.dim(a))
        if (a in T1.F) or (a in T2.F):
            out.F[a] = block(T1.f_at(a), T2.f_at(a),
                             out.dim(a + d), dims[a], T1.dim(a + d), T1.dim(a))
        if (a in T1.D) or (a in T2.D):
            out.D[a] = block(T1.d_at(a), T2.d_at(a),
                             out.dim(a - d), dims[a], T1.dim(a - d), T1.dim(a))
    return out


def act_component(T: GradedModule, key: int, p: UniPoly, alpha):
    """Apply the basis word f^key p(theta) (key >= 0) or p(theta) Delta^(-key)
    to the space at weight alpha.  Returns (target weight, matrix), or None
    when the path leaves the stored window."""
    d = T.pres.d
    if alpha not in T.dims:
        return None
    cur = alpha
    if key >= 0:
        m = mat_poly(p.shift(alpha), T.n_at(alpha))
        for _ in range(key):
            if cur + d not in T.dims or cur in T.f_boundary:
                return None
            m = mat_mul(T.f_at(cur), m)
            cur = cur + d
        return cur, m
    m = mat_identity(T.dim(alpha))
    for _ in range(-key):
        if cur - d not in T.dims or cur in T.d_boundary:
            return None
        m = mat_mul(T.d_at(cur), m)
        cur = cur - d
    return cur, mat_mul(mat_poly(p.shift(cur), T.n_at(cur)), m)


def act(T: GradedModule, x: AElement, alpha) -> dict:
    """Image of T_alpha under every graded component of x that stays in the
    window; a map target weight -> matrix."""
    if x.pres != T.pres:
        raise ValueError("presentation mismatch")
    out = {}
    for key, p in x.parts.items():
        hit = act_component(T, key, p, alpha)
        if hit is None:
            continue
        target, m = hit
        if target in out:
            out[target] = mat_add(out[target], m)
        else:
            out[target] = m
    return out
