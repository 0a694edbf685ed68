"""The eight Capelli-type representations with one-dimensional quotient.

Each table row carries its builder, which returns the variable names,
the relative invariant f and the polynomial g whose constant-coefficient
operator g(d) is the dual operator Delta; g = f except in case (2), whose
dual puts half weights on the off-diagonal entries.  One generic
constructor adds the Euler operator theta and reads d = deg f off f.
Two table rows are internally inconsistent (their printed b does not fit
deg f); those rows carry a corrected rule and count as disputed, and the
differential-operator oracle is the authority on which is right.

Matrix entries are numbered column by column (upper triangles too), so
twisted_apply, which splits an operator by its highest variable, expands
a determinant or Pfaffian along its last column and shares the minors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Callable, Optional

from .poly import MultiPoly, UniPoly, _nonzero
from .weyl import WeylOp


@dataclass(frozen=True)
class CaseSpec:
    case_id: int
    name: str
    build: Callable[[int], tuple]    # size -> (variable names, f, g); Delta = g(d)
    fixed_size: Optional[int]        # None for parametric cases
    deg_f_rule: str
    b_rule: str                      # as printed in the table
    printed_b_offsets: Callable[[int], list]
    isotropy_g: str                  # generic isotropy in G (display only)
    isotropy_derived: str            # generic isotropy in G' (display only)
    corrected_b_offsets: Optional[Callable[[int], list]] = None   # disputed rows only
    corrected_b_rule: Optional[str] = None
    min_size: Optional[int] = None   # parametric cases only
    even_only: bool = False

    @property
    def disputed(self) -> bool:
        return self.corrected_b_offsets is not None

    @property
    def size_rule(self) -> str:
        if self.fixed_size is not None:
            return f"fixed, {self.fixed_size}"
        return ("n even, " if self.even_only else "") + f"n >= {self.min_size}"

    def valid_size(self, n: int) -> bool:
        if self.fixed_size is not None:
            return n == self.fixed_size
        return n >= self.min_size and not (self.even_only and n % 2)

    def expected_b(self, n: int) -> UniPoly:
        """Monic b-polynomial in s as printed in the table."""
        return UniPoly.from_offsets("s", self.printed_b_offsets(n))

    def catalog_b(self, n: int) -> UniPoly:
        """The catalog's working rule: corrected on disputed rows."""
        offs = (self.corrected_b_offsets or self.printed_b_offsets)(n)
        return UniPoly.from_offsets("s", offs)

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "name": self.name,
            "size_rule": self.size_rule,
            "deg_f_rule": self.deg_f_rule,
            "b_rule": self.b_rule,
            "corrected_b_rule": self.corrected_b_rule,
            "disputed": self.disputed,
            "isotropy_g": self.isotropy_g,
            "isotropy_derived": self.isotropy_derived,
        }


@dataclass(frozen=True)
class CaseInstance:
    case_id: int
    size: int
    variables: tuple
    f: MultiPoly
    delta: WeylOp
    theta: WeylOp
    d: int
    # lazily filled differentiation results (b, powers of f, Delta scalars,
    # profiles), owned by bfunction; never shared by a copy, ignored by equality
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# -- polynomial constructions ------------------------------------------


def _det(entry, n: int, arity: int) -> MultiPoly:
    """Determinant of the n x n matrix whose (i,j) entry is described by
    entry(i,j) -> (variable index, scalar factor)."""
    terms = {}
    for sigma in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        exps = [0] * arity
        coef = -1 if inv % 2 else 1
        for i in range(n):
            idx, factor = entry(i, sigma[i])
            exps[idx] += 1
            coef = coef * factor
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef
    return MultiPoly(arity, _nonzero(terms))


def _pfaffian(indices, var_of_pair, arity) -> MultiPoly:
    """Pfaffian over an even-sized sorted index tuple; expansion along the
    smallest index with alternating signs."""
    if not indices:
        return MultiPoly.one(arity)
    i0 = indices[0]
    rest = indices[1:]
    out = MultiPoly.zero(arity)
    for pos, j in enumerate(rest):
        sign = 1 if pos % 2 == 0 else -1
        sub = tuple(t for t in rest if t != j)
        term = MultiPoly.variable(arity, var_of_pair[(i0, j)]) * _pfaffian(sub, var_of_pair, arity)
        out = out + (term if sign == 1 else -term)
    return out


def _quadric(n: int):
    f = MultiPoly.zero(n)
    for i in range(n):
        e = [0] * n
        e[i] = 2
        f = f + MultiPoly.monomial(n, e, 1)
    return tuple(f"x{i + 1}" for i in range(n)), f, f


def _symmetric(n: int):
    # column by column, so twisted_apply's split shares minors (module docstring)
    pairs = [(i, j) for j in range(n) for i in range(j + 1)]
    idx = {}
    for k, (i, j) in enumerate(pairs):
        idx[(i, j)] = k
        idx[(j, i)] = k
    arity = len(pairs)
    f = _det(lambda i, j: (idx[(i, j)], 1), n, arity)
    # dual operator: half weight on off-diagonal entries
    g = _det(lambda i, j: (idx[(i, j)], 1 if i == j else Fraction(1, 2)), n, arity)
    return tuple(f"x{i + 1}{j + 1}" for i, j in pairs), f, g


def _alternating(n: int):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    idx = {(i, j): k for k, (i, j) in enumerate(pairs)}
    f = _pfaffian(tuple(range(n)), idx, len(pairs))
    return tuple(f"x{i + 1}{j + 1}" for i, j in pairs), f, f


def _matrix(n: int):
    f = _det(lambda i, j: (i * n + j, 1), n, n * n)
    return tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)), f, f


def _pairing(n: int):
    # two vectors in C^2n; f is the symplectic pairing
    arity = 4 * n
    f = MultiPoly.zero(arity)
    for i in range(n):
        e1 = [0] * arity
        e1[i] = 1
        e1[2 * n + n + i] = 1           # x_i * y_{n+i}
        e2 = [0] * arity
        e2[n + i] = 1
        e2[2 * n + i] = 1               # x_{n+i} * y_i
        f = f + MultiPoly.monomial(arity, e1, 1) - MultiPoly.monomial(arity, e2, 1)
    names = tuple(f"x{i + 1}" for i in range(2 * n)) + tuple(f"y{i + 1}" for i in range(2 * n))
    return names, f, f


CASES = [
    CaseSpec(
        case_id=1,
        name="(SO(n) x C*, C^n)",
        build=_quadric,
        fixed_size=None, min_size=2, even_only=False,
        deg_f_rule="2",
        b_rule="(s+1)(s+n/2)",
        printed_b_offsets=lambda n: [Fraction(1), Fraction(n, 2)],
        isotropy_g="SO(1) x SO(n-1)", isotropy_derived="SO(1) x SO(n-1)",
    ),
    CaseSpec(
        case_id=2,
        name="(GL(n), Sym^2 C^n)",
        build=_symmetric,
        fixed_size=None, min_size=2, even_only=False,
        deg_f_rule="n",
        b_rule="prod_{i=1..n} (s+(i+1)/2)",
        printed_b_offsets=lambda n: [Fraction(i + 1, 2) for i in range(1, n + 1)],
        isotropy_g="O(n)", isotropy_derived="SO(n)",
    ),
    CaseSpec(
        case_id=3,
        name="(GL(n), Alt^2 C^n), n even",
        build=_alternating,
        fixed_size=None, min_size=4, even_only=True,
        deg_f_rule="n/2",
        b_rule="prod_{i=1..n} (s+2i-1)",
        printed_b_offsets=lambda n: [Fraction(2 * i - 1) for i in range(1, n + 1)],
        corrected_b_offsets=lambda n: [Fraction(2 * i - 1) for i in range(1, n // 2 + 1)],
        corrected_b_rule="prod_{i=1..n/2} (s+2i-1)",
        isotropy_g="Sp(n/2)", isotropy_derived="Sp(n/2)",
    ),
    CaseSpec(
        case_id=4,
        name="(GL(n) x SL(n), M_n(C))",
        build=_matrix,
        fixed_size=None, min_size=2, even_only=False,
        deg_f_rule="n",
        b_rule="prod_{i=1..n} (s+i)",
        printed_b_offsets=lambda n: [Fraction(i) for i in range(1, n + 1)],
        isotropy_g="Sp(1) x Sp(n-1)", isotropy_derived="Sp(1) x Sp(n-1)",
    ),
    CaseSpec(
        case_id=5,
        name="(Sp(n) x GL(2), (C^2n)^2)",
        build=_pairing,
        fixed_size=None, min_size=2, even_only=False,
        deg_f_rule="2",
        b_rule="(s+1)(s+2n)",
        printed_b_offsets=lambda n: [Fraction(1), Fraction(2 * n)],
        isotropy_g="SL(n)", isotropy_derived="SL(n)",
    ),
    CaseSpec(
        case_id=6,
        name="(SO(7) x C*, spin C^8)",
        build=_quadric,
        fixed_size=8,
        deg_f_rule="2",
        b_rule="(s+2)(s+4)",
        printed_b_offsets=lambda n: [Fraction(2), Fraction(4)],
        corrected_b_offsets=lambda n: [Fraction(1), Fraction(4)],
        corrected_b_rule="(s+1)(s+4)",
        isotropy_g="SO(1) x SO(6)", isotropy_derived="SO(1) x SO(6)",
    ),
    CaseSpec(
        case_id=7,
        name="(G_2 x C*, C^7)",
        build=_quadric,
        fixed_size=7,
        deg_f_rule="2",
        b_rule="(s+1)(s+7/2)",
        printed_b_offsets=lambda n: [Fraction(1), Fraction(7, 2)],
        isotropy_g="", isotropy_derived="",
    ),
    CaseSpec(
        case_id=8,
        name="(GL(4) x Sp(2), M_4(C))",
        build=_matrix,
        fixed_size=4,
        deg_f_rule="4",
        b_rule="(s+1)(s+2)(s+3)(s+4)",
        printed_b_offsets=lambda n: [Fraction(i) for i in range(1, 5)],
        isotropy_g="", isotropy_derived="",
    ),
]

# minimal legal size per case, used by `bs verify-all --sizes min`;
# case (4) is verified at n=3 as well so the degree-3 determinant row
# is exercised
MIN_VERIFY_SIZES = sorted([(spec.case_id, spec.fixed_size or spec.min_size) for spec in CASES]
                          + [(4, 3)])
DEFAULT_VERIFY_SIZES = MIN_VERIFY_SIZES + [(1, 4), (2, 3), (3, 6), (5, 3)]


def list_cases() -> list:
    """The eight catalog rows, in order."""
    return list(CASES)


def case_spec(case_id: int) -> CaseSpec:
    for spec in CASES:
        if spec.case_id == case_id:
            return spec
    raise ValueError(f"no such case: {case_id}")


def instantiate(case_id: int, size: int) -> CaseInstance:
    """Build f, Delta, theta for a catalog case at the given size.

    One shared instance, memo included, per (case, size) for the whole
    process (lru_cache); dataclasses.replace gives a copy with a private memo.
    A size past the index range is refused before any builder runs."""
    spec = case_spec(case_id)
    if size > sys.maxsize:
        raise ValueError(f"size past the index range: at most {sys.maxsize}")
    if not spec.valid_size(size):
        raise ValueError(
            f"invalid size {size} for case ({case_id}): size rule is {spec.size_rule}")
    return _instantiate_cached(case_id, size)


@lru_cache(maxsize=None)
def _instantiate_cached(case_id: int, size: int) -> CaseInstance:
    spec = case_spec(case_id)
    names, f, g = spec.build(size)
    return CaseInstance(case_id, size, names, f, WeylOp.const_coeff_from_poly(g),
                        WeylOp.euler(len(names)), f.total_degree())


def catalog_json() -> list:
    return [spec.to_json_dict() for spec in CASES]
