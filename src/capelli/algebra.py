"""The algebra generated by f, theta, Delta modulo the Bernstein-Sato relations.

A presentation is the pair (d, B): d = deg f, and B the degree-d
polynomial with positive leading coefficient appearing on the right of
the contraction relation  Delta*f = B(theta).  The remaining relations
are the commutators  [theta, f] = d*f  and  [theta, Delta] = -d*Delta,
which as rewriting rules read

    p(theta) * f      ->  f * p(theta + d)
    p(theta) * Delta  ->  Delta * p(theta - d)
    Delta * f         ->  B(theta)
    f * Delta         ->  B(theta - d)

Every element has a unique normal form

    sum_{a>=1} f^a p_a(theta)  +  p_0(theta)  +  sum_{b>=1} q_b(theta) Delta^b

(basis {f^a theta^k} u {theta^k Delta^b}).  This is the generalized Weyl
algebra C[theta](sigma: theta -> theta - d, B), so basis words multiply in
closed form.  With key k >= 0 for f^k p(theta) and k < 0 for
p(theta) Delta^(-k), the product of (k1, p1) and (k2, p2) is the word of
key k = k1 + k2 with polynomial

    p1(theta + s1*d) * prod_t B(theta + t*d) * p2(theta + s2*d),

where low = min(k, 0), s1 = min(k1, 0) + k2 - low, s2 = min(k2, 0) - low,
and t runs over |k| <= t < |k| + min(-k1, k2) when k1 < 0 <= k2 (Delta^b f^a
contracts), over -min(k1, -k2) <= t <= -1 when k2 < 0 <= k1 (f^a Delta^b
contracts), and over nothing otherwise.  _basis_mul runs it as UniPoly
shifts and products; each B(theta + t*d) is shifted once per t and kept
on the presentation (APresentation.B_shift).  The confluence checks
compare rewriting orders, computing each product once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .poly import UniPoly, _check_scalar, format_rational, power, rational_roots

F = "f"
THETA = "theta"
DELTA = "delta"
GENERATORS = (F, THETA, DELTA)
FUZZ_MAX_LEN = 8      # longest random word confluence_fuzz draws


@dataclass(frozen=True)
class APresentation:
    """Degree d and the contraction polynomial B(theta); B(d*s) = c * b_monic(s).

    One memo keeps what the products and ladders read again: B_shift's
    B(theta + t*d), keyed on the int t, and b_roots's roots, keyed on
    None.  Equality, hashing and repr ignore it: two presentations with
    equal (d, B) stay equal, and each fills only its own memo.
    """

    d: int
    B: UniPoly
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_b(cls, d: int, c, b_monic: UniPoly):
        """Build from Bernstein-Sato data: B(t) = c * b(t/d) with b monic in s."""
        if d <= 0:
            raise ValueError("d must be positive")
        if b_monic.degree() != d:
            raise ValueError(f"deg b = {b_monic.degree()} != d = {d}")
        return cls(d=d, B=(b_monic.scale_arg(Fraction(1, d)) * c).with_symbol(THETA))

    def __post_init__(self):
        if self.B.degree() != self.d:
            raise ValueError("deg B must equal d")
        if self.B.leading() <= 0:
            raise ValueError("B must have positive leading coefficient")
        if self.B.evaluate(-self.d) != 0:
            raise ValueError("B(-d) must vanish (theta = 0 must solve the fDelta relation)")

    @property
    def c(self) -> int | Fraction:
        """Leading coefficient of B(d*s)."""
        return self.B.leading() * self.d ** self.d

    @property
    def b_monic(self) -> UniPoly:
        """The monic b(s) = B(d*s) / c."""
        return (self.B.scale_arg(self.d) * Fraction(1, self.c)).with_symbol("s")

    def B_shift(self, t: int) -> UniPoly:
        """B(theta + t*d), shifted once per t and kept here."""
        if t not in self._memo:
            self._memo[t] = self.B.shift(t * self.d)
        return self._memo[t]

    def b_roots(self) -> tuple:
        """The rational roots of b_monic with multiplicity, ascending; found once."""
        if None not in self._memo:
            self._memo[None] = tuple(rational_roots(self.b_monic))
        return self._memo[None]

    def edge_scalar(self, s_value) -> int | Fraction:
        """c * b(s_value): the Delta-edge scalar of ladder modules."""
        _check_scalar(s_value, "s")
        return self.B.evaluate(self.d * s_value)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "B": [format_rational(c) for c in self.B.coeffs]}


class AElement:
    """Normal-form element: map from a signed ladder index to a theta-polynomial.

    Key a > 0 stands for f^a p(theta), key 0 for p(theta), key -b for
    p(theta) Delta^b.  Zero polynomials are never stored.
    """

    __slots__ = ("pres", "parts")

    def __init__(self, pres: APresentation, parts=None):
        self.pres = pres
        self.parts = {} if parts is None else parts

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, pres):
        return cls(pres)

    @classmethod
    def scalar(cls, pres, value):
        if value == 0:
            return cls(pres)
        return cls(pres, {0: UniPoly.constant(THETA, value)})

    @classmethod
    def generator(cls, pres, name):
        if name == F:
            return cls(pres, {1: UniPoly.constant(THETA, 1)})
        if name == THETA:
            return cls(pres, {0: UniPoly.variable(THETA)})
        if name == DELTA:
            return cls(pres, {-1: UniPoly.constant(THETA, 1)})
        raise ValueError(f"unknown generator {name!r}")

    # -- structure -----------------------------------------------------

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        if not isinstance(other, AElement):
            return NotImplemented
        return self.pres == other.pres and self.parts == other.parts

    __hash__ = None

    def __repr__(self):
        from .expr import element_to_expr, fmt_expr    # expr imports this module
        return f"AElement({fmt_expr(element_to_expr(self))})"

    def _check(self, other):
        if self.pres != other.pres:
            raise ValueError("presentation mismatch")


def _collect(pres: APresentation, parts) -> AElement:
    """Sum (key, theta-polynomial) pairs into an element, dropping zero parts."""
    out = {}
    for k, p in parts:
        if k in out:
            p = out[k] + p
        if p.is_zero():
            out.pop(k, None)
        else:
            out[k] = p
    return AElement(pres, out)


def a_add(x: AElement, y: AElement) -> AElement:
    x._check(y)
    return _collect(x.pres, chain(x.parts.items(), y.parts.items()))


def a_neg(x: AElement) -> AElement:
    return AElement(x.pres, {k: -p for k, p in x.parts.items()})


def a_sub(x: AElement, y: AElement) -> AElement:
    return a_add(x, a_neg(y))


def _basis_mul(pres: APresentation, k1: int, p1: UniPoly, k2: int, p2: UniPoly):
    """Product of two basis words (module docstring); returns (key, theta-polynomial)."""
    d = pres.d
    k = k1 + k2
    low = min(k, 0)
    steps = ()
    if k1 < 0 <= k2:
        steps = range(abs(k), abs(k) + min(-k1, k2))
    elif k2 < 0 <= k1:
        steps = range(-min(k1, -k2), 0)
    p = p1.shift((min(k1, 0) + k2 - low) * d)
    for t in steps:
        p = p * pres.B_shift(t)
    return k, p * p2.shift((min(k2, 0) - low) * d)


def a_mul(x: AElement, y: AElement) -> AElement:
    x._check(y)
    return _collect(x.pres, (_basis_mul(x.pres, k1, p1, k2, p2)
                             for k1, p1 in x.parts.items() for k2, p2 in y.parts.items()))


def a_pow(x: AElement, n: int) -> AElement:
    return power(x, n, AElement.scalar(x.pres, 1), a_mul)


def _token_element(pres, tok):
    if isinstance(tok, str):
        return AElement.generator(pres, tok)
    return AElement.scalar(pres, tok)


def from_word(pres: APresentation, word) -> AElement:
    """Normal form of a product word; tokens are generator names or rational scalars."""
    out = AElement.scalar(pres, 1)
    for tok in word:
        out = a_mul(out, _token_element(pres, tok))
    return out


# -- confluence checking ------------------------------------------------


def _nf_right(pres, word):
    out = AElement.scalar(pres, 1)
    for tok in reversed(word):
        out = a_mul(_token_element(pres, tok), out)
    return out


@dataclass
class ConfluenceReport:
    trials: int
    words_checked: int
    discrepancies: list

    @property
    def passed(self):
        return not self.discrepancies


def confluence_fuzz(pres: APresentation, trials: int, seed: int) -> ConfluenceReport:
    """Random-word check that rewriting order cannot change normal forms.

    Each trial draws a word of 1 to FUZZ_MAX_LEN tokens over {f, theta,
    delta} (with an occasional scalar token), reduces it left-to-right and
    right-to-left, and also re-associates a random three-way split; all
    reductions must agree.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    discrepancies = []
    for _ in range(trials):
        length = rng.randint(1, FUZZ_MAX_LEN)
        word = []
        for _ in range(length):
            if rng.random() < 0.9:
                word.append(rng.choice(GENERATORS))
            else:
                word.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        left = from_word(pres, word)
        right = _nf_right(pres, word)
        i = rng.randint(0, length)
        j = rng.randint(i, length)
        u, v, w = (from_word(pres, part) for part in (word[:i], word[i:j], word[j:]))
        if not (left == right == a_mul(u, a_mul(v, w)) == a_mul(a_mul(u, v), w)):
            discrepancies.append(word)
    return ConfluenceReport(trials, trials, discrepancies)


def confluence_exhaustive(pres: APresentation, max_len: int) -> ConfluenceReport:
    """All generator words up to the given length, reduced two ways.

    Level l's left folds x*g and right folds g*x, in the association orders
    of from_word and _nf_right, are built on level l-1's, in word order.
    """
    discrepancies = []
    count = 0
    gens = [AElement.generator(pres, g) for g in GENERATORS]
    words = [[]]
    lefts = rights = [AElement.scalar(pres, 1)]
    for _ in range(max_len):
        words = [w + [g] for w in words for g in GENERATORS]
        lefts = [a_mul(x, g) for x in lefts for g in gens]
        rights = [a_mul(g, x) for g in gens for x in rights]
        count += len(words)
        discrepancies += [w for w, x, y in zip(words, lefts, rights) if x != y]
    return ConfluenceReport(0, count, discrepancies)
