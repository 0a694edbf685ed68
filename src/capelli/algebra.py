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

(basis {f^a theta^k} u {theta^k Delta^b}).  Products of basis words stay
single basis words, so multiplication reduces to shift bookkeeping; the
confluence fuzzer checks that no rewriting order can disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import UniPoly, as_fraction, format_rational, power

F = "f"
THETA = "theta"
DELTA = "delta"
GENERATORS = (F, THETA, DELTA)
FUZZ_MAX_LEN = 8      # longest random word confluence_fuzz draws


@dataclass(frozen=True)
class APresentation:
    """Degree d plus the contraction polynomial B(theta) of the (Delta f) relation."""

    d: int
    B: UniPoly
    c: Fraction = field(compare=False, default=Fraction(1))
    b_monic: UniPoly = field(compare=False, default=None)

    @classmethod
    def from_b(cls, d: int, c, b_monic: UniPoly):
        """Build from Bernstein-Sato data: B(t) = c * b(t/d) with b monic in s."""
        if d <= 0:
            raise ValueError("d must be positive")
        if b_monic.degree() != d:
            raise ValueError(f"deg b = {b_monic.degree()} != d = {d}")
        c = as_fraction(c)
        if c <= 0:
            raise ValueError("the constant c must be positive")
        B = (b_monic.scale_arg(Fraction(1, d)) * c).with_symbol(THETA)
        return cls(d=d, B=B, c=c, b_monic=b_monic.with_symbol("s"))

    def __post_init__(self):
        if self.B.degree() != self.d:
            raise ValueError("deg B must equal d")
        if as_fraction(self.B.leading()) <= 0:
            raise ValueError("B must have positive leading coefficient")
        if self.B.evaluate(-self.d) != 0:
            raise ValueError("B(-d) must vanish (theta = 0 must solve the fDelta relation)")
        if self.b_monic is None:
            scaled = self.B.scale_arg(self.d)      # t |-> B(d*t) = c * b(t)
            cval = as_fraction(scaled.leading())
            object.__setattr__(self, "b_monic", (scaled * (1 / cval)).with_symbol("s"))
            object.__setattr__(self, "c", cval)

    def edge_scalar(self, s_value) -> Fraction:
        """c * b(s_value): the Delta-edge scalar of ladder modules."""
        return as_fraction(self.B.evaluate(self.d * as_fraction(s_value)))

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
        return f"AElement({self.format()})"

    def _check(self, other):
        if self.pres != other.pres:
            raise ValueError("presentation mismatch")

    def format(self) -> str:
        if not self.parts:
            return "0"
        pieces = []
        for k in sorted(self.parts, reverse=True):
            p = self.parts[k]
            body = p.format()
            if k == 0:
                pieces.append(body)
            else:
                head = (F if k == 1 else f"{F}^{k}") if k > 0 else \
                    (DELTA if k == -1 else f"{DELTA}^{-k}")
                if p.degree() == 0 and p.coeffs[0] == 1:
                    pieces.append(head)
                elif k > 0:
                    pieces.append(f"{head}*({body})")
                else:
                    pieces.append(f"({body})*{head}")
        return "  +  ".join(pieces)


def a_add(x: AElement, y: AElement) -> AElement:
    x._check(y)
    out = dict(x.parts)
    for k, p in y.parts.items():
        np = out.get(k, UniPoly.zero(THETA)) + p
        if np.is_zero():
            out.pop(k, None)
        else:
            out[k] = np
    return AElement(x.pres, out)


def a_neg(x: AElement) -> AElement:
    return AElement(x.pres, {k: -p for k, p in x.parts.items()})


def a_sub(x: AElement, y: AElement) -> AElement:
    return a_add(x, a_neg(y))


def _contract_right(pres: APresentation, a: int, p: UniPoly, b: int):
    """Normal form of f^a p(theta) Delta^b: contract f against Delta from the inside."""
    d = pres.d
    while a > 0 and b > 0:
        # f * p(theta) * Delta = p(theta-d) B(theta-d)
        p = p.shift(-d) * pres.B.shift(-d)
        a -= 1
        b -= 1
    return a, p, b


def _delta_pow_f_pow(pres: APresentation, b: int, a: int):
    """Normal form of Delta^b f^a as a single basis word (a', p, b')."""
    d = pres.d
    p = UniPoly.constant(THETA, 1)
    while a > 0 and b > 0:
        # Delta^b f = B(theta + (b-1)d) Delta^(b-1), accumulated on the left
        p = pres.B.shift((b - 1) * d) * p
        a -= 1
        b -= 1
    if a > 0:
        # R(theta) f^a = f^a R(theta + a*d)
        return a, p.shift(a * d), 0
    return 0, p, b


def _basis_mul(pres: APresentation, k1: int, p1: UniPoly, k2: int, p2: UniPoly):
    """Product of two basis words; returns (key, theta-polynomial)."""
    d = pres.d
    a1, b1 = (k1, 0) if k1 >= 0 else (0, -k1)
    a2, b2 = (k2, 0) if k2 >= 0 else (0, -k2)
    am, pm, bm = _delta_pow_f_pow(pres, b1, a2)
    # f^a1 p1(theta) [f^am pm(theta) Delta^bm] p2(theta) Delta^b2
    p = p1.shift(am * d) * pm * p2.shift(bm * d)
    a, p, b = _contract_right(pres, a1 + am, p, bm + b2)
    return (a if b == 0 else -b), p


def a_mul(x: AElement, y: AElement) -> AElement:
    x._check(y)
    out = {}
    for k1, p1 in x.parts.items():
        for k2, p2 in y.parts.items():
            k, p = _basis_mul(x.pres, k1, p1, k2, p2)
            np = out.get(k, UniPoly.zero(THETA)) + p
            if np.is_zero():
                out.pop(k, None)
            else:
                out[k] = np
    return AElement(x.pres, out)


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


def graded_components(x: AElement) -> dict:
    """Split into theta-adjoint-degree homogeneous pieces, keyed by the degree."""
    out = {}
    for k, p in x.parts.items():
        out[k * x.pres.d] = AElement(x.pres, {k: p})
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
            r = rng.random()
            if r < 0.9:
                word.append(rng.choice(GENERATORS))
            else:
                word.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        left = from_word(pres, word)
        right = _nf_right(pres, word)
        i = rng.randint(0, length)
        j = rng.randint(i, length)
        u, v, w = word[:i], word[i:j], word[j:]
        assoc_a = a_mul(from_word(pres, u), a_mul(from_word(pres, v), from_word(pres, w)))
        assoc_b = a_mul(a_mul(from_word(pres, u), from_word(pres, v)), from_word(pres, w))
        if not (left == right == assoc_a == assoc_b):
            discrepancies.append(word)
    return ConfluenceReport(trials, trials, discrepancies)


def confluence_exhaustive(pres: APresentation, max_len: int) -> ConfluenceReport:
    """All generator words up to the given length, reduced two ways."""
    discrepancies = []
    count = 0
    words = [[]]
    for _ in range(max_len):
        words = [w + [g] for w in words for g in GENERATORS]
        for word in words:
            count += 1
            if from_word(pres, word) != _nf_right(pres, word):
                discrepancies.append(list(word))
    return ConfluenceReport(0, count, discrepancies)
