"""Exact polynomial arithmetic: sparse multivariate and dense univariate.

Scalars are arbitrary-precision rationals.  We use ``fractions.Fraction``
and plain ``int`` interchangeably as coefficients (an int is a rational
with denominator 1; mixing the two is exact and keeps the all-integer
hot paths fast).  No floating point anywhere.

``TermMap`` holds the sparse additive structure (construction, equality,
sums, scalar multiples) that ``MultiPoly`` here and ``weyl.WeylOp`` share;
each subclass adds only its unit key and its product.  ``power`` is the
one powering loop, used by both polynomial classes and by the quotient
algebra.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import add as _add, mul as _mul


def ratio(a, b):
    """Exact quotient a/b, returned as int when the result is integral."""
    q = Fraction(a) / Fraction(b)
    return q.numerator if q.denominator == 1 else q


def as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def format_rational(c) -> str:
    """Canonical "p/q" wire form (denominator always present)."""
    f = as_fraction(c)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or plain integer text into a Fraction."""
    return Fraction(text.strip())


def _grlex(exps):
    return (sum(exps), exps)


def power(x, n, one, mul):
    """x^n as one * x * ... * x, multiplied left to right (n >= 0 an int)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = one
    for _ in range(n):
        out = mul(out, x)
    return out


def _power_text(name, k):
    """name^k as text: "" for k = 0, name for k = 1."""
    return "" if k == 0 else name if k == 1 else f"{name}^{k}"


def _join_terms(terms):
    """Render (coefficient, monomial text) pairs as "a*m - b*n + c"; "0" if none."""
    pieces = []
    for c, body in terms:
        cf = as_fraction(c)
        if not body:
            pieces.append(str(cf))
        elif cf == 1:
            pieces.append(body)
        elif cf == -1:
            pieces.append(f"-{body}")
        else:
            pieces.append(f"{cf}*{body}")
    if not pieces:
        return "0"
    text = pieces[0]
    for piece in pieces[1:]:
        text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return text


class TermMap:
    """Sparse map from monomial keys to nonzero coefficients, at a fixed arity.

    The additive structure shared by MultiPoly (keys are exponent vectors)
    and weyl.WeylOp (keys are pairs of them).  Zero coefficients are never
    stored, so equality of the term maps is equality of the values; values
    of different subclasses are never equal, and adding or multiplying
    them raises TypeError.  A subclass supplies its unit key and its
    product.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        self.terms = {} if terms is None else terms

    @staticmethod
    def unit_key(arity):
        raise NotImplementedError

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, arity, c):
        if c == 0:
            return cls(arity)
        return cls(arity, {cls.unit_key(arity): c})

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    # -- additive structure and scalars ----------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            if isinstance(other, TermMap):
                return NotImplemented       # neither is a scalar of the other
            other = self.constant(self.arity, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            nc = out.get(k, 0) + c
            if nc == 0:
                out.pop(k, None)
            else:
                out[k] = nc
        return type(self)(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        if isinstance(c, TermMap):
            raise TypeError(f"cannot multiply {type(self).__name__} and {type(c).__name__}")
        if c == 0:
            return type(self)(self.arity)
        return type(self)(self.arity, {k: v * c for k, v in self.terms.items()})


class MultiPoly(TermMap):
    """Sparse multivariate polynomial: map from exponent vectors to coefficients.

    Exponent vectors are tuples of fixed length ``arity``.  Iteration for
    display/serialization uses descending graded-lex order.
    """

    __slots__ = ()

    @staticmethod
    def unit_key(arity):
        return (0,) * arity

    # -- constructors -------------------------------------------------

    @classmethod
    def variable(cls, arity, i):
        e = [0] * arity
        e[i] = 1
        return cls(arity, {tuple(e): 1})

    @classmethod
    def monomial(cls, arity, exps, c=1):
        if c == 0:
            return cls(arity)
        exps = tuple(exps)
        if len(exps) != arity:
            raise ValueError("exponent vector length != arity")
        return cls(arity, {exps: c})

    # -- queries -------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get(self.unit_key(self.arity), 0)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def __repr__(self):
        return f"MultiPoly({self.arity}, {self.format()})"

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(other)
        self._check(other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(_add, e1, e2))
                c = c1 * c2
                acc = get(e)
                if acc is None:
                    out[e] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del out[e]
                    else:
                        out[e] = acc
        return MultiPoly(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, MultiPoly.one(self.arity), _mul)

    def partial(self, i: int):
        """Exact partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1:]
            out[ne] = c * k
        return MultiPoly(self.arity, out)

    def divide_exact(self, q: "MultiPoly"):
        """Return r with q*r == self, or None when self is not a multiple of q.

        Leading-term division under graded lex; a lazy max-heap tracks the
        current leading exponent of the remainder so each round costs
        O(|q| log T) instead of a full rescan.
        """
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly(self.arity)
        qlead = max(q.terms, key=_grlex)
        qc = q.terms[qlead]
        qitems = list(q.terms.items())
        rem = dict(self.terms)
        # min-heap keyed to pop the grlex-largest exponent first
        heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            rlead = heapq.heappop(heap)[2]
            if rlead not in rem:
                continue        # stale entry, already cancelled
            diff = tuple(a - b for a, b in zip(rlead, qlead))
            if any(x < 0 for x in diff):
                return None
            coef = ratio(rem[rlead], qc)
            quot[diff] = coef
            for e, c in qitems:
                te = tuple(map(_add, diff, e))
                old = rem.get(te)
                nc = (0 if old is None else old) - coef * c
                if nc == 0:
                    if old is not None:
                        del rem[te]
                else:
                    rem[te] = nc
                    if old is None:
                        heapq.heappush(heap, (-sum(te), tuple(-x for x in te), te))
        return MultiPoly(self.arity, quot)

    # -- variable plumbing ----------------------------------------------

    def with_extra_symbol(self):
        """Embed into the ring with one extra (last) variable."""
        return MultiPoly(
            self.arity + 1, {e + (0,): c for e, c in self.terms.items()}
        )

    def substitute_last(self, value):
        """Evaluate the last variable at a rational, dropping it."""
        out = {}
        for e, c in self.terms.items():
            k = e[-1]
            nc = c * (value ** k if k else 1)
            if nc == 0:
                continue
            ne = e[:-1]
            acc = out.get(ne, 0) + nc
            if acc == 0:
                out.pop(ne, None)
            else:
                out[ne] = acc
        return MultiPoly(self.arity - 1, out)

    def format(self) -> str:
        """Human-readable form in x1, x2, ..., graded-lex descending."""
        return _join_terms(
            (c, "*".join(_power_text(f"x{i + 1}", k) for i, k in enumerate(e) if k))
            for e, c in self.sorted_terms())


class UniPoly:
    """Dense univariate polynomial with a symbol tag ('s' or 'theta').

    Coefficients are stored low to high with no trailing zeros; the zero
    polynomial is the empty tuple.
    """

    __slots__ = ("symbol", "coeffs")

    def __init__(self, symbol: str, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.symbol = symbol
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, symbol):
        return cls(symbol)

    @classmethod
    def constant(cls, symbol, c):
        return cls(symbol, (c,))

    @classmethod
    def variable(cls, symbol):
        return cls(symbol, (0, 1))

    @classmethod
    def from_roots(cls, symbol, roots):
        """Monic polynomial with the given roots: prod (t - r)."""
        p = cls.constant(symbol, 1)
        for r in roots:
            p = p * cls(symbol, (-r, 1))
        return p

    @classmethod
    def from_offsets(cls, symbol, offsets):
        """Monic polynomial prod (t + o) -- roots are the negated offsets."""
        return cls.from_roots(symbol, [-o for o in offsets])

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.symbol == other.symbol and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.symbol, self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.format()})"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.symbol != other.symbol:
            raise ValueError(f"symbol mismatch: {self.symbol} != {other.symbol}")

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(self.symbol, other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.symbol, out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.symbol, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(self.symbol, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly(self.symbol, tuple(c * other for c in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.symbol)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.symbol, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, UniPoly.constant(self.symbol, 1), _mul)

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def shift(self, sigma):
        """Return t |-> p(t + sigma), exactly (Horner in t + sigma)."""
        out = UniPoly.zero(self.symbol)
        lin = UniPoly(self.symbol, (sigma, 1))
        for c in reversed(self.coeffs):
            out = out * lin + c
        return out

    def scale_arg(self, a):
        """Return t |-> p(a*t)."""
        out = []
        power = 1
        for c in self.coeffs:
            out.append(c * power)
            power = power * a
        return UniPoly(self.symbol, out)

    def monic(self):
        """Split into (leading coefficient, monic polynomial)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return lead, UniPoly(self.symbol, tuple(ratio(c, lead) for c in self.coeffs))

    def with_symbol(self, symbol):
        return UniPoly(symbol, self.coeffs)

    def deflate(self, r):
        """Divide by (t - r); returns (quotient, remainder value)."""
        quot = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
            quot.append(acc)
        rem = quot.pop()
        return UniPoly(self.symbol, list(reversed(quot))), rem

    def format(self) -> str:
        return _join_terms((self.coeffs[k], _power_text(self.symbol, k))
                           for k in range(len(self.coeffs) - 1, -1, -1)
                           if self.coeffs[k] != 0)


def _divisors(n: int):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(p: UniPoly):
    """All rational roots of p with multiplicity, sorted ascending.

    Candidates come from divisor enumeration of the trailing/leading
    integer coefficients after clearing denominators; every returned
    root is verified by exact evaluation (and peeled off by exact
    synthetic division to count multiplicity).  Irrational or complex
    factors contribute nothing.
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    roots = []
    # roots at zero
    work = list(p.coeffs)
    while work and work[0] == 0:
        roots.append(Fraction(0))
        work.pop(0)
    if len(work) <= 1:
        return sorted(roots)
    # clear denominators
    denom_lcm = 1
    for c in work:
        d = as_fraction(c).denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(as_fraction(c) * denom_lcm) for c in work]
    a0, an = ints[0], ints[-1]
    candidates = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    cur = UniPoly(p.symbol, work)
    for r in sorted(candidates):
        while not cur.is_zero() and cur.degree() >= 1 and cur.evaluate(r) == 0:
            cur, rem = cur.deflate(r)
            assert rem == 0
            roots.append(r)
    return sorted(roots)
