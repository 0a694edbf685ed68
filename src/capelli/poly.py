"""Exact polynomial arithmetic: sparse multivariate and dense univariate.

Scalars are exact rationals, each a plain ``int`` or a ``fractions.Fraction``
and never converted (an int is a rational with denominator 1; mixing the
two is exact and keeps the all-integer hot paths fast).  No floating point
anywhere: ``_check_scalar``, the one scalar type check, raises TypeError on
anything else at each entry: ``constant``, scalar products, ``shift``,
``scale_arg``, ``monomial``, ``from_offsets``, the ladders' lambda and the
arguments of ``delta_scalar`` and ``edge_scalar``; never in bare constructors.

``TermMap`` holds the sparse additive structure (construction, equality,
sums, scalar multiples) that ``MultiPoly`` here and ``weyl.WeylOp`` share;
each subclass adds only its unit key and its product.  No zero coefficient
is stored: each sparse sum adds into a scratch dict, and ``_nonzero`` alone
drops the zeros, once, as the result is built.  ``power`` is the
one powering loop, used by both polynomial classes and by the quotient
algebra.

The plain kernels, MultiPoly.__mul__ and weyl.weyl_apply, work on packed
keys: an exponent tuple becomes one int, each variable a field of whole
bytes, lowest variable lowest (_packing).  A monomial product is then one
int add.  Packing is exact only while no field carries into or borrows
from its neighbour, so each call chooses the field width from its
operands' largest exponents; keys are packed on entry and unpacked on
exit, and .terms stays tuple-keyed.

The theta-polynomial kernels, UniPoly.__mul__ and UniPoly.shift by an
integer, run on integer numerators over one common denominator, the
layout of FLINT's fmpq_poly: each operand is scaled to integers over the
lcm of its denominators (_numerators), the loop runs in plain ints, and
each output coefficient is built once over the product of the
denominators (_rationals), so a product pays one gcd per coefficient,
not one per multiply-add.  An integral coefficient comes back as an int,
even where the operands held Fraction(4); values, equality and hashes
are unchanged, since Fraction(4) == 4 and hash(Fraction(4)) == hash(4).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import lcm
from operator import add as _add, attrgetter, floordiv, mul as _mul, neg as _neg, or_, sub as _sub


def ratio(a, b):
    """Exact quotient a/b, returned as int when the result is integral."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def format_rational(c) -> str:
    """Canonical "p/q" wire form (denominator always present)."""
    return f"{c.numerator}/{c.denominator}"


def _grlex(exps):
    return (sum(exps), exps)


def _check_scalar(c, what):
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, not {type(c).__name__}")


def _nonzero(terms):
    """Delete the zero coefficients from the dict terms, in place, and return it."""
    for k in [k for k, c in terms.items() if c == 0]:
        del terms[k]
    return terms


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _numerators(coeffs):
    """(numerators, den) with coeffs[i] == numerators[i] / den, den the lcm of the denominators."""
    dens = list(map(_denominator, coeffs))
    den = lcm(*dens)
    if den == 1:                # most operands in the quotient algebra: skip the scaling
        return list(map(_numerator, coeffs)), 1
    return list(map(_mul, map(_numerator, coeffs), map(floordiv, repeat(den), dens))), den


def _rationals(numerators, den):
    """The coefficients numerators[i] / den: an int where integral, else one Fraction."""
    if den == 1:
        return numerators
    return [n // den if n % den == 0 else Fraction(n, den) for n in numerators]


def _packing(groups, arity, need):
    """Pack groups of exponent tuples, each of length arity, into ints.

    Each variable gets a field of whole bytes, lowest variable lowest.
    need maps an upper bound on each group's entries to the largest value
    a field must hold, and the fields are made just wide enough for it.
    Returns (field bits, one list of packed ints per group, unpack), where
    unpack maps an iterable of packed ints back to tuples.

    One-byte fields are packed in C (int.from_bytes over bytes), and each
    group's bound is read off the OR of its packed keys, which is below
    twice its largest entry.  Wider fields, which only large exponents
    need, take the exact maxima and a slower loop.
    """
    try:
        packed = [list(map(int.from_bytes, map(bytes, keys), repeat("little")))
                  for keys in groups]
        # one spare zero byte, so that arity 0 or no keys give bound 0
        bounds = [max(reduce(or_, ks, 0).to_bytes(arity + 1, "little")) for ks in packed]
    except ValueError:                      # an entry past 255
        pass
    else:
        if need(bounds) < 256:
            return 8, packed, lambda keys: map(
                tuple, map(int.to_bytes, keys, repeat(arity), repeat("little")))
    width = (need([max(map(max, keys), default=0) if arity else 0 for keys in groups])
             .bit_length() + 7) // 8
    size = width * arity

    def pack(e):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in e), "little")

    def unpack(keys):
        for k in keys:
            b = k.to_bytes(size, "little")
            yield tuple(int.from_bytes(b[i:i + width], "little") for i in range(0, size, width))

    return 8 * width, [list(map(pack, keys)) for keys in groups], unpack


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
        if not body:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(body)
        elif c == -1:
            pieces.append(f"-{body}")
        else:
            pieces.append(f"{c}*{body}")
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
    stored (every summing loop builds its result through _nonzero), so
    equality of the term maps is equality of the values.  A scalar is an
    int or a Fraction; values of different subclasses are never equal, and
    adding or multiplying them raises TypeError.  A subclass supplies its
    unit key and its product.
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
        _check_scalar(c, "a constant")
        return cls(arity, _nonzero({cls.unit_key(arity): c}))

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
            other = self.constant(self.arity, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                out[k] = acc + c
        return type(self)(self.arity, _nonzero(out))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        _check_scalar(c, "a scalar factor")
        return type(self)(self.arity, _nonzero({k: v * c for k, v in self.terms.items()}))


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
        exps = tuple(exps)
        if len(exps) != arity:
            raise ValueError("exponent vector length != arity")
        _check_scalar(c, "a coefficient")
        return cls(arity, _nonzero({exps: c}))

    # -- queries -------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
        n = self.arity
        _, (left, right), unpack = _packing((self.terms, other.terms), n, sum)
        right = list(zip(right, other.terms.values()))
        out = {}
        get = out.get
        for k1, c1 in zip(left, self.terms.values()):
            for k2, c2 in right:
                k = k1 + k2
                c = c1 * c2
                acc = get(k)
                if acc is None:
                    out[k] = c
                else:
                    out[k] = acc + c
        return MultiPoly(n, _nonzero(dict(zip(unpack(out), out.values()))))

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

        Leading-term division under graded lex (Johnson 1974; Monagan and
        Pearce, J. Symb. Comp. 46, 2011).  A heap pops the remainder's
        exponents grlex-largest first, each pushed once when it enters.
        Every update lands strictly below the popped lead, so each exponent
        is popped once, after its last update; a zero one has cancelled.
        """
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        qlead = max(q.terms, key=_grlex)
        qc = q.terms[qlead]
        qrest = [(e, c) for e, c in q.terms.items() if e != qlead]
        rem = dict(self.terms)
        # min-heap keyed to pop the grlex-largest exponent first
        heap = [(-sum(e), tuple(map(_neg, e)), e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            rlead = heapq.heappop(heap)[2]
            rc = rem.pop(rlead)
            if rc == 0:
                continue
            diff = tuple(map(_sub, rlead, qlead))
            if any(x < 0 for x in diff):
                return None
            coef = ratio(rc, qc)
            quot[diff] = coef
            for e, c in qrest:
                te = tuple(map(_add, diff, e))
                old = rem.get(te)
                if old is None:
                    heapq.heappush(heap, (-sum(te), tuple(map(_neg, te)), te))
                rem[te] = (0 if old is None else old) - coef * c
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
            ne = e[:-1]
            out[ne] = out.get(ne, 0) + nc
        return MultiPoly(self.arity - 1, _nonzero(out))

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
        _check_scalar(c, "a constant")
        return cls(symbol, (c,))

    @classmethod
    def variable(cls, symbol):
        return cls(symbol, (0, 1))

    @classmethod
    def from_offsets(cls, symbol, offsets):
        """Monic polynomial prod (t + o) -- roots are the negated offsets."""
        p = cls.constant(symbol, 1)
        for o in offsets:
            _check_scalar(o, "an offset")
            p = p * cls(symbol, (o, 1))
        return p

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
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product by a scalar, or by a UniPoly: a convolution of integer
        numerators, divided once per output coefficient (module docstring)."""
        if not isinstance(other, UniPoly):
            _check_scalar(other, "a scalar factor")
            return UniPoly(self.symbol, tuple(c * other for c in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.symbol)
        a, da = _numerators(self.coeffs)
        b, db = _numerators(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return UniPoly(self.symbol, _rationals(out, da * db))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, UniPoly.constant(self.symbol, 1), _mul)

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def shift(self, sigma):
        """Return t |-> p(t + sigma), exactly.

        The classical Taylor shift, in place on a copy of the coefficient
        list (von zur Gathen and Gerhard, ISSAC 1997): pass i folds
        sigma times each coefficient above i into the one below it, from
        the top down, n(n-1)/2 multiply-adds in all, and one UniPoly is
        built at the end.  For an integer sigma the list holds the integer
        numerators over the common denominator, so the multiply-adds are
        int operations and an integral result coefficient is an int; any
        other sigma shifts the coefficients themselves.
        """
        _check_scalar(sigma, "a shift")
        if sigma == 0:
            return self         # immutable, so the identity shift shares it
        if sigma.denominator == 1:
            a, den = _numerators(self.coeffs)
            sigma = sigma.numerator
        else:
            a, den = list(self.coeffs), 1
        n = len(a)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                a[j] += sigma * a[j + 1]
        return UniPoly(self.symbol, _rationals(a, den))

    def scale_arg(self, a):
        """Return t |-> p(a*t)."""
        _check_scalar(a, "an argument scale")
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
    ints, _ = _numerators(work)         # clear denominators
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
