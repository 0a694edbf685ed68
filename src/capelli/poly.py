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

A UniPoly is stored as integer numerators over one positive denominator,
the layout of FLINT's fmpq_poly: nums[i] / den is the coefficient of
degree i, with no trailing zero numerator and gcd(den, *nums) == 1, so
each value has one stored form (the zero polynomial is () over 1).
Sums, products and shifts run on the numerators, in ints, and reduce by
one gcd per result, not one per multiply-add; the product and the Taylor
shift are the private kernels _convolve and _taylor_shift.  The read-only
coeffs gives the rationals, an int wherever a coefficient is integral.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import gcd, lcm
from operator import add as _add, mul as _mul, neg as _neg, or_, sub as _sub


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


def _convolve(a, b):
    """The coefficients of the product of two int coefficient lists, low to high."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _taylor_shift(a, den, sigma):
    """(numerators, den) of t |-> p(t + sigma), p having numerators a over
    den; the list a may be reused.  The classical Taylor shift (von zur
    Gathen and Gerhard, ISSAC 1997); sigma = 0 returns at once.  With sigma
    = u/v in lowest terms, scaling the numerator of degree i by v^(n-1-i)
    turns the shift by u/v into one by u; pass i folds u times each
    numerator above i into the one below it, n(n-1)/2 int multiply-adds in
    all; the result of degree i is scaled back by v^i over den*v^(n-1).
    """
    if sigma == 0:
        return a, den
    u, v = sigma.numerator, sigma.denominator
    n = len(a)
    if v != 1:
        a = [x * v ** (n - 1 - i) for i, x in enumerate(a)]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += u * a[j + 1]
    if v != 1:
        a = [x * v ** i for i, x in enumerate(a)]
        den *= v ** (n - 1)
    return a, den


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
    """Dense univariate polynomial with a symbol tag ('s' or 'theta'): the int
    numerators nums, low to high, over the int den, canonical (module docstring).
    """

    __slots__ = ("symbol", "nums", "den")

    def __init__(self, symbol: str, coeffs=()):
        cs = tuple(coeffs)
        den = lcm(*(c.denominator for c in cs))
        self._set(symbol, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _raw(cls, symbol, nums, den):
        """The polynomial with coefficients nums[i] / den (nums a list, den > 0)."""
        return cls.__new__(cls)._set(symbol, nums, den)

    def _set(self, symbol, nums, den):
        while nums and nums[-1] == 0:
            nums.pop()
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        self.symbol = symbol
        self.nums = tuple(nums)
        self.den = den
        return self

    @property
    def coeffs(self):
        """The coefficients low to high: an int where integral, else a Fraction."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple(n // den if n % den == 0 else Fraction(n, den) for n in self.nums)

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
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def leading(self):
        return ratio(self.nums[-1], self.den) if self.nums else 0

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.symbol == other.symbol and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.symbol, self.den, self.nums))

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
        a, b = self, other
        if len(a.nums) < len(b.nums):
            a, b = b, a
        den = lcm(a.den, b.den)
        out = list(a.nums) if den == a.den else [x * (den // a.den) for x in a.nums]
        scale = den // b.den
        for i, y in enumerate(b.nums):
            out[i] += y * scale
        return UniPoly._raw(self.symbol, out, den)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._raw(self.symbol, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product by a scalar, or by a UniPoly (a convolution of the numerators)."""
        if not isinstance(other, UniPoly):
            _check_scalar(other, "a scalar factor")
            u = other.numerator
            return UniPoly._raw(self.symbol, [x * u for x in self.nums],
                                self.den * other.denominator)
        self._check(other)
        return UniPoly._raw(self.symbol, _convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, UniPoly.constant(self.symbol, 1), _mul)

    def evaluate(self, x):
        """p(x) at a rational x = u/v: Horner on the ints nums[i] * u^i * v^(n-1-i)."""
        u, v = x.numerator, x.denominator
        total = 0
        scale = 1               # v^(n-1-i) at the numerator of degree i
        for c in reversed(self.nums):
            total = total * u + c * scale
            scale *= v
        return ratio(total * v, self.den * scale)     # scale = v^n

    def shift(self, sigma):
        """Return t |-> p(t + sigma), exactly (_taylor_shift on the numerators)."""
        _check_scalar(sigma, "a shift")
        if sigma == 0 or not self.nums:
            return self         # immutable, so the identity shift shares it
        return UniPoly._raw(self.symbol, *_taylor_shift(list(self.nums), self.den, sigma))

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
        lead = self.leading()
        return lead, UniPoly(self.symbol, tuple(ratio(c, lead) for c in self.coeffs))

    def with_symbol(self, symbol):
        return UniPoly._raw(symbol, list(self.nums), self.den)

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
        cs = self.coeffs
        return _join_terms((cs[k], _power_text(self.symbol, k))
                           for k in range(len(cs) - 1, -1, -1) if cs[k] != 0)


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
    cur = UniPoly(p.symbol, work)
    a0, an = cur.nums[0], cur.nums[-1]      # the integer numerators
    candidates = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for r in sorted(candidates):
        while not cur.is_zero() and cur.degree() >= 1 and cur.evaluate(r) == 0:
            cur, rem = cur.deflate(r)
            assert rem == 0
            roots.append(r)
    return sorted(roots)
