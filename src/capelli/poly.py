"""Exact polynomial arithmetic: sparse multivariate and dense univariate.

Scalars are exact rationals, each a plain ``int`` or a ``fractions.Fraction``
and never converted (an int is a rational with denominator 1; mixing the
two is exact and keeps the all-integer hot paths fast).  No floating point
anywhere: ``_check_scalar``, the one scalar type check, raises TypeError on
anything else at each entry: ``constant``, scalar products, ``shift``,
``scale_arg``, ``monomial``, ``from_offsets``, the ladders' lambda and the
arguments of ``delta_scalar`` and ``edge_scalar``; never in bare constructors.

``TermMap`` is the one sparse term store, shared by ``MultiPoly`` here and
``weyl.WeylOp``: packed keys, construction, equality, sums and scalar
multiples.  A subclass gives only its number of exponent fields per
variable (FIELDS), the codec between its public keys and flat exponent
tuples, and its product; a WeylOp stores x^alpha d^beta as the flat tuple
alpha + beta.  No zero coefficient is stored: each sparse sum adds into a
scratch dict, and ``_nonzero`` alone drops the zeros, once, as the result
is built.  ``power`` is the one powering loop, used by both polynomial
classes and by the quotient algebra.

A TermMap stores its terms once, keyed by packed ints.  At field width w,
the key of the flat exponent tuple e holds the total degree sum(e) in its
top field and then e[0] down to e[-1], one w-bit field each (_pack), so
comparing two keys of one width compares their monomials in graded lex,
and a monomial product is one int add.  w is the least number of whole
bytes that keeps the top bit of each field, the guard, above the total
degree (_width): a function of the value alone, so equal values store
equal dicts.  A kernel whose result needs wider fields re-packs its
operands first (a product works at the width of the sum of the two
degrees), and a result whose top degree cancelled is re-packed down
(TermMap._raw); exponents of any size stay exact.  The guards make a
fieldwise comparison one subtraction: with G the guard bits, x^l divides
x^e exactly when ((E | G) - L) & G == G, and then E - L is the key of
x^(e - l).  .terms is a read-only view keyed by the public keys (exponent
tuples for a MultiPoly, (alpha, beta) for a WeylOp), for display, tests
and callers outside the kernels.

divide_exact is quotient-heap division (Johnson 1974; Monagan and Pearce,
J. Symb. Comp. 46, 2011): the dividend's keys are sorted once, and a heap
with at most one entry per quotient term merges the quotient's products
with the divisor's terms below its lead.  A division that fails stops at
the first nonzero key that the lead does not divide.

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
from collections.abc import Mapping
from itertools import repeat
from math import gcd, lcm
from operator import mul as _mul


def ratio(a, b):
    """Exact quotient a/b, returned as int when the result is integral."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def format_rational(c) -> str:
    """Canonical "p/q" wire form (denominator always present)."""
    return f"{c.numerator}/{c.denominator}"


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


def _width(deg):
    """Field bits for a polynomial of total degree deg: whole bytes, with the
    top bit of each field, the guard, above every exponent and the degree."""
    return 8 * (deg.bit_length() // 8 + 1)


def _pack(exps, w):
    """The key of the exponent tuple exps at field width w: sum(exps) in the
    top field, then exps[0] down to exps[-1] in the lowest."""
    key = sum(exps)
    for x in exps:
        key = key << w | x
    return key


def _exponents(key, n, w):
    """The exponent tuple of the key at arity n and field width w."""
    step = w // 8
    b = key.to_bytes((n + 1) * step, "big")
    if step == 1:
        return tuple(b[1:])
    return tuple(int.from_bytes(b[i:i + step], "big") for i in range(step, len(b), step))


def _repacked(terms, n, w, w2):
    """The dict terms with its keys re-packed from field width w to w2."""
    return {_pack(_exponents(k, n, w), w2): c for k, c in terms.items()}


def _guards(n, w):
    """The guard bits of the n variable fields at width w."""
    return sum(1 << (w * i + w - 1) for i in range(n))


def _summed(a, b):
    """The sum of two term dicts on one key layout, zeros dropped."""
    out = dict(a)
    for k, c in b.items():
        acc = out.get(k)
        if acc is None:
            out[k] = c
        else:
            out[k] = acc + c
    return _nonzero(out)


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
    """Sparse map from monomials to nonzero coefficients, at a fixed arity,
    stored once on packed keys at field width width (module docstring).

    A monomial is a flat exponent tuple of FIELDS * arity entries.  A
    subclass supplies FIELDS, the codec between its public keys and flat
    tuples (_flat, _key) and its product.  Zero coefficients are never
    stored, and each value has one stored form, so equality of the stored
    dicts is equality of the values.  A scalar is an int or a Fraction;
    values of different subclasses are never equal, and adding or
    multiplying them raises TypeError.
    """

    __slots__ = ("arity", "_terms", "width")

    def __init__(self, arity: int, terms=None):
        terms = {} if terms is None else terms
        self.arity = arity
        flat = [self._checked_flat(k) for k in terms]
        if None in flat:
            raise ValueError("exponent vector length != arity")
        self.width = w = _width(max(map(sum, flat), default=0))
        self._terms = {_pack(e, w): c for e, c in zip(flat, terms.values())}

    def _checked_flat(self, key):
        """The flat exponent tuple of the public key, or None when key is not
        the key of a monomial at self's arity."""
        e = self._flat(key)
        if len(e) == self.FIELDS * self.arity and self._key(e) == key:
            return e

    @classmethod
    def _raw(cls, arity, terms, width):
        """The value storing terms, a dict of keys at field width width with
        no zero coefficient; keys wider than the canonical width of the
        value, which a cancelled top degree leaves, are re-packed."""
        p = cls.__new__(cls)
        p.arity, p._terms, p.width = arity, terms, width
        if width > 8:
            need = _width(max(p.total_degree(), 0))
            if need < width:
                p._terms, p.width = _repacked(terms, cls.FIELDS * arity, width, need), need
        return p

    def _new(self, terms):
        """The value of self's class, arity and width that stores the dict terms."""
        return self._raw(self.arity, terms, self.width)

    def _keys(self, width):
        """The stored dict with its keys at field width width, at least self.width."""
        if width == self.width:
            return self._terms
        return _repacked(self._terms, self.FIELDS * self.arity, self.width, width)

    @property
    def terms(self):
        """The terms, a read-only view keyed by public keys."""
        return _TermsView(self)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, arity, c):
        _check_scalar(c, "a constant")
        return cls._raw(arity, _nonzero({0: c}), 8)     # the unit monomial packs to 0

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """The largest sum of one monomial's exponents, the top field of the
        largest key; -1 for zero."""
        if not self._terms:
            return -1
        return max(self._terms) >> (self.width * self.FIELDS * self.arity)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    __hash__ = None

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    # -- additive structure and scalars ----------------------------------

    def _operand(self, other):
        """other as a value of self's class and arity; a scalar becomes a constant."""
        if type(other) is not type(self):
            other = self.constant(self.arity, other)
        self._check(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        w = max(self.width, other.width)
        return self._raw(self.arity, _summed(self._keys(w), other._keys(w)), w)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        _check_scalar(c, "a scalar factor")
        return self._new(_nonzero({k: v * c for k, v in self._terms.items()}))


class _TermsView(Mapping):
    """Read-only view of a TermMap's terms, keyed by its public keys."""

    def __init__(self, p):
        self._p = p

    def __len__(self):
        return len(self._p._terms)

    def __iter__(self):
        p = self._p
        n = p.FIELDS * p.arity
        return map(p._key, map(_exponents, p._terms, repeat(n), repeat(p.width)))

    def __getitem__(self, key):
        p = self._p
        exps = p._checked_flat(key)
        if exps is None or min(exps, default=0) < 0 or sum(exps) >> (p.width - 1):
            raise KeyError(key)         # no key of p's width packs these exponents
        return p._terms[_pack(exps, p.width)]

    def __repr__(self):
        return repr(dict(self.items()))


class MultiPoly(TermMap):
    """Sparse multivariate polynomial over the rationals, on packed keys.

    Its public keys are the exponent tuples of length arity, one field per
    variable; .terms is keyed by them.  Iteration for display and
    serialization uses descending graded-lex order.
    """

    __slots__ = ()

    FIELDS = 1
    _flat = _key = staticmethod(tuple)

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

    def sorted_terms(self):
        """Terms in descending graded-lex order, keyed by exponent tuples."""
        n, w, terms = self.arity, self.width, self._terms
        return [(_exponents(k, n, w), terms[k]) for k in sorted(terms, reverse=True)]

    def __repr__(self):
        return f"MultiPoly({self.arity}, {self.format()})"

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(other)
        self._check(other)
        n = self.arity
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(n)
        # over a field the top degrees multiply: the product has degree d1 + d2
        w = _width(self.total_degree() + other.total_degree())
        right = list(other._keys(w).items())
        out = {}
        get = out.get
        for k1, c1 in self._keys(w).items():
            for k2, c2 in right:
                k = k1 + k2
                c = c1 * c2
                acc = get(k)
                if acc is None:
                    out[k] = c
                else:
                    out[k] = acc + c
        return MultiPoly._raw(n, _nonzero(out), w)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, MultiPoly.one(self.arity), _mul)

    def partial(self, i: int):
        """Exact partial derivative with respect to variable i."""
        n, w = self.arity, self.width
        shift = w * (n - 1 - i)
        field = (1 << w) - 1
        step = (1 << (w * n)) + (1 << shift)    # one off the degree and one off x_i
        out = {}
        for key, c in self._terms.items():
            k = key >> shift & field
            if k:
                out[key - step] = c * k
        return MultiPoly._raw(n, out, w)

    def divide_exact(self, q: "MultiPoly"):
        """Return r with q*r == self, or None when self is not a multiple of q.

        Leading-term division under graded lex with a quotient heap (module
        docstring).  Each step takes the largest key not yet handled, from
        the sorted dividend or from the heap, whose entry (-key, t, j) is
        the product of quotient term t and divisor term j below the lead,
        and sums the coefficients met there.  A nonzero sum whose key the
        lead does not divide ends the division; any other gives the next
        quotient term.  The remainder is never stored.
        """
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        n, w = self.arity, self.width
        if q.width > w:         # a wider q has the larger degree
            return None if self._terms else MultiPoly.zero(n)
        divisor = q._keys(w)
        lead, *rest = sorted(divisor, reverse=True)
        lc = divisor[lead]
        rest = [(k, -divisor[k]) for k in rest]
        guard = _guards(n, w)
        terms = self._terms
        keys = sorted(terms, reverse=True)
        quot_keys, quot = [], []
        heap = []
        i, size = 0, len(keys)
        while True:
            if i < size and (not heap or keys[i] >= -heap[0][0]):
                m = keys[i]
                c = terms[m]
                i += 1
            elif heap:
                m, c = -heap[0][0], 0
            else:
                break
            while heap and heap[0][0] == -m:
                _, t, j = heapq.heappop(heap)
                c += quot[t] * rest[j][1]
                j += 1
                if j < len(rest):
                    heapq.heappush(heap, (-(quot_keys[t] + rest[j][0]), t, j))
            if c == 0:
                continue
            if ((m | guard) - lead) & guard != guard:
                return None
            quot_keys.append(m - lead)
            quot.append(ratio(c, lc))
            if rest:
                heapq.heappush(heap, (-(m - lead + rest[0][0]), len(quot) - 1, 0))
        return MultiPoly._raw(n, dict(zip(quot_keys, quot)), w)

    # -- variable plumbing ----------------------------------------------

    def with_extra_symbol(self):
        """Embed into the ring with one extra (last) variable."""
        w = self.width
        return MultiPoly._raw(self.arity + 1, {k << w: c for k, c in self._terms.items()}, w)

    def substitute_last(self, value):
        """Evaluate the last variable at a rational, dropping it."""
        n, w = self.arity, self.width
        field = (1 << w) - 1
        top = w * (n - 1)           # the degree field, once the last field is gone
        out = {}
        for key, c in self._terms.items():
            k = key & field
            nk = (key >> w) - (k << top)
            nc = c * (value ** k if k else 1)
            acc = out.get(nk)
            out[nk] = nc if acc is None else acc + nc
        return MultiPoly._raw(n - 1, _nonzero(out), w)

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
