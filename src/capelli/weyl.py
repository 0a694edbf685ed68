"""Polynomial-coefficient differential operators and the twisted module.

A WeylOp is kept in normal order: every term is x^alpha d^beta.  It shares
its store with MultiPoly through poly.TermMap: x^alpha d^beta is packed as
the flat exponent tuple alpha + beta, two fields per variable with the
alpha fields above the beta fields, and .terms is keyed by (alpha, beta).
It differs from MultiPoly only in that codec and in its product.
Products are re-normalized through the Leibniz exchange
d^b x^c = sum_k C(b,k) * c!/(c-k)! * x^(c-k) d^(b-k), applied componentwise.

The twisted module carries elements q(x,s) * f^(s-m) for a fixed context
polynomial f; a single extra symbol s is adjoined as the last variable of
the numerator ring.  Applying d_i uses
    d_i(q f^(s-m)) = (d_i q) f^(s-m) + (s-m) q (d_i f) f^(s-m-1),
and results are canonicalized by dividing f out of the numerator while it
divides exactly.  This is the computation behind  Delta(f^(s+1)) = b(s) f^s.

twisted_apply differentiates sums, not monomials.  An operator
sum over alpha of x^alpha P_alpha(d) applies each P recursively:
    P e = c0 e + sum over v of d_v(P_v e),
where P_v collects the monomials of P whose highest variable is v, each
with one d_v taken off.  A determinant det(d) thus splits into its
cofactors along the last row, and equal minors met on different paths are
computed once (n 2^(n-1) partials instead of n n!).  Each d_v acts on a
summed and canonicalized numerator, and the sums cancel: for det_4 on
f^(s+1) the largest numerator to canonicalize has 240 terms, against
9,240 when each monomial is differentiated on its own.  weyl_apply stays
plain monomial-by-monomial differentiation, the independent oracle.

weyl_apply works on the stored keys of p (see poly).  x^e survives d^beta
when e >= beta in every field, and one subtraction tests all fields at
once: ((E | G) - B) & G == G, with G the guard bits and B the key of beta
without its degree field.  The term x^alpha d^beta then sends the key E to
E + (A - B), A and B the keys of alpha and beta.  A term with |beta| >
deg p kills every monomial and is dropped, so every beta entry fits a
field below its guard bit.  The call works at the wider of p's width and
the one that deg p + max(|alpha| - |beta|) needs, and re-packs p's keys
only when the latter is wider.  Most pairs fail
the test (on f^5 of case (8,4), three in four), so the monomials are first
put in classes by their exponents capped fieldwise at the operator's
largest beta entry; the cap is taken on the packed key by the same guard
subtraction.  Every beta is at most the cap, so x^e survives exactly when
its class does, and each (class, term) pair is tested once; only the
members of a surviving class are differentiated.  Each member's exponent
tuple is read off its key once and serves every term its class passes.
A term keeps its beta support as two tuples: the fields with beta_i = 1,
whose falling factorial e_i!/(e_i - 1)! is e_i itself, and those with
beta_i >= 2, which take math.perm (every beta entry of Delta on case
(8,4) is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from math import comb, perm

from .poly import MultiPoly, TermMap, UniPoly, _exponents, _guards, _nonzero, _pack, _width, ratio


class NotProportional(Exception):
    """A twisted result failed to be a pure s-polynomial times a power of f."""


class WeylOp(TermMap):
    """Normally ordered differential operator: map (alpha, beta) -> coefficient.

    x^alpha d^beta is stored as the packed flat tuple alpha + beta (module
    docstring), and .terms is a read-only view keyed by (alpha, beta).
    The storage, sums, scalar multiples and equality come from
    ``poly.TermMap``; ``*`` between operators is ``weyl_mul``.
    """

    __slots__ = ()

    FIELDS = 2

    @staticmethod
    def _flat(key):
        return key[0] + key[1]

    def _key(self, exps):
        return exps[:self.arity], exps[self.arity:]

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly):
        """Multiplication operator by the polynomial p."""
        z = (0,) * p.arity
        return cls(p.arity, {(e, z): c for e, c in p.terms.items()})

    @classmethod
    def const_coeff_from_poly(cls, p: MultiPoly):
        """Constant-coefficient operator p(d): each monomial x^a becomes d^a."""
        z = (0,) * p.arity
        return cls(p.arity, {(z, e): c for e, c in p.terms.items()})

    @classmethod
    def partial(cls, arity, i):
        return cls.const_coeff_from_poly(MultiPoly.variable(arity, i))

    @classmethod
    def euler(cls, arity):
        """The Euler operator: sum over all variables of x_i d_i."""
        terms = {}
        for i in range(arity):
            e = [0] * arity
            e[i] = 1
            e = tuple(e)
            terms[(e, e)] = 1
        return cls(arity, terms)

    def __repr__(self):
        return f"WeylOp({self.arity}, {len(self.terms)} terms)"

    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return self._scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        # only a scalar reaches here: op * op goes to __mul__, in order
        return self._scale(other)


def weyl_mul(a: WeylOp, b: WeylOp) -> WeylOp:
    """Normally ordered product in the Weyl algebra."""
    a._check(b)
    n = a.arity
    out = {}
    right = list(b.terms.items())
    for (a1, b1), c1 in a.terms.items():
        for (a2, b2), c2 in right:
            # exchange d^b1 past x^a2: k_i of the d_i act on x_i^(a2_i)
            ranges = [range(min(x, y) + 1) for x, y in zip(b1, a2)]
            for k in _iproduct(*ranges):
                coef = c1 * c2
                for i, ki in enumerate(k):
                    coef *= comb(b1[i], ki) * perm(a2[i], ki)
                xe = tuple(a1[i] + a2[i] - k[i] for i in range(n))
                de = tuple(b1[i] + b2[i] - k[i] for i in range(n))
                key = (xe, de)
                out[key] = out.get(key, 0) + coef
    return WeylOp(n, _nonzero(out))


def weyl_apply(a: WeylOp, p: MultiPoly) -> MultiPoly:
    """Apply the operator to a polynomial, exactly, one monomial at a time,
    on p's stored keys (module docstring)."""
    a._check(p)
    n = a.arity
    deg = p.total_degree()
    # x^alpha d^beta with |beta| > deg p kills every monomial of p
    terms = [(alpha, beta, c) for (alpha, beta), c in a.terms.items() if sum(beta) <= deg]
    if not terms:
        return MultiPoly.zero(n)
    w = max(p.width, _width(deg + max(sum(alpha) - sum(beta) for alpha, beta, _ in terms)))
    guard = _guards(n, w)
    var = (1 << (w * n)) - 1                # the variable fields, below the degree
    cap = max((b for _, beta, _ in terms for b in beta), default=0) * (guard >> (w - 1))
    # members of each class, flat: key, coefficient, key, ...
    classes = {}
    for key, pc in p._keys(w).items():
        ge = ((key | guard) - cap) & guard      # guard bits of the fields e >= cap
        m = ge - (ge >> (w - 1))                # and those fields' value bits
        g = (key ^ ((key ^ cap) & m)) & var
        members = classes.get(g)
        if members is None:
            classes[g] = [key, pc]
        else:
            members += key, pc
    # each term's support: the fields with beta_i = 1, whose falling
    # factorial e_i!/(e_i - 1)! is e_i, and those with beta_i >= 2
    ops = [(c, _pack(alpha, w) - _pack(beta, w), _pack(beta, w) & var,
            tuple(i for i, b in enumerate(beta) if b == 1),
            tuple((i, b) for i, b in enumerate(beta) if b > 1))
           for alpha, beta, c in terms]
    out = {}
    get = out.get
    for g, members in classes.items():
        g |= guard
        fits = [(c, step, ones, highs) for c, step, low, ones, highs in ops
                if (g - low) & guard == guard]
        if not fits:
            continue
        it = iter(members)
        for key, pc in zip(it, it):
            e = _exponents(key, n, w)
            for c, step, ones, highs in fits:
                coef = c * pc
                for i in ones:
                    coef *= e[i]
                for i, b in highs:
                    coef *= perm(e[i], b)
                k = key + step
                acc = get(k)
                if acc is None:
                    out[k] = coef
                else:
                    out[k] = acc + coef
    return MultiPoly._raw(n, _nonzero(out), w)


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return weyl_mul(a, b) - weyl_mul(b, a)


@dataclass(frozen=True)
class TwistedElement:
    """Element q(x,s) * f^(s-m) of the twisted module; q lives in N+1 variables.

    The context polynomial f is not stored; every operation takes it as
    an argument.  Canonical form has minimal level m (f does not divide
    q while m > 0).
    """

    q: MultiPoly
    m: int


def f_power_element(k: int, f: MultiPoly) -> TwistedElement:
    """The element f^(s+k): numerator f^k at level 0 for k >= 0, else level -k."""
    if k >= 0:
        return TwistedElement((f ** k).with_extra_symbol(), 0)
    return TwistedElement(MultiPoly.one(f.arity + 1), -k)


def _divide_out(q: MultiPoly, fl: MultiPoly, times: int):
    """Divide fl out of q while it divides exactly, at most `times` times;
    returns (quotient, number of divisions done)."""
    done = 0
    while done < times:
        r = q.divide_exact(fl)
        if r is None:
            break
        q, done = r, done + 1
    return q, done


def twisted_canonical(e: TwistedElement, f: MultiPoly) -> TwistedElement:
    """Minimal-level representative (divide f out of the numerator)."""
    if e.q.is_zero():
        return TwistedElement(MultiPoly.zero(f.arity + 1), 0)
    q, done = _divide_out(e.q, f.with_extra_symbol(), e.m)
    return TwistedElement(q, e.m - done)


def twisted_add(a: TwistedElement, b: TwistedElement, f: MultiPoly) -> TwistedElement:
    """Sum at the common (max) level; not canonicalized."""
    if a.m == b.m:
        return TwistedElement(a.q + b.q, a.m)
    if a.m > b.m:
        a, b = b, a
    if a.q.is_zero():
        return b                # already at the max level; no power of f needed
    return TwistedElement(a.q * f.with_extra_symbol() ** (b.m - a.m) + b.q, b.m)


def twisted_apply(a: WeylOp, e: TwistedElement, f: MultiPoly) -> TwistedElement:
    """Apply a differential operator to a twisted element, canonically.

    Each P_alpha(d) is applied by the recursion of the module docstring.
    A memo local to the call, keyed on P divided by its leading
    coefficient, computes each P e once; P and -P share an entry.
    """
    n = a.arity
    if f.arity != n or e.q.arity != n + 1:
        raise ValueError("arity mismatch between operator, context f, and element")
    if f.is_zero():
        raise ValueError("context polynomial f must be nonzero")
    fl = f.with_extra_symbol()
    s_poly = MultiPoly.variable(n + 1, n)
    unit = (0,) * n
    dfl = {}
    memo = {}

    def partial(i, t):
        if i not in dfl:
            dfl[i] = f.partial(i).with_extra_symbol()
        # d_i(q f^(s-m)) = (d_i q f + (s-m) q d_i f) f^(s-m-1)
        q = t.q.partial(i) * fl + (s_poly - t.m) * t.q * dfl[i]
        return twisted_canonical(TwistedElement(q, t.m + 1), f)

    def apply_poly(p):
        """P e for P(d) given as a nonempty map beta -> coefficient."""
        lc = p[max(p)]
        p = {beta: ratio(c, lc) for beta, c in p.items()}
        key = frozenset(p.items())
        if key not in memo:
            parts = [TwistedElement(e.q * p[unit], e.m)] if unit in p else []
            by_top = {}
            for beta, c in p.items():
                if beta != unit:
                    v = max(i for i in range(n) if beta[i])
                    rest = beta[:v] + (beta[v] - 1,) + beta[v + 1:]
                    by_top.setdefault(v, {})[rest] = c
            parts += [partial(v, apply_poly(by_top[v])) for v in sorted(by_top)]
            acc = parts[0]
            for t in parts[1:]:
                acc = twisted_add(acc, t, f)
            # a lone part is canonical already, or c0 e, which the caller's
            # d_v or the final pass canonicalizes
            memo[key] = twisted_canonical(acc, f) if len(parts) > 1 else acc
        r = memo[key]
        return r if lc == 1 else TwistedElement(r.q * lc, r.m)

    by_alpha = {}
    for (alpha, beta), c in a.terms.items():
        by_alpha.setdefault(alpha, {})[beta] = c
    acc = TwistedElement(MultiPoly.zero(n + 1), 0)
    for alpha in sorted(by_alpha):
        r = apply_poly(by_alpha[alpha])
        q = r.q * MultiPoly.monomial(n + 1, alpha + (0,))
        acc = twisted_add(acc, TwistedElement(q, r.m), f)
    return twisted_canonical(acc, f)


def twisted_scalar_profile(e: TwistedElement, f: MultiPoly, offset: int) -> UniPoly:
    """Interpret e as rho(s) * f^(s+offset) and return rho as a UniPoly in s.

    Raises NotProportional when the element is not of that shape, i.e.
    the numerator is not (pure s-polynomial) * f^(m+offset).
    """
    if e.q.is_zero():
        return UniPoly.zero("s")
    j = e.m + offset
    if j < 0:
        raise NotProportional(
            f"element has level {e.m} but target exponent offset {offset}")
    q, done = _divide_out(e.q, f.with_extra_symbol(), j)
    if done < j:
        raise NotProportional("numerator is not divisible by the required power of f")
    out = [0] * (q.total_degree() + 1)
    for e, c in q.terms.items():
        if any(e[:-1]):             # s is the last variable
            raise NotProportional("residual dependence on the case variables")
        out[e[-1]] = c
    return UniPoly("s", out)
