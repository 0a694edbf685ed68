"""Polynomial-coefficient differential operators and the twisted module.

A WeylOp is kept in normal order: every term is x^alpha d^beta.  It shares
its sums, scalar multiples and equality with MultiPoly through
poly.TermMap, and differs only in its keys (alpha, beta) and its product.
Products are re-normalized through the Leibniz exchange
d^b x^c = sum_k C(b,k) * c!/(c-k)! * x^(c-k) d^(b-k), applied componentwise.

The twisted module carries elements q(x,s) * f^(s-m) for a fixed context
polynomial f; a single extra symbol s is adjoined as the last variable of
the numerator ring.  Applying d_i uses
    d_i(q f^(s-m)) = (d_i q) f^(s-m) + (s-m) q (d_i f) f^(s-m-1),
and results are canonicalized by dividing f out of the numerator while it
divides exactly.  This is the computation behind  Delta(f^(s+1)) = b(s) f^s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from math import comb

from .poly import MultiPoly, TermMap, UniPoly


class NotProportional(Exception):
    """A twisted result failed to be a pure s-polynomial times a power of f."""


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


class WeylOp(TermMap):
    """Normally ordered differential operator: map (alpha, beta) -> coefficient.

    The sums, scalar multiples and equality come from ``poly.TermMap``;
    ``*`` between operators is ``weyl_mul``.
    """

    __slots__ = ()

    @staticmethod
    def unit_key(arity):
        z = (0,) * arity
        return (z, z)

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
        z = (0,) * arity
        e = list(z)
        e[i] = 1
        return cls(arity, {(z, tuple(e)): 1})

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
    for (a1, b1), c1 in a.terms.items():
        for (a2, b2), c2 in b.terms.items():
            base = c1 * c2
            # exchange d^b1 past x^a2
            hot = [i for i in range(n) if b1[i] and a2[i]]
            ranges = [range(min(b1[i], a2[i]) + 1) for i in hot]
            for ks in _iproduct(*ranges):
                coef = base
                k = [0] * n
                for i, ki in zip(hot, ks):
                    if ki:
                        coef *= comb(b1[i], ki) * _falling(a2[i], ki)
                        k[i] = ki
                xe = tuple(a1[i] + a2[i] - k[i] for i in range(n))
                de = tuple(b1[i] + b2[i] - k[i] for i in range(n))
                key = (xe, de)
                acc = out.get(key)
                if acc is None:
                    out[key] = coef
                else:
                    acc = acc + coef
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
    return WeylOp(n, out)


def weyl_apply(a: WeylOp, p: MultiPoly) -> MultiPoly:
    """Apply the operator to a polynomial, exactly."""
    if a.arity != p.arity:
        raise ValueError(f"arity mismatch: {a.arity} != {p.arity}")
    n = a.arity
    out = {}
    for (alpha, beta), c in a.terms.items():
        for e, pc in p.terms.items():
            coef = c * pc
            ok = True
            for i in range(n):
                bi = beta[i]
                if bi:
                    ei = e[i]
                    if ei < bi:
                        ok = False
                        break
                    coef *= _falling(ei, bi)
            if not ok:
                continue
            ne = tuple(e[i] - beta[i] + alpha[i] for i in range(n))
            acc = out.get(ne)
            if acc is None:
                out[ne] = coef
            else:
                acc = acc + coef
                if acc == 0:
                    del out[ne]
                else:
                    out[ne] = acc
    return MultiPoly(n, out)


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

    def is_zero(self):
        return self.q.is_zero()


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
    fl = f.with_extra_symbol()
    if a.m < b.m:
        return TwistedElement(a.q * fl ** (b.m - a.m) + b.q, b.m)
    return TwistedElement(a.q + b.q * fl ** (a.m - b.m), a.m)


def twisted_apply(a: WeylOp, e: TwistedElement, f: MultiPoly) -> TwistedElement:
    """Apply a differential operator to a twisted element, canonically."""
    n = a.arity
    if f.arity != n or e.q.arity != n + 1:
        raise ValueError("arity mismatch between operator, context f, and element")
    if f.is_zero():
        raise ValueError("context polynomial f must be nonzero")
    fl = f.with_extra_symbol()
    s_poly = MultiPoly.variable(n + 1, n)
    dfl = {}
    acc = TwistedElement(MultiPoly.zero(n + 1), 0)
    for (alpha, beta), c in sorted(a.terms.items()):
        q, m = e.q, e.m
        for i in range(n):
            for _ in range(beta[i]):
                if i not in dfl:
                    dfl[i] = f.partial(i).with_extra_symbol()
                # d_i(q f^(s-m)) = (d_i q f + (s-m) q d_i f) f^(s-m-1)
                q, m = q.partial(i) * fl + (s_poly - m) * q * dfl[i], m + 1
                # keep levels minimal as we go: numerators stay small
                reduced = twisted_canonical(TwistedElement(q, m), f)
                q, m = reduced.q, reduced.m
        q = q * MultiPoly.monomial(n + 1, alpha + (0,), c)
        acc = twisted_add(acc, TwistedElement(q, m), f)
    return twisted_canonical(acc, f)


def twisted_specialize(e: TwistedElement, k: int, f: MultiPoly) -> MultiPoly:
    """Substitute s = k (integer >= level) and return the plain polynomial q|_{s=k} * f^(k-m)."""
    if k < e.m:
        raise ValueError(f"cannot specialize s={k} below level {e.m}")
    return e.q.substitute_last(k) * f ** (k - e.m)


def twisted_scalar_profile(e: TwistedElement, f: MultiPoly, offset: int) -> UniPoly:
    """Interpret e as rho(s) * f^(s+offset) and return rho as a UniPoly in s.

    Raises NotProportional when the element is not of that shape, i.e.
    the numerator is not (pure s-polynomial) * f^(m+offset).
    """
    n = f.arity
    if e.q.is_zero():
        return UniPoly.zero("s")
    j = e.m + offset
    if j < 0:
        raise NotProportional(
            f"element has level {e.m} but target exponent offset {offset}")
    q, done = _divide_out(e.q, f.with_extra_symbol(), j)
    if done < j:
        raise NotProportional("numerator is not divisible by the required power of f")
    coeffs = {}
    for exps, c in q.terms.items():
        if any(exps[i] for i in range(n)):
            raise NotProportional("residual dependence on the case variables")
        coeffs[exps[n]] = c
    if not coeffs:
        return UniPoly.zero("s")
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return UniPoly("s", out)
