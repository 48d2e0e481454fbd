"""Reference root isolation by Sturm chains, kept in the tests to check the
package's Descartes bisection against an independent method.

The chain of the squarefree part s of p is the signed primitive remainder
sequence of p and p' (`signed_remainders`, classical pseudo-division on
integers), divided by its last entry, gcd(p, p'), when p is not
squarefree. Each entry is a positive multiple of the classical entry
(p, p', -rem, ...) over that gcd, so V(a) - V(b) counts the distinct roots
in (a, b] whenever b is not a root (Basu, Pollack & Roy, Algorithms in Real
Algebraic Geometry, ch. 2). `root_intervals` bisects the same dyadic tree
as the package, from (-B, B), B the Cauchy bound of s, upper half first,
but by Sturm counts: a cell is yielded as soon as it isolates a root and
its ends are not roots."""

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd

from syzcx.polynomials import (DEFAULT_WIDTH, AlgebraicReal, IntPolynomial,
                               _sign_at, cauchy_bound, refine_interval,
                               squarefree_part)


def content_free(cs) -> tuple[int, ...]:
    """cs over the gcd of its entries, signs kept."""
    g = gcd(*cs) or 1
    return tuple(c // g for c in cs)


def signed_remainders(u, v) -> list[tuple[int, ...]]:
    """u and v (ascending ints) over their contents, then each remainder of
    the two entries before it, negated and over its content, down to the
    last nonzero entry. Each remainder is taken by pseudo-division: the
    dividend times |lc| less a multiple of the divisor, so only positive
    factors enter and the signs are those of the remainder over Q."""
    seq = [content_free(u), content_free(v)]
    while seq[-1]:
        r, v = list(seq[-2]), seq[-1]
        while len(r) >= len(v):
            f, k = r[-1] * (1 if v[-1] > 0 else -1), len(r) - len(v)
            r = [c * abs(v[-1]) for c in r]
            for i, c in enumerate(v):
                r[k + i] -= f * c
            while r and r[-1] == 0:
                r.pop()
        seq.append(content_free([-c for c in r]))
    seq.pop()
    return seq


@lru_cache(maxsize=4096)
def sturm_chain(p: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part of p, content-free integer tuples."""
    chain = signed_remainders(p.coeffs, p.derivative().coeffs)
    if len(chain[-1]) > 1:
        g = IntPolynomial(chain[-1]).primitive()
        chain = [IntPolynomial(c).div_exact(g).coeffs for c in chain]
    return tuple(chain)


def variations(chain, n: int, d: int) -> tuple[int, int]:
    """Sign variations of the chain at n/d, d > 0, and the sign of its first
    entry there."""
    signs = [_sign_at(cs, n, d) for cs in chain]
    nonzero = [v for v in signs if v]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:])), signs[0]


def sturm_count(p: IntPolynomial, a: Fraction, b: Fraction):
    """Distinct roots of p in (a, b), or None when an end is a root."""
    chain = sturm_chain(p)
    (va, sa), (vb, sb) = (variations(chain, x.numerator, x.denominator)
                          for x in (a, b))
    if sa == 0 or sb == 0:
        return None
    return va - vb if a < b else 0


def root_intervals(p: IntPolynomial):
    """Isolating intervals of the distinct real roots of p, largest first:
    (r, r) for a root r that a midpoint hits, else an open cell that holds
    exactly one root and whose ends are not roots."""
    chain = sturm_chain(p)
    B = cauchy_bound(squarefree_part(p))
    a, b, d = -B.numerator, B.numerator, B.denominator
    work = [(a, b, d, *variations(chain, a, d), *variations(chain, b, d))]
    while work:
        a, b, d, va, sa, vb, sb = work.pop()
        count = va - vb - (sb == 0)
        if a == b or (count == 1 and sa and sb):
            yield Fraction(a, d), Fraction(b, d)
        elif count:
            mid, d = a + b, 2 * d
            vmid, smid = variations(chain, mid, d)
            work.append((2 * a, mid, d, va, sa, vmid, smid))
            if smid == 0:
                work.append((mid, mid, d, vmid, smid, vmid, smid))
            work.append((mid, 2 * b, d, vmid, smid, vb, sb))


def largest_root(p: IntPolynomial):
    """The largest real root of p, refined to the default width, or None."""
    iso = next(root_intervals(p), None)
    return None if iso is None else AlgebraicReal(p, *iso).refined(DEFAULT_WIDTH)


def integer_roots(p: IntPolynomial) -> list[int]:
    """Distinct integer roots of a monic p, ascending."""
    roots = []
    for lo, hi in root_intervals(p):
        lo, hi = refine_interval(p, lo, hi, 1)
        r = ceil(lo)
        if r <= hi and p.sign_at(r) == 0:
            roots.append(r)
    return roots[::-1]
