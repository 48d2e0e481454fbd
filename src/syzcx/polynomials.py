"""Exact integer-polynomial arithmetic and certified real algebraic numbers.

Coefficient lists are ascending: [c0, c1, ..., cn] is c0 + c1 x + ... + cn x^n.
Each polynomial p gets one signed primitive remainder sequence, run on p and
p'. It ends in gcd(p, p'); divided by that gcd it is a Sturm chain of the
squarefree part, which is its first entry. Real roots are located by that
chain and carried around as an integer defining polynomial plus an isolating
rational interval containing exactly one distinct real root. Intervals are
refined to width <= 2^-48 at construction so the printed 12-decimal
approximation is stable. Divisions and sign evaluations run on integers only: one
pseudo-division loop and homogeneous Horner at rational points.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ZeroPolynomialError

DEFAULT_WIDTH = Fraction(1, 2 ** 48)


class IntPolynomial:
    """Immutable integer polynomial, ascending coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial(
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x) -> int:
        """Sign (-1, 0 or 1) of the value at a rational x, in integers."""
        return _sign_at(self.coeffs, x.numerator, x.denominator)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def compose_power(self, k: int) -> "IntPolynomial":
        """p(x^k)."""
        if k < 1:
            raise ValueError("power must be >= 1")
        if self.is_zero:
            return self
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(out)

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; normalize the leading coefficient positive."""
        if self.is_zero:
            return self
        g = gcd(*self.coeffs)
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(c * sign // g for c in self.coeffs)

    def divmod_q(self, other: "IntPolynomial"):
        """Polynomial division over the rationals: (quotient, remainder)."""
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        scale, quo, rem = _pseudo_divmod(self.coeffs, other.coeffs)
        return ([Fraction(c, scale) for c in quo],
                [Fraction(c, scale) for c in rem])

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact division: raises if the quotient is not an integer polynomial."""
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        scale, quo, rem = _pseudo_divmod(self.coeffs, other.coeffs)
        if rem:
            raise ValueError("division is not exact (nonzero remainder)")
        if any(q % scale for q in quo):
            raise ValueError("division is not exact (non-integer quotient)")
        return IntPolynomial(q // scale for q in quo)


def _pseudo_divmod(u, v) -> tuple[int, list[int], list[int]]:
    """Pseudo-division over the integers: (s, quo, rem) with
    s*u == quo*v + rem, s > 0 and deg rem < deg v, so quo/s and rem/s are
    the quotient and remainder over Q. u and v are ascending int sequences
    without trailing zeros, v nonempty; rem comes back without trailing
    zeros. The divisor is normalised to a positive leading coefficient, and
    the remainder is scaled only when its top coefficient is not divisible,
    by the least factor that makes it so; s is the product of those factors,
    so rem keeps the signs of the remainder over Q."""
    negate = v[-1] < 0
    if negate:
        v = [-c for c in v]
    lc = v[-1]
    d = len(v) - 1
    rem = list(u)
    quo = [0] * max(0, len(rem) - d)
    scale = 1
    while len(rem) > d:
        top = rem[-1]
        if top % lc:
            m = lc // gcd(top, lc)
            rem = [c * m for c in rem]
            quo = [c * m for c in quo]
            scale *= m
            top = rem[-1]
        f = top // lc
        k = len(rem) - 1 - d
        quo[k] = f
        for i in range(d):
            rem[k + i] -= f * v[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    if negate:
        quo = [-c for c in quo]
    return scale, quo, rem


def _content_free(cs) -> tuple[int, ...]:
    """cs divided by the gcd of its entries; signs are kept."""
    g = gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _sign_at(coeffs, n: int, d: int) -> int:
    """Sign of the polynomial at n/d, d > 0: the sign of the homogeneous
    integer value sum c_i n^i d^(deg-i), by Horner in n."""
    it = reversed(coeffs)
    acc = next(it, 0)
    dp = 1
    for c in it:
        dp *= d
        acc = acc * n + c * dp
    return (acc > 0) - (acc < 0)


def poly(*coeffs) -> IntPolynomial:
    return IntPolynomial(coeffs)


def monomial_minus(m) -> IntPolynomial:
    """x - m for a rational/integer m, cleared to integer coefficients."""
    f = Fraction(m)
    return IntPolynomial([-f.numerator, f.denominator])


def _remainders(u, v) -> list[tuple[int, ...]]:
    """Signed primitive remainder sequence of the ascending int sequences u
    and v: u and v divided by their contents, then each negated pseudo-
    remainder of the two entries before it, also divided by its content,
    down to the last nonzero entry, which is a gcd of u and v over Q."""
    seq = [_content_free(u), _content_free(v)]
    while seq[-1]:
        r = _pseudo_divmod(seq[-2], seq[-1])[2]
        seq.append(tuple(-c for c in _content_free(r)))
    seq.pop()
    return seq


def poly_gcd_q(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic-free gcd over Q, returned primitive with positive leading coeff:
    the last entry of the primitive remainder sequence, whose coefficients
    stay near the size of the inputs."""
    return IntPolynomial(_remainders(a.coeffs, b.coeffs)[-1]).primitive()


# -- Sturm machinery --------------------------------------------------------

@lru_cache(maxsize=None)
def _sturm_chain(p: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part of p as content-free integer
    tuples: the signed remainder sequence of p and p', divided by its last
    entry, gcd(p, p'), when p is not squarefree. Each entry is a positive
    multiple of the classical entry (p, p', -rem, ...) over that gcd, so
    V(a) - V(b) counts the distinct roots in (a, b] whenever b is not a root
    (Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2)."""
    if p.is_zero:
        raise ZeroPolynomialError("Sturm chain of the zero polynomial")
    chain = _remainders(p.coeffs, p.derivative().coeffs)
    if len(chain[-1]) > 1:
        # The gcd is content-free, so each quotient is too (Gauss).
        g = IntPolynomial(chain[-1]).primitive()
        chain = [IntPolynomial(c).div_exact(g).coeffs for c in chain]
    return tuple(chain)


@lru_cache(maxsize=None)
def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient: the first
    entry of the Sturm chain of p."""
    return IntPolynomial(_sturm_chain(p)[0]).primitive()


def _variations(chain, x) -> tuple[int, int]:
    """Sign variations of the chain at the rational x, and the sign of its
    first entry there."""
    n, d = x.numerator, x.denominator
    signs = [_sign_at(coeffs, n, d) for coeffs in chain]
    nonzero = [sgn for sgn in signs if sgn]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:])), signs[0]


def count_real_roots_open(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0; raises ValueError otherwise. The chain
    is that of the squarefree part, so multiplicities never inflate the
    count.
    """
    chain = _sturm_chain(p)
    va, sa = _variations(chain, a)
    vb, sb = _variations(chain, b)
    if sa == 0 or sb == 0:
        raise ValueError("endpoint is a root; Sturm count needs nonroot endpoints")
    return va - vb if a < b else 0


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound: every real root has absolute value < the returned value."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lc = abs(p.lc)
    return 1 + max(Fraction(abs(c), lc) for c in p.coeffs[:-1])


def isolate_largest_real_root(p: IntPolynomial):
    """Isolating (lo, hi) for the largest real root of p, or None if p has no
    real roots. Returns lo == hi when the root is an exact rational."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return None
    chain = _sturm_chain(p)
    # V(x) = variations of the chain at x; V(a) - V(b) counts the roots in
    # (a, b] whenever s(b) != 0, even if s(a) == 0 (s = squarefree part).
    # Each point is evaluated once: V and the sign of s are kept for lo.
    B = cauchy_bound(squarefree_part(p))
    lo, hi = -B, B  # s(+-B) != 0 and every real root lies strictly inside
    vlo, slo = _variations(chain, lo)
    vhi = _variations(chain, hi)[0]
    if vlo == vhi:
        return None
    # Invariant: the largest root lies in (lo, hi) and s(hi) != 0; lo may be
    # a smaller root. Once (lo, hi) holds one simple root and s(lo) != 0,
    # s changes sign across it.
    while vlo - vhi > 1 or slo == 0:
        mid = (lo + hi) / 2
        vmid, smid = _variations(chain, mid)
        if smid == 0 and vmid == vhi:
            return mid, mid
        if vmid > vhi or smid == 0:
            lo, vlo, slo = mid, vmid, smid
        else:
            hi, vhi = mid, vmid
    return lo, hi


def refine_interval(p: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval below `width` by sign bisection."""
    if lo == hi:
        return lo, hi
    s = squarefree_part(p)
    slo = s.sign_at(lo)
    shi = s.sign_at(hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("refine_interval needs a sign-change isolating interval")
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = s.sign_at(mid)
        if v == 0:
            return mid, mid
        if v == shi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def fraction_str(x: Fraction) -> str:
    return str(x)


def decimal_places_12(x: Fraction) -> str:
    """Plain decimal with exactly 12 digits after the point, half-up rounding."""
    with localcontext() as ctx:
        ctx.prec = 80
        d = Decimal(x.numerator) / Decimal(x.denominator)
        q = d.quantize(Decimal("1.000000000000"), rounding=ROUND_HALF_UP)
    return format(q, "f")


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number: integer defining polynomial plus an isolating
    rational interval holding exactly one distinct real root (lo == hi for an
    exact rational value)."""

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    def refined(self, width: Fraction) -> "AlgebraicReal":
        if self.hi - self.lo <= width:
            return self
        lo, hi = refine_interval(self.poly, self.lo, self.hi, width)
        return AlgebraicReal(self.poly, lo, hi)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def approx_str(self) -> str:
        return decimal_places_12(self.midpoint)

    def as_float(self) -> float:
        return float(self.midpoint)

    def to_json(self) -> dict:
        return {
            "poly": self.poly.to_list(),
            "interval": [fraction_str(self.lo), fraction_str(self.hi)],
            "approx": self.approx_str(),
        }

    def __repr__(self):
        return f"AlgebraicReal({self.approx_str()})"


def algebraic_real(p: IntPolynomial, lo, hi) -> AlgebraicReal:
    """Build a certified AlgebraicReal, checking that [lo, hi] isolates one
    root of p and refining the interval to <= 2^-48."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        if p.sign_at(lo) != 0:
            raise ValueError("degenerate interval is not a root")
    elif count_real_roots_open(p, lo, hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    r = AlgebraicReal(p, lo, hi)
    return r.refined(DEFAULT_WIDTH)


def rational_algebraic(x) -> AlgebraicReal:
    f = Fraction(x)
    return AlgebraicReal(monomial_minus(f), f, f)


@lru_cache(maxsize=None)
def largest_real_root(p: IntPolynomial):
    """Largest real root of p as an AlgebraicReal, or None; isolated and
    refined once per distinct polynomial."""
    iso = isolate_largest_real_root(p)
    if iso is None:
        return None
    return AlgebraicReal(p, *iso).refined(DEFAULT_WIDTH)


# -- determinants and resultants --------------------------------------------

def det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_bareiss_poly(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    """Fraction-free determinant over Z[x]; the Bareiss divisions are exact."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return IntPolynomial([1])
    sign = 1
    prev = IntPolynomial([1])
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return IntPolynomial()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).div_exact(prev)
            m[i][k] = IntPolynomial()
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant_y(A: list[IntPolynomial], B: list[IntPolynomial]) -> IntPolynomial:
    """Resultant in y of two polynomials with Z[x] coefficients.

    A and B are ascending coefficient lists in y whose entries are integer
    polynomials in x. Returns an element of Z[x].
    """
    A = list(A)
    B = list(B)
    while A and A[-1].is_zero:
        A.pop()
    while B and B[-1].is_zero:
        B.pop()
    if not A or not B:
        raise ZeroPolynomialError("resultant with the zero polynomial")
    da, db = len(A) - 1, len(B) - 1
    if da == 0:
        out = IntPolynomial([1])
        for _ in range(db):
            out = out * A[0]
        return out
    if db == 0:
        out = IntPolynomial([1])
        for _ in range(da):
            out = out * B[0]
        return out
    size = da + db
    zero = IntPolynomial()
    rows: list[list[IntPolynomial]] = []
    desc_a = list(reversed(A))
    desc_b = list(reversed(B))
    for i in range(db):
        rows.append([zero] * i + desc_a + [zero] * (size - i - len(desc_a)))
    for i in range(da):
        rows.append([zero] * i + desc_b + [zero] * (size - i - len(desc_b)))
    return det_bareiss_poly(rows)
