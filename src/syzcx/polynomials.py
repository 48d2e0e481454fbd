"""Exact integer-polynomial arithmetic and certified real algebraic numbers.

Coefficient lists are ascending: [c0, c1, ..., cn] is c0 + c1 x + ... + cn x^n.
Real roots are located by Sturm sequences over exact rationals and carried
around as an integer defining polynomial plus an isolating rational interval
containing exactly one distinct real root. Intervals are refined to width
<= 2^-48 at construction so the printed 12-decimal approximation is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP, localcontext
from fractions import Fraction
from functools import lru_cache

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
        from math import gcd
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(c * sign // g for c in self.coeffs)

    def divmod_q(self, other: "IntPolynomial"):
        """Polynomial division over the rationals: (quotient, remainder)."""
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        return _divmod_frac([Fraction(c) for c in self.coeffs],
                            [Fraction(c) for c in other.coeffs])

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact division: raises if the quotient is not an integer polynomial."""
        quo, rem = self.divmod_q(other)
        if any(rem):
            raise ValueError("division is not exact (nonzero remainder)")
        if any(q.denominator != 1 for q in quo):
            raise ValueError("division is not exact (non-integer quotient)")
        return IntPolynomial(int(q) for q in quo)


def _divmod_frac(u, v) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of u by v over Q, as lists. u and v are
    ascending Fraction sequences without trailing zeros, v nonempty; the
    remainder comes back without trailing zeros too."""
    rem = list(u)
    d = len(v) - 1
    lc = v[-1]
    quo = [Fraction(0)] * max(0, len(rem) - d)
    while len(rem) - 1 >= d:
        f = rem[-1] / lc
        k = len(rem) - 1 - d
        quo[k] = f
        for i, c in enumerate(v):
            rem[k + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def poly(*coeffs) -> IntPolynomial:
    return IntPolynomial(coeffs)


def monomial_minus(m) -> IntPolynomial:
    """x - m for a rational/integer m, cleared to integer coefficients."""
    f = Fraction(m)
    return IntPolynomial([-f.numerator, f.denominator])


def poly_gcd_q(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic-free gcd over Q, returned primitive with positive leading coeff."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb:
        fa, fb = fb, _divmod_frac(fa, fb)[1]
    if not fa:
        return IntPolynomial()
    from math import lcm
    den = 1
    for c in fa:
        den = lcm(den, c.denominator)
    ints = IntPolynomial(int(c * den) for c in fa)
    return ints.primitive()


@lru_cache(maxsize=None)
def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return IntPolynomial([1])
    g = poly_gcd_q(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    # g is primitive, so the quotient is an integer polynomial (Gauss).
    return p.div_exact(g).primitive()


# -- Sturm machinery --------------------------------------------------------

@lru_cache(maxsize=None)
def _sturm_chain(p: IntPolynomial) -> tuple[tuple[Fraction, ...], ...]:
    chain = [tuple(Fraction(c) for c in p.coeffs)]
    d = tuple(Fraction(c) for c in p.derivative().coeffs)
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _divmod_frac(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return tuple(chain)


def _eval_frac(coeffs, x: Fraction):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _variations(chain, x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = _eval_frac(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_open(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0. Works on the squarefree part, so
    multiplicities never inflate the count.
    """
    s = squarefree_part(p)
    if s.evaluate(a) == 0 or s.evaluate(b) == 0:
        raise ValueError("endpoint is a root; Sturm count needs nonroot endpoints")
    if a >= b:
        return 0
    chain = _sturm_chain(s)
    return _variations(chain, a) - _variations(chain, b)


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
    s = squarefree_part(p)
    if s.degree <= 0:
        return None
    chain = _sturm_chain(s)

    def count_half_open(a: Fraction, b: Fraction) -> int:
        # Roots in (a, b]; valid whenever s(b) != 0, even if s(a) == 0.
        return _variations(chain, a) - _variations(chain, b)

    B = cauchy_bound(s)
    lo, hi = -B, B  # s(+-B) != 0 and every real root lies strictly inside
    if count_half_open(lo, hi) == 0:
        return None
    # Invariant: the largest root lies in (lo, hi] and s(hi) != 0, so in fact
    # in (lo, hi). lo is allowed to be a root (a smaller one).
    while count_half_open(lo, hi) > 1:
        mid = (lo + hi) / 2
        if s.evaluate(mid) == 0:
            if count_half_open(mid, hi) == 0:
                return mid, mid
            lo = mid
        elif count_half_open(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # One root in (lo, hi); tighten until a sign change certifies it.
    while s.evaluate(lo) == 0 or s.evaluate(lo) * s.evaluate(hi) > 0:
        mid = (lo + hi) / 2
        if s.evaluate(mid) == 0:
            return mid, mid
        if count_half_open(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def refine_interval(p: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval below `width` by sign bisection."""
    if lo == hi:
        return lo, hi
    s = squarefree_part(p)
    slo = s.evaluate(lo)
    shi = s.evaluate(hi)
    if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
        raise ValueError("refine_interval needs a sign-change isolating interval")
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = s.evaluate(mid)
        if v == 0:
            return mid, mid
        if (v > 0) == (shi > 0):
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


def algebraic_real(p: IntPolynomial, lo, hi, check: bool = True) -> AlgebraicReal:
    """Build a certified AlgebraicReal, refining the interval to <= 2^-48."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if check:
        if lo == hi:
            if p.evaluate(lo) != 0:
                raise ValueError("degenerate interval is not a root")
        else:
            s = squarefree_part(p)
            if s.evaluate(lo) == 0 or s.evaluate(hi) == 0:
                raise ValueError("interval endpoint is a root; not isolating")
            if count_real_roots_open(p, lo, hi) != 1:
                raise ValueError("interval does not isolate exactly one root")
    r = AlgebraicReal(p, lo, hi)
    return r.refined(DEFAULT_WIDTH)


def rational_algebraic(x) -> AlgebraicReal:
    f = Fraction(x)
    return AlgebraicReal(monomial_minus(f), f, f)


def largest_real_root(p: IntPolynomial):
    """Largest real root of p as an AlgebraicReal, or None."""
    iso = isolate_largest_real_root(p)
    if iso is None:
        return None
    lo, hi = iso
    if lo == hi:
        return AlgebraicReal(p, lo, hi)
    return AlgebraicReal(p, lo, hi).refined(DEFAULT_WIDTH)


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
