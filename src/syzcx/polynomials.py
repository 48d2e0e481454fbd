"""Exact integer-polynomial arithmetic and certified real algebraic numbers.

Coefficient lists are ascending: [c0, c1, ..., cn] is c0 + c1 x + ... + cn x^n.
Real roots are carried around as an integer defining polynomial plus an
isolating rational interval containing exactly one distinct real root.
Intervals are refined to width <= 2^-48 at construction so the printed
12-decimal approximation is stable.

Roots are counted on the squarefree part s = p / gcd(p, p') of p, the gcd
taken as one integer gcd at x = 2^w (`poly_gcd_q`). Roots are isolated and
counted by one bisection, `_root_intervals`: Descartes' count of sign
variations of s after a Moebius map of a cell onto (0, oo), halving every
cell where it is 2 or more. The largest root, Perron roots above all, is
first tried in one cell of that tree picked by a float guess and certified
by exact tests (`certify_largest_root`). All of it but that guess runs on
integers: one pseudo-division loop, one pack at x = 2^w and one
signed-digit reader, homogeneous Horner at rational points, a Taylor shift
by a rational and one by 1 in running sums, one bisection form (integer
numerators over a doubling denominator) in `_root_intervals` and in the
sign-bisection loop `refine_interval`, decimals rounded by integer division
at any size, and resultants by one Bareiss elimination loop, `_bareiss`,
run over Z on entries packed at x = 2^w, unless the fields are too wide for
that to pay, and then over Z[x] (`det_bareiss_poly`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, gcd, isfinite, log2
from typing import NamedTuple

from .errors import ZeroPolynomialError

DEFAULT_WIDTH = Fraction(1, 2 ** 48)
# Entries per memo of the exact layer, so none grows without bound.
_MEMO_SIZE = 4096


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

    def __reduce__(self):
        return IntPolynomial, (self.coeffs,)

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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

    __floordiv__ = div_exact


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


def _pack(cs, w: int) -> int:
    """sum cs[i] x^i at x = 2^w: the coefficients as w-bit fields of one
    integer (Kronecker substitution)."""
    v = 0
    for c in reversed(cs):
        v = (v << w) + c
    return v


def _signed_digits(v: int, w: int) -> list[int]:
    """The ascending coefficients, in [-2^(w-1), 2^(w-1)), of the polynomial
    whose value at 2^w is v: v's w-bit digits, lowest first, each read as a
    signed w-bit number, so a digit at or above 2^(w-1) borrows one from
    the next."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    while v:
        out.append(((v & mask) ^ half) - half)
        v = (v - out[-1]) >> w
    return out


def poly_gcd_q(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic-free gcd over Q, returned primitive with positive leading coeff,
    by the heuristic gcd (B. W. Char, K. O. Geddes & G. H. Gonnet, J.
    Symbolic Comput. 7, 1989; H.-C. Liao & R. J. Fateman, ISSAC 1995).

    With u and v the content-free a and b, neither zero nor u = v, and
    xi = 2^w >= 2 min(|u|oo, |v|oo) + 2, the candidate is the content-free
    part of the signed w-bit digits of gcd(u(xi), v(xi)). It is the gcd once
    it divides u and v (ibid., Thm 1); otherwise w doubles. No fallback is
    needed: write u = g u1 and v = g v1, g the gcd. As s u1 + t v1 =
    Res(u1, v1) for some s, t in Z[x], the integer gcd is h |g(xi)| with h
    dividing Res(u1, v1), so h does not grow with w, and once the
    coefficients of h g lie in (-2^(w-1), 2^(w-1)) the candidate is +-g."""
    u, v = _content_free(a.coeffs), _content_free(b.coeffs)
    if not u or not v or u == v:
        return IntPolynomial(u or v).primitive()
    w = min(max(map(abs, u)), max(map(abs, v))).bit_length() + 1
    while True:
        g = _content_free(_signed_digits(gcd(_pack(u, w), _pack(v, w)), w))
        if not (_pseudo_divmod(u, g)[2] or _pseudo_divmod(v, g)[2]):
            return IntPolynomial(g).primitive()
        w *= 2


# -- root counting and isolation -------------------------------------------

@lru_cache(maxsize=_MEMO_SIZE)
def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient. The gcd
    is primitive, so the quotient is integral (Gauss)."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    return p.div_exact(poly_gcd_q(p, p.derivative())).primitive()


def _taylor_shift(cs, n: int, d: int) -> list[int]:
    """Ascending coefficients of d^m f((x + n)/d), f = sum cs[i] x^i of
    degree m, d > 0: f shifted by n/d, with x scaled by d, so its sign
    variations are those of f(x + n/d). Scaled, then shifted by n in the
    classical O(m^2) additions."""
    m = len(cs) - 1
    out, dp = list(cs), 1
    for i in range(m - 1, -1, -1):
        dp *= d
        out[i] *= dp
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            out[j] += n * out[j + 1]
    return out


def _shift_by_one(desc):
    """The coefficients of f(x + 1), lowest first, for f highest first: the
    last running sum of each round of synthetic division by x - 1."""
    out = list(desc)
    while out:
        out = list(accumulate(out))
        yield out.pop()


def _sign_variations(cs) -> int:
    """Sign changes in a coefficient sequence, zeros skipped, counted up to
    2: by Descartes' rule a count of 0 or 1 is the number of positive
    roots, and 2 stands for any larger count, which decides nothing."""
    count = last = 0
    for c in cs:
        if c and last and (c > 0) != (last > 0):
            count += 1
            if count == 2:
                break
        last = c or last
    return count


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound: every real root has absolute value < the returned value."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lc = abs(p.lc)
    return 1 + max(Fraction(abs(c), lc) for c in p.coeffs[:-1])


def _root_intervals(p: IntPolynomial, lo: Fraction | None = None,
                    hi: Fraction | None = None):
    """Isolating intervals of the distinct real roots of p in (lo, hi),
    lo < hi, largest first: (r, r) for a root r that a midpoint hits, else
    an open interval that holds one root and whose ends are not roots. The
    default range is (-B, B), B the Cauchy bound of the squarefree part s.

    Descartes bisection (Collins & Akritas, SYMSAC 1976; Rouillier &
    Zimmermann, J. Comput. Appl. Math. 162, 2004): a cell (a/d, b/d) carries
    g(x) = d^m s((a + (b - a) x)/d), content-free, so g(0) and g(1) have the
    signs of s at its ends. The sign variations of g reversed and shifted by
    1 exceed the roots of s in the cell by an even number, so 0 or 1 is
    exact (Alesina & Galuzzi, Enseign. Math. 44, 1998). A cell counting 1
    with ends that are not roots is yielded; one counting more, or 1 with a
    root end, is halved: the lower half carries 2^m g(x/2) over its
    content, a power of 2, and the upper half that shifted by 1, whose
    constant term is 0 exactly when the midpoint is a root. The upper half
    is popped first. As s is squarefree, a narrow cell around a root
    counts 1."""
    s = squarefree_part(p).coeffs
    m = len(s) - 1
    if lo is None:
        # b - a = -2a, so g(x) = u(1 - 2x) for u(y) = d^m s(a y / d).
        B = cauchy_bound(IntPolynomial(s))
        a, b, d = -B.numerator, B.numerator, B.denominator
        u = _shift_by_one([c * a ** i * d ** (m - i) for i, c in enumerate(s)][::-1])
        g = [c * (-2) ** i for i, c in enumerate(u)]
    else:
        d = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        g = [c * (b - a) ** i for i, c in enumerate(_taylor_shift(s, a, d))]
    work = [(a, b, d, _content_free(g))]
    while work:
        a, b, d, g = work.pop()
        count = a < b and _sign_variations(_shift_by_one(g))
        if a == b or (count == 1 and g[0] and sum(g)):
            yield Fraction(a, d), Fraction(b, d)
        elif count:
            k = min((c & -c).bit_length() + m - i for i, c in enumerate(g) if c) - 1
            lower = [(c << (m - i)) >> k for i, c in enumerate(g)]
            upper = list(_shift_by_one(lower[::-1]))
            mid, d = a + b, 2 * d
            work.append((2 * a, mid, d, lower))
            if upper[0] == 0:
                work.append((mid, mid, d, None))
            work.append((mid, 2 * b, d, upper))


@lru_cache(maxsize=_MEMO_SIZE)
def count_real_roots_open(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0; raises ValueError otherwise. It is
    the number of cells `_root_intervals(p, a, b)` yields, so it counts on
    the squarefree part, and its first node, Descartes' count on (a, b),
    answers alone when that is 0 or 1. Memoized on the values of (p, a, b),
    in a bounded cache; a ValueError is never cached.
    """
    s = squarefree_part(p)
    if s.sign_at(a) == 0 or s.sign_at(b) == 0:
        raise ValueError("endpoint is a root; a root count needs nonroot endpoints")
    if a >= b:
        return 0
    return sum(1 for _ in _root_intervals(p, a, b))


def isolate_largest_real_root(p: IntPolynomial):
    """Isolating (lo, hi) for the largest real root of p, or None if p has no
    real roots. Returns lo == hi when the root is an exact rational."""
    return next(_root_intervals(p), None)


def integer_roots(p: IntPolynomial) -> list[int]:
    """Distinct integer roots of a monic p, ascending. Its rational roots are
    integers, and an isolating interval refined to width <= 1 can hold only
    one integer: the ceiling of its lower end, kept if it is not above the
    upper end and p vanishes there."""
    roots = []
    for lo, hi in _root_intervals(p):
        lo, hi = refine_interval(p, lo, hi, 1)
        r = ceil(lo)
        if r <= hi and p.sign_at(r) == 0:
            roots.append(r)
    return roots[::-1]


def refine_interval(p: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval below `width` by sign bisection.

    The ends are held as integer numerators a < b over one denominator d,
    which starts as the least common multiple of the ends' denominators and
    doubles with each step: the midpoint is a + b over 2d, the kept end is
    doubled, and b - a never changes. So the number of steps is known at the
    start, and each step costs one integer sign evaluation. The intervals
    are those of bisection in Fractions, step for step.
    """
    if lo == hi:
        return lo, hi
    s = squarefree_part(p)
    slo = s.sign_at(lo)
    shi = s.sign_at(hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("refine_interval needs a sign-change isolating interval")
    d = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    steps = 0
    while (b - a) * width.denominator > (width.numerator * d) << steps:
        steps += 1
    for _ in range(steps):
        a, b, mid = 2 * a, 2 * b, a + b
        d *= 2
        v = _sign_at(s.coeffs, mid, d)
        if v == 0:
            return Fraction(mid, d), Fraction(mid, d)
        if v == shi:
            b = mid
        else:
            a = mid
    return Fraction(a, d), Fraction(b, d)


def decimal_places_12(x: Fraction) -> str:
    """Plain decimal with exactly 12 digits after the point, rounded half
    away from zero (as decimal's ROUND_HALF_UP), in integers; a negative x
    keeps its sign even when it rounds to zero."""
    q = (2 * 10 ** 12 * abs(x.numerator) + x.denominator) // (2 * x.denominator)
    whole, frac = divmod(q, 10 ** 12)
    return f"{'-' if x < 0 else ''}{whole}.{frac:012d}"


class AlgebraicReal(NamedTuple):
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
            "interval": [str(self.lo), str(self.hi)],
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


def _newton_guess(cs) -> float | None:
    """A float near the largest real root of f = sum cs[i] x^i, or None.

    Newton's method from Fujiwara's bound 2 max |c_(m-i)/c_m|^(1/i), with
    c_0 halved. When every root lies in the disc |z| <= the largest real
    root, as for a Perron root, f, f' and f'' are positive above it
    (Gauss-Lucas), so the iterates decrease to it. The guess only guides: a
    bound, coefficient or value outside float range, a NaN, or no
    convergence within the step budget each give None.
    """
    m = len(cs) - 1
    try:
        top = log2(abs(cs[-1]))
        e = max(((log2(abs(c)) - top - (i == 0)) / (m - i)
                 for i, c in enumerate(cs[:-1]) if c), default=None)
        if e is None:
            return None
        x = 2.0 ** (e + 1)
        fs = [float(c) for c in reversed(cs)]
        for _ in range(64 + 8 * m):
            v = dv = 0.0
            for c in fs:
                dv = dv * x + v
                v = v * x + c
            y = x - v / dv
            if not isfinite(y):
                return None
            if y >= x:
                return x
            x = y
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def certify_largest_root(p: IntPolynomial):
    """The largest real root of p as the AlgebraicReal its isolation gives,
    or None: a cell of the isolation tree picked by a float guess and
    certified by exact tests. Meant for Perron polynomials (see
    `_newton_guess`); `largest_real_root` tries it first.

    For the largest root rho, `_root_intervals` yields the first cell on
    rho's path in the tree of (-B, B) that has one Descartes variation and
    ends that are not roots (or the point rho), and `refine_interval`
    bisects on along the path, as it does from any cell on the path that
    isolates rho with ends that are not roots. With D the first depth where
    2B/2^D <= 2^-48, the default width, the output is the depth-D cell, or
    the point rho when rho is a tree point of depth <= D, whenever the
    yielded cell is no deeper than D. By the two-circle theorem (Krandick &
    Mehlhorn, J. Symbolic Comput. 41, 2006) only another root, real or
    complex, within about 2^-48 of rho can make it deeper. Here the guess
    picks the cell (lo, hi) at depth D - 18, its index computed exactly,
    accepted only when s(lo) and s(hi) are nonzero of opposite signs (a
    root in the cell) and s(x + lo) has one sign variation (one root above
    lo, by Descartes): it then isolates rho with ends that are not roots.
    Any failed test gives None.
    """
    s = squarefree_part(p)
    guess = _newton_guess(s.coeffs)
    if guess is None:
        return None
    B = cauchy_bound(s)
    n, bd = B.numerator, B.denominator
    # D is the bit length of ceil(2^49 B) - 1; the cell is 18 levels up.
    depth = (-((-n << 49) // bd) - 1).bit_length() - 18
    # The index of the cell holding the guess: floor((g + B) 2^depth / 2B).
    gn, gd = guess.as_integer_ratio()
    k = ((gn * bd + n * gd) << depth) // (2 * n * gd)
    if not 0 <= k < 1 << depth:
        return None
    d = bd << depth
    a = (2 * k - (1 << depth)) * n
    lo, hi = Fraction(a, d), Fraction(a + 2 * n, d)
    if _sign_at(s.coeffs, a, d) * _sign_at(s.coeffs, a + 2 * n, d) >= 0:
        return None
    if _sign_variations(_taylor_shift(s.coeffs, lo.numerator,
                                      lo.denominator)) != 1:
        return None
    return AlgebraicReal(p, lo, hi).refined(DEFAULT_WIDTH)


def largest_real_root(p: IntPolynomial):
    """Largest real root of p as an AlgebraicReal, or None: the cell of
    `certify_largest_root` when its tests pass, else isolated by
    `_root_intervals`; both give the same value (see there). Not memoized:
    `spectra.perron_root` memoizes the roots of component matrices."""
    r = certify_largest_root(p)
    if r is not None:
        return r
    iso = isolate_largest_real_root(p)
    if iso is None:
        return None
    return AlgebraicReal(p, *iso).refined(DEFAULT_WIDTH)


# -- determinants and resultants --------------------------------------------

# CPython divides big integers in quadratic time and the packing pads every
# field to w bits, so wide fields make the packed elimination slower than the
# one over Z[x]. It runs when w^2 times the determinant's field count is at
# most this; on 417 Sylvester matrices of the product and sum closures, with
# coefficients up to 10^300, that rule never picked an elimination more than
# 1.2x slower than the other. Packed is about 20x faster on the resultants of
# `realize` (w at most 20) and 5x on x^20 - x - 1 times itself (w = 65, 441
# fields); Z[x] is 4x faster on their sum (w = 433) and 90x on
# x^4 - x - (10^4000 + 7) times itself (w = 106,303).
PACKED_MAX_COST = 1 << 23


def det_bareiss_poly(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    """Determinant of a square matrix over Z[x], by `_bareiss`: on the
    matrix's image at x = 2^w over Z when w^2 times the determinant's field
    count is at most `PACKED_MAX_COST`, else over Z[x] itself. Both give
    the same polynomial.

    Each entry becomes one integer, its coefficients packed in w-bit fields
    by `_pack`, as in `poly_gcd_q`. Every Bareiss intermediate, pivots
    included, is a minor of the row-permuted matrix, and every coefficient
    of a minor is at most the product over rows of max(1, sum of the
    entries' l1 norms) in absolute value. w is that bound's bit length plus
    1, so every coefficient lies in (-2^(w-1), 2^(w-1)). A nonzero
    polynomial with such coefficients does not vanish at 2^w (its top term
    outweighs the rest), so a pivot that is 0 at 2^w is the zero polynomial,
    both rings take the same pivots, and each division by the previous
    pivot, exact in Z[x], is exact at 2^w. The determinant has degree below
    the field count, the sum over rows of the largest entry length;
    `_signed_digits`, the reader of `poly_gcd_q`'s integer gcd, reads it
    back. The bound and the field count only grow row by row, so the first
    row past the cost picks Z[x] before anything is packed.
    """
    bound, fields, w = 1, 1, 2
    for r in rows:
        bound *= max(1, sum([abs(c) for e in r for c in e.coeffs]))
        fields += max([len(e.coeffs) for e in r], default=0)
        w = bound.bit_length() + 1
        if w * w * fields > PACKED_MAX_COST:
            return _bareiss([list(r) for r in rows], IntPolynomial([1]))
    v = _bareiss([[_pack(e.coeffs, w) for e in r] for r in rows], 1)
    return IntPolynomial(_signed_digits(v, w))


def _bareiss(m: list[list], one):
    """Determinant of the square matrix m over Z or Z[x], `one` being the
    ring's 1, by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968), which overwrites m: the pivot is the first nonzero entry at or
    below the diagonal, each row swap flips the sign, and each update is
    divided exactly by the previous pivot."""
    n = len(m)
    sign, prev = 1, one
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return m[k][k]  # 0: column k is zero from row k down
            m[k], m[i] = m[i], m[k]
            sign = -sign
        p, top = m[k][k], m[k]
        for i in range(k + 1, n):
            row, a = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - a * top[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else one


def resultant_y(A: list[IntPolynomial], B: list[IntPolynomial]) -> IntPolynomial:
    """Resultant in y of two polynomials with Z[x] coefficients.

    A and B are ascending coefficient lists in y whose entries are integer
    polynomials in x. Returns an element of Z[x]: the determinant of their
    Sylvester matrix by `det_bareiss_poly`, one Bareiss elimination, over
    Z on the entries packed at x = 2^w or, past `PACKED_MAX_COST`, over
    Z[x].
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
