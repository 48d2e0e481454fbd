"""Exact integer-polynomial arithmetic and certified real algebraic numbers.

Coefficient lists are ascending: [c0, c1, ..., cn] is c0 + c1 x + ... + cn x^n.
Real roots are carried around as an integer defining polynomial plus an
isolating rational interval containing exactly one distinct real root.
Intervals are refined to width <= 2^-48 at construction so the printed
12-decimal approximation is stable.

Roots are counted on the squarefree part s of p. When p = x^k q with q
squarefree, which a gcd modulo a prime shows, s is x q or q. Otherwise s
comes from p's one signed primitive remainder sequence, run on p and p': it
ends in gcd(p, p'), and divided by that gcd it is a Sturm chain of s, which
is its first entry. A root count on an interval is Descartes' count of sign
variations of s after a Moebius map of the interval onto (0, oo) when that
count is 0 or 1, and a Sturm count otherwise. The largest root of a Perron
polynomial is certified in one cell of the isolation tree picked by a float
guess (`certify_largest_root`); every other root is isolated by the Sturm
chain. All of it but that guess runs on integers: one pseudo-division loop,
homogeneous Horner at rational points, one Taylor shift, one bisection form
(integer numerators over a doubling denominator) with one Sturm-count
bisection, `_root_intervals`, and one sign-bisection loop,
`refine_interval`, and decimals rounded by integer division at any size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isfinite, log2
from typing import NamedTuple

from .errors import ZeroPolynomialError

DEFAULT_WIDTH = Fraction(1, 2 ** 48)
# Entries per memo of the exact layer, so none grows without bound.
_MEMO_SIZE = 4096
# The prime of the squarefree test in `squarefree_part`, the largest below
# 2^15: a product of two residues stays a small int.
_PRIME = 32749


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

@lru_cache(maxsize=_MEMO_SIZE)
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


def _squarefree_mod(q, m: int) -> bool:
    """Whether a test mod the prime m shows q (ascending ints) squarefree:
    m does not divide lc(q), and gcd(q, q') mod m, by Euclid's algorithm on
    residues held in descending order, has degree 0. True proves q
    squarefree over Q: a factor f^2 of q, f primitive of degree >= 1, keeps
    its degree mod m, as lc(f) divides lc(q), and f would divide that gcd.
    False proves nothing."""
    if not q or q[-1] % m == 0:
        return False
    u = [c % m for c in reversed(q)]
    v = [i * c % m for i, c in reversed(list(enumerate(q)))][:-1]
    while v and not v[0]:
        del v[0]
    while v:
        inv, top, tail = pow(v[0], -1, m), len(v), v[1:]
        while u and not u[0]:
            del u[0]
        while len(u) >= top:
            f = u[0] * inv % m
            u = [(a - f * b) % m for a, b in zip(u[1:top], tail)] + u[top:]
            while u and not u[0]:
                del u[0]
        u, v = v, u
    return len(u) == 1


@lru_cache(maxsize=_MEMO_SIZE)
def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient. Write
    p = x^k q with q(0) != 0. When q is squarefree by the test mod the prime
    _PRIME, the answer is x q, or q when k = 0, and no chain is built.
    Otherwise it is the first entry of the Sturm chain of p."""
    k = next((i for i, c in enumerate(p.coeffs) if c), 0)
    q = p.coeffs[k:]
    if _squarefree_mod(q, _PRIME):
        return IntPolynomial((0,) * min(k, 1) + q).primitive()
    return IntPolynomial(_sturm_chain(p)[0]).primitive()


def _variations(chain, n: int, d: int) -> tuple[int, int]:
    """Sign variations of the chain at n/d, d > 0, and the sign of its first
    entry there."""
    signs = [_sign_at(coeffs, n, d) for coeffs in chain]
    return _sign_variations(signs), signs[0]


def _taylor_shift(cs, n: int, d: int = 1) -> list[int]:
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


def _sign_variations(cs) -> int:
    """Sign changes in a coefficient sequence, zeros skipped: by Descartes'
    rule, at least the number of positive roots, and of the same parity."""
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _interval_variations(cs, a: Fraction, b: Fraction) -> int:
    """Descartes' count for the open interval (a, b), a < b: the sign
    variations of (1 + x)^m f((a + bx)/(1 + x)), which maps (0, oo) onto
    (a, b) (Collins & Akritas, SYMSAC 1976; Alesina & Galuzzi, Enseign.
    Math. 44, 1998). A count of 0 or 1 is the number of roots of f there.
    Built as f(a + (b - a) t), reversed, then shifted by 1; the last reversal
    keeps the variations."""
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    lo = a.numerator * (den // a.denominator)
    width = b.numerator * (den // b.denominator) - lo
    scaled, wp = _taylor_shift(cs, lo, den), 1
    for i in range(1, len(scaled)):
        wp *= width
        scaled[i] *= wp
    return _sign_variations(_taylor_shift(scaled[::-1], 1))


@lru_cache(maxsize=_MEMO_SIZE)
def count_real_roots_open(p: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0; raises ValueError otherwise. Roots
    are counted on the squarefree part s, so multiplicities never inflate
    the count. The answer is Descartes' count of s on (a, b) when that is 0
    or 1, which for a squarefree s is exact; otherwise it is the Sturm count
    V(a) - V(b) on the chain of s. The count is memoized on
    the values of (p, a, b), in a bounded cache; a ValueError is never
    cached, so it is raised on every call.
    """
    s = squarefree_part(p)
    if s.sign_at(a) == 0 or s.sign_at(b) == 0:
        raise ValueError("endpoint is a root; Sturm count needs nonroot endpoints")
    if a >= b:
        return 0
    v = _interval_variations(s.coeffs, a, b)
    if v <= 1:
        return v
    chain = _sturm_chain(p)
    return (_variations(chain, a.numerator, a.denominator)[0]
            - _variations(chain, b.numerator, b.denominator)[0])


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound: every real root has absolute value < the returned value."""
    if p.is_zero or p.degree == 0:
        return Fraction(1)
    lc = abs(p.lc)
    return 1 + max(Fraction(abs(c), lc) for c in p.coeffs[:-1])


def _root_intervals(p: IntPolynomial):
    """Isolating intervals of the distinct real roots of p, largest first:
    (r, r) for a root r that a midpoint hits, else an open (lo, hi) that
    holds exactly one root and whose ends are not roots. V(x) - V(y), in
    variations of the chain, counts the roots in (x, y], so an open (x, y)
    holds one fewer when y is a root. Bisection starts from (-B, B), B the
    Cauchy bound of the squarefree part, and pops the upper half first; each
    point is evaluated once, and an interval (a/d, b/d) is kept as
    (a, b, d, V(a/d), s(a/d), V(b/d), s(b/d)), s the squarefree part."""
    chain = _sturm_chain(p)
    B = cauchy_bound(squarefree_part(p))
    a, b, d = -B.numerator, B.numerator, B.denominator
    work = [(a, b, d, *_variations(chain, a, d), *_variations(chain, b, d))]
    while work:
        a, b, d, va, sa, vb, sb = work.pop()
        count = va - vb - (sb == 0)
        if a == b or (count == 1 and sa and sb):
            yield Fraction(a, d), Fraction(b, d)
        elif count:
            mid, d = a + b, 2 * d
            vmid, smid = _variations(chain, mid, d)
            work.append((2 * a, mid, d, va, sa, vmid, smid))
            if smid == 0:
                work.append((mid, mid, d, vmid, smid, vmid, smid))
            work.append((mid, 2 * b, d, vmid, smid, vb, sb))


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


def largest_real_root(p: IntPolynomial):
    """Largest real root of p as an AlgebraicReal, or None. Not memoized:
    `spectra.perron_root` memoizes the roots of component matrices."""
    iso = isolate_largest_real_root(p)
    if iso is None:
        return None
    return AlgebraicReal(p, *iso).refined(DEFAULT_WIDTH)


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
    """The AlgebraicReal that `largest_real_root(p)` gives, or None: a cell
    of the isolation tree picked by a float guess and certified by exact
    tests. Meant for Perron polynomials (see `_newton_guess`); for any p it
    returns that AlgebraicReal or None.

    `_root_intervals` bisects (-B, B), B the Cauchy bound of the squarefree
    part s, and `refine_interval` goes on bisecting the same tree. Let D be
    the first depth with 2B/2^D <= 2^-48 (the default width). Their output
    is the depth-D cell holding the largest root rho, or the point rho when
    rho is a tree point of depth <= D, whenever some cell on rho's path at
    depth <= D isolates rho and has ends that are not roots: the first
    isolating cell on that path is then no deeper, and sign bisection from
    any isolating cell on the path follows the path. Here the guess picks
    the cell (lo, hi) at depth D - 18, with its index computed exactly, and
    it is accepted only when s(lo) and s(hi) are nonzero of opposite signs
    (a root in the cell) and s(x + lo) has one sign variation (one root
    above lo, by Descartes). Then it isolates rho with ends that are not
    roots, and `refine_interval` descends to the cell, or the point, of
    the Sturm path. Any failed test gives None.
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


# -- determinants and resultants --------------------------------------------

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
