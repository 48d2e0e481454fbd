"""Which numbers occur as growth bases, and how to build witnesses.

A base is realizable exactly when it is a nonnegative algebraic integer that
no conjugate exceeds in modulus (equality allowed). The checker factors the
input by root isolation, not by divisors: its rational roots are integers,
read off its isolated real roots refined to width 1, and a quartic
remainder splits along an integer root of its resolvent cubic. It then tests
the factor holding the dominant real root b. The modulus test is exact: the
largest real root of the pairwise product polynomial (roots = all products of
two roots of the factor) equals b^2 precisely when no conjugate beats b, since
z * conj(z) is such a product for every root z.

Also here: the closure operations (sum, product, l-th root of the root set,
via Sylvester resultants over the integers) and the companion-quiver
construction realizing any monic x^{s+1} - a_0 x^s - ... - a_s with a_i >= 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import Arrow, Quiver
from .errors import (
    NonMonicInputError,
    NotMonicError,
    TrailingZeroError,
    ZeroPolynomialError,
)
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    integer_roots,
    largest_real_root,
    poly,
    rational_algebraic,
    resultant_y,
    squarefree_part,
)
from .spectra import algebraic_square, compare_algebraic, equal_radius

_ZERO = rational_algebraic(0)


class CurvatureVerdict(NamedTuple):
    """Outcome of the realizability check.

    irreducibility: how the judged factor was certified — "verified" (the
    input itself was proven irreducible), "reducible_factored" (the input
    split; the relevant factor was judged), "assumed" (caller vouched), or
    "unknown" (factorization incomplete; verdict is indeterminate).
    """

    status: str
    b: AlgebraicReal | None
    reason: str
    irreducibility: str

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "b": self.b.to_json() if self.b is not None else None,
            "irreducibility": self.irreducibility,
            "reason": self.reason,
        }


def _split_quartic(g: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial] | None:
    """Try to write a monic integer quartic without rational roots as a
    product (x^2 + px + q)(x^2 + rx + s) of monic integer quadratics. Then
    y = q + s is an integer root of Ferrari's resolvent cubic, and q, s are
    the roots of t^2 - yt + d: q has the smaller modulus (positive on a tie)."""
    d, c, b, a = g.coeffs[:4]
    resolvent = poly(4 * b * d - a * a * d - c * c, a * c - 4 * d, -b, 1)
    for y in integer_roots(resolvent):
        disc = y * y - 4 * d
        root = math.isqrt(max(disc, 0))
        if root * root != disc:
            continue
        q, s = sorted(((y + root) // 2, (y - root) // 2),
                      key=lambda t: (abs(t), t < 0))
        if s == q:
            if a * q != c:
                continue
            # p + r = a, p*r = b - 2q: integer roots of t^2 - a t + (b-2q)
            disc = a * a - 4 * (b - 2 * q)
            root = math.isqrt(max(disc, 0))
            if root * root != disc or (a + root) % 2:
                continue
            p_co = (a + root) // 2
        else:
            p_co, rem = divmod(c - a * q, s - q)
            if rem:
                continue
        f1, f2 = poly(q, p_co, 1), poly(s, a - p_co, 1)
        if f1 * f2 == g:
            return f1, f2
    return None


def factor_monic_squarefree(p: IntPolynomial) -> tuple[list[IntPolynomial], bool]:
    """Irreducible factorization of a monic squarefree integer polynomial, as
    far as root isolation reaches: a factor x - r for each integer root r
    (its only rational roots, read off its isolated real roots), ordered by
    |r|, positive first; then a quartic remainder split along an
    integer root of its resolvent cubic. Returns (monic factors, complete).
    Degrees 2 and 3 without rational roots are irreducible over the
    rationals; an unsplit remainder of degree >= 5 makes it incomplete."""
    factors: list[IntPolynomial] = []
    g = p
    for r in sorted(integer_roots(p), key=lambda t: (abs(t), t < 0)):
        factors.append(poly(-r, 1))
        g = g.div_exact(factors[-1])
    split = _split_quartic(g) if g.degree == 4 else None
    if split is not None:
        return factors + list(split), True
    if g.degree > 0:
        factors.append(g)
    return factors, g.degree <= 4


def _eliminate(q: IntPolynomial, rows: list[IntPolynomial]) -> IntPolynomial:
    """Res_y(q(y), sum_j rows[j] y^j), rows[j] in Z[x], with a positive
    leading coefficient: the one elimination of the closures."""
    res = resultant_y([IntPolynomial([c]) for c in q.coeffs], rows)
    return -res if res.lc < 0 else res


def product_polynomial(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Monic integer polynomial annihilating every product of a root of p
    with a root of q, via Res_y(q(y), y^m p(x/y))."""
    m = p.degree
    return _eliminate(q, [IntPolynomial([0] * (m - j) + [p.coeffs[m - j]])
                          for j in range(m + 1)])


def sum_polynomial(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Monic integer polynomial annihilating every sum of a root of p with a
    root of q, via Res_y(q(y), p(x - y))."""
    m = p.degree
    b_coeffs = []
    for j in range(m + 1):
        acc = [0] * (m - j + 1)
        for i in range(j, m + 1):
            acc[i - j] = (-1) ** j * p.coeffs[i] * math.comb(i, j)
        b_coeffs.append(IntPolynomial(acc))
    return _eliminate(q, b_coeffs)


def closure_combine(p: IntPolynomial, q: IntPolynomial, op: str,
                    ell: int = 1) -> IntPolynomial:
    """Closure of root sets under sum, product, or l-th roots.

    op "sum" / "product": Sylvester-resultant constructions annihilating
    b + c and b * c for roots b of p and c of q. op "root": p(x^ell), which
    annihilates every ell-th root of a root of p; q is ignored.
    """
    if p.is_zero:
        raise ZeroPolynomialError("p is the zero polynomial")
    if not p.is_monic:
        raise NonMonicInputError("p is not monic")
    if op == "root":
        if ell < 1:
            raise ValueError("root index must be >= 1")
        return p.compose_power(ell)
    if q.is_zero:
        raise ZeroPolynomialError("q is the zero polynomial")
    if not q.is_monic:
        raise NonMonicInputError("q is not monic")
    if op == "sum":
        return sum_polynomial(p, q)
    if op == "product":
        return product_polynomial(p, q)
    raise ValueError(f"unknown closure op {op!r}")


# -- the decision -------------------------------------------------------------

def check_condition_c(p: IntPolynomial,
                      assume_irreducible: bool = False) -> CurvatureVerdict:
    """Decide whether the dominant real root of p is a realizable base.

    Realizable means: p (or the certified irreducible factor containing its
    largest real root) has a nonnegative real root b and no root of that
    factor exceeds b in modulus; modulus equality is allowed. The modulus
    condition is decided exactly by comparing b^2 with the largest real root
    of the pairwise product polynomial of the factor."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot judge the zero polynomial")
    if not p.is_monic:
        raise NotMonicError(
            "the polynomial is not monic; its roots are not algebraic integers"
        )
    sf = squarefree_part(p)
    if assume_irreducible:
        factors, irr = [sf], "assumed"
    else:
        factors, complete = factor_monic_squarefree(sf)
        if not complete:
            return CurvatureVerdict(
                "indeterminate", None,
                "no certified irreducible factorization (degree >= 5 "
                "remainder); re-run with assume_irreducible if known",
                "unknown",
            )
        irr = "verified" if len(factors) == 1 and sf == p else "reducible_factored"

    best: AlgebraicReal | None = None
    best_factor: IntPolynomial | None = None
    for f in factors:
        r = (rational_algebraic(-f.coeffs[0]) if f.degree == 1
             else largest_real_root(f))
        if r is None:
            continue
        if best is None or compare_algebraic(r, best) > 0:
            best, best_factor = r, f
    if best is None:
        return CurvatureVerdict(
            "not_realizable", None, "no real root", irr
        )
    sign = compare_algebraic(best, _ZERO)
    if sign < 0:
        return CurvatureVerdict(
            "not_realizable", None, "the largest real root is negative", irr
        )

    f = best_factor
    if f.degree == 1:
        return CurvatureVerdict(
            "realizable", best, "rational nonnegative integer root", irr
        )
    if f.coeffs[0] == 0:
        f = IntPolynomial(f.coeffs[1:])
    if sign == 0:
        return CurvatureVerdict(
            "not_realizable", None,
            "a nonzero conjugate dominates the candidate 0", irr,
        )
    mu = largest_real_root(product_polynomial(f, f))
    if mu is not None and equal_radius(mu, algebraic_square(best)):
        return CurvatureVerdict(
            "realizable", best,
            "no conjugate exceeds the dominant real root in modulus", irr,
        )
    return CurvatureVerdict(
        "not_realizable", None,
        "a conjugate exceeds the dominant real root in modulus", irr,
    )


# -- companion realization -----------------------------------------------------

def companion_polynomial(coeffs) -> IntPolynomial:
    """x^{s+1} - a_0 x^s - a_1 x^{s-1} - ... - a_s for coeffs (a_0..a_s)."""
    cs = [int(c) for c in coeffs]
    asc = [-c for c in reversed(cs)] + [1]
    return IntPolynomial(asc)


def realize_companion(coeffs) -> Quiver:
    """Strongly connected quiver whose adjacency characteristic polynomial is
    x^{s+1} - a_0 x^s - ... - a_s: a chain v0 -> v1 -> ... -> vs plus a_i
    arrows v_i -> v0. Needs every a_i >= 0 and a_s >= 1 (a_s = 0 would
    disconnect the last vertex from the cycle)."""
    cs = [int(c) for c in coeffs]
    if not cs:
        raise ValueError("need at least one coefficient")
    if any(c < 0 for c in cs):
        raise ValueError("coefficients must be nonnegative")
    if cs[-1] == 0:
        raise TrailingZeroError(
            "the last coefficient is zero; the realizing quiver would not "
            "be strongly connected"
        )
    s = len(cs) - 1
    vertices = tuple(f"v{i}" for i in range(s + 1))
    arrows: list[Arrow] = []
    for i in range(s):
        arrows.append(Arrow(f"c{i}", f"v{i}", f"v{i+1}"))
    for i, a in enumerate(cs):
        for t in range(a):
            arrows.append(Arrow(f"b{i}_{t}", f"v{i}", "v0"))
    return Quiver(vertices, tuple(arrows))
