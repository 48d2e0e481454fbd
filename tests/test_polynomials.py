"""Integer polynomials, root isolation by Descartes' rule, and algebraic
reals.

Expected values are computed by hand (small determinants, explicit
expansions), pinned against closed forms like the golden ratio, or taken
from the references: the Sturm chain in `sturm.py`, and determinants of
integer matrices by `conftest.det_bareiss_int`, taken at enough points to
fix a polynomial determinant."""

import random
from collections import Counter
from decimal import Decimal, ROUND_HALF_UP, localcontext
from fractions import Fraction
from math import ceil

import pytest

from syzcx.polynomials import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    poly,
    monomial_minus,
    poly_gcd_q,
    squarefree_part,
    count_real_roots_open,
    cauchy_bound,
    isolate_largest_real_root,
    refine_interval,
    decimal_places_12,
    algebraic_real,
    rational_algebraic,
    largest_real_root,
    integer_roots,
    certify_largest_root,
    det_bareiss_poly,
    resultant_y,
)
from syzcx import polynomials
from syzcx.polynomials import IntPolynomial, _bareiss, _root_intervals
from syzcx.errors import ZeroPolynomialError

import sturm
from conftest import (clear_caches, det_bareiss_int, evaluate, gcd_by_remainders,
                      run_python, sylvester_rows)

PHI = (1 + 5 ** 0.5) / 2  # 1.6180339887498949

GOLDEN = poly(-1, -1, 1)  # x^2 - x - 1


def test_construction_strips_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (1, 2)
    assert poly(0, 0).coeffs == ()
    assert poly().is_zero


def test_immutability():
    p = poly(1, 2)
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_structure_accessors():
    p = poly(-1, -1, 1)
    assert p.degree == 2
    assert p.lc == 1
    assert p.is_monic
    assert not poly(1, 2).is_monic
    assert poly(3).degree == 0
    assert poly().degree == -1
    with pytest.raises(ZeroPolynomialError):
        _ = poly().lc


def test_equality_and_hash():
    assert poly(1, 2) == poly(1, 2, 0)
    assert hash(poly(1, 2)) == hash(poly(1, 2, 0))
    assert poly(1, 2) != poly(2, 1)


def test_arithmetic():
    p = poly(1, 1)   # 1 + x
    q = poly(-1, 1)  # x - 1
    assert p + q == poly(0, 2)
    assert p - q == poly(2)
    assert -p == poly(-1, -1)
    assert p * q == poly(-1, 0, 1)  # x^2 - 1
    assert 3 * p == poly(3, 3)
    assert p * 0 == poly()


def test_evaluate_exact():
    p = poly(-1, -1, 1)
    assert evaluate(p, 2) == 1
    assert evaluate(p, Fraction(1, 2)) == Fraction(-5, 4)


def test_derivative_and_compose_power():
    assert poly(5, 3, 1).derivative() == poly(3, 2)
    assert poly(1, -3, 1).compose_power(2) == poly(1, 0, -3, 0, 1)
    with pytest.raises(ValueError):
        poly(1, 1).compose_power(0)


def test_primitive():
    assert poly(2, 4, -6).primitive() == poly(-1, -2, 3)
    assert poly(-2, -4).primitive() == poly(1, 2)


def test_divmod_and_exact_division():
    num = poly(-1, 0, 1)  # (x-1)(x+1)
    quo, rem = num.divmod_q(poly(-1, 1))
    assert [Fraction(c) for c in quo] == [Fraction(1), Fraction(1)]
    assert not any(rem)
    assert num.div_exact(poly(-1, 1)) == poly(1, 1)
    with pytest.raises(ValueError):
        poly(1, 0, 1).div_exact(poly(-1, 1))
    with pytest.raises(ZeroPolynomialError):
        num.divmod_q(poly())


def test_truth_value_and_exact_floor_division():
    # A polynomial is true when it is nonzero; // is div_exact, which
    # refuses a remainder and a quotient that is not integral.
    assert poly(0, 1) and poly(-3)
    assert not poly() and not poly(0, 0)
    assert poly(-1, 0, 1) // poly(-1, 1) == poly(1, 1)
    with pytest.raises(ValueError):
        poly(1, 0, 1) // poly(-1, 1)
    with pytest.raises(ValueError):
        poly(1, 1) // poly(2)


def test_monomial_minus():
    assert monomial_minus(Fraction(3, 2)) == poly(-3, 2)
    assert monomial_minus(2) == poly(-2, 1)


def test_poly_gcd():
    a = poly(-1, 0, 1) * poly(2, 1)   # (x^2-1)(x+2)
    b = poly(-1, 1) * poly(2, 1)      # (x-1)(x+2)
    g = poly_gcd_q(a, b).primitive()
    assert g == (poly(-1, 1) * poly(2, 1)).primitive()


def test_squarefree_part():
    p = poly(-1, 1) * poly(-1, 1) * poly(2, 1)
    assert squarefree_part(p).primitive() == (poly(-1, 1) * poly(2, 1)).primitive()
    # The zero polynomial has no squarefree part, and so no roots to isolate.
    with pytest.raises(ZeroPolynomialError):
        squarefree_part(poly())
    with pytest.raises(ZeroPolynomialError):
        largest_real_root(poly())


def _gcd_pairs():
    """3,000 seeded pairs: a planted common factor, often repeated, times
    random cofactors, with powers of x, a content of up to 2^70 and a sign
    on either side; coefficients of up to 10^30 on every 20th pair and of
    4,000 digits on every 500th; and equal, negated and zero inputs."""
    rng = random.Random(0x6CD)

    def draw(degree, size):
        return poly(*[rng.randint(-size, size) for _ in range(degree)],
                    rng.randint(1, size))

    for i in range(3000):
        size = (10 ** 4000 if i % 500 == 0 else 10 ** 30 if i % 20 == 0
                else rng.choice([1, 2, 3, 9, 99]))
        top = 1 if size > 10 ** 30 else 3
        g = _product([draw(rng.randint(1, top), size)] * rng.randint(1, top)
                     if rng.random() < 0.7 else [])
        a, b = (g * draw(rng.randint(0, 2 * top), size)
                * poly(*[0] * rng.randint(0, 2), 1) for _ in range(2))
        kind = i % 10
        if kind == 0:
            b = a
        elif kind == 1:
            b = -a
        elif kind == 2:
            b = poly()
        for _ in range(2):
            a, b = b, a * rng.choice([1, -1]) * rng.randint(1, 1 << 70)
        yield a, b


def test_gcd_equals_the_remainder_sequence(monkeypatch):
    """On `_gcd_pairs`, the gcd in either order and the squarefree part of
    each nonzero input equal those of the remainder sequence, and the
    widths the digits are read at double, from the first width on, at
    least 20 times."""
    widths, digits = [], polynomials._signed_digits

    def recorded(v, w):
        widths.append(w)
        return digits(v, w)

    monkeypatch.setattr(polynomials, "_signed_digits", recorded)
    clear_caches()
    doublings = 0
    for a, b in _gcd_pairs():
        g = gcd_by_remainders(a, b)
        for x, y in ((a, b), (b, a)):
            widths.clear()
            assert poly_gcd_q(x, y) == g, (x, y)
            assert all(v == 2 * w for w, v in zip(widths, widths[1:])), widths
            doublings += max(0, len(widths) - 1)
        for p in (a, b):
            if p:
                sqf = p.div_exact(gcd_by_remainders(p, p.derivative()))
                assert squarefree_part(p) == sqf.primitive(), p
    assert doublings >= 20, doublings


def test_gcd_and_squarefree_part_of_degree_200_end_in_seconds():
    """gcd(f, f') and the squarefree part of s^2 r, both of degree 200
    with 100-bit coefficients, in a child process under a 20 s timeout.
    The remainder sequence took 38 to 62 s on f and f' alone."""
    out = run_python(
        "import random\n"
        "from syzcx.polynomials import IntPolynomial, poly_gcd_q, squarefree_part\n"
        "rng = random.Random(200)\n"
        "def draw(n):\n"
        "    return IntPolynomial([rng.getrandbits(100) - (1 << 99)\n"
        "                          for _ in range(n)] + [1 << 99 | 1])\n"
        "f, s, r = draw(200), draw(50), draw(100)\n"
        "print(poly_gcd_q(f, f.derivative()).coeffs,\n"
        "      squarefree_part(s * s * r) == (s * r).primitive())", timeout=20)
    assert out.stdout == "(1,) True\n", out.stderr


def test_count_real_roots_open():
    p = poly(-2, 0, 1)  # x^2 - 2
    assert count_real_roots_open(p, Fraction(0), Fraction(2)) == 1
    assert count_real_roots_open(p, Fraction(-2), Fraction(2)) == 2
    assert count_real_roots_open(p, Fraction(2), Fraction(3)) == 0
    # A root at either end is refused, a repeated root included;
    # equal_radius relies on this guard.
    q = poly(-4, 0, 1)  # x^2 - 4
    with pytest.raises(ValueError, match="endpoint is a root"):
        count_real_roots_open(q, Fraction(2), Fraction(3))
    with pytest.raises(ValueError, match="endpoint is a root"):
        count_real_roots_open(q, Fraction(0), Fraction(2))
    with pytest.raises(ValueError, match="endpoint is a root"):
        count_real_roots_open(q * q, Fraction(-2), Fraction(0))


def test_cauchy_bound_dominates_roots():
    b = cauchy_bound(GOLDEN)
    assert b >= Fraction(17, 10)  # beyond the golden ratio


def test_isolate_largest_real_root_golden():
    lo, hi = isolate_largest_real_root(GOLDEN)
    assert lo < Fraction(16180339887498949, 10 ** 16) < hi


def test_isolate_largest_real_root_rational_hit():
    # Roots at +-2: bisection midpoints land on integers, which must not
    # derail the root counting.
    lo, hi = isolate_largest_real_root(poly(-4, 0, 1))
    assert lo <= 2 <= hi
    assert largest_real_root(poly(-4, 0, 1)).midpoint == 2 or lo < 2 < hi \
        or (lo == hi == 2)


def test_isolate_no_real_roots():
    assert isolate_largest_real_root(poly(1, 0, 1)) is None
    assert largest_real_root(poly(1, 0, 1)) is None


def _isolate_fractions(p):
    """Reference: the isolation bisection by Sturm counts, with Fraction
    midpoints."""
    chain = sturm.sturm_chain(p)

    def variations(x):
        return sturm.variations(chain, x.numerator, x.denominator)

    B = cauchy_bound(squarefree_part(p))
    lo, hi = -B, B
    vlo, slo = variations(lo)
    vhi = variations(hi)[0]
    if vlo == vhi:
        return None
    while vlo - vhi > 1 or slo == 0:
        mid = (lo + hi) / 2
        vmid, smid = variations(mid)
        if smid == 0 and vmid == vhi:
            return mid, mid
        if vmid > vhi or smid == 0:
            lo, vlo, slo = mid, vmid, smid
        else:
            hi, vhi = mid, vmid
    return lo, hi


def _isolate_corpus():
    """Seeded polynomials: random ones, non-monic ones, products with
    repeated factors, ones without real roots, and ones whose largest root
    may be a rational that the bisection lands on at a midpoint."""
    rng = random.Random(0x150)
    cases = [poly(-4, 0, 1), poly(-4, 0, 1) * poly(-4, 0, 1), poly(1, 0, 1),
             poly(0, 0, 1), poly(-1, 2)]
    for i in range(800):
        kind = i % 5
        if kind == 0:
            p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 7))], 1)
        elif kind == 1:
            p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))],
                     rng.choice([2, 3, 5, 6, 7, 9, 15, -4]))
        elif kind == 2:
            f = poly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))],
                     rng.choice([1, 1, 2, 3]))
            g = poly(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            p = f * f * g
        elif kind == 3:
            p = poly(rng.randint(1, 50), 0, 1) * poly(rng.randint(1, 9), 0,
                                                       rng.randint(1, 4))
        else:
            # Like x^2 - 4: rational roots, some of them on a midpoint.
            p = _product([poly(-rng.randint(-4, 4), rng.choice([1, 2, 4]))
                          for _ in range(rng.randint(2, 4))])
        if p.degree >= 1:
            cases.append(p)
    return cases


def test_isolate_matches_fraction_bisection():
    """The Descartes bisection stops at the Sturm bisection's cell or below
    it: its cell is a dyadic subcell of the Sturm cell, the same point when
    that is a point, and both refine to the same bytes."""
    exact = none = finer = 0
    for p in _isolate_corpus():
        got = isolate_largest_real_root(p)
        want = _isolate_fractions(p)
        if want is None:
            assert got is None
            none += 1
            continue
        assert all(type(x) is Fraction for x in got)
        (lo, hi), (wlo, whi) = got, want
        if wlo == whi or lo == hi:
            assert got == want or wlo < lo == hi < whi
        else:
            ratio = (whi - wlo) / (hi - lo)
            assert ratio.denominator == 1 and ratio.numerator & (ratio.numerator - 1) == 0
            assert wlo <= lo < hi <= whi and ((lo - wlo) / (hi - lo)).denominator == 1
        refined = [AlgebraicReal(p, *cell).refined(DEFAULT_WIDTH).to_json()
                   for cell in (got, want)]
        assert refined[0] == refined[1], p
        exact += lo == hi
        finer += got != want
    assert none >= 150 and exact >= 40 and finer >= 50


def _integer_roots_by_trial_division(p):
    """Rational-root test: an integer root r != 0 divides the lowest nonzero
    coefficient, since p / x^k has r as a root and that constant term."""
    c0 = next(c for c in p.coeffs if c)
    roots = {0} if p.coeffs[0] == 0 else set()
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0:
            roots.update(r for r in (d, -d) if evaluate(p, r) == 0)
    return sorted(roots)


def _product(factors):
    p = poly(1)
    for f in factors:
        p = p * f
    return p


def test_integer_roots_match_trial_division():
    """Seeded monic polynomials with small constant terms: random ones, and
    products of linear factors (repeats and root 0 included) with a random
    cofactor."""
    rng = random.Random(4801)
    cases = 0
    for i in range(600):
        if i % 2:
            p = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(1, 8))], 1)
        else:
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            cofactor = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))], 1)
            p = _product([poly(-r, 1) for r in roots] + [cofactor])
        assert integer_roots(p) == _integer_roots_by_trial_division(p)
        cases += bool(integer_roots(p))
    assert cases >= 300


def test_integer_roots_with_thirty_digit_constant_terms():
    """Known linear factors of up to ten digits each, so their product has a
    constant term of up to 30 digits, times x^2 - (k^2 + 1): its roots are
    irrational and lie next to the integers +-k."""
    rng = random.Random(4802)
    for _ in range(100):
        roots = [rng.choice([0, rng.randint(-10 ** 10, 10 ** 10)])
                 for _ in range(rng.randint(1, 3))]
        roots += rng.sample(roots, rng.randint(0, 1))  # a repeated root
        k = rng.randint(1, 10 ** 14)
        p = _product([poly(-r, 1) for r in roots] + [poly(-(k * k + 1), 0, 1)])
        assert integer_roots(p) == sorted(set(roots))


def _integer_roots_chain_only(p):
    """Reference: bisection at half-integers by Sturm counts alone, one
    chain evaluation per point, down to unit intervals."""
    chain = sturm.sturm_chain(p)

    def above(k):
        return sturm.variations(chain, 2 * k + 1, 2)[0]

    B = ceil(cauchy_bound(p))
    roots = []
    work = [(-B - 1, above(-B - 1), B, above(B))]
    while work:
        lo, vlo, hi, vhi = work.pop()
        if vlo == vhi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = above(mid)
            work += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
        elif p.sign_at(hi) == 0:
            roots.append(hi)
    return roots


def _integer_roots_corpus():
    """3,000 seeded monic polynomials: small random ones; products of
    linear factors with repeated roots and a random cofactor; random ones
    with coefficients up to 10^12; and products of roots up to 10^6, with a
    repeat, whose coefficients pass 10^12."""
    rng = random.Random(1401)
    for i in range(3000):
        kind = i % 4
        if kind == 0:
            p = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(1, 8))], 1)
        elif kind == 1:
            roots = [rng.randint(-40, 40) for _ in range(rng.randint(1, 4))]
            roots += rng.sample(roots, rng.randint(0, len(roots)))
            cofactor = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 3))], 1)
            p = _product([poly(-r, 1) for r in roots] + [cofactor])
        elif kind == 2:
            p = poly(*[rng.randint(-10 ** 12, 10 ** 12)
                       for _ in range(rng.randint(1, 6))], 1)
        else:
            roots = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 3))]
            roots += rng.sample(roots, rng.randint(0, 1))
            cofactor = poly(*[rng.randint(-10 ** 6, 10 ** 6)
                              for _ in range(rng.randint(0, 2))], 1)
            p = _product([poly(-r, 1) for r in roots] + [cofactor])
        yield p


def test_integer_roots_match_chain_only_search():
    """integer_roots equals the half-integer search on the corpus above."""
    found = repeated = huge = 0
    for p in _integer_roots_corpus():
        got = integer_roots(p)
        assert got == _integer_roots_chain_only(p)
        found += bool(got)
        repeated += squarefree_part(p) != p
        huge += max(abs(c) for c in p.coeffs) >= 10 ** 11
    assert found >= 1000 and repeated >= 500 and huge >= 1000


def test_root_intervals_isolate_every_real_root():
    """On both corpora, _root_intervals yields the whole root set, largest
    first: pairwise disjoint intervals in descending order, each open one
    holding exactly one root with ends that are not roots, each point a
    root, as many as the reference's Sturm count over (-B, B)."""
    lower = points = repeated = 0
    for p in [*_isolate_corpus(), *_integer_roots_corpus()]:
        got = list(_root_intervals(p))
        for lo, hi in got:
            if lo == hi:
                assert p.sign_at(lo) == 0
            else:
                assert lo < hi and p.sign_at(lo) != 0 != p.sign_at(hi)
                assert count_real_roots_open(p, lo, hi) == 1
        for (lo, hi), (lo2, hi2) in zip(got, got[1:]):
            assert hi2 < lo or (hi2 == lo and (lo < hi or lo2 < hi2))
        B = cauchy_bound(squarefree_part(p))
        assert len(got) == sturm.sturm_count(p, -B, B)
        lower += len(got[1:])
        points += sum(lo == hi for lo, hi in got[1:])
        repeated += bool(got) and squarefree_part(p) != p
    assert lower >= 5000 and points >= 150 and repeated >= 500


def test_integer_roots_degenerate():
    assert integer_roots(poly(1)) == []
    assert integer_roots(poly(0, 1)) == [0]
    assert integer_roots(poly(10 ** 100 + 267, -1, 1)) == []


def test_refine_interval():
    lo, hi = isolate_largest_real_root(GOLDEN)
    lo2, hi2 = refine_interval(GOLDEN, lo, hi, Fraction(1, 10 ** 9))
    assert hi2 - lo2 <= Fraction(1, 10 ** 9)
    assert abs(float((lo2 + hi2) / 2) - PHI) < 1e-9


def _refine_fractions(p, lo, hi, width):
    """Reference: sign bisection with Fraction midpoints."""
    if lo == hi:
        return lo, hi
    s = squarefree_part(p)
    shi = s.sign_at(hi)
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


def _refine_corpus():
    """(p, lo, hi, width, root) cases, seeded, with root the rational root
    that bisection must land on, or None:
    - isolating intervals of non-monic polynomials, whose Cauchy bounds
      give the ends odd denominators;
    - sign-change intervals with random ends of unequal odd denominators;
    - a rational root that the bisection reaches exactly at a midpoint;
    each with widths that are not powers of two, like the (hi - lo)/16 of
    compare_algebraic on such ends, as well as 2^-48 and 10^-9."""
    rng = random.Random(0xB15EC7)

    def widths(lo, hi):
        return [DEFAULT_WIDTH, (hi - lo) / 16, (hi - lo) / 7,
                Fraction(1, 10 ** 9), Fraction(rng.randint(1, 99), 3 ** 20)]

    cases = []
    while len(cases) < 300:
        lc = rng.choice([2, 3, 5, 6, 7, 9, 15, 21])
        p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))], lc)
        iso = isolate_largest_real_root(p)
        if iso is not None and iso[0] != iso[1]:
            cases += [(p, *iso, w, None) for w in widths(*iso)]
    while len(cases) < 600:
        p = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        if p.degree < 1:
            continue
        lo = Fraction(rng.randint(-60, 60), rng.choice([3, 5, 7, 9, 11, 13]))
        hi = lo + Fraction(rng.randint(1, 60), rng.choice([3, 5, 7, 15, 17]))
        s = squarefree_part(p)
        if s.sign_at(lo) * s.sign_at(hi) < 0:
            cases += [(p, lo, hi, w, None) for w in widths(lo, hi)]
    for _ in range(60):
        q = rng.choice([1, 3, 5, 7, 9])
        lo = Fraction(rng.randint(-20, 20), q)
        hi = lo + Fraction(rng.randint(1, 20), q)
        j = rng.randint(1, 20)
        root = lo + (hi - lo) * Fraction(2 * rng.randrange(2 ** (j - 1)) + 1, 2 ** j)
        p = poly(-root.numerator, root.denominator) * poly(rng.randint(1, 5), 0, 1)
        for w in (DEFAULT_WIDTH, (hi - lo) / 3 ** 13):
            cases.append((p, lo, hi, w, root))
    return cases


def test_refine_interval_matches_fraction_bisection():
    odd = 0  # cases with an end whose denominator has an odd factor
    for p, lo, hi, width, root in _refine_corpus():
        got = refine_interval(p, lo, hi, width)
        want = _refine_fractions(p, lo, hi, width)
        assert [(type(x), str(x)) for x in got] == [(type(x), str(x)) for x in want]
        if root is not None:
            assert got == (root, root)
        odd += any(x.denominator & (x.denominator - 1) for x in (lo, hi))
    assert odd >= 500


def test_fraction_str():
    assert rational_algebraic(Fraction(3, 2)).to_json()["interval"] == ["3/2", "3/2"]
    assert rational_algebraic(Fraction(4)).to_json()["interval"] == ["4", "4"]


def test_decimal_places_12():
    assert decimal_places_12(Fraction(1)) == "1.000000000000"
    assert decimal_places_12(Fraction(1, 3)) == "0.333333333333"


def _decimal_reference(x):
    """Reference: decimal division at precision 200 beyond the integer
    digits, quantized to 12 places with ROUND_HALF_UP."""
    with localcontext() as ctx:
        ctx.prec = 200 + len(str(abs(x.numerator) // x.denominator))
        d = Decimal(x.numerator) / Decimal(x.denominator)
        q = d.quantize(Decimal("1.000000000000"), rounding=ROUND_HALF_UP)
    return format(q, "f")


def test_decimal_places_12_matches_decimal():
    """Seeded Fractions of every size, exact ties at the 13th digit (which
    round away from zero), negative and tiny negative values (which keep
    their sign at zero), and values of 80 and 200 digits, which the old
    80-digit context could not quantize."""
    rng = random.Random(0xDEC)
    xs = [Fraction(0), Fraction(-1, 10 ** 15), Fraction(-1, 3 * 10 ** 12),
          Fraction(1, 2 * 10 ** 12), Fraction(-1, 2 * 10 ** 12),
          Fraction(10 ** 80), Fraction(-10 ** 80), Fraction(10 ** 200),
          Fraction(10 ** 80 * 2 * 10 ** 12 + 1, 2 * 10 ** 12),
          Fraction(-(10 ** 200 * 2 * 10 ** 12 + 3), 2 * 10 ** 12)]
    for _ in range(3000):
        xs.append(Fraction(rng.randint(-10 ** 30, 10 ** 30),
                           rng.randint(1, 10 ** rng.randint(1, 30))))
        xs.append(Fraction(rng.randrange(-10 ** 9, 10 ** 9) * 2 + 1,
                           2 * 10 ** 12))  # a tie
        xs.append(Fraction(rng.randint(-10 ** 3, 10 ** 3),
                           10 ** rng.randint(12, 16)))  # tiny
        xs.append(Fraction(rng.randint(1, 10 ** 250) * rng.choice([1, -1]),
                           2 ** rng.randint(0, 60)))  # huge
    for x in xs:
        assert decimal_places_12(x) == _decimal_reference(x), x
    assert decimal_places_12(Fraction(-1, 2 * 10 ** 12)) == "-0.000000000001"
    assert decimal_places_12(Fraction(-1, 10 ** 15)) == "-0.000000000000"
    assert decimal_places_12(Fraction(10 ** 200)) == "1" + "0" * 200 + ".000000000000"


def test_algebraic_real_certification():
    r = algebraic_real(GOLDEN, 1, 2)
    assert abs(r.as_float() - PHI) < 1e-12
    assert r.hi - r.lo <= Fraction(1, 2 ** 48)
    # Degenerate interval must actually be a root.
    with pytest.raises(ValueError):
        algebraic_real(GOLDEN, 1, 1)
    # Interval holding two roots is rejected.
    with pytest.raises(ValueError):
        algebraic_real(poly(-2, 0, 1), -2, 2)
    # Interval endpoint on a root is rejected.
    with pytest.raises(ValueError):
        algebraic_real(poly(-4, 0, 1), 2, 3)


def test_rational_algebraic_and_json():
    r = rational_algebraic(Fraction(3, 2))
    assert r.lo == r.hi == Fraction(3, 2)
    doc = r.to_json()
    assert doc["poly"] == [-3, 2]
    assert doc["interval"] == ["3/2", "3/2"]
    assert doc["approx"] == "1.500000000000"


def test_largest_real_root_certified():
    r = largest_real_root(GOLDEN)
    assert r.poly == GOLDEN
    assert abs(r.as_float() - PHI) < 1e-12


def test_det_bareiss_int():
    # Laplace expansion by hand: det [[2,1,0],[1,3,1],[0,1,4]] = 2*11 - 1*4 = 18.
    assert det_bareiss_int([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18
    assert det_bareiss_int([[1, 2], [3, 4]]) == -2
    assert det_bareiss_int([]) == 1


def test_det_bareiss_poly_char_poly_by_hand():
    # det(xI - [[0,1],[1,1]]) = x(x-1) - 1 = x^2 - x - 1.
    x = poly(0, 1)
    rows = [[x, poly(-1)], [poly(-1), x - poly(1)]]
    assert det_bareiss_poly(rows) == GOLDEN


def test_resultant_y_degree_zero_operands():
    # Res_y(a, B) = a^deg B and Res_y(A, b) = b^deg A for a, b free of y.
    x = poly(0, 1)
    a, b = x + poly(2), poly(-3, 0, 1)
    B = [poly(1), poly(-1), x, poly(0, 0, 5)]  # degree 3 in y
    A = [poly(4), x]  # degree 1 in y
    assert resultant_y([a], B) == a * a * a
    assert resultant_y(A, [b]) == b
    assert resultant_y(B, [b]) == b * b * b
    assert resultant_y([a], [b]) == poly(1)
    assert resultant_y([a, poly()], [b]) == poly(1)


# -- determinants on both rings against integer determinants ---------------

def _agrees_at_points(det, rows):
    """Whether det is the determinant of rows, square over Z[x]: it has
    degree at most D, the sum over rows of the largest entry degree, which
    bounds the determinant's degree, and equals `det_bareiss_int` of the
    rows at x = 0, 1, ..., D."""
    D = sum(max([0] + [e.degree for e in r]) for r in rows)
    return det.degree <= D and all(
        evaluate(det, t) == det_bareiss_int([[evaluate(e, t) for e in r]
                                             for r in rows])
        for t in range(D + 1))


def test_bareiss_pivots_on_the_first_nonzero_row():
    """On [[0, 1, 2], [3, 4, 5], [6, 7, 9]], whose determinant is -3 by
    Laplace expansion, the first pivot is 3, from the first nonzero entry
    of column 0, and the diagonal left behind is the leading principal
    minors 3, 3 and 3 of the matrix with rows 0 and 1 swapped."""
    m = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    assert _bareiss(m, 1) == -3
    assert [m[k][k] for k in range(3)] == [3, 3, 3]


def _random_entry(rng, huge=False):
    """A polynomial of degree <= 3 with signed coefficients, zero a third of
    the time; with `huge`, one coefficient is +-2^200."""
    if rng.random() < 1 / 3:
        return poly()
    cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
    if huge:
        cs[rng.randrange(len(cs))] = rng.choice((-1, 1)) << 200
    return poly(*cs)


def _packed_det_corpus():
    """320 seeded square matrices of IntPolynomials, n from 0 to 7 in
    turn: random ones, ones whose first column starts with zero entries
    (a zero leading pivot that a row swap must replace), singular ones (a
    row that is the sum of two others, or a zero column) and ones with a
    +-2^200 coefficient."""
    rng = random.Random(2036)
    out = []
    for i in range(320):
        n, kind = i % 8, (i // 8) % 4
        m = [[_random_entry(rng, kind == 3 and rng.random() < 0.2)
              for _ in range(n)] for _ in range(n)]
        if kind == 1 and n >= 2:
            for r in range(rng.randint(1, n - 1)):
                m[r][0] = poly()
            m[n - 1][0] = poly(*[rng.choice((-5, -1, 1, 5)) for _ in range(3)])
        if kind == 2 and n >= 3:
            m[n - 1] = [a + b for a, b in zip(m[0], m[1])]
        if kind == 2 and n in (1, 2):
            for row in m:
                row[-1] = poly()
        out.append((kind, m))
    return out


def _record_rings(monkeypatch):
    """A list to which the patched `_bareiss` appends the type of each
    call's ring unit: int over Z, IntPolynomial over Z[x]."""
    rings, bareiss = [], polynomials._bareiss

    def recorded(m, one):
        rings.append(type(one))
        return bareiss(m, one)

    monkeypatch.setattr(polynomials, "_bareiss", recorded)
    return rings


@pytest.mark.parametrize("max_cost", [0, 1 << 4096], ids=["zx", "packed"])
def test_det_bareiss_poly_matches_integer_determinants(max_cost, monkeypatch):
    """With `PACKED_MAX_COST` at 0 every nonempty matrix is eliminated over
    Z[x], and with it at 2^4096 every one over Z at x = 2^w; either way
    `det_bareiss_poly` is the determinant on every matrix of the corpus.
    The corpus has nonzero determinants with negative coefficients (the
    signed read-back), ones far above the largest row norm (the product
    bound), zero leading pivots of nonsingular matrices (the row swap) and
    singular matrices (a zero pivot ends with 0)."""
    monkeypatch.setattr(polynomials, "PACKED_MAX_COST", max_cost)
    rings = _record_rings(monkeypatch)
    ring = IntPolynomial if max_cost == 0 else int
    kinds = Counter()
    for kind, m in _packed_det_corpus():
        rings.clear()
        got = det_bareiss_poly(m)
        assert _agrees_at_points(got, m), (kind, m)
        assert rings == [ring] or not m, rings
        if m and m[0][0].is_zero and not got.is_zero:
            kinds["swap"] += 1
        if got.is_zero:
            kinds["singular"] += 1
        elif any(c < 0 for c in got.coeffs):
            kinds["negative"] += 1
        norms = [sum(abs(c) for e in r for c in e.coeffs) for r in m]
        if any(abs(c) > max(norms, default=0) for c in got.coeffs):
            kinds["beyond_row_norm"] += 1
        if kind == 3 and any(abs(c) >> 200 for r in m for e in r for c in e.coeffs):
            kinds["huge"] += 1
    assert min(kinds[k] for k in ("swap", "singular", "negative",
                                  "beyond_row_norm", "huge")) >= 20, kinds


@pytest.mark.parametrize("digits, packed", [(10, True), (30, False)])
def test_det_bareiss_poly_packs_below_the_cutoff_only(digits, packed,
                                                     monkeypatch):
    """The Sylvester matrix of the product closure of x^4 - x - c with
    itself, c = 10^digits + 7, has 25 fields and w = 267 at 10 digits,
    w = 799 at 30: w^2 times 25 is 1.8M and 16M, either side of
    `PACKED_MAX_COST`. `_bareiss` runs once, over Z below it and over
    Z[x] above it, so nothing is eliminated twice."""
    c = 10 ** digits + 7
    q = [poly(-c), poly(-1), poly(), poly(), poly(1)]
    a = [poly(*([0] * (4 - j) + [cj])) for j, cj in enumerate((1, 0, 0, -1, -c))]
    rows = sylvester_rows(q, a)
    rings = _record_rings(monkeypatch)
    got = det_bareiss_poly(rows)
    assert rings == [int if packed else IntPolynomial]
    assert _agrees_at_points(got, rows)
    assert got.degree == 16 and abs(got.coeffs[0]) == c ** 8


def _monic_operands(rng, count):
    """Seeded monic polynomials of degree 1 to 6: products of linear
    factors with small integer roots, some repeated and some 0, times a
    random monic cofactor."""
    out = []
    for _ in range(count):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))
        cofactor = poly(*[rng.randint(-4, 4) for _ in range(rng.randint(0, 2))], 1)
        f = cofactor
        for r in roots[:6 - cofactor.degree]:
            f = f * poly(-r, 1)
        if f.degree >= 1:
            out.append(f)
    return out


def test_resultant_y_matches_sylvester_reference(monkeypatch):
    """Every resultant that the product and sum closures take, on seeded
    monic operands of degree <= 6 with repeated and zero roots, is the
    determinant of the same Sylvester rows."""
    from syzcx import curvature
    from syzcx.curvature import product_polynomial, sum_polynomial

    seen = Counter()

    def checked(A, B):
        got = resultant_y(A, B)
        assert _agrees_at_points(got, sylvester_rows(A, B)), (A, B)
        seen[len(A) + len(B)] += 1
        return got

    monkeypatch.setattr(curvature, "resultant_y", checked)
    rng = random.Random(3606)
    ops = _monic_operands(rng, 120)
    for p, q in zip(ops[::2], ops[1::2]):
        sum_polynomial(p, q)
        product_polynomial(p, q)
    assert sum(seen.values()) >= 100 and max(seen) >= 12, seen


# -- Descartes counts and certified roots, against the Sturm chain ----------

def _clustered_corpus():
    """2,000 seeded polynomials with repeated and clustered roots: products
    of linear factors whose roots sit within 2^-k of a center, some of them
    repeated; near-double complex pairs (d x - n)^2 + e; powers of x times
    a cofactor; and square factors whose leading coefficient 32,749
    divides."""
    rng = random.Random(0xDE5C)
    big = 32749
    for i in range(2000):
        kind = i % 5
        if kind == 0:
            k = rng.randint(2, 30)
            c = rng.randint(-40, 40) << k
            roots = [Fraction(c + rng.randint(-3, 3), 1 << k)
                     for _ in range(rng.randint(2, 5))]
            p = _product([monomial_minus(r) for r in roots])
        elif kind == 1:
            f = poly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))], 1)
            g = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))],
                     rng.choice([1, 2, 3]))
            p = _product([f] * rng.randint(2, 3) + [g])
        elif kind == 2:
            d, n = 1 << rng.randint(0, 20), rng.randint(-60, 60)
            pair = poly(-n, d) * poly(-n, d) + poly(rng.randint(1, 3))
            p = pair * monomial_minus(Fraction(n + rng.randint(-2, 2), d))
            if rng.random() < 0.5:
                p = p * pair
        elif kind == 3:
            q = poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))], 1)
            if q.coeffs[0] == 0:
                q = q + poly(1)
            p = poly(*[0] * rng.randint(1, 4), 1) * q
            if rng.random() < 0.5:
                p = p * q
        else:
            f = poly(rng.randint(1, 9), big * rng.randint(1, 3))
            p = f * f * poly(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 3))], 1)
        if p.degree >= 1:
            yield p


def test_squarefree_part_equals_the_first_chain_entry():
    """squarefree_part gives the first entry of the reference's Sturm chain,
    made primitive, on both corpora."""
    for p in [*_isolate_corpus(), *_clustered_corpus()]:
        clear_caches()
        assert squarefree_part(p) == poly(*sturm.sturm_chain(p)[0]).primitive(), p


def test_squarefree_part_of_a_square_whose_leading_coefficient_is_a_prime():
    # (P x + 1)^2 (x - 2) is x - 2 mod P, squarefree there, so a squarefree
    # test mod P must not stand in for the gcd.
    f = poly(1, 32749)
    assert squarefree_part(f * f * poly(-2, 1)) == (f * poly(-2, 1)).primitive()
    assert squarefree_part(f * f) == f


def _descartes_count(p, a, b):
    """Sign variations of (1 + x)^m s((a + b x)/(1 + x)), s the squarefree
    part of p: d^m s((n + w t)/d), a = n/d and b = (n + w)/d, reversed and
    shifted by 1, each shift in the classical O(m^2) additions."""
    def shifted(cs, n):
        out = list(cs)
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] += n * out[j + 1]
        return out

    d = a.denominator * b.denominator
    n = a.numerator * b.denominator
    w = b.numerator * a.denominator - n
    s = squarefree_part(p).coeffs
    g = shifted([c * d ** (len(s) - 1 - i) for i, c in enumerate(s)], n)
    g = shifted([c * w ** i for i, c in enumerate(g)][::-1], 1)
    signs = [c > 0 for c in g if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def test_count_real_roots_open_matches_the_sturm_count():
    """Random dyadic intervals on the clustered corpus, half of them around
    a real root: the count, or the refusal of a root end, is the
    reference's Sturm count. Descartes counts of 2 and more are taken, and
    some of them exceed the number of roots."""
    rng = random.Random(0xC0DE)
    descartes_over = several = refused = 0
    for p in _clustered_corpus():
        roots = [lo for lo, _ in _root_intervals(p)]
        for i in range(4):
            k = rng.randint(0, 24)
            if i % 2 and roots:
                mid = rng.choice(roots)
                a = Fraction(mid.numerator * 2 ** k // mid.denominator
                             - rng.randint(0, 9), 2 ** k)
            else:
                a = Fraction(rng.randint(-80 << k, 80 << k), 1 << k)
            b = a + Fraction(rng.randint(1, 12), 1 << k)
            clear_caches()
            want = sturm.sturm_count(p, a, b)
            if want is None:
                with pytest.raises(ValueError, match="endpoint is a root"):
                    count_real_roots_open(p, a, b)
                refused += 1
                continue
            assert count_real_roots_open(p, a, b) == want, (p, a, b)
            v = _descartes_count(p, a, b)
            assert v >= want and (v - want) % 2 == 0
            descartes_over += v > want
            several += want >= 2
    assert descartes_over >= 40 and several >= 300 and refused >= 100


def _largest_roots_corpus():
    """Polynomials whose largest real root is checked: the isolate corpus,
    a Cauchy bound near 2 10^10 with roots near 1, and huge coefficients."""
    yield from _isolate_corpus()
    yield poly(-2, 0, 1) * poly(10 ** 10, 1)
    yield poly(-2, 0, 1) * poly(10 ** 10, 1) * poly(-3, 0, 1)
    yield poly(-10 ** 4000, 0, 1)
    yield poly(-1, 10 ** 4000)
    yield poly(10 ** 4000, -3, 1) * poly(-5, 1)
    yield poly(-(10 ** 300), 10 ** 300, 1)


def test_certified_largest_root_is_the_sturm_root():
    """certify_largest_root gives the reference's Sturm root, or None, and
    never raises, huge coefficients included. A large Cauchy bound still
    certifies: its cell index is exact."""
    certified = 0
    for p in _largest_roots_corpus():
        clear_caches()
        got = certify_largest_root(p)
        if got is not None:
            want = sturm.largest_root(p)
            assert (got.poly, str(got.lo), str(got.hi)) == (
                want.poly, str(want.lo), str(want.hi)), p
            certified += 1
    assert certified >= 300
    for p in (poly(-2, 0, 1) * poly(10 ** 10, 1),
              poly(-2, 0, 1) * poly(10 ** 10, 1) * poly(-3, 0, 1)):
        assert cauchy_bound(p) > 10 ** 10
        assert certify_largest_root(p) == sturm.largest_root(p)


def test_newton_guess_never_raises():
    for cs in ([-(10 ** 4000), 0, 1], [-1, 10 ** 4000], [10 ** 4000, -3, 1],
               [1, 10 ** 4000, 10 ** 4000 + 1], [-(10 ** 300), 10 ** 300, 1],
               [0, 1], [1, 0, 1], [5]):
        guess = polynomials._newton_guess(cs)
        assert guess is None or isinstance(guess, float)
    assert polynomials._newton_guess([-(10 ** 4000), 0, 1]) is None
    assert polynomials._newton_guess([-2, 0, 1]) == pytest.approx(2 ** 0.5)


@pytest.mark.parametrize("guess, certified", [
    (3.0, True),         # the cell of the largest root
    (1.0, False),        # a smaller root: two roots above the cell
    (3 - 1e-6, False),   # below the largest root, without a sign change
    (3 + 1e-6, False),   # above every root
    (None, False),       # no guess
])
def test_certificate_decides_not_the_guess(monkeypatch, guess, certified):
    p = poly(-1, 1) * poly(-3, 1) * poly(2, 1)
    monkeypatch.setattr(polynomials, "_newton_guess", lambda cs: guess)
    clear_caches()
    got = certify_largest_root(p)
    if certified:
        assert got == sturm.largest_root(p)
    else:
        assert got is None
    # Without a certificate, the isolation decides, and to the same value.
    assert largest_real_root(p) == sturm.largest_root(p)


# -- the Descartes bisection against the Sturm reference ---------------------

def _close_roots_corpus():
    """Polynomials where Descartes' count exceeds the number of roots: the
    Mignotte-like x^7 - 2 (a x - 1)^2, whose two roots near 1/a lie within
    about a^-4.5 of each other, alone and times a complex pair (x^2 + 1,
    x^2 - 6x + 10) next to its real roots; and a near-double complex pair
    (2^k x - 1)^2 + 1 times the real root 2^-k between its two halves."""
    for a in (10, 10 ** 2, 10 ** 3, 10 ** 6):
        f = poly(*[0] * 7, 1) - poly(-1, a) * poly(-1, a) * 2
        yield f
        yield f * poly(1, 0, 1)
        yield f * poly(10, -6, 1) * poly(-3, 1)
    for k in (1, 3, 10, 30):
        pair = poly(-1, 1 << k) * poly(-1, 1 << k) + poly(1)
        yield pair * poly(-1, 1 << k)
        yield pair * poly(-1, 1 << k) * poly(-3, 1 << k)


def _refined(p, cells):
    return [AlgebraicReal(p, *cell).refined(DEFAULT_WIDTH).to_json()
            for cell in cells]


def test_close_roots_equal_the_sturm_reference():
    """Where Descartes over-counts, the roots, their refined intervals and
    the root counts on (-B, B) and around each root are the reference's."""
    over = 0
    for p in _close_roots_corpus():
        cells = list(_root_intervals(p))
        assert _refined(p, cells) == _refined(p, sturm.root_intervals(p)), p
        assert largest_real_root(p) == sturm.largest_root(p)
        assert integer_roots(p) == sturm.integer_roots(p)
        B = cauchy_bound(squarefree_part(p))
        want = sturm.sturm_count(p, -B, B)
        assert count_real_roots_open(p, -B, B) == want == len(cells)
        over += _descartes_count(p, -B, B) > want
        for lo, hi in cells:
            if lo < hi:
                a, b = lo - (hi - lo), hi + (hi - lo)
                if sturm.sturm_count(p, a, b) is not None:
                    assert count_real_roots_open(p, a, b) == sturm.sturm_count(p, a, b)
    assert over == 20


def test_repeated_roots_are_isolated_on_the_squarefree_part(monkeypatch):
    """A repeated root keeps every Descartes count around it at 2 or more,
    so a bisection on p itself would never end; on the squarefree part it
    ends, with the reference's cells. A budget of Taylor shifts turns a
    bisection that does not end into a failure."""
    calls, shift = [], polynomials._shift_by_one

    def budgeted(desc):
        calls.append(1)
        assert len(calls) < 20_000, "the bisection does not end"
        return shift(desc)

    monkeypatch.setattr(polynomials, "_shift_by_one", budgeted)
    third, root2 = poly(-1, 3), poly(-2, 0, 1)
    for p in (_product([root2, root2, third, third, third]),
              _product([third, third, poly(1, 0, 1)]),
              _product([poly(-5, 0, 7), poly(-5, 0, 7), poly(-4, 0, 1)])):
        clear_caches()
        assert squarefree_part(p) != p
        assert _refined(p, _root_intervals(p)) == _refined(p, sturm.root_intervals(p))
        B = cauchy_bound(squarefree_part(p))
        assert count_real_roots_open(p, -B, B) == sturm.sturm_count(p, -B, B)
    assert calls


def _random_monic_corpus():
    """300 seeded monic polynomials of degree <= 14."""
    rng = random.Random(1414)
    for _ in range(300):
        yield poly(*[rng.randint(-20, 20) for _ in range(rng.randint(1, 14))], 1)


def test_largest_and_integer_roots_equal_the_sturm_reference():
    """On every corpus, largest_real_root gives the reference's Sturm root,
    as JSON bytes, and integer_roots the reference's integer roots (on the
    integer-roots corpus, test_integer_roots_match_chain_only_search checks
    them against a Sturm search)."""
    for p in [*_isolate_corpus(), *_clustered_corpus(), *_integer_roots_corpus(),
              *_random_monic_corpus(), *_close_roots_corpus()]:
        got, want = largest_real_root(p), sturm.largest_root(p)
        assert (got and got.to_json()) == (want and want.to_json()), p
    for p in [*_isolate_corpus(), *_clustered_corpus(), *_random_monic_corpus(),
              *_close_roots_corpus()]:
        if p.is_monic:
            assert integer_roots(p) == sturm.integer_roots(p), p
