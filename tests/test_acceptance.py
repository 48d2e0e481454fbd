"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Each criterion exercises a full pipeline at its stated tolerance and runtime
budget: exact growth classification, randomized fidelity against an
independent linear-algebra oracle, realization round-trips, the base checker
and its closure calculus, truncation spectra, the built-in non-monomial
oracle, convolution against numeric Cauchy products, and byte-exact command
line output."""

import math
import random
from fractions import Fraction
from time import perf_counter

import pytest

from syzcx.algebra import Arrow, Quiver, contiguous_subpaths, parse_algebra, validate_algebra
from syzcx.complexity import (
    compare,
    convolve,
    empirical_class_check,
    lower_bound_from_partial,
    module_complexity,
    module_complexity_by_name,
    polyexp_class,
    realize_class,
    subdivide,
    zero_class,
)
from syzcx.curvature import (
    check_condition_c,
    closure_combine,
    product_polynomial,
    realize_companion,
)
from syzcx.errors import NotMonicError
from syzcx.oracle import builtin_table, crosscheck, dim_sequence, table_rep, xyz_local_expected_dims
from syzcx.polynomials import algebraic_real, poly, rational_algebraic
from syzcx.spectra import (
    adjacency_matrix,
    algebraic_square,
    compare_algebraic,
    equal_radius,
    perron_root,
)
from syzcx.syzygy import (
    SyzygyQuiver,
    build_syzygy_quiver,
    resolve_module,
    simple_key,
)

from conftest import fibonacci_numbers, random_rsz_algebras, singleton
from test_cli import GOLDEN, GOLDEN_CASES, run_cli
from test_properties import _algebraic_pool

PHI = algebraic_real(poly(-1, -1, 1), 1, 2)
ONE = rational_algebraic(1)
TWO = rational_algebraic(2)


def _announce(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1: two-vertex algebra with Fibonacci growth -------------------------------------

def test_criterion_1_fibonacci_growth(fib):
    t0 = perf_counter()
    cls = module_complexity_by_name(fib, "S1").cls
    assert cls.kind == "polyexp"
    assert cls.base.poly == poly(-1, -1, 1)
    assert cls.degree == 0
    b = cls.base.refined(Fraction(1, 10**12))
    target = Fraction(1_618_033_988_750, 10**12)
    tol = Fraction(1, 10**10)
    assert target - tol < b.lo and b.hi < target + tol

    report = crosscheck(fib, resolve_module(fib, "S1"), 20)
    fibs = fibonacci_numbers(21)
    assert list(report.dims_oracle) == fibs
    assert list(report.dims_quiver) == fibs
    assert report.agree

    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, "base 1.618033988750 certified to 1e-10, degree 0, "
                 f"dims = Fibonacci for n <= 20 ({elapsed:.3f} s)")


# -- 2: radical-square-zero fidelity ---------------------------------------------------

def _reachable(quiver, start):
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for a in quiver.arrows:
            if a.source == v and a.target not in seen:
                seen.add(a.target)
                frontier.append(a.target)
    return seen


def test_criterion_2_radical_square_zero_fidelity():
    t0 = perf_counter()
    algebras = random_rsz_algebras(seed=20250817, count=25)
    assert len(algebras) == 25
    simples_checked = 0
    for A in algebras:
        assert len(A.quiver.vertices) <= 6
        assert len(A.quiver.arrows) <= 10
        for v in A.quiver.vertices:
            M = singleton(simple_key(A, v))
            q = build_syzygy_quiver(M, A)

            # canonical vertex map: node i -> underlying quiver vertex
            image = [key.vertex for key in q.labels]
            reach = _reachable(A.quiver, v)
            assert len(set(image)) == len(image)
            assert set(image) == reach
            got = sorted((image[i], image[j]) for i, j in q.arrows)
            want = sorted((a.source, a.target) for a in A.quiver.arrows
                          if a.source in reach)
            assert got == want
            assert image[q.start[0][0]] == v

            report = crosscheck(A, M, 10)
            assert report.agree
            assert report.dims_quiver == report.dims_oracle
            simples_checked += 1
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    _announce(2, f"25 random quivers, {simples_checked} simples: syzygy "
                 "quivers isomorphic to reachable subquivers, crosscheck "
                 f"exact for n <= 10 ({elapsed:.3f} s)")


# -- 3: realization round-trip ---------------------------------------------------------

REALIZE_TARGETS = [
    ("single loop", Quiver(("1",), (Arrow("a", "1", "1"),))),
    ("double loop", Quiver(("1",), (Arrow("a", "1", "1"),
                                    Arrow("b", "1", "1")))),
    ("fibonacci quiver", Quiver(("1", "2"), (Arrow("a", "1", "2"),
                                             Arrow("b", "2", "1"),
                                             Arrow("g", "2", "2")))),
]


def test_criterion_3_realization_round_trip():
    t0 = perf_counter()
    cases = 0
    for name, H in REALIZE_TARGETS:
        rho = perron_root(adjacency_matrix(*H.digraph()))
        for ell in (0, 1, 2):
            text, names = realize_class(H, ell)
            A = validate_algebra(parse_algebra(text))
            levels = set()
            for mod_name in names:
                s = int(mod_name.rsplit("_", 1)[1])
                levels.add(s)
                cls = module_complexity_by_name(A, mod_name).cls
                assert cls.kind == "polyexp", (name, ell, mod_name)
                assert equal_radius(cls.base, rho), (name, ell, mod_name)
                assert cls.degree == s, (name, ell, mod_name)
                cases += 1
            assert levels == set(range(ell + 1))
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    _announce(3, f"{cases} (target, level) pairs recover (spectral radius, "
                 f"degree) exactly across 3 quivers x levels 0..2 "
                 f"({elapsed:.3f} s)")


# -- 4: base checker verdicts ----------------------------------------------------------

def test_criterion_4_base_checker():
    sqrt5 = math.sqrt(5)

    v_phi = check_condition_c(poly(-1, -1, 1))
    assert v_phi.status == "realizable"
    b = v_phi.b.refined(Fraction(1, 10**12))
    assert abs(b.as_float() - (1 + sqrt5) / 2) < 1e-9

    v_phi_sq = check_condition_c(poly(1, -3, 1))
    assert v_phi_sq.status == "realizable"
    b2 = v_phi_sq.b.refined(Fraction(1, 10**12))
    assert abs(b2.as_float() - (3 + sqrt5) / 2) < 1e-9

    assert check_condition_c(poly(1, 0, 1)).status == "not_realizable"

    with pytest.raises(NotMonicError):
        check_condition_c(poly(-1, 2))

    # gap property: accepted bases are 0 or at least 1
    accepted_fixtures = [
        poly(-1, -1, 1),
        poly(1, -3, 1),
        poly(0, 1),
        poly(2, -4, 1),
        poly(-1, -2, 0, 1),
    ]
    zero = rational_algebraic(0)
    for p in accepted_fixtures:
        verdict = check_condition_c(p)
        assert verdict.status == "realizable", p
        is_zero = compare_algebraic(verdict.b, zero) == 0
        at_least_one = compare_algebraic(verdict.b, ONE) >= 0
        assert is_zero or at_least_one, p
    _announce(4, "golden-ratio bases accepted within 1e-9, complex and "
                 "non-monic inputs rejected, gap property holds on all "
                 "accepted fixtures")


# -- 5: closure calculus ---------------------------------------------------------------

def test_criterion_5_closure_suite():
    phi_poly = poly(-1, -1, 1)
    phi_sq_poly = poly(1, -3, 1)

    prod = product_polynomial(phi_poly, phi_poly)
    assert prod == poly(1, -1, -4, -1, 1)
    quo, rem = prod.divmod_q(phi_sq_poly)
    assert not any(rem)
    assert quo == [1, 2, 1]
    assert prod.div_exact(phi_sq_poly) == poly(1, 2, 1)

    rooted = closure_combine(phi_sq_poly, poly(1), "root", 2)
    assert rooted == poly(1, 0, -3, 0, 1)
    assert rooted == poly(-1, -1, 1) * poly(-1, 1, 1)

    fibq = REALIZE_TARGETS[2][1]
    sub = subdivide(fibq, 2)
    rho = perron_root(adjacency_matrix(*sub.digraph()))
    assert equal_radius(algebraic_square(rho), PHI)
    _announce(5, "product divisible exactly, root polynomial factors "
                 "exactly, subdivision radius squares back")


# -- 6: truncation spectra -------------------------------------------------------------

def test_criterion_6_truncation_spectra():
    t0 = perf_counter()
    target = Fraction(261_803_398_875, 10**11)
    tol = Fraction(1, 10**6)
    prev = None
    hit = None
    for s in range(1, 65):
        coeffs = tuple(range(1, s + 2))
        H = realize_companion(coeffs)
        assert len(H.vertices) == s + 1
        r = perron_root(adjacency_matrix(*H.digraph()))
        if prev is not None:
            assert compare_algebraic(prev, r) == -1
        prev = r
        rr = r.refined(Fraction(1, 10**8))
        if target - tol < rr.lo and rr.hi < target + tol:
            hit = s
            break
    assert hit is not None and hit <= 64
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _announce(6, f"radii strictly increasing (exact), within 1e-6 of "
                 f"2.61803398875 at s = {hit} ({elapsed:.3f} s)")


# -- 7: built-in non-monomial oracle ----------------------------------------------------

def test_criterion_7_xyz_local_oracle():
    t0 = perf_counter()
    table = builtin_table("xyz-local")
    expected = xyz_local_expected_dims(13)
    for p in (32749, 65521):
        dims = dim_sequence(table_rep(table, "k", p), 7)
        assert dims[:5] == [1, 4, 11, 29, 76]
        assert dims == expected[:8]
    for n in range(1, 13):
        assert expected[n + 1] == 3 * expected[n] - expected[n - 1]
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _announce(7, "oracle dims match through n = 7 under both primes, "
                 f"second-order recurrence holds for 1 <= n <= 12 "
                 f"({elapsed:.3f} s)")


# -- 8: convolution calculus ------------------------------------------------------------

LENGTH = 121
WINDOW = (10, 120)


def _representative(tag, degree):
    if tag == "one":
        return [max(n, 1) ** degree for n in range(LENGTH)]
    if tag == "two":
        return [2**n * max(n, 1) ** degree for n in range(LENGTH)]
    fibs = fibonacci_numbers(LENGTH)
    return [fibs[n] * max(n, 1) ** degree for n in range(LENGTH)]


def _cauchy(s1, s2):
    return [sum(s1[k] * s2[n - k] for k in range(n + 1)) for n in range(LENGTH)]


def test_criterion_8_convolution_matches_cauchy_products():
    bases = [("one", ONE), ("two", TWO), ("phi", PHI)]
    atoms = [
        (polyexp_class(b, d), _representative(tag, d))
        for tag, b in bases
        for d in (0, 1, 2)
    ]
    finite = [1, 1, 1] + [0] * (LENGTH - 3)
    cases = 0

    for i, (c1, s1) in enumerate(atoms):
        for c2, s2 in atoms[i:]:
            ok, lo, hi = empirical_class_check(
                _cauchy(s1, s2), convolve(c1, c2), WINDOW
            )
            assert ok, (c1, c2, lo, hi)
            cases += 1

    z = zero_class(2)
    for c, s in atoms:
        ok, _, _ = empirical_class_check(_cauchy(finite, s), convolve(z, c),
                                         WINDOW)
        assert ok, c
        cases += 1

    ok, _, _ = empirical_class_check(_cauchy(finite, finite), convolve(z, z),
                                     WINDOW)
    assert ok
    cases += 1
    _announce(8, f"{cases} symbolic convolutions match numeric Cauchy "
                 "products on window [10, 120] for bases {1, 2, phi}, "
                 "degrees <= 2")


# -- 9: property suites and golden output -----------------------------------------------

def test_criterion_9_properties_and_goldens(fib):
    rng = random.Random(0xACCE97)

    # multiplication is associative on sampled triples
    pool = [p for v in fib.quiver.vertices for p in fib.paths_from(v)]
    for _ in range(300):
        p, q, r = (rng.choice(pool) for _ in range(3))
        assert fib.extend(fib.extend(p, q), r) == fib.extend(p, fib.extend(q, r))

    # nonzero paths are closed under contiguous subwords
    for v in fib.quiver.vertices:
        for p in fib.paths_from(v):
            for sub in contiguous_subpaths(fib.quiver, p):
                assert fib.is_nonzero(sub)

    # equal_radius is an equivalence on a mixed pool
    reals = _algebraic_pool()
    for a in reals:
        assert equal_radius(a, a)
        for b in reals:
            assert equal_radius(a, b) == equal_radius(b, a)
            for c in reals:
                if equal_radius(a, b) and equal_radius(b, c):
                    assert equal_radius(a, c)

    # partial quivers never overstate the class: 20 random truncations
    truncations = 0
    for A in random_rsz_algebras(seed=0xACCE97, count=5):
        for v in A.quiver.vertices:
            M = singleton(simple_key(A, v))
            q = build_syzygy_quiver(M, A)
            full = module_complexity(A, M).cls
            for _ in range(2):
                m = rng.randint(1, len(q.labels))
                arrows = tuple(a for a in q.arrows if a[0] < m and a[1] < m)
                t = SyzygyQuiver(A, q.labels, arrows, q.start, partial=True)
                lb = lower_bound_from_partial(t, q.start[0][0])
                assert compare(lb, full) <= 0
                truncations += 1
            if truncations >= 20:
                break
        if truncations >= 20:
            break
    assert truncations >= 20

    # command line goldens replay byte-for-byte
    for golden, argv in GOLDEN_CASES:
        rc, out, err = run_cli(argv)
        assert rc == 0, (golden, err)
        assert out == (GOLDEN / golden).read_text(), golden

    _announce(9, f"property suites pass, {truncations} truncations stay "
                 f"below the full class, {len(GOLDEN_CASES)} golden files "
                 "byte-exact")
