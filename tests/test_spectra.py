"""Characteristic polynomials, condensations, and exact radius comparisons."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, isqrt
from time import perf_counter

import pytest

from syzcx import polynomials, spectra
from syzcx.algebra import parse_algebra, validate_algebra
from syzcx.complexity import realize_class

from syzcx.curvature import companion_polynomial, realize_companion
from syzcx.polynomials import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    _root_intervals,
    count_real_roots_open,
    resultant_y,
    squarefree_part,
    poly,
    largest_real_root,
    rational_algebraic,
)
from syzcx.spectra import (
    adjacency_matrix,
    char_poly,
    perron_root,
    scc_condense,
    equal_radius,
    compare_algebraic,
    algebraic_square,
)
from syzcx.syzygy import (build_syzygy_quiver, module_expr, resolve_module,
                          simple_key)

import sturm
from conftest import (clear_caches, det_bareiss_int, evaluate, family_gen,
                      sparse_rows)

GOLDEN = poly(-1, -1, 1)
PHI = (1 + 5 ** 0.5) / 2


def test_adjacency_matrix():
    m = adjacency_matrix(3, [(2, 2), (0, 2), (0, 1), (0, 1)])
    assert m == (((1, 2), (2, 1)), (), ((2, 1),))
    assert m == sparse_rows([[0, 2, 1], [0, 0, 0], [0, 0, 1]])
    assert adjacency_matrix(0, []) == ()


def test_char_poly_by_hand():
    # det(xI - [[0,1],[1,1]]) = x^2 - x - 1
    assert char_poly(sparse_rows([[0, 1], [1, 1]])) == GOLDEN
    # det(xI - I2) = (x-1)^2
    assert char_poly(sparse_rows([[1, 0], [0, 1]])) == poly(1, -2, 1)
    # 1x1 zero matrix: x
    assert char_poly(sparse_rows([[0]])) == poly(0, 1)
    # empty matrix: the constant 1
    assert char_poly(sparse_rows([])) == poly(1)


def test_char_poly_of_large_companion_quiver():
    # 97 vertices; packed rows of M^k keep this well under a second.
    c = range(1, 98)
    m = adjacency_matrix(realize_companion(c))
    t0 = perf_counter()
    p = char_poly(m)
    elapsed = perf_counter() - t0
    assert p == companion_polynomial(c)
    assert elapsed < 1.0, f"char_poly took {elapsed:.2f}s"


def test_char_poly_monic_and_trace():
    m = sparse_rows([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
    p = char_poly(m)
    assert p.is_monic and p.degree == 3
    # second-highest coefficient is -trace, 2 + 1 + 1
    assert p.coeffs[2] == -4


# -- the packed power-sum kernel ---------------------------------------------

def _trace_recursion(m):
    """Reference characteristic polynomial of a dense matrix by the trace
    recursion M_k = M (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k, on its own
    sparse rows of (column, count) pairs and unpacked integer lists."""
    n = len(m)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in m]
    mk = [list(row) for row in m]
    coeffs_desc = [1]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += coeffs_desc[-1]
            nxt = []
            for row in rows:
                acc = [0] * n
                for j, c in row:
                    acc = [a + c * b for a, b in zip(acc, mk[j])]
                nxt.append(acc)
            mk = nxt
        tr = sum(mk[i][i] for i in range(n))
        assert tr % k == 0
        coeffs_desc.append(-tr // k)
    return poly(*reversed(coeffs_desc))


def _power_of_linear(c, n):
    """(x - c)^n."""
    return poly(*(comb(n, i) * (-c) ** (n - i) for i in range(n + 1)))


def test_char_poly_entries_at_the_bit_bound():
    """r*I and -r*I have entries +-r^n in M^n, and r times a cyclic
    permutation has r^n on the diagonal of M^n and r^k off it: the largest
    values that r^n, with r the largest absolute row sum, allows."""
    for r in (1, 2, 3, 7, 8, 255, 256, 10 ** 6, 2 ** 64):
        for n in (1, 2, 3, 5, 8, 13, 30):
            for c in (r, -r):
                scalar = [[c if i == j else 0 for j in range(n)] for i in range(n)]
                assert char_poly(sparse_rows(scalar)) == _power_of_linear(c, n)
                cycle = [[c if j == (i + 1) % n else 0 for j in range(n)]
                         for i in range(n)]
                assert char_poly(sparse_rows(cycle)) == poly(
                    -(c ** n), *[0] * (n - 1), 1)


def test_char_poly_degenerate_sizes():
    assert char_poly(()) == poly(1)
    for n in range(1, 6):
        assert char_poly(sparse_rows([[0] * n] * n)) == poly(*[0] * n, 1)
    for c in (0, 1, -1, 5, -7, 2 ** 70, -(2 ** 70)):
        assert char_poly(sparse_rows([[c]])) == poly(-c, 1)


def test_char_poly_signed_matrices_against_determinants():
    """Seeded signed matrices up to 30 x 30, dense and sparse, some with
    large entries: char_poly(M)(t) == det(tI - M) at integer points, and
    char_poly equals the reference trace recursion."""
    rng = random.Random(0xC0FFEE)
    sizes = [30, 29] + [rng.randint(1, 30) for _ in range(10)]
    for trial, n in enumerate(sizes):
        density = 0.7 if trial % 2 else 0.15
        bound = 10 ** 6 if trial % 3 == 0 else 3
        m = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
        p = char_poly(sparse_rows(m))
        assert p == _trace_recursion(m)
        for t in (-2, 0, 3):
            shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)]
                       for i in range(n)]
            assert evaluate(p, t) == det_bareiss_int(shifted)


def test_char_poly_matrices_of_uneven_weight():
    """Seeded matrices, nonnegative and then signed, whose rows differ in
    weight by up to six orders of magnitude, where the field width comes
    from (|M| + I)^2 1 and not from the largest row sum: char_poly equals
    the trace recursion."""
    rng = random.Random(0x5EED)
    for trial in range(80):
        n = rng.randint(1, 24)
        weights = [10 ** rng.randint(0, 6) for _ in range(n)]
        least = 0 if trial < 40 else -1
        m = [[rng.randint(least * w, w) if rng.random() < 0.3 else 0
              for _ in range(n)] for w in weights]
        assert char_poly(sparse_rows(m)) == _trace_recursion(m), m


def test_char_poly_matches_trace_recursion_on_family_components():
    """Every strongly connected component of the syzygy quivers of seeded
    random monomial algebras (the benchmark's family), sum of all simples.
    The reference gets the component's dense matrix, filled from the
    quiver's arrows."""
    gen = family_gen()
    sizes = []
    for draw in range(8):
        alg = gen.family_algebra(16 + 2 * draw, random.Random(draw))
        body = " + ".join(f"S({v})" for v in alg["vertices"])
        A = validate_algebra(parse_algebra(
            gen.algebra_text(f"fam{draw}", alg, [("Sum", body)])))
        n, arrows = build_syzygy_quiver(resolve_module(A, "Sum"), A).digraph()
        for comp in scc_condense(n, arrows).components:
            pos = {v: i for i, v in enumerate(comp.vertices)}
            dense = [[0] * len(pos) for _ in pos]
            for u, v in arrows:
                if u in pos and v in pos:
                    dense[pos[u]][pos[v]] += 1
            assert comp.matrix == sparse_rows(dense)
            assert char_poly(comp.matrix) == _trace_recursion(dense)
            sizes.append(len(comp.vertices))
    assert max(sizes) >= 15 and len(sizes) > 50


def test_perron_root_golden():
    r = perron_root(sparse_rows([[0, 1], [1, 1]]))
    assert abs(r.as_float() - PHI) < 1e-12
    assert r.poly == GOLDEN


def test_perron_root_trivial_vertex():
    r = perron_root(sparse_rows([[0]]))
    assert r.as_float() == 0.0


def _perron_corpus():
    """Component matrices: every SCC of the syzygy quiver of the sum of the
    simples of seeded family draws, nv 20 to 80; the companion quivers of
    the realize benchmark and of seeded counts, s <= 64; and every SCC of
    every simple's quiver over the realize box."""
    gen = family_gen()

    def components(A, modules):
        for M in modules:
            n, arrows = build_syzygy_quiver(M, A).digraph()
            yield from (c.matrix for c in scc_condense(n, arrows).components)

    for nv in (20, 24, 28, 32, 40, 48, 55, 64, 80):
        for draw in range(4):
            alg = gen.family_algebra(nv, random.Random(100 * nv + draw))
            A = validate_algebra(parse_algebra(gen.algebra_text("fam", alg)))
            yield from components(A, [module_expr(
                (simple_key(A, v), 1) for v in A.quiver.vertices)])
    fam, rng = random.Random(gen.FAMILY_SEED), random.Random(64)
    counts = [gen.companion_counts(s, fam) for s in gen.COMPANION_S]
    box = gen.companion_counts(gen.BOX_S, fam)
    counts += [gen.companion_counts(rng.randint(1, 64), rng) for _ in range(20)]
    yield from (adjacency_matrix(realize_companion(c)) for c in counts)
    text, names = realize_class(realize_companion(box), gen.BOX_ELL)
    A = validate_algebra(parse_algebra(text))
    yield from components(A, [resolve_module(A, name) for name in names])


def test_perron_root_equals_the_sturm_root(monkeypatch):
    """From cold caches, perron_root gives the reference's Sturm root, byte
    for byte. The certified cell decides every root but those on a tree
    point (0 and 1 here), where a cell end is the root; only those are
    isolated by bisection."""
    isolated = []
    isolate = polynomials.isolate_largest_real_root

    def isolation(p):
        isolated.append(sturm.largest_root(p))
        return isolate(p)

    matrices = set(_perron_corpus())
    monkeypatch.setattr(polynomials, "isolate_largest_real_root", isolation)
    for m in matrices:
        clear_caches()
        got = perron_root(m)
        want = sturm.largest_root(char_poly(m))
        assert (got.poly, str(got.lo), str(got.hi)) == (
            want.poly, str(want.lo), str(want.hi)), m
    assert len(matrices) >= 75 and max(map(len, matrices)) >= 100
    assert len(isolated) <= 8
    assert all(r.lo == r.hi and r.lo in (0, 1) for r in isolated), isolated


def test_scc_condense_two_components():
    # 0 -> 1 <-> 2: component {1,2} with a 2-cycle, then trivial {0}.
    cond = scc_condense(3, [(0, 1), (1, 2), (2, 1)])
    assert cond.n_vertices == 3
    assert len(cond.components) == 2
    members = [c.vertices for c in cond.components]
    assert (1, 2) in members and (0,) in members
    # Reverse topological order: the cycle precedes the vertex that reaches it.
    assert cond.components[0].vertices == (1, 2)
    big = cond.components[0]
    assert not big.is_trivial
    assert big.rho.as_float() == pytest.approx(1.0)
    trivial = cond.components[1]
    assert trivial.is_trivial and trivial.rho.as_float() == 0.0
    c_of = cond.vertex_component
    assert c_of[1] == c_of[2] != c_of[0]
    assert c_of[1] in cond.succ[c_of[0]]


def test_scc_condense_reverse_topological_invariant():
    # A chain of three singleton loops: successors always come earlier.
    cond = scc_condense(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    for ci in range(len(cond.components)):
        assert all(cj < ci for cj in cond.succ[ci])


def _condense_peak(n, arrows):
    tracemalloc.start()
    try:
        cond = scc_condense(n, arrows)
        return cond, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scc_condense_memory_is_linear_in_arrows(monkeypatch):
    """Component matrices are sparse rows: the peak of scc_condense on a
    ring (one component, no spectra) grows with its arrows, not with the
    square of its size; each component's matrix has one entry per distinct
    internal arrow pair; and components whose arrows are listed in another
    order share one memoized root."""
    monkeypatch.setattr(spectra, "perron_root",
                        lambda matrix: rational_algebraic(1))
    peaks = []
    for n in (1000, 2000):
        ring = [(i, (i + 1) % n) for i in range(n)]
        cond, peak = _condense_peak(n, ring)
        (comp,) = cond.components
        assert comp.matrix == tuple((((i + 1) % n, 1),) for i in range(n))
        peaks.append(peak)
    assert peaks[1] <= 2.5 * peaks[0], peaks
    monkeypatch.undo()

    # Two 3-cycles with a loop and a doubled arrow, the second listed in
    # reverse order, and an arrow between them.
    first = [(0, 1), (1, 2), (2, 0), (0, 0), (0, 1)]
    second = [(u + 3, v + 3) for u, v in reversed(first)]
    arrows = first + [(2, 3)] + second
    spectra.perron_root.cache_clear()
    cond = scc_condense(6, arrows)
    info = spectra.perron_root.cache_info()
    assert [c.vertices for c in cond.components] == [(3, 4, 5), (0, 1, 2)]
    for comp in cond.components:
        inner = [(u, v) for u, v in arrows
                 if u in comp.vertices and v in comp.vertices]
        assert sum(map(len, comp.matrix)) == len(set(inner)) == 4
        assert sum(c for row in comp.matrix for _, c in row) == len(inner)
    assert cond.components[0].matrix == cond.components[1].matrix
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_scc_condense_top_and_chain():
    # 0 -> 1 -> 2 -> 3: loops at 0, 2, 3 (radius 1), a 2-loop at 1 (radius 2).
    cond = scc_condense(4, [(0, 0), (0, 1), (1, 1), (1, 1), (1, 2), (2, 2),
                            (2, 3), (3, 3)])
    comp = cond.vertex_component
    top = [cond.top[comp[v]] for v in range(4)]
    chain = [cond.chain[comp[v]] for v in range(4)]
    assert top == [comp[1], comp[1], comp[3], comp[3]]
    assert chain == [1, 1, 2, 1]


def test_equal_radius_same_value_different_polys():
    phi1 = largest_real_root(GOLDEN)
    phi2 = largest_real_root(GOLDEN * poly(-1, 1))  # extra root at 1
    assert equal_radius(phi1, phi2)
    assert not equal_radius(phi1, rational_algebraic(2))
    assert equal_radius(rational_algebraic(Fraction(3, 2)),
                        rational_algebraic(Fraction(3, 2)))


def test_compare_algebraic():
    phi = largest_real_root(GOLDEN)
    assert compare_algebraic(phi, rational_algebraic(1)) > 0
    assert compare_algebraic(phi, rational_algebraic(2)) < 0
    assert compare_algebraic(phi, largest_real_root(GOLDEN)) == 0
    # A tight sandwich: phi vs 1.618 = 809/500 (phi is larger).
    assert compare_algebraic(phi, rational_algebraic(Fraction(809, 500))) > 0


def test_compare_algebraic_refines_values_closer_than_the_intervals():
    # Both neighbours of sqrt2 lie inside its 2^-48 isolating interval, so
    # the comparison separates them only by refining. `near` is a rational
    # within 2^-61 of sqrt2; `far` is sqrt(2 + 10^-40), a root of
    # 10^40 x^2 - (2*10^40 + 1).
    sqrt2 = largest_real_root(poly(-2, 0, 1))
    near = rational_algebraic(Fraction(isqrt(2 << 122), 1 << 61))
    big = 10 ** 40
    far = largest_real_root(poly(-(2 * big + 1), 0, big))
    for other, square in ((near, near.lo ** 2), (far, Fraction(2 * big + 1, big))):
        assert sqrt2.lo <= other.hi and other.lo <= sqrt2.hi
        sign = (square < 2) - (square > 2)  # sqrt2 against `other`
        assert sign != 0
        assert compare_algebraic(sqrt2, other) == sign
        assert compare_algebraic(other, sqrt2) == -sign
        assert not equal_radius(sqrt2, other)


def test_algebraic_square_golden():
    # phi^2 = phi + 1 = (3+sqrt5)/2, the largest root of x^2 - 3x + 1.
    phi = largest_real_root(GOLDEN)
    sq = algebraic_square(phi)
    assert equal_radius(sq, largest_real_root(poly(1, -3, 1)))
    assert abs(sq.as_float() - PHI ** 2) < 1e-10


def test_algebraic_square_refines_past_a_root_end():
    # sqrt2 on (1, 3/2), as a root of (x^2 - 2)(x + 1): squared, the interval
    # (1, 9/4) ends at 1 = (-1)^2, a root of the defining polynomial, so the
    # source interval is refined before the count can succeed.
    r = AlgebraicReal(poly(-2, -2, 1, 1), Fraction(1), Fraction(3, 2))
    sq = algebraic_square(r)
    assert sq.lo > 1
    assert equal_radius(sq, rational_algebraic(2))


def test_algebraic_square_rational():
    for x, square in ((Fraction(3, 2), Fraction(9, 4)), (0, 0)):
        r = algebraic_square(rational_algebraic(x))
        assert r.lo == r.hi == square
        assert equal_radius(r, rational_algebraic(square))
    # 1 on (1/2, 3/2), as a root of (x - 1)(5x + 6)(x^2 - 3): (1/4, 9/4)
    # also holds (-6/5)^2, and the refinement's first midpoint is 1 itself.
    r = algebraic_square(AlgebraicReal(poly(-1, 1) * poly(6, 5) * poly(-3, 0, 1),
                                       Fraction(1, 2), Fraction(3, 2)))
    assert r.lo == r.hi == 1


def _square_by_resultant(r):
    """The square of a positive r by elimination: the source interval refined
    to lo >= 0 first, then the defining polynomial Res_y(s(y), x - y^2), s
    the squarefree part of r.poly, from a Sylvester determinant, and the
    source interval refined until [lo^2, hi^2] isolates one of its roots or
    a midpoint hits the value."""
    while r.lo < 0:
        r = r.refined((r.hi - r.lo) / 4)
    s = squarefree_part(r.poly)
    h = resultant_y([poly(c) for c in s.coeffs],
                    [poly(0, 1), poly(), poly(-1)]).primitive()
    while True:
        if r.lo == r.hi:  # a bisection midpoint hit a rational value
            return rational_algebraic(r.lo ** 2)
        lo, hi = r.lo ** 2, r.hi ** 2
        try:
            if count_real_roots_open(h, lo, hi) == 1:
                return AlgebraicReal(h, lo, hi).refined(DEFAULT_WIDTH)
        except ValueError:  # an end is a root of h
            pass
        r = r.refined((r.hi - r.lo) / 4)


def _squaring_corpus(count):
    """Seeded polynomials of degree 2..9, mostly not monic (leading
    coefficients from -4 to 9): products of linear factors d x + n,
    quadratics, squared factors (repeated roots) and the factor x (a zero
    root)."""
    rng = random.Random(0x6AAE)
    for _ in range(count):
        p = poly(rng.choice([1, -1, 2, 3, -4, 6, 9]))
        target = rng.randint(2, 9)
        while p.degree < target:
            kind = rng.randrange(4)
            if kind == 0:
                f = poly(rng.randint(-9, 9), rng.randint(1, 4))
            elif kind == 1:
                f = poly(rng.randint(-9, 9), rng.randint(-6, 6), 1)
            elif kind == 2:
                f = poly(rng.randint(-5, 5), rng.randint(1, 3))
                f = f * f
            else:
                f = poly(0, 1)
            if p.degree + f.degree <= 9:
                p = p * f
        yield p


def test_algebraic_square_matches_resultant_reference():
    """Graeffe's square is the same certified value, polynomial and interval,
    as the elimination Res_y(s(y), x - y^2) gives, on every real root of a
    seeded corpus with repeated and zero roots; each negative root raises."""
    zero = rational_algebraic(0)
    squared = negative = zeros = 0
    for p in _squaring_corpus(400):
        for lo, hi in _root_intervals(p):
            r = AlgebraicReal(p, lo, hi)
            sign = compare_algebraic(r, zero)
            if sign < 0:
                with pytest.raises(ValueError):
                    algebraic_square(r)
                negative += 1
            elif sign == 0:
                assert algebraic_square(r) == zero
                zeros += 1
            else:
                assert algebraic_square(r) == _square_by_resultant(r), (p, lo, hi)
                squared += 1
    assert squared >= 500 and negative >= 500 and zeros >= 200, (
        squared, negative, zeros)


def test_algebraic_square_straddling_and_negative():
    # sqrt2 - 1 on (-1, 1), as a root of x^2 + 2x - 1 (the other root is
    # -1 - sqrt2): the interval straddles 0 and is refined past it.
    r = AlgebraicReal(poly(-1, 2, 1), Fraction(-1), Fraction(1))
    sq = algebraic_square(r)
    assert sq.lo >= 0
    assert abs(sq.as_float() - (2 ** 0.5 - 1) ** 2) < 1e-12
    assert equal_radius(sq, AlgebraicReal(poly(1, -6, 1), Fraction(0),
                                          Fraction(1)))
    # The root 0 on (-1, 2), as a root of x(x - 5): 0 is a third of the
    # way from -1, so no bisection midpoint is 0.
    zero = algebraic_square(AlgebraicReal(poly(0, -5, 1), Fraction(-1),
                                          Fraction(2)))
    assert zero == rational_algebraic(0)
    # 1 - sqrt2 on (-1, 1), as a root of x^2 - 2x - 1: negative.
    with pytest.raises(ValueError):
        algebraic_square(AlgebraicReal(poly(-1, -2, 1), Fraction(-1),
                                       Fraction(1)))
    with pytest.raises(ValueError):
        algebraic_square(AlgebraicReal(poly(-2, 0, 1), Fraction(-2),
                                       Fraction(-1)))
    with pytest.raises(ValueError):
        algebraic_square(rational_algebraic(Fraction(-1, 3)))
