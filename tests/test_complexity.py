"""Growth classes: comparison calculus, condensation dynamic program,
realization, subdivision, and the numeric witness."""

import random

import pytest

from syzcx import spectra
from syzcx.algebra import Quiver, Arrow
from syzcx.curvature import realize_companion
from syzcx.polynomials import poly, largest_real_root, rational_algebraic
from syzcx.spectra import scc_condense, equal_radius, perron_root
from syzcx.syzygy import build_syzygy_quiver, resolve_module, SyzygyQuiver
from syzcx.complexity import (
    zero_class,
    polyexp_class,
    compare,
    join,
    convolve,
    vertex_complexity,
    module_complexity,
    module_complexity_by_name,
    lower_bound_from_partial,
    lower_bound_report,
    realize_class,
    subdivide,
    empirical_class_check,
)
from syzcx.errors import (
    InvalidPartialError,
    NoArrowsError,
    NotStronglyConnectedError,
    WindowTooSmallError,
)

from conftest import make_algebra, fibonacci_numbers, sparse_rows

GOLDEN = poly(-1, -1, 1)
PHI = largest_real_root(GOLDEN)
ONE = rational_algebraic(1)
TWO = rational_algebraic(2)


# -- class construction and calculus -------------------------------------------

def test_class_constructors_validate():
    with pytest.raises(ValueError):
        zero_class(-1)
    with pytest.raises(ValueError):
        polyexp_class(PHI, -1)
    with pytest.raises(ValueError):
        polyexp_class(rational_algebraic(0.5), 0)
    assert zero_class(None).pd is None
    assert zero_class(3).pd == 3


def test_class_labels():
    assert zero_class(2).label() == "0"
    assert polyexp_class(PHI, 0).label() == "1.618033988750^n"
    assert polyexp_class(TWO, 2).label() == "2.000000000000^n*n^2"


def test_compare_ordering():
    z = zero_class(1)
    c1 = polyexp_class(ONE, 0)
    c1d = polyexp_class(ONE, 1)
    cphi = polyexp_class(PHI, 0)
    c2 = polyexp_class(TWO, 0)
    assert compare(z, z) == 0
    assert compare(z, c1) < 0 < compare(c1, z)
    assert compare(c1, c1d) < 0
    assert compare(c1d, cphi) < 0  # base dominates degree
    assert compare(cphi, c2) < 0
    assert compare(cphi, polyexp_class(PHI, 0)) == 0


def test_join_picks_larger_and_merges_pd():
    assert join(zero_class(1), zero_class(3)).pd == 3
    assert join(zero_class(None), zero_class(2)).pd == 2
    c = join(polyexp_class(ONE, 1), polyexp_class(PHI, 0))
    assert equal_radius(c.base, PHI)


def test_convolve_cases():
    # identity
    c = convolve(zero_class(0), polyexp_class(PHI, 1))
    assert equal_radius(c.base, PHI) and c.degree == 1
    # distinct bases: the larger wins untouched
    c = convolve(polyexp_class(TWO, 2), polyexp_class(PHI, 1))
    assert equal_radius(c.base, TWO) and c.degree == 2
    # equal bases certified through different polynomials: degrees add + 1
    phi_again = largest_real_root(GOLDEN * poly(-1, 1))
    c = convolve(polyexp_class(PHI, 1), polyexp_class(phi_again, 0))
    assert equal_radius(c.base, PHI) and c.degree == 2
    # zero with zero keeps the larger projective dimension
    assert convolve(zero_class(2), zero_class(5)).pd == 5


# -- condensation dynamic program ------------------------------------------------

def test_vertex_complexity_chain_of_equal_sccs():
    # Two 1-loops in a chain: class [1^n * n].
    cond = scc_condense(2, [(0, 0), (0, 1), (1, 1)])
    c = vertex_complexity(cond, 0)
    assert equal_radius(c.base, ONE) and c.degree == 1
    # The downstream vertex alone: degree 0.
    c1 = vertex_complexity(cond, 1)
    assert equal_radius(c1.base, ONE) and c1.degree == 0


def test_vertex_complexity_unequal_sccs():
    # A 2-loop upstream of a 1-loop: the larger base wins, degree 0.
    cond = scc_condense(2, [(0, 0), (0, 0), (0, 1), (1, 1)])
    c = vertex_complexity(cond, 0)
    assert equal_radius(c.base, TWO) and c.degree == 0


def test_vertex_complexity_acyclic_is_zero():
    cond = scc_condense(3, [(0, 1), (1, 2)])
    c = vertex_complexity(cond, 0)
    assert c.is_zero and c.pd == 2
    assert vertex_complexity(cond, 2).pd == 0


def test_module_complexity_fibonacci(fib):
    rpt = module_complexity(fib, resolve_module(fib, "S1"))
    assert rpt.cls.kind == "polyexp"
    assert rpt.cls.base.poly == GOLDEN
    assert rpt.cls.degree == 0
    assert rpt.polynomial_rate is None
    assert not rpt.lower_bound
    doc = rpt.to_json()
    assert doc["class"]["base"]["approx"] == "1.618033988750"
    assert doc["curvature"]["approx"] == "1.618033988750"
    assert doc["lower_bound"] is False


def test_module_complexity_projective(fib):
    rpt = module_complexity_by_name(fib, "P1")
    assert rpt.cls.is_zero and rpt.cls.pd == 0
    assert rpt.to_json() == {"class": {"kind": "zero", "pd": 0},
                             "curvature": 0, "lower_bound": False}


def test_module_complexity_finite_pd(a2):
    rpt = module_complexity_by_name(a2, "S1")
    assert rpt.cls.is_zero and rpt.cls.pd == 1


def test_module_complexity_bounded(loop3):
    rpt = module_complexity_by_name(loop3, "S1")
    assert equal_radius(rpt.cls.base, ONE)
    assert rpt.cls.degree == 0
    assert rpt.polynomial_rate == 1
    assert rpt.to_json()["polynomial_rate"] == 1


def test_polynomial_rate_degree_bump():
    # Radical-square-zero algebra on two chained 1-loops:
    # dim sequence grows linearly, so rate = degree + 1 = 2.
    text = ("algebra lin\nvertex 1\nvertex 2\n"
            "arrow l : 1 -> 1\narrow c : 1 -> 2\narrow m : 2 -> 2\n"
            "relation l.l\nrelation l.c\nrelation c.m\nrelation m.m\n"
            "module S1 = S(1)\n")
    A = make_algebra(text)
    rpt = module_complexity_by_name(A, "S1")
    assert equal_radius(rpt.cls.base, ONE)
    assert rpt.cls.degree == 1
    assert rpt.polynomial_rate == 2


# -- partial quivers -------------------------------------------------------------

def test_lower_bound_from_truncation(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    truncated = SyzygyQuiver(fib, q.labels, ((0, 1), (1, 0)), q.start,
                             partial=True)
    lower = lower_bound_from_partial(truncated, 0)
    full = module_complexity(fib, resolve_module(fib, "S1")).cls
    assert compare(lower, full) <= 0
    assert equal_radius(lower.base, ONE)
    rpt = lower_bound_report(truncated, 0)
    assert rpt.lower_bound and rpt.to_json()["lower_bound"] is True


def test_lower_bound_rejects_invalid_partial(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    bogus = SyzygyQuiver(fib, q.labels, q.arrows + ((0, 0),), q.start,
                         partial=True)
    with pytest.raises(InvalidPartialError):
        lower_bound_from_partial(bogus, 0)


# -- realization -----------------------------------------------------------------

def test_realize_class_single_loop_level_one():
    loop = Quiver(("1",), (Arrow("a", "1", "1"),))
    text, names = realize_class(loop, 1)
    assert names == ["S_1_0", "S_1_1"]
    A = make_algebra(text)
    r0 = module_complexity_by_name(A, "S_1_0")
    r1 = module_complexity_by_name(A, "S_1_1")
    assert equal_radius(r0.cls.base, ONE) and r0.cls.degree == 0
    assert equal_radius(r1.cls.base, ONE) and r1.cls.degree == 1


def test_realize_class_requires_strong_connectivity():
    two = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    with pytest.raises(NotStronglyConnectedError,
                       match="the base quiver has 2 strongly connected"):
        realize_class(two, 0)
    bare = Quiver(("1",), ())
    with pytest.raises(NoArrowsError):
        realize_class(bare, 0)
    loop = Quiver(("1",), (Arrow("a", "1", "1"),))
    with pytest.raises(ValueError):
        realize_class(loop, -1)


def test_realize_class_counts_components_without_spectra(monkeypatch):
    """Strong connectivity is a graph question: no characteristic polynomial
    or Perron root of the base quiver is computed."""
    def refuse(*_):
        raise AssertionError("realize_class computed a characteristic polynomial")

    monkeypatch.setattr(spectra, "char_poly", refuse)
    H = realize_companion([1] + [0] * 191 + [1])
    assert len(H.vertices) == 193
    text, names = realize_class(H, 1)
    assert len(names) == 2 * 193 and text.startswith("algebra box_l1\n")


def _all_pairs_relations(text):
    """The relation lines of a realize_class text, listed by pairing every
    arrow with every arrow, in arrow order."""
    arrows = [line.split() for line in text.splitlines()
              if line.startswith("arrow ")]
    return [f"relation {x[1]}.{y[1]}"
            for x in arrows for y in arrows if x[5] == y[3]]


def test_realize_class_relations_are_every_composable_pair():
    """On seeded strongly connected quivers (a cycle through every vertex
    plus random arrows, loops and parallel arrows among them) and levels 0
    to 3, the relation lines are exactly the all-pairs listing, in its
    order."""
    rng = random.Random(36)
    for trial in range(40):
        nv = rng.randint(1, 5)
        verts = [f"v{i}" for i in range(nv)]
        ends = [(verts[i], verts[(i + 1) % nv]) for i in range(nv)]
        ends += [(rng.choice(verts), rng.choice(verts))
                 for _ in range(rng.randint(0, 6))]
        rng.shuffle(ends)
        H = Quiver(tuple(verts), tuple(Arrow(f"a{i}", s, t)
                                       for i, (s, t) in enumerate(ends)))
        ell = trial % 4
        text, _ = realize_class(H, ell)
        relations = [line for line in text.splitlines()
                     if line.startswith("relation ")]
        assert relations == _all_pairs_relations(text)
        assert len(relations) > 0

def test_subdivide_square_root_of_radius():
    fibq = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1"),
                               Arrow("g", "2", "2")))
    sub = subdivide(fibq, 2)
    # Each arrow becomes a 2-path: vertex count 2 + 3, arrows 6.
    assert len(sub.vertices) == 5 and len(sub.arrows) == 6
    rho = perron_root(_adj(sub))
    from syzcx.spectra import algebraic_square
    assert equal_radius(algebraic_square(rho), PHI)
    assert subdivide(fibq, 1) is fibq
    with pytest.raises(ValueError):
        subdivide(fibq, 0)


def _adj(q: Quiver):
    n, edges = q.digraph()
    mat = [[0] * n for _ in range(n)]
    for i, j in edges:
        mat[i][j] += 1
    return sparse_rows(mat)


# -- numeric witness ---------------------------------------------------------------

def test_empirical_class_check_fibonacci():
    f = fibonacci_numbers(130)
    ok, lo, hi = empirical_class_check(f, polyexp_class(PHI, 0), (10, 120))
    assert ok and 0 < lo <= hi


def test_empirical_class_check_rejects_wrong_base():
    f = [2 ** n for n in range(130)]
    ok, _, _ = empirical_class_check(f, polyexp_class(PHI, 0), (10, 120))
    assert not ok


def test_empirical_class_check_zero():
    ok, _, _ = empirical_class_check([5, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                                     zero_class(1), (2, 11))
    assert ok
    ok2, _, _ = empirical_class_check([5, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                                      zero_class(1), (2, 11))
    assert not ok2


def test_empirical_class_check_window_guard():
    with pytest.raises(WindowTooSmallError):
        empirical_class_check([1] * 20, polyexp_class(ONE, 0), (0, 5))
    with pytest.raises(ValueError):
        empirical_class_check([1] * 20, polyexp_class(ONE, 0), (10, 40))
