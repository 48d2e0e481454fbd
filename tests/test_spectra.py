"""Characteristic polynomials, condensations, and exact radius comparisons."""

from fractions import Fraction
from time import perf_counter

import pytest

from syzcx.curvature import companion_polynomial, realize_companion
from syzcx.polynomials import poly, largest_real_root, rational_algebraic
from syzcx.spectra import (
    mat_from_rows,
    adjacency_matrix,
    identity_matrix,
    mat_trace,
    char_poly,
    perron_root,
    scc_condense,
    equal_radius,
    compare_algebraic,
    algebraic_power,
)

GOLDEN = poly(-1, -1, 1)
PHI = (1 + 5 ** 0.5) / 2


def test_matrix_helpers():
    m = mat_from_rows([[1, 2], [3, 4]])
    assert mat_trace(m) == 5
    i = identity_matrix(2)
    assert i == ((1, 0), (0, 1))
    assert mat_trace(i) == 2


def test_adjacency_matrix():
    m = adjacency_matrix(3, [(0, 1), (0, 1), (2, 2)])
    assert m == ((0, 2, 0), (0, 0, 0), (0, 0, 1))


def test_char_poly_by_hand():
    # det(xI - [[0,1],[1,1]]) = x^2 - x - 1
    assert char_poly(mat_from_rows([[0, 1], [1, 1]])) == GOLDEN
    # det(xI - I2) = (x-1)^2
    assert char_poly(identity_matrix(2)) == poly(1, -2, 1)
    # 1x1 zero matrix: x
    assert char_poly(mat_from_rows([[0]])) == poly(0, 1)
    # empty matrix: the constant 1
    assert char_poly(mat_from_rows([])) == poly(1)


def test_char_poly_of_large_companion_quiver():
    # 97 vertices; the sparse trace recursion keeps this well under a second.
    c = range(1, 98)
    m = adjacency_matrix(realize_companion(c))
    t0 = perf_counter()
    p = char_poly(m)
    elapsed = perf_counter() - t0
    assert p == companion_polynomial(c)
    assert elapsed < 1.0, f"char_poly took {elapsed:.2f}s"


def test_char_poly_monic_and_trace():
    m = mat_from_rows([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
    p = char_poly(m)
    assert p.is_monic and p.degree == 3
    # second-highest coefficient is -trace
    assert p.coeffs[2] == -mat_trace(m)


def test_perron_root_golden():
    r = perron_root(mat_from_rows([[0, 1], [1, 1]]))
    assert abs(r.as_float() - PHI) < 1e-12
    assert r.poly == GOLDEN


def test_perron_root_trivial_vertex():
    r = perron_root(mat_from_rows([[0]]))
    assert r.as_float() == 0.0


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


def test_scc_condense_top_and_chain():
    # 0 -> 1 -> 2 -> 3: loops at 0, 2, 3 (radius 1), a 2-loop at 1 (radius 2).
    cond = scc_condense(4, [(0, 0), (0, 1), (1, 1), (1, 1), (1, 2), (2, 2),
                            (2, 3), (3, 3)])
    comp = cond.vertex_component
    top = [cond.top[comp[v]] for v in range(4)]
    chain = [cond.chain[comp[v]] for v in range(4)]
    assert top == [comp[1], comp[1], comp[3], comp[3]]
    assert chain == [1, 1, 2, 1]


def test_condensation_json_shape():
    doc = scc_condense(2, [(0, 1), (1, 1)]).to_json()
    assert {c["id"] for c in doc["components"]} == {0, 1}
    assert all({"id", "members", "rho"} <= set(c) for c in doc["components"])


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


def test_algebraic_power_golden_square():
    # phi^2 = phi + 1 = (3+sqrt5)/2, the largest root of x^2 - 3x + 1.
    phi = largest_real_root(GOLDEN)
    sq = algebraic_power(phi, 2)
    assert equal_radius(sq, largest_real_root(poly(1, -3, 1)))
    assert abs(sq.as_float() - PHI ** 2) < 1e-10
    one = algebraic_power(phi, 1)
    assert equal_radius(one, phi)


def test_algebraic_power_rational():
    r = algebraic_power(rational_algebraic(2), 3)
    assert equal_radius(r, rational_algebraic(8))
