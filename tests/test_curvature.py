"""Realizability of growth bases and the closure operations.

Expansion identities used as expected values, all checkable by hand:
  (x^2-x-1)^2 pairwise-product polynomial: roots phi^2, phi*psi (twice),
  psi^2 with phi*psi = -1, so it equals (x^2-3x+1)(x+1)^2
  = x^4 - x^3 - 4x^2 - x + 1.
  Substituting x^2 into x^2-3x+1 gives x^4-3x^2+1 = (x^2-x-1)(x^2+x-1).
"""

import hashlib
import json
import random
import time

import pytest

from syzcx.polynomials import (
    IntPolynomial,
    largest_real_root,
    poly,
    rational_algebraic,
    squarefree_part,
)
from syzcx.spectra import equal_radius, perron_root, char_poly
from syzcx.curvature import (
    factor_monic_squarefree,
    product_polynomial,
    sum_polynomial,
    closure_combine,
    check_condition_c,
    companion_polynomial,
    realize_companion,
)
from syzcx.errors import NotMonicError, ZeroPolynomialError

from conftest import sparse_rows

GOLDEN = poly(-1, -1, 1)           # x^2 - x - 1
PHI_SQ = poly(1, -3, 1)            # x^2 - 3x + 1
PHI = (1 + 5 ** 0.5) / 2


# -- verdicts --------------------------------------------------------------------

def test_accepts_golden_ratio():
    v = check_condition_c(GOLDEN)
    assert v.status == "realizable"
    assert v.irreducibility == "verified"
    assert abs(v.b.as_float() - PHI) < 1e-9


def test_accepts_golden_square():
    v = check_condition_c(PHI_SQ)
    assert v.status == "realizable"
    assert abs(v.b.as_float() - PHI ** 2) < 1e-9


def test_rejects_no_real_root():
    v = check_condition_c(poly(1, 0, 1))  # x^2 + 1
    assert v.status == "not_realizable"
    assert v.b is None
    assert "no real root" in v.reason


def test_rejects_non_monic():
    with pytest.raises(NotMonicError):
        check_condition_c(poly(-1, 2))  # 2x - 1
    with pytest.raises(ZeroPolynomialError):
        check_condition_c(poly())


def test_modulus_tie_is_accepted():
    # x^2 - 2: conjugate -sqrt2 has the same modulus as sqrt2.
    v = check_condition_c(poly(-2, 0, 1))
    assert v.status == "realizable"
    assert abs(v.b.as_float() - 2 ** 0.5) < 1e-9


def test_accepts_two_plus_sqrt2():
    # x^2 - 4x + 2: roots 2 +- sqrt2, both positive; dominant 2+sqrt2.
    v = check_condition_c(poly(2, -4, 1))
    assert v.status == "realizable"
    assert abs(v.b.as_float() - (2 + 2 ** 0.5)) < 1e-9


def test_rejects_dominated_real_root():
    # x^2 + 3x + 1: largest real root (-3+sqrt5)/2 < 0.
    v = check_condition_c(poly(1, 3, 1))
    assert v.status == "not_realizable"


def test_reducible_input_judges_dominant_factor():
    # (x+1)(x^2-x-1) = x^3 - 2x - 1
    v = check_condition_c(poly(-1, -2, 0, 1))
    assert v.status == "realizable"
    assert v.irreducibility == "reducible_factored"
    assert abs(v.b.as_float() - PHI) < 1e-9


def test_zero_base_accepted():
    v = check_condition_c(poly(0, 1))  # x
    assert v.status == "realizable"
    assert v.b.as_float() == 0.0


def test_indeterminate_degree_five():
    # x^5 - x - 1 has no rational root and no certified factorization here.
    v = check_condition_c(poly(-1, -1, 0, 0, 0, 1))
    assert v.status == "indeterminate"
    assert v.irreducibility == "unknown"


def test_assume_irreducible_bypasses_factoring():
    v = check_condition_c(GOLDEN, assume_irreducible=True)
    assert v.status == "realizable"
    assert v.irreducibility == "assumed"


def test_assumed_irreducible_factor_loses_its_root_zero():
    # x^3 - x^2 - x = x (x^2 - x - 1): judged on x^2 - x - 1 once x is split
    # off, b is the golden ratio.
    v = check_condition_c(poly(0, -1, -1, 1), assume_irreducible=True)
    assert v.status == "realizable"
    assert abs(v.b.as_float() - PHI) < 1e-9
    # x^3 + x = x (x^2 + 1): the largest real root is 0, and i exceeds it.
    v = check_condition_c(poly(0, 1, 0, 1), assume_irreducible=True)
    assert v.status == "not_realizable" and v.b is None
    assert v.reason == "a nonzero conjugate dominates the candidate 0"


def test_verdict_json():
    doc = check_condition_c(GOLDEN).to_json()
    assert doc["status"] == "realizable"
    assert doc["b"]["approx"] == "1.618033988750"
    assert doc["irreducibility"] == "verified"


# -- factoring -------------------------------------------------------------------

def test_factor_integer_roots_and_quadratic():
    p = poly(-1, 1) * poly(2, 1) * PHI_SQ
    factors, complete = factor_monic_squarefree(p)
    assert complete
    assert sorted(f.to_list() for f in factors) == sorted(
        [[-1, 1], [2, 1], [1, -3, 1]]
    )


def test_factor_quartic_split():
    # (x^2-x-1)(x^2+x-1) = x^4 - 3x^2 + 1, no rational roots.
    p = poly(1, 0, -3, 0, 1)
    factors, complete = factor_monic_squarefree(p)
    assert complete
    assert sorted(f.to_list() for f in factors) == sorted(
        [[-1, -1, 1], [-1, 1, 1]]
    )


def test_factor_incomplete_degree_five():
    factors, complete = factor_monic_squarefree(poly(-1, -1, 0, 0, 0, 1))
    assert not complete


def test_factor_quartic_split_order():
    # Constants 2 and -1: the factor whose constant has the smaller modulus
    # comes first; on opposite constants, the positive one; on equal
    # constants, the larger linear coefficient.
    p = poly(2, 1, 1) * poly(-1, 1, 1)
    assert factor_monic_squarefree(p)[0] == [poly(-1, 1, 1), poly(2, 1, 1)]
    p = poly(-2, 3, 1) * poly(2, 1, 1)
    assert factor_monic_squarefree(p)[0] == [poly(2, 1, 1), poly(-2, 3, 1)]
    p = poly(1, -1, 1) * poly(1, 3, 1)
    assert factor_monic_squarefree(p)[0] == [poly(1, 3, 1), poly(1, -1, 1)]


def _factoring_corpus():
    """1,500 seeded monic polynomials: 1,000 of degree <= 8 with coefficients
    in [-6, 6], then 500 products of two to four monic factors of degree 1-2,
    which bring repeated roots, root 0 and quartics that split into two
    quadratics."""
    rng = random.Random(1212)
    polys = []
    for _ in range(1000):
        d = rng.randint(1, 8)
        polys.append(IntPolynomial([rng.randint(-6, 6) for _ in range(d)] + [1]))
    for _ in range(500):
        p = poly(1)
        for _ in range(rng.randint(2, 4)):
            k = rng.choice((1, 2, 2))
            p = p * IntPolynomial([rng.randint(-6, 6) for _ in range(k)] + [1])
        polys.append(p)
    return polys


@pytest.mark.parametrize("p, b, irreducibility", [
    (poly(-2, 1), 2, "verified"),
    (poly(-2, -1, 1), 2, "reducible_factored"),  # (x - 2)(x + 1)
    (poly(-10 ** 80, 1), 10 ** 80, "verified"),
], ids=["x-2", "x2-x-2", "x-10^80"])
def test_integer_base_prints_as_the_integer(p, b, irreducibility):
    v = check_condition_c(p)
    assert (v.status, v.irreducibility) == ("realizable", irreducibility)
    assert v.to_json()["b"]["interval"] == [str(b), str(b)]


def test_verdicts_and_factors_match_pinned_hash():
    """Every verdict and every factor list of the corpus, pinned byte for
    byte; an integer base prints as the point interval [b, b]."""
    rows = []
    for p in _factoring_corpus():
        factors, complete = factor_monic_squarefree(squarefree_part(p))
        rows.append([check_condition_c(p).to_json(),
                     sorted(f.to_list() for f in factors), complete])
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "71434bd3ad210625"


@pytest.mark.parametrize("p, status, irreducibility, b_poly", [
    (poly(10 ** 28 + 7, -1, 1), "not_realizable", "verified", None),
    (poly(10 ** 100 + 267, -1, 1), "not_realizable", "verified", None),
    (poly(10 ** 28, 0, 0, 0, 1), "not_realizable", "verified", None),
    (poly(10 ** 15, 3, 1) * poly(-10 ** 14, -1, 1), "realizable",
     "reducible_factored", [-10 ** 14, -1, 1]),
], ids=["c0_29_digits", "c0_101_digits", "x4_plus_1e28", "two_quadratics"])
def test_huge_constant_terms_decided_quickly(p, status, irreducibility, b_poly):
    """Trial division of the constant term would take months on these."""
    start = time.perf_counter()
    v = check_condition_c(p)
    assert time.perf_counter() - start < 1.0
    assert (v.status, v.irreducibility) == (status, irreducibility)
    assert (v.b.poly.to_list() if v.b is not None else None) == b_poly


# -- closure operations ------------------------------------------------------------

def test_product_polynomial_golden():
    pp = product_polynomial(GOLDEN, GOLDEN)
    assert pp == poly(1, -1, -4, -1, 1)
    # phi^2 is a root: divisibility by x^2-3x+1 is exact.
    assert pp.div_exact(PHI_SQ) == poly(1, 2, 1)


def test_product_polynomial_of_integer_roots_with_zero():
    """For monic p and q with integer roots a_i and b_j, zero among them,
    Res_y(q(y), y^m p(x/y)) is the product of x - a_i b_j over all pairs:
    q(0) = 0 needs no special case."""
    rng = random.Random(37)
    for _ in range(60):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        b = [0] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
        rng.shuffle(b)
        want = poly(1)
        for ai in a:
            for bj in b:
                want = want * poly(-ai * bj, 1)
        p, q = poly(1), poly(1)
        for ai in a:
            p = p * poly(-ai, 1)
        for bj in b:
            q = q * poly(-bj, 1)
        assert product_polynomial(p, q) == want, (a, b)


def test_sum_polynomial_golden_sqrt2():
    sp = sum_polynomial(GOLDEN, poly(-2, 0, 1))
    assert sp == poly(-1, 6, -5, -2, 1)
    # phi + sqrt2 is among its roots.
    root = largest_real_root(sp)
    assert abs(root.as_float() - (PHI + 2 ** 0.5)) < 1e-9


def test_closure_combine_product_and_sum_match_direct():
    assert closure_combine(GOLDEN, GOLDEN, "product") == \
        product_polynomial(GOLDEN, GOLDEN)
    assert closure_combine(GOLDEN, poly(-2, 0, 1), "sum") == \
        sum_polynomial(GOLDEN, poly(-2, 0, 1))


def test_closure_combine_root():
    r = closure_combine(PHI_SQ, None, "root", 2)
    assert r == poly(1, 0, -3, 0, 1)
    assert r == GOLDEN * poly(-1, 1, 1)


def test_closure_combine_rejects_unknown_op():
    with pytest.raises(ValueError):
        closure_combine(GOLDEN, GOLDEN, "quotient")


# -- companion realization -----------------------------------------------------------

def test_companion_polynomial():
    assert companion_polynomial((1, 2)) == poly(-2, -1, 1)  # x^2 - x - 2
    assert companion_polynomial((1, 1)) == GOLDEN


def test_realize_companion_spectral_radius():
    q = realize_companion((1, 2))
    n, edges = q.digraph()
    mat = [[0] * n for _ in range(n)]
    for i, j in edges:
        mat[i][j] += 1
    cp = char_poly(sparse_rows(mat))
    assert cp == companion_polynomial((1, 2))
    rho = perron_root(sparse_rows(mat))
    assert equal_radius(rho, rational_algebraic(2))


def test_realize_companion_rejects_bad_coeffs():
    from syzcx.errors import TrailingZeroError
    with pytest.raises(ValueError):
        realize_companion((1, -2))
    with pytest.raises(ValueError):
        realize_companion(())
    with pytest.raises(TrailingZeroError):
        realize_companion((1, 0))  # x^2 - x: quiver would not be strongly connected
