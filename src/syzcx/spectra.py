"""Spectral analysis of quiver adjacency: strongly connected components,
exact characteristic polynomials, certified Perron roots, and exact equality
and comparison of the resulting algebraic numbers."""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key, lru_cache
from typing import NamedTuple

from .errors import InternalInconsistencyError
from .graph import feedback_split, tarjan
from .polynomials import (
    _MEMO_SIZE,
    DEFAULT_WIDTH,
    AlgebraicReal,
    IntPolynomial,
    _bareiss,
    _signed_digits,
    count_real_roots_open,
    largest_real_root,
    poly_gcd_q,
    rational_algebraic,
    squarefree_part,
)

# Sparse rows: row i lists its nonzero entries (j, M[i][j]), j ascending.
IntMatrix = tuple[tuple[tuple[int, int], ...], ...]


def adjacency_matrix(graph, edges=None) -> IntMatrix:
    """Arrow counts of (n, edges) or of any object with .digraph(), as sparse
    rows: row u lists (v, number of arrows u -> v), v ascending."""
    n, edge_list = (int(graph), edges) if edges is not None else graph.digraph()
    rows = [Counter() for _ in range(n)]
    for u, v in edge_list:
        rows[u][v] += 1
    return tuple(tuple(sorted(row.items())) for row in rows)


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), exact over the integers,
    of M in sparse rows (see IntMatrix).

    By the transfer-matrix method (R. P. Stanley, Enumerative Combinatorics
    I, 4.7): if removing a vertex set F leaves an acyclic rest R, then
    det(I - tM) = det(I - T(t)), where T_uv(t), u, v in F, sums over the
    walks u -> v of length >= 1 with every inner vertex in R the product of
    their entries times t^length (the Schur complement of the nilpotent
    block of R, whose det(I - tD) is 1). det(xI - M) is x^n det(I - M/x):
    the coefficients of det(I - tM) reversed and padded to degree n.

    F and R come from `graph.feedback_split`: F the targets of the back
    edges of one depth-first search, R the rest in reverse postorder. Each
    arc leaving R's vertex of rank i must go to a rank above i or to F, or
    InternalInconsistencyError is raised. For each u in F one walk pass
    over R in that order, on integers at t = 2^w (a step multiplies by t,
    a shift), fills row u of I - T(2^w); `polynomials._bareiss` takes its
    determinant over Z and `_signed_digits` reads it back. As in
    `det_bareiss_poly`, every coefficient of every minor of I - T(t) is at
    most prod_u (1 + sum_v |T_uv|_1), with |T_uv|_1 at most T_uv(1) over
    |M|, which one backward pass over R gives; w is that bound's bit length
    plus 1, so every coefficient lies in (-2^(w-1), 2^(w-1)), a pivot that
    vanishes at 2^w is zero, and each exact division stays exact.

    The walks take |F| passes over the arcs, and the elimination about
    |F|^3 / 3 exact divisions of integers of about n w bits, quadratic in
    CPython. That is milliseconds when F is small: rings, companion
    quivers, and the components of random algebras of up to 28 vertices
    (|F| <= 13). It is slow when F is large: on the 160-, 204- and
    277-vertex components of the random family (|F| 42, 58, 76) it took
    5-7, 15-17 and 88-97 s, where the packed power sums it replaced took
    0.2, 0.4 and 1.4-1.5 s (ROADMAP item 14).
    """
    n = len(m)
    feedback, rest = feedback_split([[j for j, _ in row] for row in m])
    r, order = len(rest), rest + feedback
    slot = [0] * n  # R's vertices by rank, then F's
    for i, v in enumerate(order):
        slot[v] = i
    arcs = [[(slot[j], c) for j, c in m[v]] for v in order]
    for i, out in enumerate(arcs[:r]):
        if any(j <= i for j, _ in out):
            raise InternalInconsistencyError(
                "feedback vertex set leaves a cycle in the rest")
    reach = [0] * r + [1] * len(feedback)  # |M|-walks on to F, at t = 1
    for i in range(r - 1, -1, -1):
        reach[i] = sum(abs(c) * reach[j] for j, c in arcs[i])
    bound = 1
    for out in arcs[r:]:
        bound *= 1 + sum(abs(c) * reach[j] for j, c in out)
    w = bound.bit_length() + 1
    rows = []
    for a, start in enumerate(arcs[r:]):
        acc = [0] * len(arcs)  # the walks from u, at t = 2^w
        for j, c in start:
            acc[j] += c << w
        for i, out in enumerate(arcs[:r]):
            if x := acc[i] << w:
                for j, c in out:
                    acc[j] += x if c == 1 else c * x
        rows.append([(a == b) - t for b, t in enumerate(acc[r:])])
    digits = _signed_digits(_bareiss(rows, 1), w)
    if len(digits) > n + 1 or digits[:1] != [1]:
        raise InternalInconsistencyError(
            "transfer-matrix determinant lost its constant term")
    return IntPolynomial([0] * (n + 1 - len(digits)) + digits[::-1])


@lru_cache(maxsize=_MEMO_SIZE)
def perron_root(matrix: IntMatrix) -> AlgebraicReal:
    """Spectral radius of an adjacency matrix (sparse rows) as a certified
    algebraic number, memoized per matrix: the largest real root of the
    characteristic polynomial. A trivial loopless vertex gets 0 (poly x).

    Every root of the polynomial lies in the disc of radius rho, so the
    float Newton guess that `largest_real_root` tries first finds rho, and
    the cell it picks is certified; only a root on a tree point (0 or 1
    here), where a cell end is the root, is left to the isolation."""
    r = largest_real_root(char_poly(matrix))
    if r is None:
        raise InternalInconsistencyError(
            "adjacency characteristic polynomial has no real root"
        )
    return r


class SCC(NamedTuple):
    """One strongly connected component: member vertices (original indices,
    in label order, see scc_condense), the sparse rows of its internal arrow
    counts (indices into `vertices`), and its spectral radius."""

    vertices: tuple[int, ...]
    matrix: IntMatrix
    rho: AlgebraicReal

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1 and not self.matrix[0]


class Condensation(NamedTuple):
    """SCC condensation. Components are listed in reverse topological order
    (every component precedes the components that reach it), so a forward scan
    visits each component after all of its successors. `succ[ci]` lists the
    successors of component ci, ascending.

    `top[ci]` is, among the components of the largest radius reachable from
    ci (ci included), the one whose defining polynomial is least (degree
    first, then the coefficient tuple), the lowest-numbered of those with
    that polynomial; `chain[ci]` is the largest number of components of that
    radius on one path from ci. So the class read off `top[ci]` and
    `chain[ci]` depends only on the part of the digraph reachable from ci,
    not on how its vertices are numbered."""

    n_vertices: int
    components: tuple[SCC, ...]
    vertex_component: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    top: tuple[int, ...]
    chain: tuple[int, ...]


def scc_condense(n: int, edge_list, labels=None) -> Condensation:
    """Tarjan condensation of the digraph on vertices 0..n-1 with edge_list.

    Deterministic: roots are tried in vertex order, neighbors in edge order,
    and Tarjan's pop order yields the reverse-topological component list.
    Members are ascending ids, sorted stably by `labels` when given: a built
    syzygy quiver's labels fix its arrows, so one component is one matrix.
    A tie of radii goes to the least polynomial, not to the lowest number,
    so `top` and `chain` are the same under any renumbering.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
    comp_members = tarjan(adj)
    for members in comp_members:
        members.sort(key=None if labels is None else labels.__getitem__)

    comp_of = [0] * n
    pos = [0] * n
    for ci, members in enumerate(comp_members):
        for i, v in enumerate(members):
            comp_of[v] = ci
            pos[v] = i
    inner: list[list[tuple[int, int]]] = [[] for _ in comp_members]
    dag_edges = set()
    for u, v in edge_list:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            inner[cu].append((pos[u], pos[v]))
        else:
            dag_edges.add((cu, cv))
    succ: list[list[int]] = [[] for _ in comp_members]
    for a, b in sorted(dag_edges):
        succ[a].append(b)

    comps: list[SCC] = []
    for members, arrows in zip(comp_members, inner):
        matrix = adjacency_matrix(len(members), arrows)
        comps.append(SCC(tuple(members), matrix, perron_root(matrix)))

    # Rank the distinct radii (equal radii share a rank). `order` puts first
    # the largest radius, then the least polynomial, then the lowest number.
    # One forward pass: all that ci reaches is ci or reached by a successor.
    values = sorted(dict.fromkeys(c.rho for c in comps),
                    key=cmp_to_key(compare_algebraic))
    value_rank = dict.fromkeys(values[:1], 0)
    for a, b in zip(values, values[1:]):
        value_rank[b] = value_rank[a] + (not equal_radius(a, b))
    rank = [value_rank[c.rho] for c in comps]
    order = [(-r, c.rho.poly.degree, c.rho.poly.coeffs, ci)
             for ci, (r, c) in enumerate(zip(rank, comps))]
    top: list[int] = []
    chain: list[int] = []
    for ci, out in enumerate(succ):
        t = min([ci] + [top[s] for s in out], key=order.__getitem__)
        top.append(t)
        chain.append((rank[ci] == rank[t]) + max(
            (chain[s] for s in out if rank[top[s]] == rank[t]), default=0))
    return Condensation(n, tuple(comps), tuple(comp_of),
                        tuple(tuple(s) for s in succ), tuple(top), tuple(chain))


# -- exact comparisons -------------------------------------------------------

def equal_radius(a: AlgebraicReal, b: AlgebraicReal) -> bool:
    """Exact equality of two certified algebraic reals.

    True iff the gcd of the defining polynomials has a real root inside the
    intersection of the isolating intervals; each interval holds exactly one
    root of its own polynomial, so such a shared root is both values at once.
    The ends of a proper isolating interval are not roots of its polynomial,
    so neither end of the intersection is a root of the gcd. The closing
    root count (`count_real_roots_open`: Descartes' count on the
    intersection, and a bisection only when that is 2 or more) is memoized,
    so a tie proved again costs a lookup. Two values of one polynomial, the
    common tie, are answered by `poly_gcd_q`'s line for equal inputs, with
    no integer gcd; the squarefree part of their gcd is already memoized.
    """
    if a.hi < b.lo or b.hi < a.lo:
        return False
    if a.lo == a.hi and b.lo == b.hi:
        return a.lo == b.lo
    if a.lo == a.hi:
        return b.poly.sign_at(a.lo) == 0
    if b.lo == b.hi:
        return a.poly.sign_at(b.lo) == 0
    g = poly_gcd_q(a.poly, b.poly)
    if g.degree <= 0:
        return False
    x = max(a.lo, b.lo)
    y = min(a.hi, b.hi)
    if x >= y:
        return False
    return count_real_roots_open(g, x, y) >= 1


def compare_algebraic(r1: AlgebraicReal, r2: AlgebraicReal) -> int:
    """-1, 0, or 1; exact."""
    if equal_radius(r1, r2):
        return 0
    a, b = r1, r2
    for _ in range(10_000):
        if a.hi < b.lo:
            return -1
        if b.hi < a.lo:
            return 1
        if a.hi - a.lo >= b.hi - b.lo:
            a = a.refined((a.hi - a.lo) / 16)
        else:
            b = b.refined((b.hi - b.lo) / 16)
    raise InternalInconsistencyError("compare_algebraic failed to separate values")


def algebraic_square(r: AlgebraicReal) -> AlgebraicReal:
    """r^2 as a certified algebraic number, for nonnegative r.

    Defining polynomial by Graeffe's root squaring (Householder, Amer. Math.
    Monthly 66, 1959): the primitive h with h(x^2) = s(x) s(-x), s the
    squarefree part of r.poly, whose roots are the squares of those of s.
    The source interval is refined until it lies in [0, oo) and
    [lo^2, hi^2] isolates a root of h by `count_real_roots_open`, neither
    end a root. An exact rational, or the root 0, is squared as it is; a
    negative value raises ValueError."""
    s = squarefree_part(r.poly)
    s_neg = IntPolynomial(-c if i % 2 else c for i, c in enumerate(s.coeffs))
    h = IntPolynomial((s * s_neg).coeffs[::2]).primitive()
    if r.lo < 0 < r.hi and s.coeffs[0] == 0:  # the value is the root 0
        return rational_algebraic(0)
    cur = r
    for _ in range(200):
        if cur.lo == cur.hi or cur.hi <= 0:
            if cur.lo < 0:
                raise ValueError("algebraic_square requires a nonnegative value")
            return rational_algebraic(cur.lo ** 2)
        lo, hi = cur.lo ** 2, cur.hi ** 2
        try:
            isolated = cur.lo >= 0 and count_real_roots_open(h, lo, hi) == 1
        except ValueError:  # an end is a root of h
            isolated = False
        if isolated:
            return AlgebraicReal(h, lo, hi).refined(DEFAULT_WIDTH)
        cur = cur.refined((cur.hi - cur.lo) / 4)
    raise InternalInconsistencyError("algebraic_square failed to isolate")
