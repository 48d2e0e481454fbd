"""Spectral analysis of quiver adjacency: strongly connected components,
exact characteristic polynomials, certified Perron roots, and exact equality
and comparison of the resulting algebraic numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

from .errors import InternalInconsistencyError
from .graph import tarjan
from .polynomials import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    IntPolynomial,
    count_real_roots_open,
    largest_real_root,
    poly_gcd_q,
    rational_algebraic,
    resultant_y,
    squarefree_part,
)

IntMatrix = tuple[tuple[int, ...], ...]


def mat_from_rows(rows) -> IntMatrix:
    return tuple(tuple(int(c) for c in row) for row in rows)


def adjacency_matrix(graph, edges=None) -> IntMatrix:
    """Arrow-count matrix of (n, edges) or of any object with .digraph()."""
    n, edge_list = (int(graph), edges) if edges is not None else graph.digraph()
    mat = [[0] * n for _ in range(n)]
    for u, v in edge_list:
        mat[u][v] += 1
    return mat_from_rows(mat)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), exact over the integers.

    Uses the trace recursion M_k = M (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k,
    whose divisions are exact; each is asserted. M is held as sparse rows of
    (column, count) pairs, so each step costs O(nnz(M) n) rather than O(n^3).
    """
    n = len(m)
    if n == 0:
        return IntPolynomial([1])
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in m]
    mk = [list(row) for row in m]
    ck = -mat_trace(mk)
    coeffs_desc = [1, ck]
    for k in range(2, n + 1):
        for i in range(n):
            mk[i][i] += ck
        nxt = []
        for row in rows:
            acc = [0] * n
            for j, c in row:
                acc = [a + c * b for a, b in zip(acc, mk[j])]
            nxt.append(acc)
        mk = nxt
        tr = mat_trace(mk)
        if tr % k:
            raise InternalInconsistencyError(
                "characteristic polynomial trace recursion lost exactness"
            )
        ck = -tr // k
        coeffs_desc.append(ck)
    return IntPolynomial(reversed(coeffs_desc))


def perron_root(component) -> AlgebraicReal:
    """Spectral radius of a strongly connected component (or a raw adjacency
    matrix) as a certified algebraic number: the largest real root of the
    characteristic polynomial. Trivial loopless vertices get 0 (poly x)."""
    m = getattr(component, "matrix", component)
    r = largest_real_root(char_poly(m))
    if r is None:
        raise InternalInconsistencyError(
            "adjacency characteristic polynomial has no real root"
        )
    return r


@lru_cache(maxsize=None)
def _component_root(matrix: IntMatrix) -> AlgebraicReal:
    """perron_root of a component matrix, computed once per distinct matrix."""
    return perron_root(matrix)


@dataclass(frozen=True)
class SCC:
    """One strongly connected component: member vertices (original indices,
    ascending), internal adjacency counts, and its spectral radius."""

    vertices: tuple[int, ...]
    matrix: IntMatrix
    rho: AlgebraicReal

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1 and self.matrix[0][0] == 0


@dataclass(frozen=True)
class Condensation:
    """SCC condensation. Components are listed in reverse topological order
    (every component precedes the components that reach it), so a forward scan
    visits each component after all of its successors. `succ[ci]` lists the
    successors of component ci, ascending.

    `top[ci]` is the lowest-numbered component of the largest radius reachable
    from ci (ci included), and `chain[ci]` the largest number of components of
    that radius on one path from ci."""

    n_vertices: int
    components: tuple[SCC, ...]
    vertex_component: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    top: tuple[int, ...]
    chain: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "id": i,
                    "members": list(c.vertices),
                    "rho": c.rho.to_json(),
                }
                for i, c in enumerate(self.components)
            ],
            "arrows": [
                {"from": a, "to": b}
                for a, out in enumerate(self.succ) for b in out
            ],
        }


def scc_condense(n: int, edge_list) -> Condensation:
    """Tarjan condensation of the digraph on vertices 0..n-1 with edge_list.

    Deterministic: roots are tried in vertex order, neighbors in edge order,
    and Tarjan's pop order yields the reverse-topological component list.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
    comp_members = tarjan(adj)

    comp_of = [0] * n
    pos = [0] * n
    for ci, members in enumerate(comp_members):
        for i, v in enumerate(members):
            comp_of[v] = ci
            pos[v] = i
    mats = [[[0] * len(m) for _ in m] for m in comp_members]
    dag_edges = set()
    for u, v in edge_list:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            mats[cu][pos[u]][pos[v]] += 1
        else:
            dag_edges.add((cu, cv))
    succ: list[list[int]] = [[] for _ in comp_members]
    for a, b in sorted(dag_edges):
        succ[a].append(b)

    comps: list[SCC] = []
    for members, mat in zip(comp_members, mats):
        matrix = mat_from_rows(mat)
        comps.append(SCC(tuple(members), matrix, _component_root(matrix)))

    # Rank the distinct radii (equal radii share a rank), then one forward
    # pass: everything reachable from ci is ci or reachable from a successor.
    values = sorted(dict.fromkeys(c.rho for c in comps),
                    key=cmp_to_key(compare_algebraic))
    value_rank = dict.fromkeys(values[:1], 0)
    for a, b in zip(values, values[1:]):
        value_rank[b] = value_rank[a] + (not equal_radius(a, b))
    rank = [value_rank[c.rho] for c in comps]
    top: list[int] = []
    chain: list[int] = []
    for ci, out in enumerate(succ):
        t = max([ci] + [top[s] for s in out], key=lambda c: (rank[c], -c))
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
    so neither end of the intersection is a root of the gcd.
    """
    if a.hi < b.lo or b.hi < a.lo:
        return False
    if a.lo == a.hi and b.lo == b.hi:
        return a.lo == b.lo
    if a.lo == a.hi:
        return b.poly.sign_at(a.lo) == 0
    if b.lo == b.hi:
        return a.poly.sign_at(b.lo) == 0
    sa, sb = squarefree_part(a.poly), squarefree_part(b.poly)
    g = poly_gcd_q(sa, sb)
    if g.degree <= 0:
        return False
    x = max(a.lo, b.lo)
    y = min(a.hi, b.hi)
    if x >= y:
        return False
    # A gcd equal to a squarefree part counts on that polynomial's chain.
    p = a.poly if g == sa else b.poly if g == sb else g
    return count_real_roots_open(p, x, y) >= 1


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
        if a.lo == a.hi and b.lo == b.hi:
            return -1 if a.lo < b.lo else 1
        if a.hi - a.lo >= b.hi - b.lo:
            a = a.refined((a.hi - a.lo) / 16)
        else:
            b = b.refined((b.hi - b.lo) / 16)
    raise InternalInconsistencyError("compare_algebraic failed to separate values")


def algebraic_power(r: AlgebraicReal, k: int) -> AlgebraicReal:
    """r^k as a certified algebraic number, for nonnegative r and k >= 1.

    Defining polynomial: Res_y(p(y), x - y^k), whose roots are the k-th powers
    of the roots of p. The isolating interval [lo^k, hi^k] is validated by a
    Sturm count and the source interval is refined until it isolates, or
    while an end of it is a root."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if r.lo < 0:
        raise ValueError("algebraic_power requires a nonnegative value")
    if r.lo == r.hi:
        return rational_algebraic(r.lo ** k)
    sf = squarefree_part(r.poly)
    coeffs_a = [IntPolynomial([c]) for c in sf.coeffs]
    coeffs_b = [IntPolynomial()] * (k + 1)
    coeffs_b[0] = IntPolynomial([0, 1])  # x
    coeffs_b[k] = IntPolynomial([-1])
    q = resultant_y(coeffs_a, coeffs_b).primitive()
    cur = r
    for _ in range(200):
        lo, hi = cur.lo ** k, cur.hi ** k
        try:
            isolated = count_real_roots_open(q, lo, hi) == 1
        except ValueError:  # an end is a root of q
            isolated = False
        if isolated:
            return AlgebraicReal(q, lo, hi).refined(DEFAULT_WIDTH)
        cur = cur.refined((cur.hi - cur.lo) / 4)
    raise InternalInconsistencyError("algebraic_power failed to isolate")
