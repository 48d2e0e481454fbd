"""Brute-force ground truth for the combinatorial syzygy pipeline.

Modules are realized as explicit matrix representations over two prime
fields; syzygies are computed literally (radical, top, projective cover,
kernel) with dense mod-p linear algebra. Dimension counts of monomial
incidence structures are field independent, so the two primes must agree;
a disagreement signals a rank drop and aborts the run.

Non-monomial algebras enter through an explicit multiplication table on a
fixed basis (products of basis elements are basis elements or zero). The one
built-in table, id "xyz-local", is the five-dimensional local commutative
algebra with basis 1, x, y, z, xy and relations x^2 = y^2 = z^2 = xz = yz = 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MonomialAlgebra
from .errors import (
    DimensionCapExceededError,
    InternalInconsistencyError,
    PrimeDisagreementError,
    ValidationError,
)
from .syzygy import (
    ModuleExpr,
    build_syzygy_quiver,
    key_basis,
    quiver_dim_sequence,
)

PRIMES = (32749, 65521)
DEFAULT_DIM_CAP = 200_000


def _dim_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get("SYZCX_DIM_CAP", DEFAULT_DIM_CAP)
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"SYZCX_DIM_CAP must be an integer, got {raw!r}"
        ) from None


# -- dense linear algebra mod p ------------------------------------------------
#
# Entries live in [0, p) with p < 2^16. Matrix products are routed through
# float64 (exact for integers below 2^53, and BLAS-backed, unlike numpy's
# int64 matmul); a product of reduced matrices with inner dimension k stays
# below k * (p-1)^2, so exactness holds for k up to ~2 * 10^6 — far beyond
# the dimension cap.

_FLOAT_EXACT = 2 ** 53


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for matrices already reduced mod p."""
    k = a.shape[1]
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if k * (p - 1) * (p - 1) < _FLOAT_EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    return (a @ b) % p


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p). Returns the nonzero rows and the
    pivot column indices."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _kernel_from_rref(r: np.ndarray, pivots: list[int], cols: int,
                      p: int) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis read off an rref, plus the free-coordinate rows. The
    free rows of the basis form an identity block, so coordinates with
    respect to the basis can be read off a vector at those rows."""
    in_piv = np.zeros(cols, dtype=bool)
    piv = np.array(pivots, dtype=np.int64)
    if piv.size:
        in_piv[piv] = True
    free = np.nonzero(~in_piv)[0]
    out = np.zeros((cols, free.size), dtype=np.int64)
    out[free, np.arange(free.size)] = 1
    if piv.size and free.size:
        out[piv, :] = (-r[:, free]) % p
    return out, free


def _nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning {x : mat @ x = 0} over GF(p)."""
    r, pivots = _rref(mat, p)
    return _kernel_from_rref(r, pivots, mat.shape[1], p)[0]


def _coords_in_kernel(basis: np.ndarray, free: np.ndarray, targets: np.ndarray,
                      p: int) -> np.ndarray:
    """Coordinates X with basis @ X = targets, where basis came from
    _kernel_from_rref with free rows `free`. Membership is verified on
    random probe vectors (seeded, so runs are reproducible): a target
    outside the span survives one probe with probability 1/p, both with
    probability 1/p^2, and the whole computation is repeated at a second
    prime anyway. The full product basis @ X is quadratically more
    expensive and is skipped."""
    x = targets[free, :] % p
    ncols = x.shape[1]
    if ncols and basis.size:
        rng = np.random.default_rng(0xC0FFEE)
        probes = rng.integers(0, p, size=(ncols, 2), dtype=np.int64)
        lhs = _matmul_mod(basis, _matmul_mod(x, probes, p), p)
        rhs = _matmul_mod(targets % p, probes, p)
        bad = (lhs - rhs) % p
    elif ncols:
        bad = targets % p
    else:
        bad = x
    if np.any(bad):
        raise InternalInconsistencyError(
            "a syzygy vector left the kernel span; representation bookkeeping"
            " is inconsistent"
        )
    return x


def _complement_columns(span_cols: np.ndarray, dim: int, p: int) -> np.ndarray:
    """Identity columns completing the column span of `span_cols` to GF(p)^dim."""
    _, pivots = _rref(span_cols.T, p)
    in_piv = np.zeros(dim, dtype=bool)
    if pivots:
        in_piv[np.array(pivots)] = True
    free = np.nonzero(~in_piv)[0]
    out = np.zeros((dim, free.size), dtype=np.int64)
    out[free, np.arange(free.size)] = 1
    return out


# -- representations of monomial algebras --------------------------------------

@dataclass
class MonoRepresentation:
    """Explicit module over a monomial algebra: a GF(p) space per vertex and
    a matrix per arrow (target space x source space). The action of a path is
    the ordered product of its arrow matrices. An arrow whose action is the
    zero map stores None instead of a dense zero block, so that semisimple
    modules (every arrow acting by zero) cost nothing to multiply."""

    algebra: MonomialAlgebra
    p: int
    dims: dict[str, int]
    mats: dict[str, np.ndarray | None]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def is_semisimple(self) -> bool:
        return all(m is None for m in self.mats.values())

    def mat(self, name: str) -> np.ndarray:
        """The arrow's matrix, materialized densely even when zero."""
        m = self.mats[name]
        if m is not None:
            return m
        a = self.algebra.quiver.arrow_by_name[name]
        return np.zeros((self.dims[a.target], self.dims[a.source]),
                        dtype=np.int64)

    def path_action(self, arrow_names, vecs: np.ndarray) -> np.ndarray:
        out = vecs % self.p
        for name in arrow_names:
            m = self.mats[name]
            if m is None:
                end = self.algebra.quiver.arrow_by_name[arrow_names[-1]].target
                return np.zeros((self.dims[end], out.shape[1]), dtype=np.int64)
            out = _matmul_mod(m, out, self.p)
        return out

    def check_relations(self):
        for rel in self.algebra.relations:
            src = rel.source
            m = np.eye(self.dims[src], dtype=np.int64)
            m = self.path_action(rel.arrows, m)
            if m.size and np.any(m % self.p):
                raise InternalInconsistencyError(
                    f"relation {rel.literal()} does not vanish on the module"
                )

    def syzygy(self) -> "MonoRepresentation":
        return syzygy_rep(self)


def rep_of(M: ModuleExpr, A: MonomialAlgebra, p: int) -> MonoRepresentation:
    """Representation of a module expression: one basis vector per path in
    each summand's key basis, graded by the path's endpoint; arrows act by
    path extension inside the basis, zero when the extension leaves it."""
    entries: list[tuple[int, frozenset, object]] = []
    for tid, (key, mult) in enumerate(M.terms):
        basis = key_basis(key, A)
        allowed = frozenset(q.arrows for q in basis)
        for copy in range(mult):
            for q in basis:
                entries.append(((tid, copy), allowed, q))

    dims = {v: 0 for v in A.quiver.vertices}
    index: dict[tuple, int] = {}
    for owner, _, q in entries:
        index[(owner, q.arrows)] = dims[q.target]
        dims[q.target] += 1

    mats: dict[str, np.ndarray | None] = {
        a.name: np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for a in A.quiver.arrows
    }
    for owner, allowed, q in entries:
        for a in A.quiver.arrows_from(q.target):
            ext = q.arrows + (a.name,)
            if ext in allowed:
                mats[a.name][index[(owner, ext)], index[(owner, q.arrows)]] = 1
    mats = {name: (m if m is not None and m.any() else None)
            for name, m in mats.items()}
    rep = MonoRepresentation(A, p, dims, mats)
    rep.check_relations()
    return rep


def _semisimple_syzygy(R: MonoRepresentation) -> MonoRepresentation:
    """Syzygy of a module on which every arrow acts by zero.

    Such a module is a direct sum of simples, its radical is zero, and its
    projective cover is P = (+) P(w)^dims[w] mapping each generator to a
    basis vector. The kernel is exactly rad P, whose basis is the positive
    paths of the cover's path basis, and an arrow acts on that basis by
    extend-or-die. No linear algebra is needed."""
    A, p = R.algebra, R.p
    Q = A.quiver

    new_dims = {v: 0 for v in Q.vertices}
    kbase: dict[tuple, int] = {}
    for w in Q.vertices:
        d = R.dims[w]
        if d == 0:
            continue
        for q in A.paths_from(w):
            if not q.arrows:
                continue
            kbase[(w, q.arrows)] = new_dims[q.target]
            new_dims[q.target] += d

    new_mats: dict[str, np.ndarray | None] = {}
    for a in Q.arrows:
        pairs: list[tuple[int, int, int]] = []
        for (w, arrs), j0 in kbase.items():
            if Q.arrow_by_name[arrs[-1]].target != a.source:
                continue
            j2 = kbase.get((w, arrs + (a.name,)))
            if j2 is not None:
                pairs.append((j2, j0, R.dims[w]))
        if not pairs:
            new_mats[a.name] = None
            continue
        m = np.zeros((new_dims[a.target], new_dims[a.source]), dtype=np.int64)
        for j2, j0, d in pairs:
            m[np.arange(j2, j2 + d), np.arange(j0, j0 + d)] = 1
        new_mats[a.name] = m
    return MonoRepresentation(A, p, new_dims, new_mats)


def syzygy_rep(R: MonoRepresentation) -> MonoRepresentation:
    """Kernel of a projective cover of R, as a representation.

    top R = R / (sum of arrow images); the cover stacks one projective per
    lifted top vector; the kernel is read off per vertex and the arrow action
    is re-expressed in kernel coordinates. The projective left action of an
    arrow permutes the path basis (extend or die), so it is applied as a row
    scatter rather than a matrix product. Semisimple input short-circuits to
    the combinatorial rad P description."""
    A, p = R.algebra, R.p
    Q = A.quiver

    if R.is_semisimple:
        return _semisimple_syzygy(R)

    arrows_into: dict[str, list] = {v: [] for v in Q.vertices}
    for a in Q.arrows:
        arrows_into[a.target].append(a)

    lifts: dict[str, np.ndarray] = {}
    for w in Q.vertices:
        cols = [R.mats[a.name] for a in arrows_into[w]
                if R.mats[a.name] is not None]
        if cols:
            rad = np.concatenate(cols, axis=1)
        else:
            rad = np.zeros((R.dims[w], 0), dtype=np.int64)
        lifts[w] = _complement_columns(rad, R.dims[w], p)

    # Projective cover basis: (generator vertex w, copy c, path q from w),
    # graded by the endpoint of q. Copies are contiguous: the column of
    # (w, c, q) is base(w, q) + c.
    pdims = {v: 0 for v in Q.vertices}
    pbase: dict[tuple, int] = {}
    for w in Q.vertices:
        ncopies = lifts[w].shape[1]
        if ncopies == 0:
            continue
        for q in A.paths_from(w):
            pbase[(w, q.arrows)] = pdims[q.target]
            pdims[q.target] += ncopies

    # Cover map: column block of (w, *, q) at vertex t(q) is (action of q
    # applied to all lifted top vectors of w), built by extending along the
    # path tree.
    cover: dict[str, np.ndarray] = {
        u: np.zeros((R.dims[u], pdims[u]), dtype=np.int64) for u in Q.vertices
    }
    for w in Q.vertices:
        ncopies = lifts[w].shape[1]
        if ncopies == 0:
            continue
        blocks: dict[tuple, np.ndarray | None] = {(): lifts[w]}
        for q in A.paths_from(w):
            if q.arrows:
                parent = blocks[q.arrows[:-1]]
                last = R.mats[q.arrows[-1]]
                if parent is None or last is None:
                    blocks[q.arrows] = None
                else:
                    blocks[q.arrows] = _matmul_mod(last, parent, p)
            blk = blocks[q.arrows]
            if blk is None:
                continue
            j0 = pbase[(w, q.arrows)]
            cover[q.target][:, j0:j0 + ncopies] = blk

    kernels: dict[str, np.ndarray] = {}
    frees: dict[str, np.ndarray] = {}
    for u in Q.vertices:
        r, pivots = _rref(cover[u], p)
        if len(pivots) != R.dims[u]:
            raise InternalInconsistencyError(
                f"projective cover is not surjective at vertex {u}"
            )
        kernels[u], frees[u] = _kernel_from_rref(r, pivots, pdims[u], p)

    # Row scatter describing the arrow action on the cover: column (w, c, q)
    # maps to (w, c, q.a) when q.a is still a nonzero path, else to zero.
    new_dims = {u: kernels[u].shape[1] for u in Q.vertices}
    new_mats: dict[str, np.ndarray | None] = {}
    for a in Q.arrows:
        u, u2 = a.source, a.target
        src_rows: list[np.ndarray] = []
        dst_rows: list[np.ndarray] = []
        for (w, arrs), j0 in pbase.items():
            q_target = Q.arrow_by_name[arrs[-1]].target if arrs else w
            if q_target != u:
                continue
            j2 = pbase.get((w, arrs + (a.name,)))
            if j2 is None:
                continue
            ncopies = lifts[w].shape[1]
            src_rows.append(np.arange(j0, j0 + ncopies))
            dst_rows.append(np.arange(j2, j2 + ncopies))
        moved = np.zeros((pdims[u2], new_dims[u]), dtype=np.int64)
        if src_rows:
            src = np.concatenate(src_rows)
            dst = np.concatenate(dst_rows)
            moved[dst, :] = kernels[u][src, :]
        coords = _coords_in_kernel(kernels[u2], frees[u2], moved, p)
        new_mats[a.name] = coords if coords.any() else None
    return MonoRepresentation(A, p, new_dims, new_mats)


# -- multiplication tables ------------------------------------------------------

@dataclass(frozen=True)
class AlgebraTable:
    """Finite-dimensional algebra given by a basis-multiplicative table:
    the product of two basis elements is a basis element or zero
    (table entry -1). Only local tables (a single idempotent that is a
    two-sided identity) are supported."""

    name: str
    basis: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    idempotents: tuple[int, ...]

    def product(self, i: int, j: int) -> int:
        return self.table[i][j]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def check(self):
        n = self.dim
        if len(self.idempotents) != 1:
            raise ValidationError("only local multiplication tables are supported")
        e = self.idempotents[0]
        if self.product(e, e) != e:
            raise ValidationError("the idempotent is not idempotent")
        for i in range(n):
            if self.product(e, i) != i or self.product(i, e) != i:
                raise ValidationError("the idempotent is not a two-sided identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ij = self.product(i, j)
                    jk = self.product(j, k)
                    left = self.product(ij, k) if ij >= 0 else -1
                    right = self.product(i, jk) if jk >= 0 else -1
                    if left != right:
                        raise ValidationError(
                            f"table is not associative at "
                            f"({self.basis[i]}, {self.basis[j]}, {self.basis[k]})"
                        )
        for i in range(n):
            if i == e:
                continue
            power = i
            for _ in range(n + 1):
                if power == -1:
                    break
                power = self.product(power, i)
            if power != -1:
                raise ValidationError(
                    f"basis element {self.basis[i]} is not nilpotent"
                )

    @property
    def radical_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if i not in self.idempotents)


@lru_cache(maxsize=None)
def xyz_local_table() -> AlgebraTable:
    """k[X,Y,Z] / (X^2, Y^2, Z^2, XZ, YZ): basis 1, x, y, z, xy."""
    basis = ("1", "x", "y", "z", "xy")
    n = len(basis)
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = i
        t[i][0] = i
    t[1][2] = t[2][1] = 4  # x*y = y*x = xy
    table = AlgebraTable("xyz-local", basis, tuple(tuple(r) for r in t), (0,))
    table.check()
    return table


BUILTIN_TABLE_IDS = ("xyz-local",)


def builtin_table(table_id: str) -> AlgebraTable:
    if table_id == "xyz-local":
        return xyz_local_table()
    raise ValidationError(
        f"unknown builtin table {table_id!r} (available: "
        + ", ".join(BUILTIN_TABLE_IDS) + ")"
    )


@dataclass
class TableRepresentation:
    """Module over a table algebra: one GF(p) space plus the action matrix of
    each basis element (action of u takes m to m*u; composing actions follows
    the same traversal order as path composition)."""

    table: AlgebraTable
    p: int
    mats: dict[int, np.ndarray]

    @property
    def total_dim(self) -> int:
        e = self.table.idempotents[0]
        return self.mats[e].shape[0]

    def syzygy(self) -> "TableRepresentation":
        t, p = self.table, self.p
        dim = self.total_dim
        rad_cols = [self.mats[i] for i in t.radical_indices]
        if rad_cols:
            rad = np.concatenate(rad_cols, axis=1)
        else:
            rad = np.zeros((dim, 0), dtype=np.int64)
        lifts = _complement_columns(rad, dim, p)
        tdim = lifts.shape[1]
        nb = t.dim
        # cover = free module of rank tdim, basis (copy c, table basis j),
        # column index c * nb + j
        cover = np.zeros((dim, tdim * nb), dtype=np.int64)
        for j in range(nb):
            cover[:, j::nb] = _matmul_mod(self.mats[j], lifts, p)
        r, pivots = _rref(cover, p)
        if len(pivots) != dim:
            raise InternalInconsistencyError("projective cover is not surjective")
        kernel, free = _kernel_from_rref(r, pivots, tdim * nb, p)
        # Right multiplication by basis element u sends cover basis (c, j) to
        # (c, j*u) or zero; apply as a row scatter with accumulation (distinct
        # j may collide on the same product).
        copies = np.arange(tdim) * nb
        new_mats: dict[int, np.ndarray] = {}
        for u in range(nb):
            moved = np.zeros((tdim * nb, kernel.shape[1]), dtype=np.int64)
            for j in range(nb):
                ju = t.product(j, u)
                if ju >= 0:
                    np.add.at(moved, copies + ju, kernel[copies + j, :])
            moved %= p
            new_mats[u] = _coords_in_kernel(kernel, free, moved, p)
        return TableRepresentation(t, p, new_mats)


def table_rep(table: AlgebraTable, module_name: str, p: int) -> TableRepresentation:
    """Built-in table modules: "k" (the unique simple) and "regular" (the
    algebra as a module over itself)."""
    nb = table.dim
    if module_name == "k":
        mats = {i: np.zeros((1, 1), dtype=np.int64) for i in range(nb)}
        mats[table.idempotents[0]] = np.ones((1, 1), dtype=np.int64)
        return TableRepresentation(table, p, mats)
    if module_name == "regular":
        mats = {}
        for u in range(nb):
            m = np.zeros((nb, nb), dtype=np.int64)
            for j in range(nb):
                ju = table.product(j, u)
                if ju >= 0:
                    m[ju, j] = 1
            mats[u] = m
        return TableRepresentation(table, p, mats)
    raise ValidationError(
        f"unknown table module {module_name!r} (available: k, regular)"
    )


def xyz_local_expected_dims(N: int) -> list[int]:
    """Dimension sequence of the iterated syzygies of the simple over
    xyz-local, by pure bookkeeping: the n-th syzygy of B_n (dim 2n+1, with
    B_0 = k) is B_{n+1} plus n+1 copies of k, so iterating the decomposition
    gives the dimensions without any linear algebra."""
    counts = {0: 1}
    out = []
    for _ in range(N + 1):
        out.append(sum(c * (2 * n + 1) for n, c in counts.items()))
        nxt: dict[int, int] = {}
        for n, c in counts.items():
            nxt[n + 1] = nxt.get(n + 1, 0) + c
            nxt[0] = nxt.get(0, 0) + c * (n + 1)
        counts = nxt
    return out


# -- sequences and crosschecking -----------------------------------------------

def dim_sequence(R, N: int, cap: int | None = None) -> list[int]:
    """[dim R, dim syzygy(R), ..., dim syzygy^N(R)]. Refuses to take the
    syzygy of a representation larger than the cap (default 200000, override
    with the cap argument or SYZCX_DIM_CAP); the partial list rides on the
    error."""
    if N < 0:
        raise ValueError("N must be >= 0")
    limit = _dim_cap(cap)
    dims = [R.total_dim]
    cur = R
    for _ in range(N):
        if cur.total_dim > limit:
            raise DimensionCapExceededError(
                f"representation dimension {cur.total_dim} exceeds the cap "
                f"{limit}", dims=dims,
            )
        cur = cur.syzygy()
        dims.append(cur.total_dim)
    return dims


@dataclass(frozen=True)
class CrosscheckReport:
    dims_quiver: tuple[int, ...]
    dims_oracle: tuple[int, ...]
    agree: bool
    first_mismatch: int | None

    def to_json(self) -> dict:
        return {
            "quiver": list(self.dims_quiver),
            "oracle": list(self.dims_oracle),
            "agree": self.agree,
            "first_mismatch": self.first_mismatch,
        }


def agreed_dim_sequence(rep_at, N: int, primes=PRIMES,
                        cap: int | None = None) -> list[int]:
    """dim_sequence of the representation rep_at(p) at every prime; the
    sequences must agree, since a disagreement is a rank drop mod p."""
    sequences = [dim_sequence(rep_at(p), N, cap) for p in primes]
    for other in sequences[1:]:
        if other != sequences[0]:
            i = next(i for i, (a, b) in enumerate(zip(sequences[0], other)) if a != b)
            raise PrimeDisagreementError(
                f"oracle dimension sequences differ between primes at n={i}; "
                "rank drop mod p, retry with larger primes"
            )
    return sequences[0]


def crosscheck(A: MonomialAlgebra, M: ModuleExpr, N: int,
               primes=PRIMES, cap: int | None = None) -> CrosscheckReport:
    """dim of every syzygy up to N, two ways: oracle iteration over two
    primes (which must agree with each other) versus weighted path counts on
    the syzygy quiver. Reports the first discrepancy, if any."""
    oracle_dims = agreed_dim_sequence(lambda p: rep_of(M, A, p), N, primes, cap)
    quiver_dims = quiver_dim_sequence(build_syzygy_quiver(M, A), N)
    mismatch = next(
        (i for i, (a, b) in enumerate(zip(quiver_dims, oracle_dims)) if a != b),
        None,
    )
    return CrosscheckReport(
        tuple(quiver_dims), tuple(oracle_dims), mismatch is None, mismatch
    )
