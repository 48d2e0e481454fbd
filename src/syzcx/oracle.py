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

Both kinds of algebra compile to a GradedTable (a monomial algebra through
its nonzero paths), and one syzygy step, syzygy_rep, serves every
representation.
"""

from __future__ import annotations

import os
import weakref
from functools import cached_property, lru_cache
from typing import NamedTuple

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


def _dim_cap() -> int:
    raw = os.environ.get("SYZCX_DIM_CAP", DEFAULT_DIM_CAP)
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"SYZCX_DIM_CAP must be an integer, got {raw!r}"
        ) from None


# -- dense linear algebra mod p ------------------------------------------------
#
# Every matrix the oracle keeps holds residues in [0, p) as np.uint16, which
# fits both primes (p < 2^16) at a quarter of int64's size. Values are widened
# only inside a kernel: _matmul_mod multiplies in float64 (exact for integers
# below 2^53, and BLAS-backed, unlike numpy's integer matmul), _rref
# eliminates on an int64 working copy (none when singleton pivots cover every
# row), and colliding table products add up in uint32; only the seeded probes
# are kept as float64. Residues are compared with != and negated as p - x; a
# uint16 difference wraps modulo 2^16, not modulo p.
#
# _rref promises only that r[:, pivots] is the identity; the kernel, the
# complement and the surjectivity check need nothing more. So it can take
# every singleton column of a cover (most columns of a monomial one) as a
# pivot at once, since such a pivot has nothing to eliminate.
#
# A step pays for the module's nonzero spaces, not the table: no elimination
# of an empty matrix, no loop for a one-slab product, no probe without pivots,
# no product with unit vectors (a lift is a list of coordinates, selected).

_FLOAT_EXACT = 2 ** 53
_SLAB = 1 << 21  # entries of `a` widened to float64 at a time (16 MB)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as uint16, for matrices of residues in [0, p). The inner
    dimension is cut into slabs of `step` indices, whose float64 products
    stay below step * (p-1)^2, so adding a residue keeps every sum below
    2^53 and exact; at the dimension cap there is one slab. Rows of `a` are
    widened a slab of about _SLAB entries at a time, so the float64 copy of
    a large `a` never exists whole. An `a` within one slab skips the loop:
    most products are small, and there the loop's Python outweighs them."""
    step = (_FLOAT_EXACT - p) // ((p - 1) * (p - 1))
    if a.size <= _SLAB and a.shape[1] <= step:
        return np.fmod(a.astype(np.float64) @ b.astype(np.float64, copy=False),
                       p).astype(np.uint16)
    rows = max(1, _SLAB // max(1, a.shape[1]))
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint16)
    for k in range(0, a.shape[1], step):
        bk = b[k:k + step].astype(np.float64, copy=False)
        for i in range(0, a.shape[0], rows):
            acc = a[i:i + rows, k:k + step].astype(np.float64) @ bk
            acc += out[i:i + rows]
            out[i:i + rows] = np.fmod(acc, p)
    return out


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced form over GF(p) of a matrix of residues: rows r, as uint16,
    forming a basis of its row space, and pivot columns with r[:, pivots]
    the identity. Pivots are neither leftmost nor sorted.

    A singleton column (one nonzero entry) is a pivot that needs no
    elimination, since no other row has an entry to clear there. So every
    row holding one takes its leftmost singleton column as pivot, all at
    once: the row is scaled to make the pivot 1 and moved to the top. The
    singleton columns are then zero in the remaining rows, and the column
    loop runs on those alone, if any are left, on an int64 working copy,
    where a product of two residues stays exact. At column c, the remaining
    rows from the current one down are zero left of c, so the swap, the
    scaling and the update of every row hit by the pivot (the top rows
    included) touch only columns c onward, in place. An empty matrix returns
    at once."""
    rows, cols = mat.shape
    if not mat.size:
        return np.zeros((0, cols), dtype=np.uint16), []
    single = (np.count_nonzero(mat, axis=0) == 1).nonzero()[0]
    # The row of a singleton column is its argmax, as residues are >= 0.
    held, first = np.unique(mat.argmax(axis=0)[single], return_index=True)
    rest = np.ones(rows, dtype=bool)
    rest[held] = False
    a = mat[np.concatenate([held, rest.nonzero()[0]])]
    top = single[first]  # first occurrences in sorted `single`: leftmost
    r = top.size
    lead = a[np.arange(r), top]
    for i in (lead != 1).nonzero()[0]:
        a[i] = a[i].astype(np.int64) * pow(int(lead[i]), p - 2, p) % p
    pivots: list[int] = top.tolist()
    if r == rows:
        return a.astype(np.uint16, copy=False), pivots
    a = a.astype(np.int64)
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[:r].astype(np.uint16), pivots


def _non_pivots(pivots: list[int], cols: int) -> np.ndarray:
    """The coordinates of GF(p)^cols that are not pivots, in order."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return free.nonzero()[0]


def _kernel_from_rref(r: np.ndarray, pivots: list[int], cols: int,
                      p: int) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis (uint16) read off _rref's output, plus the
    free-coordinate rows: the basis vector of free coordinate f is e_f minus
    r[i, f] at pivots[i], which r maps to r[:, f] - r[:, f] = 0 since
    r[:, pivots] is the identity. The free rows of the basis form an
    identity block, so coordinates with respect to the basis can be read off
    a vector at those rows."""
    free = _non_pivots(pivots, cols)
    out = np.zeros((cols, free.size), dtype=np.uint16)
    out[free, np.arange(free.size)] = 1
    if pivots and free.size:
        out[pivots, :] = (p - r[:, free]) % p
    return out, free


def _split_rows(source: np.ndarray, blocks, free: np.ndarray, rows: int,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows x cols matrix that adds rows a..a+c of `source` into rows
    b..b+c, for each block (a, b, c), never built whole: returned as its
    rows at `free` and its other rows, both uint16 and in row order. A free
    row's slot is the number of free rows before it, so the free rows of a
    block fill one slice of the first part and its other rows one slice of
    the second. Two blocks hit the same rows or disjoint ones; the first
    block on its rows is copied, and a later one (a colliding table
    product) is added in uint32, where the sum stays exact."""
    is_free = np.zeros(rows, dtype=bool)
    is_free[free] = True
    before = [0] + np.cumsum(is_free).tolist()
    x = np.zeros((free.size, source.shape[1]), dtype=np.uint16)
    y = np.zeros((rows - free.size, source.shape[1]), dtype=np.uint16)
    seen = set()
    for a, b, c in blocks:
        f0, f1 = before[b], before[b + c]
        src, fresh = source[a:a + c], b not in seen
        seen.add(b)
        if 0 < f1 - f0 < c:
            keep = is_free[b:b + c]
            parts = ((x, f0, f1, src[keep]), (y, b - f0, b + c - f1, src[~keep]))
        else:
            parts = ((x, f0, f1, src), (y, b - f0, b + c - f1, src))
        for part, lo, hi, add in parts:
            if hi > lo:
                part[lo:hi] = (add if fresh else
                               (add.astype(np.uint32) + part[lo:hi]) % p)
    return x, y


_PROBES = {}  # prime -> probe rows, see _probes


def _probes(n: int, p: int) -> np.ndarray:
    """_coords_in_kernel's seeded probes for n coordinates mod p: the draw
    default_rng(0xC0FFEE).integers(0, p, size=(n, 2)), which is the first n
    rows of the same draw at any larger size. So one read-only float64 draw
    per prime serves every n, redrawn at twice its length when it is short."""
    if len(_PROBES.get(p, ())) < n:
        probes = np.random.default_rng(0xC0FFEE).integers(
            0, p, size=(max(n, 2 * len(_PROBES.get(p, ()))), 2))
        _PROBES[p] = probes.astype(np.float64)
        _PROBES[p].setflags(write=False)
    return _PROBES[p][:n]


def _coords_in_kernel(pivot_rows: np.ndarray, x: np.ndarray, y: np.ndarray,
                      p: int) -> np.ndarray:
    """Coordinates X with basis @ X = targets, where basis came from
    _kernel_from_rref, pivot_rows are its rows at the pivots in row order,
    and the uint16 residues `targets` are given as their free rows x and
    their other rows y, in order (see _split_rows). X is x, since the
    basis is the identity at the free rows; the same identity makes basis @ X
    agree with targets on the free rows, so membership is checked on y alone.
    It is checked on random probe vectors (seeded, so runs are
    reproducible): a target outside the span survives one probe with
    probability 1/p, both with probability 1/p^2, and the whole computation
    is repeated at a second prime anyway. The full product basis @ X is
    quadratically more expensive and is skipped, as is the product of a zero
    y. Without pivot rows y is empty and there is nothing to check; without
    a kernel, every target must be zero."""
    if not pivot_rows.shape[0]:
        return x
    if pivot_rows.shape[1] and x.shape[1]:
        probes = _probes(x.shape[1], p)
        lhs = _matmul_mod(pivot_rows, _matmul_mod(x, probes, p), p)
        bad = lhs != _matmul_mod(y, probes, p) if y.any() else lhs
    else:
        bad = y
    if np.any(bad):
        raise InternalInconsistencyError(
            "a syzygy vector left the kernel span; representation bookkeeping"
            " is inconsistent"
        )
    return x


def _complement_columns(span_cols: np.ndarray, dim: int, p: int) -> np.ndarray:
    """The coordinates whose unit vectors complete the column span of
    `span_cols` to GF(p)^dim: those that are not pivots of the span's rows.
    Restricted to the pivot coordinates, the rows of the reduced form are
    the identity and those unit vectors are zero, so together they are
    independent; any pivot set with that identity block serves."""
    return _non_pivots(_rref(span_cols.T, p)[1], dim)


# -- graded tables ----------------------------------------------------------------

class GradedTable:
    """An algebra on a multiplicative basis (a product of two basis elements
    is a basis element or zero), in the form the syzygy step reads.

    Every basis element j lies between two vertex idempotents, ends[j] =
    (source, target) as positions in `vertices`. The generators `gens` (basis
    indices) generate the radical. A non-idempotent j has a parent (j', k)
    with j = j' * gens[k], and parents come before their children; an
    idempotent has parent None. right[k][j] is j * gens[k], or -1 for zero.
    Modules are right modules: a generator from vertex s to vertex t maps the
    space at s to the space at t."""

    def __init__(self, basis: tuple[str, ...], vertices: tuple[str, ...],
                 ends: tuple[tuple[int, int], ...], gens: tuple[int, ...],
                 parent: tuple[tuple[int, int] | None, ...],
                 right: tuple[tuple[int, ...], ...]):
        self.basis = basis
        self.vertices = vertices
        self.ends = ends
        self.gens = gens
        self.parent = parent
        self.right = right

    @property
    def gen_names(self) -> list[str]:
        return [self.basis[g] for g in self.gens]

    @cached_property
    def products(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per generator k, the pairs (j, j * gens[k]) with a nonzero product."""
        return tuple(tuple((j, jg) for j, jg in enumerate(row) if jg >= 0)
                     for row in self.right)


_PATH_TABLES = weakref.WeakKeyDictionary()  # algebra -> its GradedTable


def compile_paths(A: MonomialAlgebra) -> GradedTable:
    """The nonzero paths of A as a graded table: the generators are the
    arrows, and the parent of a path is the path without its last arrow.
    The table is kept as long as A lives, since crosscheck and the CLI build
    one representation per prime of the same algebra, and callers interleave
    algebras. An algebra above the dimension cap is refused on every call,
    cached or not, and before any path is listed."""
    limit = _dim_cap()
    if A.dimension > limit:
        raise DimensionCapExceededError(
            f"algebra dimension {A.dimension} exceeds the cap {limit}")
    if A not in _PATH_TABLES:
        _PATH_TABLES[A] = _path_table(A)
    return _PATH_TABLES[A]


def _path_table(A: MonomialAlgebra) -> GradedTable:
    Q = A.quiver
    paths = tuple(A.paths_from())
    at = {(q.source, q.arrows): j for j, q in enumerate(paths)}
    return GradedTable(
        basis=tuple(q.literal() for q in paths),
        vertices=Q.vertices,
        ends=tuple((Q.vertex_index[q.source], Q.vertex_index[q.target])
                   for q in paths),
        gens=tuple(at[(a.source, (a.name,))] for a in Q.arrows),
        parent=tuple((at[(q.source, q.arrows[:-1])], Q.arrow_index[q.arrows[-1]])
                     if q.arrows else None for q in paths),
        right=tuple(tuple(at.get((q.source, q.arrows + (a.name,)), -1)
                          for q in paths) for a in Q.arrows),
    )


class AlgebraTable(NamedTuple):
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


def compile_table(t: AlgebraTable) -> GradedTable:
    """A local table as a graded table with one vertex. The generators are
    the radical elements that are not a product of two radical elements;
    the basis is renumbered in breadth-first order from the identity, so
    that parents come first."""
    rad = t.radical_indices
    products = {t.product(a, b) for a in rad for b in rad}
    gens = [i for i in rad if i not in products]
    order = [t.idempotents[0]]
    parent = {order[0]: None}
    for j in order:
        for k, g in enumerate(gens):
            jg = t.product(j, g)
            if jg >= 0 and jg not in parent:
                parent[jg] = (j, k)
                order.append(jg)
    if len(order) != t.dim:
        raise ValidationError("the radical generators do not span the table")
    pos = {j: i for i, j in enumerate(order)}
    return GradedTable(
        basis=tuple(t.basis[j] for j in order),
        vertices=(t.basis[order[0]],),
        ends=((0, 0),) * t.dim,
        gens=tuple(pos[g] for g in gens),
        parent=tuple(None if parent[j] is None
                     else (pos[parent[j][0]], parent[j][1]) for j in order),
        right=tuple(tuple(pos.get(t.product(j, g), -1) for j in order)
                    for g in gens),
    )


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


# -- representations and the syzygy step ------------------------------------------

def _along_parents(T: GradedTable, acts, p: int, starts) -> list:
    """For every basis element j, the action of j applied to the unit
    columns at the coordinates starts[source of j] (an index array or a
    slice; None where the source has none), built along the parent tree:
    j = j' * g acts as g after j', and as a column selection of g after an
    idempotent, which keeps its coordinates. None stands for zero."""
    out: list = []
    for j, par in enumerate(T.parent):
        if par is None:
            out.append(starts[T.ends[j][0]])
            continue
        prev, m = out[par[0]], acts[par[1]]
        out.append(None if prev is None or m is None
                   else m[:, prev] if T.parent[par[0]] is None
                   else _matmul_mod(m, prev, p))
    return out


def syzygy_rep(R: "TableRepresentation") -> "TableRepresentation":
    """Kernel of a projective cover of R, as a representation.

    At each vertex the top of R is a complement of the generator images. The
    cover stacks one projective e_w A per lifted top vector at w; its basis
    is (j, copy) for the basis elements j from w, graded by the target of j,
    and its map sends (j, copy) to the lift acted on by j. The kernel is read
    off one rref per vertex, and a generator g acts on the cover by j -> j*g,
    a row scatter accumulated over j because table products may collide. The
    scatter writes the free rows of the target kernel (the new action) and
    its pivot rows (read by the membership check) apart, so the dense image
    of the action is never built, and it reads the kernel's own pivot rows
    gathered once per vertex. The blocks come from the table's nonzero
    products, and a vertex where R is zero needs no elimination. A lift is
    the coordinates of its unit columns, which the cover sets by index.
    When every generator acts by zero, R is semisimple and the kernel is
    rad P, the cover basis without its idempotents: then no matrix beyond
    the new actions is built."""
    T, p = R.table, R.p
    dims = [R.dims[v] for v in T.vertices]
    acts = [R.mats[name] for name in T.gen_names]
    semisimple = R.is_semisimple
    if semisimple:
        copies = dims
    else:
        lifts = []
        for v, d in enumerate(dims):
            cols = [m for m, g in zip(acts, T.gens)
                    if m is not None and T.ends[g][1] == v]
            rad = (np.concatenate(cols, axis=1) if cols
                   else np.zeros((d, 0), dtype=np.uint16))
            lifts.append(_complement_columns(rad, d, p))
        copies = [lift.size for lift in lifts]

    # Cover basis, or rad P when semisimple: the copies of j are the rows
    # start[j] .. start[j] + copies[source of j] of the space at its target.
    start = [-1] * len(T.basis)
    pdims = [0] * len(dims)
    for j, (w, t) in enumerate(T.ends):
        if copies[w] and not (semisimple and T.parent[j] is None):
            start[j] = pdims[t]
            pdims[t] += copies[w]
    # Right multiplication by generator k: row blocks (from, to, length).
    blocks = [[(start[j], start[jg], copies[T.ends[j][0]])
               for j, jg in pairs if start[j] >= 0] for pairs in T.products]

    if semisimple:
        new_dims = pdims
    else:
        images = _along_parents(T, acts, p,
                                [lift if lift.size else None for lift in lifts])
        del lifts
        into = [[] for _ in dims]
        for j, (w, t) in enumerate(T.ends):
            if start[j] >= 0 and images[j] is not None:
                into[t].append(j)
        # One cover at a time: built from its images (dropped once copied),
        # eliminated, and dropped before the next vertex.
        kernels, frees, pivot_rows = [], [], []
        for v, (d, pd) in enumerate(zip(dims, pdims)):
            cover = np.zeros((d, pd), dtype=np.uint16)
            for j in into[v]:
                c = copies[T.ends[j][0]]
                if T.parent[j] is None:  # a lift: unit columns
                    cover[images[j], np.arange(start[j], start[j] + c)] = 1
                else:
                    cover[:, start[j]:start[j] + c] = images[j]
                images[j] = None
            r, pivots = _rref(cover, p)
            del cover
            if len(pivots) != d:
                raise InternalInconsistencyError(
                    f"projective cover is not surjective at vertex {T.vertices[v]}"
                )
            kernel, free = _kernel_from_rref(r, pivots, pd, p)
            del r
            kernels.append(kernel)
            frees.append(free)
            pivot_rows.append(kernel[sorted(pivots)])  # in row order, as y
        new_dims = [kernel.shape[1] for kernel in kernels]

    new_mats: list[np.ndarray | None] = []
    for k, g in enumerate(T.gens):
        s, t = T.ends[g]
        if not blocks[k]:
            new_mats.append(None)
            continue
        if semisimple:  # the kernel basis is the rad P basis itself
            m = np.zeros((pdims[t], new_dims[s]), dtype=np.uint16)
            for a, b, c in blocks[k]:
                np.fill_diagonal(m[b:b + c, a:a + c], 1)
        else:
            m = _coords_in_kernel(pivot_rows[t], *_split_rows(
                kernels[s], blocks[k], frees[t], pdims[t], p), p)
        new_mats.append(m if m.any() else None)
    return TableRepresentation(T, p, dict(zip(T.vertices, new_dims)),
                               dict(zip(T.gen_names, new_mats)))


class TableRepresentation:
    """Right module over a graded table: a GF(p) space per vertex and the
    matrix of each generator (target space x source space), stored as uint16
    residues in [0, p); the action of a basis element is the ordered product
    along its parent chain. A generator whose action is the zero map stores
    None instead of a dense zero block, so that semisimple modules cost
    nothing to multiply."""

    def __init__(self, table: GradedTable, p: int, dims: dict[str, int],
                 mats: dict[str, np.ndarray | None]):
        self.table = table
        self.p = p
        self.dims = dims
        self.mats = mats

    syzygy = syzygy_rep

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def is_semisimple(self) -> bool:
        return all(m is None for m in self.mats.values())

    def check_relations(self):
        """The action of j * g is the action of j followed by that of g, for
        every basis element j and generator g (zero where j * g is zero).
        The images start from each identity as a slice; no product reads one,
        as an idempotent j times g is g, whose parent is (j, k)."""
        T, p = self.table, self.p
        acts = [self.mats[name] for name in T.gen_names]
        images = _along_parents(T, acts, p, [slice(None)] * len(T.vertices))
        for k, g in enumerate(T.gens):
            for j, jg in enumerate(T.right[k]):
                if T.ends[j][1] != T.ends[g][0] or (
                        jg >= 0 and T.parent[jg] == (j, k)):
                    continue  # not composable, or true by construction
                lhs = (0 if acts[k] is None or images[j] is None
                       else _matmul_mod(acts[k], images[j], p))
                rhs = images[jg] if jg >= 0 and images[jg] is not None else 0
                if np.any(lhs != rhs):
                    raise InternalInconsistencyError(
                        f"{T.basis[j]} * {T.basis[g]} = "
                        f"{T.basis[jg] if jg >= 0 else 0} does not hold on the module"
                    )


def _span_rep(T: GradedTable, p: int, summands) -> TableRepresentation:
    """Direct sum of the modules spanned by each list of basis elements in
    `summands`: a generator sends j to j * g when that stays in j's
    summand, and to zero otherwise."""
    dims = [0] * len(T.vertices)
    row: dict[tuple[int, int], int] = {}
    for i, members in enumerate(summands):
        for j in members:
            t = T.ends[j][1]
            row[(i, j)] = dims[t]
            dims[t] += 1
    mats = [np.zeros((dims[T.ends[g][1]], dims[T.ends[g][0]]), dtype=np.uint16)
            for g in T.gens]
    for i, members in enumerate(summands):
        for j in members:
            for k, right in enumerate(T.right):
                to = row.get((i, right[j]))
                if to is not None:
                    mats[k][to, row[(i, j)]] = 1
    rep = TableRepresentation(
        T, p, dict(zip(T.vertices, dims)),
        {name: (m if m.any() else None) for name, m in zip(T.gen_names, mats)})
    rep.check_relations()
    return rep


def rep_of(M: ModuleExpr, A: MonomialAlgebra, p: int) -> TableRepresentation:
    """Representation of a module expression: one basis vector per path in
    each summand's key basis, graded by the path's endpoint; arrows act by
    path extension inside the basis, zero when the extension leaves it."""
    T = compile_paths(A)
    at = {name: j for j, name in enumerate(T.basis)}
    summands = []
    for key, mult in M.terms:
        summands += [[at[q.literal()] for q in key_basis(key, A)]] * mult
    return _span_rep(T, p, summands)


def table_rep(table: AlgebraTable, module_name: str, p: int) -> TableRepresentation:
    """Built-in table modules: "k" (the unique simple) and "regular" (the
    algebra as a module over itself)."""
    T = compile_table(table)
    if module_name == "k":
        return _span_rep(T, p, [[0]])
    if module_name == "regular":
        return _span_rep(T, p, [range(len(T.basis))])
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

def dim_sequence(R, N: int) -> list[int]:
    """[dim R, dim syzygy(R), ..., dim syzygy^N(R)]. Refuses to take the
    syzygy of a representation larger than the cap (default 200000, set only
    through the environment variable SYZCX_DIM_CAP), and reports a step that
    runs out of memory the same way; the partial list rides on the error and
    is named in its message."""
    if N < 0:
        raise ValueError("N must be >= 0")
    limit = _dim_cap()
    dims = [R.total_dim]
    cur = R
    for _ in range(N):
        if cur.total_dim > limit:
            raise DimensionCapExceededError(
                f"representation dimension {cur.total_dim} exceeds the cap "
                f"{limit}; dimensions so far {dims}", dims=dims,
            )
        try:
            cur = cur.syzygy()
        except MemoryError:
            raise DimensionCapExceededError(
                f"out of memory taking the syzygy of a representation of "
                f"dimension {cur.total_dim}; dimensions so far {dims}",
                dims=dims,
            ) from None
        dims.append(cur.total_dim)
    return dims


class CrosscheckReport(NamedTuple):
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


def agreed_dim_sequence(rep_at, N: int) -> list[int]:
    """dim_sequence of the representation rep_at(p) at every prime of
    PRIMES; the sequences must agree, since a disagreement is a rank drop
    mod p."""
    sequences = [dim_sequence(rep_at(p), N) for p in PRIMES]
    for other in sequences[1:]:
        if other != sequences[0]:
            i = next(i for i, (a, b) in enumerate(zip(sequences[0], other)) if a != b)
            raise PrimeDisagreementError(
                f"oracle dimension sequences differ between primes at n={i}; "
                "rank drop mod p, retry with larger primes"
            )
    return sequences[0]


def crosscheck(A: MonomialAlgebra, M: ModuleExpr, N: int) -> CrosscheckReport:
    """dim of every syzygy up to N, two ways: oracle iteration over two
    primes (which must agree with each other) versus weighted path counts on
    the syzygy quiver. Reports the first discrepancy, if any."""
    oracle_dims = agreed_dim_sequence(lambda p: rep_of(M, A, p), N)
    quiver_dims = quiver_dim_sequence(build_syzygy_quiver(M, A), N)
    mismatch = next(
        (i for i, (a, b) in enumerate(zip(quiver_dims, oracle_dims)) if a != b),
        None,
    )
    return CrosscheckReport(
        tuple(quiver_dims), tuple(oracle_dims), mismatch is None, mismatch
    )
