"""Brute-force ground truth for the combinatorial syzygy pipeline.

Modules are realized as explicit matrix representations over two prime
fields; syzygies are computed literally (radical, top, projective cover,
kernel) with exact sparse mod-p linear algebra on Python ints, and each
action is stored as sparse columns, one per source coordinate. Dimension
counts of monomial incidence structures are field independent, so the two
primes must agree; a disagreement signals a rank drop and aborts the run.

Non-monomial algebras enter through an explicit multiplication table on a
fixed basis (products of basis elements are basis elements or zero). The one
built-in table, id "xyz-local", is the five-dimensional local commutative
algebra with basis 1, x, y, z, xy and relations x^2 = y^2 = z^2 = xz = yz = 0.

Both kinds of algebra compile to a GradedTable (a monomial algebra through
its nonzero paths), and one syzygy step, syzygy_rep, serves every
representation.

A representation (TableRepresentation) is a value that holds only its
support: its dimension where nonzero and its nonzero generator actions.
Dimension sequences (dim_sequence) rest on the syzygy of a direct sum being
the direct sum of the syzygies: a module is kept as a multiset of its
coordinate blocks (the classes of coordinates that nonzero action entries
link) in canonical form, each numbered once by its table, stepped once per
table and prime with syzygy_rep and split again. Over a monomial algebra
every syzygy is a direct sum of small cyclic modules (Zimmermann Huisgen,
Manuscripta Math. 70, 1991), so the modules of one algebra keep meeting the
same few small blocks, and no syzygy that splits is materialized whole.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import count, filterfalse, zip_longest
from typing import NamedTuple

import numpy as np

from .algebra import MonomialAlgebra
from .errors import (
    DimensionCapExceededError,
    InternalInconsistencyError,
    PrimeDisagreementError,
    ValidationError,
)
from .syzygy import (ModuleExpr, build_syzygy_quiver, expr_dimension,
                     quiver_dim_sequence)

PRIMES = (32749, 65521)
DEFAULT_DIM_CAP = 200_000


def _dim_cap() -> int:
    raw = os.environ.get("SYZCX_DIM_CAP", DEFAULT_DIM_CAP)
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise ValidationError(
            f"SYZCX_DIM_CAP must be a nonnegative integer, got {raw!r}")
    return cap


# -- sparse linear algebra mod p -----------------------------------------------
#
# The matrices of a syzygy step are almost all zeros, about one nonzero per
# column, and elimination adds no fill. So a step works on sparse vectors of
# Python ints: a column or a row is a sequence of (index, residue) pairs
# with no zero residue, and None stands for a zero image. Each generator
# that acts by a nonzero map stores one column per source coordinate, () for
# a zero column; the images along the parent tree are built column by
# column (_act); the top and each cover are eliminated as rows (_rref); each
# kernel keeps only its pivot rows, a free row being read as a unit row, so
# that a generator's new action is a scatter of the kernel rows it touches,
# whose free rows are regrouped into its columns, and the scattered rows are
# checked to lie in the target kernel exactly (_in_kernel). No step
# allocates a dense matrix.
#
# A step pays for its module's support, not the table. Through the table's
# indexes it walks only the vertices where the module is nonzero and the
# basis elements from those with lifted top vectors; it eliminates nothing
# where the module is zero and no top where the images are zero, scatters no
# generator without blocks and multiplies no unit vector (a generator applied
# to a lift, a list of coordinates, selects columns). Its scratch is keyed by
# that support.


def _act(gcols: tuple, image: list, p: int) -> list:
    """A generator, given by its sparse columns, one per source coordinate,
    applied to every column of an image. A column with one entry, the common
    case, selects a column of the generator, scaled; others add up in a
    dict."""
    out = []
    for col in image:
        if len(col) == 1:
            (r, v), = col
            out.append(gcols[r] if v == 1 else
                       [(i, x * v % p) for i, x in gcols[r]])
            continue
        acc = {}
        for r, v in col:
            _add(acc, v, gcols[r], p)
        out.append(list(acc.items()))
    return out


def _rref(rows: list, cols: int, p: int) -> dict[int, dict[int, int]]:
    """Reduced form over GF(p) of the matrix with the given sparse rows, as
    {pivot column: the row's entries at the non-pivot columns}: each row is
    1 at its own pivot and 0 at every other one. The pivots are those of
    the dense rule, so the kernel read off them keeps its bytes: first,
    each row that holds a singleton column (one nonzero entry) pivots on
    its leftmost one, which needs no elimination, as no other row has an
    entry there; then, column by column, the first remaining row with a
    nonzero entry. That second set is the set of leading columns of the
    remaining rows' span, whatever the order of elimination; so the
    remaining rows are reduced one at a time against the leading columns
    found so far, and then every row, the singleton ones included, loses
    its entries at the other pivots, from the last leading column back."""
    count = [0] * cols
    for row in rows:
        for c, _ in row:
            count[c] += 1
    red, held = {}, []
    for row in rows:
        s = -1
        for c, x in row:
            if count[c] == 1 and (s < 0 or c < s):
                s, xs = c, x
        if s >= 0:
            held.append((s, xs, row))
            continue
        v = dict(row)
        while v:
            lead = min(v)
            if lead not in red:
                inv = pow(v.pop(lead), p - 2, p)
                red[lead] = {c: x * inv % p for c, x in v.items()}
                break
            _add(v, p - v.pop(lead), red[lead].items(), p)
    for lead in sorted(red, reverse=True):
        b = red[lead]
        for c in [c for c in b if c in red]:
            _add(b, p - b.pop(c), red[c].items(), p)
    for s, x, row in held:
        if len(row) == 1:
            red[s] = {}
            continue
        inv = pow(x, p - 2, p)
        v = red[s] = {c: y * inv % p for c, y in row if c != s}
        for c in [c for c in v if c in red]:
            _add(v, p - v.pop(c), red[c].items(), p)
    return red


def _add(v: dict, f: int, pairs, p: int):
    """v += f * w over GF(p), in place, for the sparse vector w given by
    its (index, residue) pairs and a residue f != 0; zeros are dropped, so
    v holds no zero either."""
    for c, x in pairs:
        y = (v.get(c, 0) + f * x) % p
        if y:
            v[c] = y
        else:
            del v[c]


def _in_kernel(image: dict, kernel: tuple, p: int):
    """Check that the vectors with rows `image` (target row -> sparse row,
    absent for zero) lie in the span of a kernel (pos, pivots) (syzygy_rep),
    whose free rows are the identity: their coordinates are then their rows
    at the free rows c, x at pos[c], and at every pivot row q, in order,
    the vectors must equal sum_f x_f * pivots[q][f] mod p, exactly."""
    pos, pivots = kernel
    x = {pos[c]: e for c, e in image.items() if c in pos} if pivots else {}
    for q, row in pivots.items():
        if not row and not image.get(q):
            continue
        want = {}
        for f, w in row:
            _add(want, w, x.get(f, ()), p)
        if want != dict(image.get(q, ())):
            raise InternalInconsistencyError(
                "a syzygy vector left the kernel span; representation"
                " bookkeeping is inconsistent"
            )


# -- graded tables ----------------------------------------------------------------

class GradedTable:
    """An algebra on a multiplicative basis (a product of two basis elements
    is a basis element or zero), in the form the syzygy step reads.

    Every basis element j lies between two vertex idempotents, ends[j] =
    (source, target) as positions in `vertices`. The generators `gens` (basis
    indices) generate the radical. A non-idempotent j has a parent (j', k)
    with j = j' * gens[k], and parents come before their children; an
    idempotent has parent None. products_of[j], the one record of the
    products, holds the pairs (k, j * gens[k]) that are nonzero, by k.
    Modules are right modules: a generator from vertex s to vertex t maps
    the space at s to the space at t.

    Indexes cached on the table let a step read only its module's support:
    by_source[v], the basis elements from v in index order (v's idempotent
    first); checked_by_source[v], the triples (j, k, j * gens[k] or -1)
    with j from v that check_relations tests, all composable pairs but
    those whose product has parent (j, k), by j and then by k. block_ids
    numbers each block (_blocks) that dim_sequence meets, once, and
    blocks[id] is [block, total dimension, None until it is stepped, then
    its syzygy's blocks as (id, count) pairs]; they live with the table."""

    def __init__(self, basis: tuple[str, ...], vertices: tuple[str, ...],
                 ends: tuple[tuple[int, int], ...], gens: tuple[int, ...],
                 parent: tuple[tuple[int, int] | None, ...],
                 products_of: tuple[tuple[tuple[int, int], ...], ...]):
        self.basis = basis
        self.vertices = vertices
        self.ends = ends
        self.gens = gens
        self.parent = parent
        self.products_of = products_of
        self.block_ids: dict = {}
        self.blocks: list = []

    def intern(self, blocks: dict) -> tuple[tuple[int, int], ...]:
        """The blocks {block: count} as (id, count) pairs, numbering a block
        met for the first time next."""
        out = []
        for block, count in blocks.items():
            i = self.block_ids.get(block)
            if i is None:
                i = self.block_ids[block] = len(self.blocks)
                self.blocks.append([block, block.total_dim, None])
            out.append((i, count))
        return tuple(out)

    @cached_property
    def by_source(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in self.vertices]
        for j, (s, _) in enumerate(self.ends):
            out[s].append(j)
        return tuple(map(tuple, out))

    @cached_property
    def checked_by_source(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        gens_from = [[] for _ in self.vertices]
        for k, g in enumerate(self.gens):
            gens_from[self.ends[g][0]].append(k)
        out = [[] for _ in self.vertices]
        for j, (s, t) in enumerate(self.ends):
            product = dict(self.products_of[j])
            for k in gens_from[t]:
                jg = product.get(k, -1)
                if jg < 0 or self.parent[jg] != (j, k):
                    out[s].append((j, k, jg))
        return tuple(map(tuple, out))


def compile_paths(A: MonomialAlgebra) -> GradedTable:
    """The nonzero paths of A as a graded table: the generators are the
    arrows, and the parent of a path is the path without its last arrow.
    The table is kept on A as `A.path_table`, since crosscheck and the CLI
    build one representation per prime of the same algebra, and callers
    interleave algebras. An algebra above the dimension cap is refused on
    every call, cached or not, and before any path is listed."""
    limit = _dim_cap()
    if A.dimension > limit:
        raise DimensionCapExceededError(
            f"algebra dimension {A.dimension} exceeds the cap {limit}")
    if A.path_table is None:
        A.path_table = _path_table(A)
    return A.path_table


def _path_table(A: MonomialAlgebra) -> GradedTable:
    """The nonzero paths in paths_from order: the trivial paths, then,
    breadth-first, each path's extensions by the automaton's moves from its
    state, by arrow. Walked in index order, each extension j * a is
    numbered as it is met, with parent (j, a), the literal of j extended by
    a, and a product (a, j * a) of j, so no arrow tuple is built or hashed."""
    Q = A.quiver
    state = [Q.vertex_index[v] for v in Q.vertices]
    basis = [f"e({v})" for v in Q.vertices]
    ends = [(s, s) for s in state]
    parent: list = [None] * len(state)
    products_of = []
    j = 0
    while j < len(state):
        products = []
        for name, s in A.moves[state[j]].items():
            k = Q.arrow_index[name]
            products.append((k, len(state)))
            parent.append((j, k))
            state.append(s)
            basis.append(basis[j] + "." + name if parent[j] else name)
            ends.append((ends[j][0], Q.vertex_index[Q.arrows[k].target]))
        products_of.append(tuple(products))
        j += 1
    arrows = dict(kj for row in products_of[:len(Q.vertices)] for kj in row)
    return GradedTable(
        basis=tuple(basis),
        vertices=Q.vertices,
        ends=tuple(ends),
        gens=tuple(arrows[k] for k in range(len(Q.arrows))),
        parent=tuple(parent),
        products_of=tuple(products_of),
    )


class AlgebraTable(NamedTuple):
    """Finite-dimensional algebra given by a basis-multiplicative table:
    the product of two basis elements is a basis element or zero
    (table entry -1). Only local tables are supported: one basis element is
    a two-sided identity, and every other one is nilpotent."""

    name: str
    basis: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def check(self) -> int:
        """The index of the identity, once the table is checked to have one,
        to be associative and to be local, which on a multiplicative basis
        means that every other basis element is nilpotent."""
        t, n = self.table, len(self.basis)
        e = next((e for e in range(n)
                  if all(t[e][i] == i == t[i][e] for i in range(n))), None)
        if e is None:
            raise ValidationError("the table has no two-sided identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ij, jk = t[i][j], t[j][k]
                    left = t[ij][k] if ij >= 0 else -1
                    right = t[i][jk] if jk >= 0 else -1
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
                power = t[power][i]
            if power != -1:
                raise ValidationError(
                    f"basis element {self.basis[i]} is not nilpotent"
                )
        return e


def compile_table(t: AlgebraTable) -> GradedTable:
    """A local table, checked, as a graded table with one vertex. The
    generators are the radical elements that are not a product of two
    radical elements; the basis is renumbered in breadth-first order from
    the identity, so that parents come first."""
    e = t.check()
    rad = [i for i in range(len(t.basis)) if i != e]
    products = {t.table[a][b] for a in rad for b in rad}
    gens = [i for i in rad if i not in products]
    order = [e]
    parent = {e: None}
    products_of = []
    for j in order:
        products_of.append([(k, jg) for k, jg in enumerate(
            t.table[j][g] for g in gens) if jg >= 0])
        for k, jg in products_of[-1]:
            if jg not in parent:
                parent[jg] = (j, k)
                order.append(jg)
    if len(order) != len(t.basis):
        raise ValidationError("the radical generators do not span the table")
    pos = {j: i for i, j in enumerate(order)}
    return GradedTable(
        basis=tuple(t.basis[j] for j in order),
        vertices=(t.basis[e],),
        ends=((0, 0),) * len(order),
        gens=tuple(pos[g] for g in gens),
        parent=tuple(None if parent[j] is None
                     else (pos[parent[j][0]], parent[j][1]) for j in order),
        products_of=tuple(tuple((k, pos[jg]) for k, jg in row)
                          for row in products_of),
    )


def xyz_local_table() -> AlgebraTable:
    """k[X,Y,Z] / (X^2, Y^2, Z^2, XZ, YZ): basis 1, x, y, z, xy."""
    basis = ("1", "x", "y", "z", "xy")
    n = len(basis)
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = i
        t[i][0] = i
    t[1][2] = t[2][1] = 4  # x*y = y*x = xy
    return AlgebraTable("xyz-local", basis, tuple(tuple(r) for r in t))


BUILTIN_TABLE_IDS = ("xyz-local",)


def builtin_table(table_id: str) -> AlgebraTable:
    if table_id == "xyz-local":
        return xyz_local_table()
    raise ValidationError(
        f"unknown builtin table {table_id!r} (available: "
        + ", ".join(BUILTIN_TABLE_IDS) + ")"
    )


# -- representations and the syzygy step ------------------------------------------

def _along_parents(T: GradedTable, cols: dict, p: int, starts: dict) -> dict:
    """For every basis element j from a vertex v in `starts`, the action of
    j on the unit vectors at the coordinates starts[v], as sparse columns,
    built along v's parent subtree (T.by_source[v]) alone: j = j' * g acts
    as g after j', and as a column selection of g after the idempotent.
    The result is keyed by those j, None for a zero image; `cols` maps each
    generator that acts by a nonzero map to its sparse columns."""
    out: dict = {}
    for v, coords in starts.items():
        idem, *rest = T.by_source[v]
        out[idem] = coords
        for j in rest:
            i, k = T.parent[j]
            prev, g = out[i], cols.get(k)
            out[j] = (None if prev is None or g is None
                      else [g[c] for c in prev] if i == idem
                      else _act(g, prev, p))
    return out


def _scatter(kernel: tuple, blocks, p: int) -> dict:
    """The rows b..b+c of the target, as {row: sparse row}, that take rows
    a..a+c of a kernel (pos, pivots) (syzygy_rep), for each block (a, b, c);
    only the rows a block touches are read, a free row r as ((pos[r], 1),).
    Two blocks hit the same rows or disjoint ones; a later one on the same
    rows (a colliding table product) adds."""
    pos, pivots = kernel
    out = {}
    for a, b, c in blocks:
        for i in range(c):
            e = pivots[a + i] if a + i in pivots else ((pos[a + i], 1),)
            if not e:
                continue
            if b + i not in out:
                out[b + i] = e
                continue
            acc = dict(out[b + i])
            _add(acc, 1, e, p)
            out[b + i] = list(acc.items())
    return out


def syzygy_rep(R: "TableRepresentation") -> "TableRepresentation":
    """Kernel of a projective cover of R, as a representation.

    A step walks only its support, and keys its scratch by it: the vertices
    where R is nonzero, where the top of R is a complement of the generator
    images, and the basis elements (T.by_source) from those with lifted top
    vectors, in index order. The cover stacks one projective e_w A per
    lifted top vector at w, with basis (j, copy) for the j from w, graded by
    the target of j; it sends (j, copy) to the lift acted on by j, built
    along w's parent subtree. The kernel is read off one sparse rref of the
    cover's rows per vertex where R is nonzero, and kept as (pos, pivots):
    pos numbers the free columns in order, and pivots maps each pivot
    column, in _rref's order, to its row over those numbers; the row of a
    free column c, ((pos[c], 1),), is not stored. A generator g acts
    on the cover by j -> j*g, so its new action is a scatter of the kernel
    rows of its blocks, the support's nonzero products (T.products_of): the
    rows at the target kernel's free rows are the new action, and those at
    its pivot rows are checked against them exactly; it gets no entry where
    that action is zero. A semisimple module takes the same path: every
    coordinate is lifted, the cover's idempotents are its pivots, and the
    kernel is rad P."""
    T, p, dims, mats = R
    rad: dict[int, list] = {}
    for k, gcols in mats:
        rad.setdefault(T.ends[T.gens[k]][1], []).extend(
            col for col in gcols if col)
    lifts, copies = {}, {}
    for v, d in dims:
        top = _rref(rad[v], d, p) if rad.get(v) else {}
        lift = [i for i in range(d) if i not in top]
        if lift:
            lifts[v], copies[v] = lift, len(lift)
    # The support in index order and its cover basis: the copies of j are
    # the rows start[j] .. start[j] + copies[source of j] of the space at
    # its target.
    support = sorted(j for w in copies for j in T.by_source[w])
    start, pdims = {}, {}
    for j in support:
        w, t = T.ends[j]
        start[j] = pdims.get(t, 0)
        pdims[t] = start[j] + copies[w]
    # Right multiplication by generator k: row blocks (from, to, length).
    blocks: dict[int, list] = {}
    for j in support:
        for k, jg in T.products_of[j]:
            blocks.setdefault(k, []).append(
                (start[j], start[jg], copies[T.ends[j][0]]))

    images = _along_parents(T, dict(mats), p, lifts)
    # The covers' rows where R is nonzero, built from the images (each
    # dropped once copied), then eliminated one vertex at a time.
    rows = {v: [[] for _ in range(d)] for v, d in dims}
    for j in support:
        image, t = images.pop(j), T.ends[j][1]
        if T.parent[j] is None:  # a lift: unit columns
            for i, r in enumerate(image, start[j]):
                rows[t][r].append((i, 1))
        elif image is not None:
            for i, col in enumerate(image, start[j]):
                for r, x in col:
                    rows[t][r].append((i, x))
    reduced = {}
    for v, d in dims:
        reduced[v] = _rref(rows.pop(v), pdims.get(v, 0), p)
        if len(reduced[v]) != d:
            raise InternalInconsistencyError(
                f"projective cover is not surjective at vertex {T.vertices[v]}"
            )
    # Each kernel where the cover is nonzero: the basis vector of free
    # column f is e_f minus red[q][f] at each pivot q, f in order.
    kernels = {}
    for v, pd in pdims.items():
        red = reduced.get(v, {})
        pos = dict(zip(filterfalse(red.__contains__, range(pd)), count()))
        kernels[v] = pos, {q: [(pos[f], p - x) for f, x in row.items()]
                           for q, row in red.items()}
    new_dims = {v: len(kernels[v][0]) for v in sorted(kernels)
                if kernels[v][0]}

    new_mats = []
    for k in sorted(blocks):
        s, t = T.ends[T.gens[k]]
        image = _scatter(kernels[s], blocks[k], p)
        _in_kernel(image, kernels[t], p)
        pos = kernels[t][0]
        m = {}
        for b, e in image.items():
            if b in pos:
                for f, v in e:
                    m.setdefault(f, []).append((pos[b], v))
        if m:
            new_mats.append((k, tuple(tuple(m.get(f, ()))
                                      for f in range(new_dims[s]))))
    return TableRepresentation(T, p, tuple(new_dims.items()), tuple(new_mats))


class TableRepresentation(NamedTuple):
    """Right module over a graded table that holds only its support: dims
    the pairs (v, d), by v, for the vertices where the GF(p) space has
    dimension d > 0; mats the pairs (k, columns), by k, for the generators
    that act by a nonzero map (target space x source space), one sparse
    column per source coordinate, a tuple of (target row, residue in
    [1, p)) pairs, () for a zero column. The action of a basis element is
    the ordered product along its parent chain, so a module is semisimple
    exactly when mats is empty. Equal fields are equal modules."""

    table: GradedTable
    p: int
    dims: tuple[tuple[int, int], ...]
    mats: tuple[tuple[int, tuple[tuple[tuple[int, int], ...], ...]], ...]

    syzygy = syzygy_rep

    @property
    def total_dim(self) -> int:
        return sum(d for _, d in self.dims)

    def dense(self, name: str) -> np.ndarray:
        """The matrix of generator `name` as a dense uint16 array of
        residues (all zero when it has no entry in mats), for inspection
        and hashing; the syzygy step never builds one."""
        T = self.table
        g = T.basis.index(name)
        s, t = (dict(self.dims).get(v, 0) for v in T.ends[g])
        m = np.zeros((t, s), dtype=np.uint16)
        for c, col in enumerate(dict(self.mats).get(T.gens.index(g), ())):
            for r, v in col:
                m[r, c] = v
        return m

    def check_relations(self):
        """The action of j * g is that of j followed by that of g, zero where
        j * g is zero, on sparse columns, for each pair of checked_by_source
        with j from where the module is nonzero (other pairs compare empty
        images). No product reads an identity: e times g is g, parent (e, k)."""
        T, p, dims, mats = self
        cols = dict(mats)
        live = {v: range(d) for v, d in dims}
        images = _along_parents(T, cols, p, live)
        for j, k, jg in (c for v in live for c in T.checked_by_source[v]):
            lhs = (None if k not in cols or images[j] is None
                   else _act(cols[k], images[j], p))
            rhs = images.get(jg)
            if any(dict(a) != dict(b) for a, b in
                   zip_longest(lhs or (), rhs or (), fillvalue=())):
                raise InternalInconsistencyError(
                    f"{T.basis[j]} * {T.basis[T.gens[k]]} = "
                    f"{T.basis[jg] if jg >= 0 else 0} does not hold on the module"
                )


def _span_rep(T: GradedTable, p: int, summands) -> TableRepresentation:
    """Direct sum of the modules spanned by each list of basis elements in
    `summands`: a generator sends j to j * g (T.products_of) when that
    stays in j's summand, and to zero otherwise."""
    dims: dict[int, int] = {}
    row: dict[tuple[int, int], int] = {}
    for i, members in enumerate(summands):
        for j in members:
            t = T.ends[j][1]
            row[(i, j)] = dims.get(t, 0)
            dims[t] = row[(i, j)] + 1
    cols: dict[int, dict] = {}
    for (i, j), c in row.items():
        for k, jg in T.products_of[j]:
            to = row.get((i, jg))
            if to is not None:
                cols.setdefault(k, {})[c] = ((to, 1),)
    mats = tuple((k, tuple(m.get(c, ()) for c in
                           range(dims[T.ends[T.gens[k]][0]])))
                 for k, m in sorted(cols.items()))
    rep = TableRepresentation(T, p, tuple(sorted(dims.items())), mats)
    rep.check_relations()
    return rep


def rep_of(M: ModuleExpr, A: MonomialAlgebra, p: int) -> TableRepresentation:
    """Representation of a module expression: each summand (v, K) spans the
    nonzero paths from v with no prefix in K, one basis vector each, graded
    by the path's endpoint; arrows act by path extension inside the
    summand, zero when the extension leaves it. The summand is read off the
    paths from v in index order (T.by_source[v]): a path belongs when it is
    v's idempotent, or when its parent belongs and it is not a killer, each
    killer found by walking T.products_of along its arrows. A module above
    the dimension cap is refused before anything is built."""
    limit = _dim_cap()
    dim = expr_dimension(M, A)
    if dim > limit:
        raise DimensionCapExceededError(
            f"module dimension {dim} exceeds the cap {limit}")
    T = compile_paths(A)
    Q = A.quiver
    summands = []
    for key, mult in M.terms:
        v = Q.vertex_index[key.vertex]
        killers = set()
        for w in key.killers:
            j = v
            for a in w.arrows:
                j = dict(T.products_of[j]).get(Q.arrow_index[a], -1) \
                    if j >= 0 else j
            killers.add(j)
        inside = {v}
        for j in T.by_source[v][1:]:
            if T.parent[j][0] in inside and j not in killers:
                inside.add(j)
        summands += [[j for j in T.by_source[v] if j in inside]] * mult
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

def _blocks(R: TableRepresentation) -> dict[TableRepresentation, int]:
    """The coordinate blocks of R, {block: multiplicity}. A block is a class
    of the union-find over all coordinates that links the two ends of every
    nonzero action entry, so R is the direct sum of its blocks. Each block
    is in canonical form, with pairs only where it is nonzero: its
    coordinates renumbered in order at each vertex, its column entries
    sorted by row, and its generators in R's order; so equal blocks are
    equal values, each the size of its support, and a table numbers each
    distinct block once (GradedTable.intern)."""
    T = R.table
    off, n = {}, 0
    for v, d in R.dims:
        off[v], n = n, n + d
    up = list(range(n))

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = x = up[up[x]]
        return x

    acting = [(k, m, T.ends[T.gens[k]]) for k, m in R.mats]
    for _, m, (s, t) in acting:
        for c, col in enumerate(m):
            for r, _ in col:
                up[find(off[t] + r)] = find(off[s] + c)
    roots = [x for x, y in enumerate(up) if x == y]
    head = {x: b for b, x in enumerate(roots)}
    bdims = [{} for _ in roots]
    bmats = [{} for _ in roots]
    block, loc = [0] * n, [0] * n
    for v, d in R.dims:
        for x in range(off[v], off[v] + d):
            b = block[x] = head[find(x)]
            loc[x] = bdims[b].get(v, 0)
            bdims[b][v] = loc[x] + 1
    for k, m, (s, t) in acting:
        for c, col in enumerate(m):
            if col:
                x = off[s] + c
                b = block[x]
                if k not in bmats[b]:
                    bmats[b][k] = [()] * bdims[b][s]
                bmats[b][k][loc[x]] = tuple(sorted(
                    (loc[off[t] + r], y) for r, y in col))
    out: dict[TableRepresentation, int] = {}
    for dims, mats in zip(bdims, bmats):
        part = TableRepresentation(T, R.p, tuple(dims.items()), tuple(
            (k, tuple(cols)) for k, cols in mats.items()))
        out[part] = out.get(part, 0) + 1
    return out


def dim_sequence(R: TableRepresentation, N: int) -> list[int]:
    """[dim R, dim syzygy(R), ..., dim syzygy^N(R)]. R is handled as the
    direct sum of its coordinate blocks (_blocks), a syzygy as {id:
    multiplicity} over the blocks its table numbers (GradedTable), and each
    distinct block is stepped once per table and prime, in this call or an
    earlier one; its children are written once syzygy_rep and _blocks have
    both returned. No block is hashed again once numbered, and no syzygy
    that splits is materialized whole. Refuses the syzygy of a module
    whose total dimension is larger than the cap (default 200000, set only
    through the environment variable SYZCX_DIM_CAP), and reports a step
    that runs out of memory the same way; the partial list rides on the
    error and is named in its message."""
    if N < 0:
        raise ValueError("N must be >= 0")
    limit = _dim_cap()
    T, dims, mults = R.table, [R.total_dim], None
    for _ in range(N):
        if dims[-1] > limit:
            raise DimensionCapExceededError(
                f"representation dimension {dims[-1]} exceeds the cap "
                f"{limit}; dimensions so far {dims}", dims=dims,
            )
        try:
            if mults is None:
                mults = dict(T.intern(_blocks(R)))
            out: dict[int, int] = {}
            for i, mult in mults.items():
                entry = T.blocks[i]
                if entry[2] is None:
                    entry[2] = T.intern(_blocks(syzygy_rep(entry[0])))
                for c, count in entry[2]:
                    out[c] = out.get(c, 0) + mult * count
            mults = out
        except MemoryError:
            raise DimensionCapExceededError(
                f"out of memory taking the syzygy of a representation of "
                f"dimension {dims[-1]}; dimensions so far {dims}",
                dims=dims,
            ) from None
        dims.append(sum(mult * T.blocks[i][1] for i, mult in mults.items()))
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
