"""Brute-force linear-algebra oracle: explicit representations over two
primes, syzygies via projective covers, and crosschecks against weighted
path counts.

Pinned sequences come from hand resolutions: over k[x]/(x^3) the syzygies
of k alternate between dimensions 2 and 1; over the two-vertex Fibonacci
algebra dim P(1) = 2 and dim P(2) = 3 force the Fibonacci recursion; the
local commutative table algebra satisfies f(n+1) = 3 f(n) - f(n-1)."""

import gc
import hashlib
import random
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from syzcx.oracle import (
    PRIMES,
    DEFAULT_DIM_CAP,
    compile_paths,
    rep_of,
    syzygy_rep,
    AlgebraTable,
    xyz_local_table,
    BUILTIN_TABLE_IDS,
    builtin_table,
    TableRepresentation,
    compile_table,
    table_rep,
    xyz_local_expected_dims,
    dim_sequence,
    CrosscheckReport,
    crosscheck,
)
from syzcx.oracle import (
    _act,
    _blocks,
    _in_kernel,
    _rref,
    _scatter,
)
from syzcx.syzygy import (
    build_syzygy_quiver,
    expr_dimension,
    module_expr,
    path_key,
    resolve_module,
    simple_key,
    projective_key,
    quiver_dim_sequence,
)
from syzcx.errors import (
    DimensionCapExceededError,
    InternalInconsistencyError,
    ValidationError,
)

from conftest import (
    FIB_TEXT,
    LOOP3_TEXT,
    family_gen,
    fibonacci_numbers,
    make_algebra,
    random_monomial_algebras,
    singleton,
)

P = PRIMES[0]
FIB_ALG = Path(__file__).resolve().parent / "data" / "fib.alg"


# -- sparse linear algebra helpers -------------------------------------------------

def sparse_rows(m) -> list:
    """The rows of a dense matrix as the sparse rows _rref reads."""
    return [[(c, int(v)) for c, v in enumerate(row) if v] for row in m.tolist()]


def sparse_columns(m) -> tuple:
    """The columns of a dense matrix, one per column, as an action is
    stored."""
    return tuple(map(tuple, sparse_rows(m.T)))


def with_entry(r, k: int, row: int, col: int, value: int):
    """The representation `r` with entry (row, col) of generator k's action
    set to `value`; `r` is a value, so it is untouched."""
    T = r.table
    mats = dict(r.mats)
    cols = list(mats.get(k, ((),) * dict(r.dims)[T.ends[T.gens[k]][0]]))
    cols[col] = tuple((i, v) for i, v in cols[col] if i != row) + (
        ((row, value),) if value else ())
    mats[k] = tuple(cols)
    return r._replace(mats=tuple(sorted(mats.items())))


def dense_bytes(r) -> bytes:
    """The bytes the pinned hashes were taken over: the dimension at every
    vertex, then for every generator b"None" where it acts by zero, else
    its dense matrix's shape and uint16 residues."""
    T, dims, mats = r.table, dict(r.dims), dict(r.mats)
    out =[repr([dims.get(v, 0) for v in range(len(T.vertices))]).encode()]
    for k, g in enumerate(T.gens):
        m = r.dense(T.basis[g])
        out.append(b"None" if k not in mats else
                   repr(m.shape).encode() + m.astype("<u2").tobytes())
    return b"".join(out)


def test_act_matches_python_ints():
    # A generator's sparse columns applied to an image, column by column,
    # is the matrix product mod p: single-entry columns (scaled or not),
    # dense columns whose sums pass p, zero columns and an empty image.
    rng = np.random.default_rng(7)
    for p in PRIMES:
        a = rng.integers(0, p, size=(17, 23), dtype=np.int64)
        b = rng.integers(0, p, size=(23, 11), dtype=np.int64)
        a[0], b[:, 0] = p - 1, p - 1  # the largest products
        b[:, 1:4] = 0
        b[5, 1], b[6, 2] = 1, p - 1  # one entry: a column selection, scaled
        a[:, 7] = 0
        b[7, 3] = 1  # selects a zero column
        want = (a.astype(object) @ b.astype(object)) % p
        gcols = sparse_columns(a)
        assert gcols[7] == ()  # a zero column is stored empty
        got = _act(gcols, sparse_rows(b.T), p)
        assert len(got) == 11
        for c, col in enumerate(got):
            assert all(v for _, v in col)
            assert dict(col) == {r: int(v) for r, v in enumerate(want[:, c]) if v}
        assert _act(gcols, [], p) == []
        # A zero column reads as zero, selected or summed.
        assert [list(c) for c in _act(((), ()),
                                      [[(0, 1)], [(0, 2)], [(0, 1), (1, 3)]],
                                      p)] == [[], [], []]


def test_rref_and_nullspace():
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    red = _rref(sparse_rows(m % P), 3, P)
    assert sorted(red) == [0, 1]  # rank 2, and column 2 is free
    # The kernel vector of free column 2 is e_2 - sum_q red[q][2] e_q.
    ns = np.array([[-red[0].get(2, 0)], [-red[1].get(2, 0)], [1]])
    assert not ((m @ ns) % P).any()


def _rank_by_hand(m, p):
    """Rank over GF(p) by textbook elimination on Python ints."""
    rows = [[int(v) % p for v in row] for row in m.tolist()]
    rank = 0
    for c in range(m.shape[1]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(u - f * v) % p for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _dense_rule_rref(m, p):
    """The dense elimination's pivot rule on Python ints, the reference for
    _rref: every row that holds a singleton column takes its leftmost one
    as pivot, rows in index order, scaled to 1 and moved to the top; then,
    column by column, the first remaining row with a nonzero entry is
    swapped into place, scaled, and every other row is cleared there.
    Returns {pivot: the row at its other columns}, as _rref does."""
    a = [[int(v) % p for v in row] for row in m.tolist()]
    cols = m.shape[1]
    held = {}
    for c in range(cols):
        hits = [i for i, row in enumerate(a) if row[c]]
        if len(hits) == 1:
            held.setdefault(hits[0], c)
    a = [a[i] for i in sorted(held)] + [row for i, row in enumerate(a)
                                        if i not in held]
    pivots = [held[i] for i in sorted(held)]
    for i, c in enumerate(pivots):
        inv = pow(a[i][c], p - 2, p)
        a[i] = [v * inv % p for v in a[i]]
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [(u - f * v) % p for u, v in zip(a[k], a[r])]
        pivots.append(c)
    return {c: {f: v for f, v in enumerate(a[i]) if v and f != c}
            for i, c in enumerate(pivots)}


def _elimination_corpus(p, rng, per_kind):
    """Seeded residue matrices of every shape the covers take: dense, sparse
    0/1, one nonzero per row, repeated columns, zero rows and columns,
    singleton columns with non-unit entries, and empty shapes."""
    def shape():
        return int(rng.integers(1, 8)), int(rng.integers(1, 8))

    def sparse01(r, c):
        return (rng.random((r, c)) < rng.uniform(0.1, 0.5)).astype(np.int64)

    def one_per_row(r, c):
        m = np.zeros((r, c), dtype=np.int64)
        m[np.arange(r), rng.integers(0, c, r)] = rng.integers(1, p, r)
        return m

    def repeated_columns(r, c):
        base = sparse01(r, max(1, c // 2)) * rng.integers(1, p, (r, 1))
        return base[:, rng.integers(0, base.shape[1], c)]

    def zero_rows_and_columns(r, c):
        m = sparse01(r, c)
        m[rng.random(r) < 0.3] = 0
        m[:, rng.random(c) < 0.3] = 0
        return m

    def non_unit_singletons(r, c):
        return sparse01(r, c) * rng.integers(2, p, (r, c))

    kinds = (lambda r, c: rng.integers(0, p, (r, c)), sparse01, one_per_row,
             repeated_columns, zero_rows_and_columns, non_unit_singletons)
    for kind in kinds:
        for _ in range(per_kind):
            yield kind(*shape())
    for n in range(4):
        yield np.zeros((0, n), dtype=np.int64)
        yield np.zeros((n, 0), dtype=np.int64)
    yield np.array([[1, 0, 1], [1, 1, 0]])


def _check_elimination(m, p):
    cols = m.shape[1]
    red = _rref(sparse_rows(m), cols, p)
    assert red == _dense_rule_rref(m, p)
    assert len(red) == _rank_by_hand(m, p)
    # Rows are 0 at the other pivots, so e_f - sum_q red[q][f] e_q, for
    # each free column f, spans the kernel.
    free = [c for c in range(cols) if c not in red]
    kernel = np.zeros((cols, len(free)), dtype=np.int64)
    for i, f in enumerate(free):
        kernel[f, i] = 1
        for q, row in red.items():
            assert not set(row) & set(red)
            kernel[q, i] = -row.get(f, 0)
    assert not (m.astype(np.int64) @ kernel % p).any()
    # The unit vectors at the free columns complete the row span.
    units = np.eye(cols, dtype=np.int64)[free]
    assert _rank_by_hand(np.concatenate([m, units]), p) == cols


def test_rref_contract_on_seeded_corpus():
    # The pivots and rows are those of the dense pivot rule, which keeps
    # every kernel basis and action byte for byte; rank, kernel and the
    # complement of the top follow from them.
    count = 0
    for p in PRIMES:
        rng = np.random.default_rng(p)
        for m in _elimination_corpus(p, rng, 430):
            _check_elimination(m, p)
            count += 1
    assert count >= 5000


def test_rref_takes_singleton_columns_as_pivots():
    # Column 0 has two nonzeros; columns 1 and 2 are singletons, of rows 1
    # and 0. Leftmost pivots would be {0, 1}.
    red = _rref(sparse_rows(np.array([[1, 0, 1], [1, 1, 0]])), 3, P)
    assert red == {2: {0: 1}, 1: {0: 1}}
    # A non-unit singleton pivot is scaled to 1, and a 0-row matrix has none.
    red = _rref(sparse_rows(np.array([[0, 5, 2], [3, 0, 0]])), 3, P)
    assert red == {1: {2: 2 * pow(5, P - 2, P) % P}, 0: {}}
    assert _rref([], 3, P) == {}


def test_scatter_matches_the_dense_scatter():
    # Blocks of kernel rows added into target rows, as the syzygy step's
    # generator action, including blocks that collide, whose sums pass p
    # and may cancel; only the rows a block touches are read. The kernel
    # stores its pivot rows, in any order, and a free row is read as the
    # unit row at its coordinate.
    rng = np.random.default_rng(11)
    for p in PRIMES:
        for _ in range(200):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            free = sorted(int(c) for c in rng.choice(np.arange(2, 9), cols,
                                                     replace=False))
            source = rng.integers(0, p, (9, cols)) * (rng.random((9, cols)) < 0.6)
            source[0] = p - 1
            source[1] = (p - source[0]) % p  # cancels row 0
            source[free] = np.eye(cols, dtype=source.dtype)
            pivots = [q for q in range(9) if q not in free]
            rng.shuffle(pivots)
            kernel = ({c: f for f, c in enumerate(free)},
                      {q: sparse_rows(source[q:q + 1])[0] for q in pivots})
            starts = [0]
            while starts[-1] < rows:
                starts.append(starts[-1] + int(rng.integers(1, 4)))
            blocks = []
            for b, e in zip(starts, starts[1:]):
                c = min(e, rows) - b
                for _ in range(int(rng.integers(0, 3))):
                    blocks.append((int(rng.integers(0, 10 - c)), b, c))
            blocks.append((0, 0, 1))
            blocks.append((1, 0, 1))
            blocks.append((free[0], 0, 1))  # a free row onto a cancelled sum
            dense = np.zeros((rows, cols), dtype=np.int64)
            for a, b, c in blocks:
                dense[b:b + c] += source[a:a + c]
            dense %= p
            got = _scatter(kernel, blocks, p)
            for b in range(rows):
                assert all(v for _, v in got.get(b, ()))
                assert dict(got.get(b, ())) == {c: v for c, v in
                                                enumerate(dense[b].tolist()) if v}
            assert set(got) <= {b + i for _, b, c in blocks for i in range(c)}


# -- representations over monomial algebras ------------------------------------------

def test_rep_of_simple_is_semisimple(fib):
    r = rep_of(singleton(simple_key(fib, "1")), fib, P)
    assert r.dims == ((0, 1),) and r.mats == ()
    assert r.total_dim == 1


def test_rep_of_projective_has_action(fib):
    r = rep_of(singleton(projective_key(fib, "2")), fib, P)
    assert r.total_dim == 3
    assert r.mats
    # the matrix of b maps the generator copy at vertex 2 into vertex 1
    assert r.dense("b").shape == (1, 2)
    assert r.dense("b").any()


def test_rep_of_reads_each_summand_off_the_path_table(monkeypatch):
    # Each summand (v, K) of rep_of is the list of table indices of the
    # nonzero paths from v with no prefix in K, in paths_from order, for the
    # simples, projectives and path modules of seeded draws; and the
    # representation has the dimension of the module expression.
    import syzcx.oracle as oracle

    seen, span = [], oracle._span_rep

    def recorded(T, p, summands):
        seen.append([list(members) for members in summands])
        return span(T, p, summands)

    monkeypatch.setattr(oracle, "_span_rep", recorded)
    checked = 0
    for A in random_monomial_algebras(5, 12):
        T = compile_paths(A)
        at = {name: j for j, name in enumerate(T.basis)}
        keys = [f(A, v) for v in A.quiver.vertices
                for f in (simple_key, projective_key)]
        keys += [path_key(q, A) for q in A.paths_from() if q.arrows][:8]
        for key in keys:
            want = [at[q.literal()] for q in A.paths_from(key.vertex)
                    if not any(q.arrows[:len(k.arrows)] == k.arrows
                               for k in key.killers)]
            M = module_expr([(key, 2)])
            assert rep_of(M, A, P).total_dim == expr_dimension(M, A)
            assert seen.pop() == [want, want]
            checked += 1
    assert checked > 100


def test_residue_differences_are_not_taken_unsigned():
    # 2^16 - 38 = 2p at p = 32749: a difference of -38 wrapped to uint16 is
    # 0 mod p, so a check that subtracted uint16 residues would pass this.
    p = 32749
    assert 2 ** 16 - 38 == 2 * p
    # x * y = y * x = xy; with y sending x to 39 xy, the image of x * y is
    # 39 xy and that of y * x is xy, and they differ by -38. y is the
    # second generator.
    r = table_rep(xyz_local_table(), "regular", p)
    assert [k for k, _ in r.mats] == [0, 1, 2]
    assert r.mats[1][1][1] == ((4, 1),)
    broken = with_entry(r, 1, 4, 1, 39)
    assert broken.mats[1][1][1] == ((4, 39),) and r.mats[1][1][1] == ((4, 1),)
    with pytest.raises(InternalInconsistencyError):
        broken.check_relations()
    r.check_relations()


def _bump(row, c, p):
    """A copy of a sparse row with entry c raised by 1 mod p."""
    acc = dict(row)
    acc[c] = (acc.get(c, 0) + 1) % p
    return [(f, v) for f, v in acc.items() if v]


def test_membership_check_fires_on_a_corrupted_pivot_row(monkeypatch):
    # The second syzygy step of xyz-local k scatters vectors onto target
    # kernels with pivot rows; one wrong value at a pivot row must be
    # caught at either prime, also at the first pivot row here, whose
    # stored row is empty and whose scattered row is zero.
    import syzcx.oracle as oracle

    for p in PRIMES:
        r = table_rep(xyz_local_table(), "k", p).syzygy()
        corrupted = []

        def check(image, kernel, p):
            if kernel[1] and not corrupted:
                q = next(iter(kernel[1]))
                assert kernel[1][q] == [] and not image.get(q)
                image = dict(image)
                image[q] = _bump(image.get(q, ()), 0, p)
                corrupted.append(True)
            return _in_kernel(image, kernel, p)

        monkeypatch.setattr(oracle, "_in_kernel", check)
        with pytest.raises(InternalInconsistencyError):
            r.syzygy()
        assert corrupted
        monkeypatch.undo()
        assert r.syzygy().total_dim == xyz_local_expected_dims(2)[2]


def test_membership_check_covers_the_cached_pivot_block(monkeypatch):
    # Each target kernel's pivot rows are built once per step and shared by
    # every generator into it. One wrong entry at a pivot row, in a kernel
    # column where the new action has a nonzero row, must be caught at
    # either prime.
    import syzcx.oracle as oracle

    for p in PRIMES:
        r = table_rep(xyz_local_table(), "k", p).syzygy()
        corrupted = []

        def check(image, kernel, p):
            pos, pivots = kernel
            used = [f for c, f in pos.items() if image.get(c)]
            if pivots and used and not corrupted:
                q = next(iter(pivots))
                pivots = dict(pivots)
                pivots[q] = _bump(pivots[q], used[0], p)
                corrupted.append(True)
            return _in_kernel(image, (pos, pivots), p)

        monkeypatch.setattr(oracle, "_in_kernel", check)
        with pytest.raises(InternalInconsistencyError):
            r.syzygy()
        assert corrupted
        monkeypatch.undo()
        assert r.syzygy().total_dim == xyz_local_expected_dims(2)[2]


def _rightmost_rref(rows, cols, p):
    """_rref's contract met another way: Gauss-Jordan elimination on Python
    ints from the last column to the first, so the pivots are the rightmost
    independent columns, in descending order."""
    dense = [[0] * cols for _ in rows]
    for row, sparse in zip(dense, rows):
        for c, v in sparse:
            row[cols - 1 - c] = v
    pivots = []
    for c in range(cols):
        i = next((i for i in range(len(pivots), len(dense)) if dense[i][c]), None)
        if i is None:
            continue
        r = len(pivots)
        dense[r], dense[i] = dense[i], dense[r]
        inv = pow(dense[r][c], p - 2, p)
        dense[r] = [v * inv % p for v in dense[r]]
        for k in range(len(dense)):
            if k != r and dense[k][c]:
                f = dense[k][c]
                dense[k] = [(u - f * v) % p for u, v in zip(dense[k], dense[r])]
        pivots.append(c)
    return {cols - 1 - c: {cols - 1 - f: v for f, v in enumerate(dense[i])
                           if v and f != c}
            for i, c in enumerate(pivots)}


# k[x]/(x^4) as a table, and the action of x on the module with basis m,
# xm, x^2 m, x^3 m, n and xn = x^2 m, which is one coordinate block.
KX4 = AlgebraTable("kx4", ("1", "x", "x2", "x3"),
                   tuple(tuple(i + j if i + j < 4 else -1 for j in range(4))
                         for i in range(4)))
KX4_XN_X2M = (((1, 1),), ((2, 1),), ((3, 1),), (), ((2, 1),))


def kx4_module(p):
    return TableRepresentation(compile_table(KX4), p, ((0, 5),),
                               ((0, KX4_XN_X2M),))


def literal_dims(R, N: int, bound: float = float("inf")) -> list[int]:
    """The dimension sequence by stepping the whole module, up to N steps
    and no further once the dimension exceeds `bound`: the reference for
    dim_sequence, which steps each distinct coordinate block once."""
    out = [R.total_dim]
    while len(out) <= N and out[-1] <= bound:
        R = R.syzygy()
        out.append(R.total_dim)
    return out


def test_step_reads_pivot_rows_in_row_order(monkeypatch):
    # _rref's pivots are the dense rule's, but the step is right under any
    # pivots whose rows are the identity there. M has basis m, xm, x^2 m,
    # x^3 m, n with xn = x^2 m. Its cover A + A has columns (j, copy) in
    # the order (1, m), (1, n), (x, m), ..., and with the rightmost pivots
    # x^3 m is the pivot (x^3, m), in column 6, while x^2 n hits the same
    # row. So x times the kernel vector (x, n) - (x^2, m) is
    # (x^2, n) - (x^3, m): nonzero at a pivot row, which the check reads by
    # its row, whatever order the pivots come in.
    import syzcx.oracle as oracle

    seen = []

    def check(image, kernel, p):
        seen.append(any(image.get(q) for q in kernel[1]))
        return _in_kernel(image, kernel, p)

    # The whole module is stepped each time, so the check sees the step of
    # M itself, not of the blocks that dim_sequence cuts out of it.
    for p in PRIMES:
        M = kx4_module(p)
        M.check_relations()
        want = literal_dims(M, 4)
        assert want[:2] == [5, 3]
        monkeypatch.setattr(oracle, "_rref", _rightmost_rref)
        monkeypatch.setattr(oracle, "_in_kernel", check)
        assert literal_dims(M, 4) == want
        monkeypatch.undo()
        assert any(seen)


def test_rep_checks_relations(loop3):
    r = rep_of(singleton(projective_key(loop3, "1")), loop3, P)
    # sabotage: make x act as a full cyclic shift so x.x.x is nonzero
    assert r.mats == ((0, (((1, 1),), ((2, 1),), ())),)
    broken = with_entry(r, 0, 0, 2, 1)
    assert broken.mats == ((0, (((1, 1),), ((2, 1),), ((0, 1),))),)
    with pytest.raises(InternalInconsistencyError):
        broken.check_relations()
    r.check_relations()


def test_fibonacci_dims(fib):
    r = rep_of(singleton(simple_key(fib, "1")), fib, P)
    assert dim_sequence(r, 20) == fibonacci_numbers(21)


def test_loop3_dims(loop3):
    r = rep_of(singleton(simple_key(loop3, "1")), loop3, P)
    assert dim_sequence(r, 7) == [1, 2, 1, 2, 1, 2, 1, 2]


def test_twostep_dims(twostep):
    r = rep_of(resolve_module(twostep, "S1"), twostep, P)
    assert dim_sequence(r, 8) == [1, 3, 2, 2, 2, 2, 2, 2, 2]


def test_projective_resolution_stops(fib):
    r = rep_of(singleton(projective_key(fib, "1")), fib, P)
    assert dim_sequence(r, 3) == [2, 0, 0, 0]


def test_semisimple_shortcut_matches_dense_path(fib, chain):
    # A semisimple module takes the elimination path like any other: every
    # coordinate is lifted and the cover keeps its idempotents, which are
    # its pivots. So the syzygy of a simple S(v) is rad P(v), the span of the
    # basis elements from v other than e_v, action and coordinate order
    # included, and the iterated syzygies have the dimensions of the
    # syzygy quiver (fib, chain) or of the xyz-local bookkeeping. The same
    # module with each zero map stored as empty columns, not left out,
    # steps to the same values.
    import syzcx.oracle as oracle

    cases = []
    for A, v in ((fib, "1"), (chain, "2")):
        M = singleton(simple_key(A, v))
        want = quiver_dim_sequence(build_syzygy_quiver(M, A), 6)
        cases.append((rep_of(M, A, P), want))
    cases.append((table_rep(xyz_local_table(), "k", P),
                  xyz_local_expected_dims(6)))
    for S, want in cases:
        T, ((v, _),) = S.table, S.dims
        stored = S._replace(mats=tuple((k, ((),) * (T.ends[g][0] == v))
                                       for k, g in enumerate(T.gens)))
        assert not S.mats and stored.mats
        rad_p = oracle._span_rep(T, P, [T.by_source[v][1:]])
        for R in (S, stored):
            assert syzygy_rep(R) == rad_p
            got = []
            for _ in range(7):
                got.append(R.total_dim)
                R = syzygy_rep(R)
            assert got == want


def test_semisimple_shortcut_stays_small(fib):
    # Every syzygy of S1 over fib is semisimple, up to dimension 10946 at
    # n = 20; a dense kernel at that size would take gigabytes.
    tracemalloc.start()
    try:
        rpt = crosscheck(fib, resolve_module(fib, "S1"), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rpt.agree
    assert peak < 100 * 2**20


LINE12 = make_algebra(
    "algebra line12\n"
    + "".join(f"vertex v{i}\n" for i in range(12))
    + "".join(f"arrow a{i} : v{i} -> v{i + 1}\n" for i in range(11))
    + "".join(f"relation a{i}.a{i + 1}.a{i + 2}\n" for i in range(9)))


def test_step_eliminates_only_where_the_module_lives(monkeypatch):
    # Over the line with twelve vertices and relations of length 3, the first
    # syzygy of S(v0) lives at v1 and v2, and its cover reaches v3. Only the
    # covers at v1 and v2 and the generator image at v2 have entries to
    # reduce; no other top or cover is handed to _rref.
    import syzcx.oracle as oracle

    r = rep_of(singleton(simple_key(LINE12, "v0")), LINE12, P).syzygy()
    assert r.dims == ((1, 1), (2, 1))
    assert r.mats
    calls = []

    def counted(rows, cols, p):
        calls.append(len(rows))
        return _rref(rows, cols, p)

    monkeypatch.setattr(oracle, "_rref", counted)
    out = r.syzygy()
    monkeypatch.undo()
    assert out.dims == ((3, 1),)
    assert calls == [1, 1, 1]


def _line12_copies(n):
    """The disjoint union of n copies of LINE12, copy c on the vertices
    v0_c .. v11_c."""
    return make_algebra(
        f"algebra line12x{n}\n"
        + "".join(f"vertex v{i}_{c}\n" for c in range(n) for i in range(12))
        + "".join(f"arrow a{i}_{c} : v{i}_{c} -> v{i + 1}_{c}\n"
                  for c in range(n) for i in range(11))
        + "".join(f"relation a{i}_{c}.a{i + 1}_{c}.a{i + 2}_{c}\n"
                  for c in range(n) for i in range(9)))


def test_step_cost_follows_the_support():
    # The steps of S(v0) of copy 0, and the relation check of its
    # representation, read the by-source index only where the module lives,
    # so they visit as many basis elements over eight copies of LINE12 as
    # over one; and the blocks the table numbers, stepped or not, carry as
    # many dims and mats pairs. The counts are of index reads and of pairs,
    # not of time.
    visits = {}
    for n in (1, 8):
        A = _line12_copies(n)
        T = compile_paths(A)
        assert len(T.basis) == 33 * n
        seen = []

        class Recorded(tuple):
            def __getitem__(self, v):
                got = tuple.__getitem__(self, v)
                seen.append(len(got))
                return got

        T.by_source = Recorded(T.by_source)
        dims = dim_sequence(rep_of(singleton(simple_key(A, "v0_0")), A, P), 8)
        slots = sum(len(b.dims) + len(b.mats) for b, _, _ in T.blocks)
        stepped = sum(kids is not None for _, _, kids in T.blocks)
        visits[n] = (dims, sum(seen), len(seen), stepped, slots)
    assert visits[1][0] == [1, 2, 1, 2, 1, 2, 1, 2, 0]
    assert visits[1][1] > 0
    assert visits[1][3] == 8
    assert visits[8] == visits[1]


def _scanned_products(T, A=None, table=None) -> list:
    """prod[k][j] = j * gens[k] as a table index, or -1 for zero, found
    without the table's own record of its products: for the paths of a
    monomial algebra A, by looking up the literal of j extended by the
    arrow of gens[k]; for a multiplication table, from its product."""
    at = {name: j for j, name in enumerate(T.basis)}
    if table is not None:
        index = {name: i for i, name in enumerate(table.basis)}

        def product(j, g):
            i = table.table[index[T.basis[j]]][index[T.basis[g]]]
            return at[table.basis[i]] if i >= 0 else -1

        return [[product(j, g) for j in range(len(T.basis))] for g in T.gens]
    prod = [[-1] * len(T.basis) for _ in T.gens]
    for q in A.paths_from():
        for k, a in enumerate(A.quiver.arrows):
            if a.source == q.target:
                longer = q._replace(target=a.target, arrows=q.arrows + (a.name,))
                prod[k][at[q.literal()]] = at.get(longer.literal(), -1)
    return prod


def test_table_indexes_match_a_scan_of_the_table():
    # The table's products and cached indexes against a literal scan of
    # ends and parent and of products found outside the table: the basis
    # elements by source in index order, the nonzero products of each basis
    # element in generator order, and the checked pairs (every composable
    # pair but those built as a parent) grouped by source, each group in
    # index order of j and then generator order.
    algebras = random_monomial_algebras(11, 12) + [LINE12]
    tables = [(compile_paths(A), _scanned_products(compile_paths(A), A=A))
              for A in algebras]
    tables += [(compile_table(t), _scanned_products(compile_table(t), table=t))
               for t in (xyz_local_table(), KX3, XXW)]
    for T, prod in tables:
        V, n = len(T.vertices), len(T.basis)
        assert T.by_source == tuple(
            tuple(j for j in range(n) if T.ends[j][0] == v) for v in range(V))
        assert all(T.parent[T.by_source[v][0]] is None for v in range(V))
        assert T.products_of == tuple(
            tuple((k, row[j]) for k, row in enumerate(prod) if row[j] >= 0)
            for j in range(n))
        scan = [(j, k, prod[k][j]) for j in range(n)
                for k, g in enumerate(T.gens) if T.ends[j][1] == T.ends[g][0]
                and not (prod[k][j] >= 0 and T.parent[prod[k][j]] == (j, k))]
        assert T.checked_by_source == tuple(
            tuple(c for c in scan if T.ends[c[0]][0] == v) for v in range(V))


def test_check_relations_reads_every_live_vertex():
    # S(v0) + P(v1) + P(v2) over LINE12 lives at v0 .. v4. With a3 sending
    # a1.a2 of P(v1) to a2.a3 of P(v2), the relation a1.a2.a3 fails on the
    # module, and only a pair whose basis element starts at v1, not at the
    # first live vertex v0, sees it.
    M = module_expr([(simple_key(LINE12, "v0"), 1),
                     (projective_key(LINE12, "v1"), 1),
                     (projective_key(LINE12, "v2"), 1)])
    r = rep_of(M, LINE12, P)
    assert r.dims == ((0, 1), (1, 1), (2, 2), (3, 2), (4, 1))
    assert dict(r.mats)[3] == ((), ((0, 1),))
    broken = with_entry(r, 3, 0, 0, 1)
    assert dict(broken.mats)[3] == (((0, 1),), ((0, 1),))
    T = r.table
    assert [T.basis[j] for j, _, _ in T.checked_by_source[1]] == ["a1.a2"]
    with pytest.raises(InternalInconsistencyError, match="a1.a2 \\* a3 = 0"):
        broken.check_relations()
    r.check_relations()


# A line whose only relation is a0.a1.a2.a3, so paths of length 2 and 3 live.
LINE5 = make_algebra(
    "algebra line5\n"
    + "".join(f"vertex v{i}\n" for i in range(5))
    + "".join(f"arrow a{i} : v{i} -> v{i + 1}\n" for i in range(4))
    + "relation a0.a1.a2.a3\n")


def _products_by_caller(monkeypatch, run):
    """Run `run` with _act recorded: the name of each calling function,
    with the basis element it builds when that is _along_parents."""
    import syzcx.oracle as oracle

    calls = []

    def recorded(gcols, image, p):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_locals.get("j")))
        return _act(gcols, image, p)

    monkeypatch.setattr(oracle, "_act", recorded)
    run()
    monkeypatch.undo()
    return calls


def test_no_product_applies_a_generator_to_unit_columns(monkeypatch):
    # A lift, and the identity check_relations starts from, are unit columns:
    # a generator applied to them (a path of length 1) is a column
    # selection, so only paths of length 2 or more multiply.
    T = compile_paths(LINE5)
    built = lambda calls: sorted(T.basis[j] for name, j in calls
                                 if name == "_along_parents")
    # P(v0) has basis e(v0), a0, a0.a1, a0.a1.a2, and a3 acts by zero. Only
    # a0.a1, a0.a1.a2 and a1.a2 need a product, and no check multiplies.
    P0 = singleton(projective_key(LINE5, "v0"))
    calls = _products_by_caller(monkeypatch, lambda: rep_of(P0, LINE5, P))
    assert built(calls) == ["a0.a1", "a0.a1.a2", "a1.a2"]
    assert len(calls) == 3
    # rad P(v0) is covered by P(v1), whose a1.a2 is the one image that needs
    # a product. Its kernel is a1.a2.a3 at v4 alone, and the membership
    # check multiplies nothing.
    r = rep_of(singleton(simple_key(LINE5, "v0")), LINE5, P).syzygy()
    assert r.dims == ((1, 1), (2, 1), (3, 1))
    calls = _products_by_caller(monkeypatch, r.syzygy)
    assert built(calls) == ["a1.a2"]
    assert len(calls) == 1
    assert r.syzygy().dims == ((4, 1),)


def test_oracle_never_calls_the_symbolic_syzygy_rule(fib, monkeypatch):
    import syzcx.oracle as oracle
    import syzcx.syzygy as syzygy

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the symbolic syzygy rule")

    assert not hasattr(oracle, "syzygy_key")
    monkeypatch.setattr(syzygy, "syzygy_key", forbidden)
    r = rep_of(resolve_module(fib, "Mix"), fib, P)
    assert dim_sequence(r, 6) == [5, 2, 4, 6, 10, 16, 26]


def test_dim_sequence_rejects_negative(fib):
    r = rep_of(singleton(simple_key(fib, "1")), fib, P)
    with pytest.raises(ValueError):
        dim_sequence(r, -1)


def test_dim_cap(fib, monkeypatch):
    monkeypatch.setenv("SYZCX_DIM_CAP", "50")
    r = rep_of(singleton(simple_key(fib, "1")), fib, P)
    with pytest.raises(DimensionCapExceededError) as exc:
        dim_sequence(r, 20)
    assert exc.value.dims == fibonacci_numbers(10)  # F(10) = 55 > 50


def test_dim_cap_env_override(fib, monkeypatch):
    monkeypatch.setenv("SYZCX_DIM_CAP", "50")
    r = rep_of(singleton(simple_key(fib, "1")), fib, P)
    with pytest.raises(DimensionCapExceededError):
        dim_sequence(r, 20)
    monkeypatch.setenv("SYZCX_DIM_CAP", str(DEFAULT_DIM_CAP))
    assert dim_sequence(r, 20)[-1] == fibonacci_numbers(21)[-1]


def test_compile_paths_checks_the_cap_on_every_call(fib, a2, monkeypatch):
    # A table already compiled is refused over the cap like a new one, and a
    # malformed cap is an error whether or not the table is cached.
    assert compile_paths(fib) is compile_paths(fib)
    assert fib.dimension == 5 and a2.dimension == 3
    monkeypatch.setenv("SYZCX_DIM_CAP", "1")
    for A in (fib, a2):
        with pytest.raises(DimensionCapExceededError):
            compile_paths(A)
    monkeypatch.setenv("SYZCX_DIM_CAP", "abc")
    for A in (fib, a2):
        with pytest.raises(ValidationError):
            compile_paths(A)
    monkeypatch.setenv("SYZCX_DIM_CAP", "5")
    assert compile_paths(fib) is compile_paths(fib)


def _path_table_by_arrow_tuples(A):
    """The path table's fields by hashing each path's arrow tuple: the
    reference for compile_paths, which numbers extensions by (parent,
    arrow)."""
    Q = A.quiver
    paths = tuple(A.paths_from())
    at = {(q.source, q.arrows): j for j, q in enumerate(paths)}
    return (tuple(q.literal() for q in paths),
            tuple((Q.vertex_index[q.source], Q.vertex_index[q.target])
                  for q in paths),
            tuple(at[(a.source, (a.name,))] for a in Q.arrows),
            tuple((at[(q.source, q.arrows[:-1])],
                   Q.arrow_index[q.arrows[-1]]) if q.arrows else None
                  for q in paths),
            tuple(tuple((k, at[(q.source, q.arrows + (a.name,))])
                        for k, a in enumerate(Q.arrows)
                        if (q.source, q.arrows + (a.name,)) in at)
                  for q in paths))


def test_compile_paths_matches_the_arrow_tuple_lookup():
    gen, rng = family_gen(), random.Random(2210)
    family = [make_algebra(gen.algebra_text(
        f"fam{i}", gen.family_algebra(rng.randint(20, 28), rng)))
        for i in range(2)]
    loop = make_algebra("algebra xL\nvertex 1\narrow x : 1 -> 1\n"
                        "relation " + ".".join(["x"] * 40) + "\n")
    for A in (random_monomial_algebras(41, 8) + family
              + [make_algebra(FIB_TEXT), make_algebra(LOOP3_TEXT), loop]):
        T = compile_paths(A)
        assert (T.basis, T.ends, T.gens, T.parent, T.products_of) == \
            _path_table_by_arrow_tuples(A)
        assert T.vertices == A.quiver.vertices


# -- multiplication tables ------------------------------------------------------------

def test_xyz_table_shape():
    t = xyz_local_table()
    assert t.basis == ("1", "x", "y", "z", "xy")
    i = {b: k for k, b in enumerate(t.basis)}
    assert t.table[i["x"]][i["y"]] == i["xy"]
    assert t.table[i["y"]][i["x"]] == i["xy"]
    assert t.table[i["x"]][i["x"]] == -1
    assert t.table[i["x"]][i["z"]] == -1
    assert t.check() == 0


# 1, x, y with x*x = y and everything longer zero: k[x]/(x^3).
KX3 = AlgebraTable("kx3", ("1", "x", "y"), ((0, 1, 2), (1, 2, -1), (2, -1, -1)))


def test_table_check_accepts_truncated_polynomial_ring():
    KX3.check()


def test_compile_table_generators():
    # The generators are the radical elements that are not products.
    for t, names in ((KX3, ["x"]), (xyz_local_table(), ["x", "y", "z"])):
        T = compile_table(t)
        assert [T.basis[g] for g in T.gens] == names


def test_table_and_path_compilations_agree(loop3):
    # k[x]/(x^3) as a table and as the monomial algebra loop3.
    for p in PRIMES:
        assert (dim_sequence(table_rep(KX3, "k", p), 8)
                == dim_sequence(rep_of(singleton(simple_key(loop3, "1")),
                                       loop3, p), 8))
        assert (dim_sequence(table_rep(KX3, "regular", p), 3)
                == dim_sequence(rep_of(singleton(projective_key(loop3, "1")),
                                       loop3, p), 3)
                == [3, 0, 0, 0])


# 1, x, y, w with x*x = x*y = y*x = y*y = w: a table whose products collide.
XXW = AlgebraTable("xxw", ("1", "x", "y", "w"),
                   ((0, 1, 2, 3), (1, 3, 3, -1), (2, 3, 3, -1), (3, -1, -1, -1)))


def test_colliding_table_products_accumulate():
    # x*x = x*y = y*x = y*y = w: right multiplication by x sends both x and
    # y to w. With u = x - y this is the monomial algebra on two loops x, u
    # with relations u.x, x.u, u.u, x.x.x, so both must give the same dims.
    XXW.check()
    loops = make_algebra("algebra xu\nvertex 1\narrow x : 1 -> 1\n"
                         "arrow u : 1 -> 1\nrelation u.x\nrelation x.u\n"
                         "relation u.u\nrelation x.x.x\n")
    want = dim_sequence(rep_of(singleton(simple_key(loops, "1")), loops, P), 6)
    assert want[:3] == [1, 3, 5]
    for p in PRIMES:
        assert dim_sequence(table_rep(XXW, "k", p), 6) == want


def test_table_check_rejects_non_associative():
    # x*y = x makes (x*x)*y = y*y = 0 disagree with x*(x*y) = x*x = y.
    bad = AlgebraTable(
        "bad", ("1", "x", "y"),
        ((0, 1, 2), (1, 2, 1), (2, -1, -1)),
    )
    with pytest.raises(ValidationError):
        bad.check()


def test_table_check_requires_local():
    # Two orthogonal idempotents have no two-sided identity; beside an
    # identity, a second idempotent e (e*e = e) is not nilpotent.
    two = AlgebraTable("e2", ("e", "f"), ((0, -1), (-1, 1)))
    with pytest.raises(ValidationError, match="no two-sided identity"):
        two.check()
    idem = AlgebraTable("1e", ("1", "e"), ((0, 1), (1, 1)))
    with pytest.raises(ValidationError, match="e is not nilpotent"):
        idem.check()


def test_table_rep_checks_the_table():
    # 1, x, y, z with x*x = y, y*x = z and every other radical product 0:
    # x generates and spans the table, but (x*x)*x = z and x*(x*x) = 0.
    t = AlgebraTable("xyz-chain", ("1", "x", "y", "z"),
                     ((0, 1, 2, 3), (1, 2, -1, -1), (2, 3, -1, -1),
                      (3, -1, -1, -1)))
    for p in PRIMES:
        with pytest.raises(ValidationError, match="not associative"):
            table_rep(t, "k", p)


def test_table_identity_is_found_anywhere_in_the_basis():
    # k[x]/(x^3) on the basis x, 1, x^2: the identity is index 1.
    t = AlgebraTable("kx3-shuffled", ("x", "1", "y"),
                     ((2, 0, -1), (0, 1, 2), (-1, 2, -1)))
    assert t.check() == 1
    assert compile_table(t).basis == KX3.basis
    for p in PRIMES:
        for module in ("k", "regular"):
            assert (dim_sequence(table_rep(t, module, p), 6)
                    == dim_sequence(table_rep(KX3, module, p), 6))


def test_builtin_tables():
    assert BUILTIN_TABLE_IDS == ("xyz-local",)
    assert builtin_table("xyz-local").name == "xyz-local"
    with pytest.raises(ValidationError):
        builtin_table("nope")


def test_table_rep_modules():
    t = xyz_local_table()
    k = table_rep(t, "k", P)
    assert k.total_dim == 1
    reg = table_rep(t, "regular", P)
    assert reg.total_dim == 5
    with pytest.raises(ValidationError):
        table_rep(t, "nope", P)


def test_table_rep_checks_products():
    # sabotage: let y send x to zero, so x*y and y*x no longer agree
    r = table_rep(xyz_local_table(), "regular", P)
    broken = with_entry(r, 1, 4, 1, 0)
    assert broken.mats[1][1][1] == () and r.mats[1][1][1] == ((4, 1),)
    with pytest.raises(InternalInconsistencyError):
        broken.check_relations()
    r.check_relations()


def test_xyz_dim_sequence():
    t = xyz_local_table()
    r = table_rep(t, "k", P)
    assert dim_sequence(r, 5) == [1, 4, 11, 29, 76, 199]


def test_xyz_regular_is_projective():
    t = xyz_local_table()
    r = table_rep(t, "regular", P)
    assert dim_sequence(r, 3) == [5, 0, 0, 0]


def test_xyz_expected_dims_recurrence():
    f = xyz_local_expected_dims(13)
    assert f[:5] == [1, 4, 11, 29, 76]
    for n in range(1, 13):
        assert f[n + 1] == 3 * f[n] - f[n - 1]


def test_actions_are_stored_as_nonzero_sparse_columns(fib):
    # A representation holds only its support: a dims pair (v, d) for each
    # vertex where d > 0, in vertex order, and a mats pair for each
    # generator exactly when it acts by a nonzero map, in generator order,
    # holding one column per source coordinate, of target rows and residues
    # in [1, p), () where the column is zero; dense() renders it as uint16
    # residues, and the representation hashes.
    cases = [table_rep(xyz_local_table(), "k", p) for p in PRIMES]
    cases += [rep_of(resolve_module(fib, m), fib, p)
              for m in ("S1", "Mix") for p in PRIMES]
    cases += [table_rep(XXW, "k", p) for p in PRIMES]
    cases.append(table_rep(KX3, "regular", P))
    stored = 0
    for r in cases:
        T = r.table
        for _ in range(6):
            assert hash(r) == hash(r._replace())
            assert all(d > 0 for _, d in r.dims)
            for pairs in (r.dims, r.mats):
                keys = [key for key, _ in pairs]
                assert keys == sorted(set(keys))
            dims, mats = dict(r.dims), dict(r.mats)
            for k, g in enumerate(T.gens):
                s, t = (dims.get(v, 0) for v in T.ends[g])
                dense = r.dense(T.basis[g])
                assert dense.dtype == np.uint16 and dense.shape == (t, s)
                m = mats.get(k)
                assert (m is None) == (not dense.any())
                assert m is None or len(m) == s
                for c, col in enumerate(m or ()):
                    assert type(col) is tuple
                    assert all(0 <= i < t and 0 < v < r.p for i, v in col)
                    assert len({i for i, _ in col}) == len(col)
                    assert dict(col) == {i: v for i, v in
                                         enumerate(dense[:, c].tolist()) if v}
                stored += m is not None
            r = r.syzygy()
    assert stored >= 40


def test_xyz_to_n8_fits_in_memory():
    # Each of the three action matrices of the n = 8 step is 3571 x 3571;
    # with int64 storage the step peaked near 1 GB.
    want = xyz_local_expected_dims(8)
    for p in PRIMES:
        tracemalloc.start()
        try:
            dims = dim_sequence(table_rep(xyz_local_table(), "k", p), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dims == want
        assert peak < 400 * 2**20


def test_xyz_to_n9_fits_in_32_mb():
    # The n = 9 step gives x and y actions of 9349 x 9349 with 2584 nonzeros
    # each; stored densely, that run peaked at 387 MB.
    want = xyz_local_expected_dims(9)
    for p in PRIMES:
        tracemalloc.start()
        try:
            dims = dim_sequence(table_rep(xyz_local_table(), "k", p), 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dims == want
        assert peak < 32 * 2**20


def test_xyz_oracle_matches_bookkeeping():
    t = xyz_local_table()
    for p in PRIMES:
        r = table_rep(t, "k", p)
        assert dim_sequence(r, 6) == xyz_local_expected_dims(6)


def test_pinned_oracle_hash():
    # Every dimension and every action, byte for byte, of a seeded corpus at
    # both primes: simples and projectives of random monomial algebras (two
    # of them with 13 and 14 vertices), stepped while the dimension is at
    # most 120, and xyz-local k and the regular module.
    algebras = (random_monomial_algebras(41, 8)
                + random_monomial_algebras(48, 3, max_vertices=14))
    assert max(len(A.quiver.vertices) for A in algebras) >= 10
    h = hashlib.sha256()

    def feed(r):
        h.update(dense_bytes(r))

    for p in PRIMES:
        for A in algebras:
            for v in A.quiver.vertices:
                for key in (simple_key(A, v), projective_key(A, v)):
                    r = rep_of(singleton(key), A, p)
                    for _ in range(8):
                        feed(r)
                        if not 0 < r.total_dim <= 120:
                            break
                        r = r.syzygy()
        for module, n in (("k", 6), ("regular", 5)):
            r = table_rep(xyz_local_table(), module, p)
            for _ in range(n):
                r = r.syzygy()
                feed(r)
    assert h.hexdigest()[:16] == "bffb08e9e1da5f0d"


def test_pinned_oracle_hash_at_scale():
    # The same hash over steps beyond that corpus, at both primes: simples
    # of random monomial algebras stepped while the dimension is at most
    # 2000 (the largest step gives 6828), xyz-local k to n = 7 and the
    # regular module to n = 6. Pinned from the dense float64 engine.
    h = hashlib.sha256()
    seen = []

    def feed(r):
        seen.append(r.total_dim)
        h.update(dense_bytes(r))

    for p in PRIMES:
        for A in random_monomial_algebras(2, 6):
            for v in A.quiver.vertices:
                r = rep_of(singleton(simple_key(A, v)), A, p)
                feed(r)
                for _ in range(12):
                    if not 0 < r.total_dim <= 2000:
                        break
                    r = r.syzygy()
                    feed(r)
        for module, n in (("k", 7), ("regular", 6)):
            r = table_rep(xyz_local_table(), module, p)
            for _ in range(n):
                r = r.syzygy()
                feed(r)
    assert max(seen) == 6828 and xyz_local_expected_dims(7)[7] in seen
    assert h.hexdigest()[:16] == "d9fee98a422239d7"


# -- dimension sequences on coordinate blocks ---------------------------------------

def _two_kx3_blocks(p):
    """Two 4-dimensional modules over k[x]/(x^3), on the even and the odd
    coordinates: x sends the top pair to e + f and e + c f, with c = 1 and
    c = 2. Their actions have the same nonzero entries, but x has rank 1
    and 2, so their syzygies have dimension 3 * 3 - 4 = 5 and 2 * 3 - 4 = 2."""
    act = (((4, 1), (6, 1)), ((5, 1), (7, 1)), ((4, 1), (6, 1)),
           ((7, 2), (5, 1))) + ((),) * 4
    R = TableRepresentation(compile_table(KX3), p, ((0, 8),), ((0, act),))
    R.check_relations()
    return R


def _zero_module(A, p):
    return TableRepresentation(compile_paths(A), p, (), ())


def test_dim_sequence_matches_the_literal_iteration():
    # Simples, projectives and a sum with multiplicities over random
    # monomial algebras, fib.alg's J = 2*M(a) + M(b), xyz-local k and regular, KX3,
    # XXW (colliding products), the KX4 module with xn = x^2 m, which does
    # not split, two blocks that differ only in a residue, and a zero
    # module, at both primes, as deep (up to 8) as the dimension stays <=
    # 1500.
    fib = make_algebra(FIB_ALG.read_text())
    algebras = random_monomial_algebras(41, 8) + [fib]
    checked = split = 0
    for p in PRIMES:
        cases = []
        for A in algebras:
            keys = [f(A, v) for v in A.quiver.vertices
                    for f in (simple_key, projective_key)]
            cases += [rep_of(singleton(key), A, p) for key in keys]
            cases.append(rep_of(module_expr(
                [(key, i % 3 + 1) for i, key in enumerate(keys)]), A, p))
        cases.append(rep_of(resolve_module(fib, "J"), fib, p))
        cases += [table_rep(t, m, p) for t in (xyz_local_table(), KX3)
                  for m in ("k", "regular")]
        cases.append(table_rep(XXW, "k", p))
        cases.append(kx4_module(p))
        cases.append(_two_kx3_blocks(p))
        cases.append(_zero_module(fib, p))
        for R in cases:
            want = literal_dims(R, 8, bound=1500)
            assert dim_sequence(R, len(want) - 1) == want
            checked += 1
            split += sum(_blocks(R).values()) > 1
    assert checked == 2 * (sum(2 * len(A.quiver.vertices) + 1
                               for A in algebras) + 9)
    assert split >= 20


def test_interned_blocks_give_the_literal_dimensions():
    # dim_sequence, which keeps a syzygy as multiplicities of the block ids
    # of its table, against the literal iteration at both primes: the
    # simples, projectives and sums with multiplicities of seeded draws,
    # the KX4 module, and xyz-local k, whose syzygies hold one block many
    # times. Afterwards
    # every table holds each block under one id, with its dimension, and
    # each stepped block's children add up to its syzygy's dimension.
    algebras = random_monomial_algebras(59, 10)
    tables, checked = set(), 0
    for p in PRIMES:
        cases = [table_rep(xyz_local_table(), "k", p), kx4_module(p)]
        for A in algebras:
            keys = [f(A, v) for v in A.quiver.vertices
                    for f in (simple_key, projective_key)]
            cases += [rep_of(singleton(key), A, p) for key in keys]
            cases.append(rep_of(module_expr(
                [(key, i % 3 + 1) for i, key in enumerate(keys)]), A, p))
        for R in cases:
            want = literal_dims(R, 7, bound=2000)
            assert dim_sequence(R, len(want) - 1) == want
            tables.add(R.table)
            checked += 1
    assert checked > 150
    repeated = 0
    for T in tables:
        assert len(T.block_ids) == len(T.blocks)
        assert len({b for b, _, _ in T.blocks}) == len(T.blocks)
        for i, (b, dim, kids) in enumerate(T.blocks):
            assert T.block_ids[b] == i and dim == b.total_dim and b.table is T
            if kids is not None:
                assert sum(n * T.blocks[c][1] for c, n in kids) == \
                    syzygy_rep(b).total_dim
                repeated += any(n > 1 for _, n in kids)
    assert repeated >= 5


def test_blocks_are_the_direct_summands_in_order():
    # The two KX3 blocks are found on interleaved coordinates, renumbered in
    # order, their column entries sorted; the KX4 module is one block, and
    # its own; the zero module has none.
    R = _two_kx3_blocks(P)
    T = R.table
    blocks = _blocks(R)
    assert blocks == {
        TableRepresentation(T, P, ((0, 4),), ((0, (((2, 1), (3, 1)),
                                                   ((2, 1), (3, 1)), (), ())),)): 1,
        TableRepresentation(T, P, ((0, 4),), ((0, (((2, 1), (3, 1)),
                                                   ((2, 1), (3, 2)), (), ())),)): 1}
    M = kx4_module(P)
    assert _blocks(M) == {M: 1}
    zero = _zero_module(make_algebra(FIB_TEXT), P)
    assert _blocks(zero) == {}
    assert dim_sequence(zero, 3) == [0, 0, 0, 0]


def test_a_block_is_the_same_value_however_it_is_built():
    # A block built by _span_rep and the same block cut out of a direct sum
    # by _blocks are equal and hash equal, so they share a memo entry; a
    # zero map stored as an entry of empty columns comes out with no entry.
    import syzcx.oracle as oracle

    fib = make_algebra(FIB_TEXT)
    T = compile_paths(fib)
    P2 = rep_of(singleton(projective_key(fib, "2")), fib, P)
    S1 = rep_of(singleton(simple_key(fib, "1")), fib, P)
    Mix = rep_of(resolve_module(fib, "Mix"), fib, P)
    summands = [[j for j, (s, _) in enumerate(T.ends) if s == 1], [0]]
    assert oracle._span_rep(T, P, summands[:1]) == P2
    total = oracle._span_rep(T, P, summands)
    blocks = _blocks(total)
    assert blocks == {P2: 1, S1: 1}
    assert _blocks(Mix) == {P2: 1, S1: 2}  # Mix = 2*S(1) + P(2)
    assert {hash(b) for b in blocks} == {hash(P2), hash(S1)}
    dims = dict(S1.dims)
    empty = S1._replace(mats=tuple((k, ((),) * dims.get(T.ends[g][0], 0))
                                   for k, g in enumerate(T.gens)))
    assert empty.mats and empty != S1
    assert _blocks(empty) == {S1: 1}


# -- crosscheck -------------------------------------------------------------------------

def test_crosscheck_agree(fib):
    rpt = crosscheck(fib, resolve_module(fib, "S1"), 12)
    assert rpt.agree
    assert rpt.first_mismatch is None
    assert rpt.dims_quiver == rpt.dims_oracle == tuple(fibonacci_numbers(13))
    doc = rpt.to_json()
    assert doc["agree"] is True
    assert doc["first_mismatch"] is None
    assert doc["quiver"] == list(fibonacci_numbers(13))


def test_crosscheck_mixed_module(fib):
    rpt = crosscheck(fib, resolve_module(fib, "Mix"), 8)
    assert rpt.agree


def test_crosscheck_compiles_each_table_once(monkeypatch):
    # Two algebras crosschecked alternately keep one table each, and the
    # table, with the blocks the crosschecks numbered, goes with its
    # algebra.
    import syzcx.oracle as oracle

    algebras = [make_algebra(FIB_TEXT), make_algebra(LOOP3_TEXT)]
    tables, built = {}, []

    class Counted(oracle.GradedTable):
        def __init__(self, *args, **kwargs):
            built.append(True)
            super().__init__(*args, **kwargs)

    def recorded(A):
        T = compile_paths(A)
        tables.setdefault(id(A), {})[id(T)] = weakref.ref(T)
        return T

    monkeypatch.setattr(oracle, "GradedTable", Counted)
    monkeypatch.setattr(oracle, "compile_paths", recorded)
    for _ in range(3):
        for A in algebras:
            assert crosscheck(A, resolve_module(A, "S1"), 4).agree
    assert len(built) == 2
    assert all(len(refs) == 1 for refs in tables.values())
    monkeypatch.undo()
    refs = [ref for held in tables.values() for ref in held.values()]
    assert len(refs) == 2 and all(ref() is not None for ref in refs)
    assert all(ref().blocks for ref in refs)
    del algebras, A
    gc.collect()
    assert all(ref() is None for ref in refs)
    # A compile_table table, blocks and all, goes with its representation.
    R = table_rep(xyz_local_table(), "k", P)
    assert dim_sequence(R, 6) == xyz_local_expected_dims(6)
    ref = weakref.ref(R.table)
    assert ref().blocks
    del R
    gc.collect()
    assert ref() is None


def test_block_memo_steps_each_distinct_block_once_per_table_and_prime(
        monkeypatch):
    # Crosschecks of every simple of one benchmark family draw share the
    # blocks the algebra's table numbers: over all calls syzygy_rep sees
    # each distinct block once, at each prime apart, and a second round
    # steps nothing and gives the same sequences. The blocks each sequence
    # met, step by step, are read back off the ids and children it left.
    import syzcx.oracle as oracle

    gen = family_gen()
    alg = gen.family_algebra(21, random.Random(2210))
    A = make_algebra(gen.algebra_text("fam", alg))
    T = compile_paths(A)
    calls, stepped = [], []
    sequence = oracle.dim_sequence

    def counted_sequence(R, N):
        calls.append((R, N))
        return sequence(R, N)

    def counted(R):
        assert _blocks(R) == {R: 1}
        stepped.append(R)
        return syzygy_rep(R)

    monkeypatch.setattr(oracle, "dim_sequence", counted_sequence)
    monkeypatch.setattr(oracle, "syzygy_rep", counted)
    simples = [singleton(simple_key(A, v)) for v in A.quiver.vertices]
    reports = [crosscheck(A, M, 10) for M in simples]
    assert all(r.agree for r in reports)
    assert [R.p for R, _ in calls] == list(PRIMES) * len(simples)
    met = []
    for R, N in calls:
        mults = {T.block_ids[b]: n for b, n in _blocks(R).items()}
        for _ in range(N):
            blocks = [T.blocks[i][0] for i in mults]
            assert all(b.table is T and b.p == R.p for b in blocks)
            met += blocks
            out = {}
            for i, mult in mults.items():
                for c, count in T.blocks[i][2]:
                    out[c] = out.get(c, 0) + mult * count
            mults = out
    assert len(stepped) == len(set(stepped)) and set(stepped) == set(met)
    assert {b.p for b in stepped} == set(PRIMES)
    assert len(met) > 10 * len(stepped)
    assert {b for b, _, kids in T.blocks if kids is not None} == set(stepped)
    for b, _, kids in T.blocks:
        assert all(T.blocks[c][0].table is b.table and T.blocks[c][0].p == b.p
                   for c, _ in kids or ())
    first = len(stepped)
    assert [crosscheck(A, M, 10) for M in simples] == reports
    assert len(stepped) == first


def test_benchmark_oracle_pass_takes_at_most_166_steps(monkeypatch):
    # The bound of the CI guard on the traced oracle pass at seed 1
    # (oracle.syzygy_steps <= 166), counted without the tracer over the
    # same inputs: xyz-local k stepped xyz_n times at each prime, then the
    # crosscheck of every simple of each family draw at its depth, whose
    # block steps call syzygy_rep.
    import syzcx.oracle as oracle

    inputs = family_gen().make_inputs("oracle", 1)
    assert inputs["primes"] == len(PRIMES)
    steps = []

    def counted(R):
        steps.append(R)
        return syzygy_rep(R)

    monkeypatch.setattr(oracle, "syzygy_rep", counted)
    for p in PRIMES:
        R = table_rep(xyz_local_table(), "k", p)
        for _ in range(inputs["xyz_n"]):
            R = counted(R)
    assert len(steps) == 2 * inputs["xyz_n"] == 14
    for fam in inputs["algebras"]:
        A = make_algebra(fam["text"])
        for simple in fam["simples"]:
            M = resolve_module(A, simple["module"])
            assert crosscheck(A, M, simple["depth"]).agree
    assert len(steps) <= 166


@pytest.mark.parametrize("k", [1, 4])
def test_a_failed_block_step_leaves_no_memo_entry(monkeypatch, k):
    # syzygy_rep runs out of memory on the k-th block step: the error
    # carries the partial dimensions, the table holds children for the
    # k - 1 blocks stepped before and not for the failed one, and the next
    # sequence over the same algebra is that of a freshly validated copy.
    import syzcx.oracle as oracle

    gen = family_gen()
    text = gen.algebra_text("fam", gen.family_algebra(21, random.Random(2210)))
    A = make_algebra(text)
    M = module_expr([(simple_key(A, v), 1) for v in A.quiver.vertices])
    seen = []

    def failing(R):
        seen.append(R)
        if len(seen) == k:
            raise MemoryError
        return syzygy_rep(R)

    monkeypatch.setattr(oracle, "syzygy_rep", failing)
    with pytest.raises(DimensionCapExceededError) as err:
        dim_sequence(rep_of(M, A, P), 10)
    monkeypatch.undo()
    done = [b for b, _, kids in compile_paths(A).blocks if kids is not None]
    assert len(seen) == k and seen[-1] not in done
    assert set(done) == set(seen[:-1])
    fresh = make_algebra(text)
    want = dim_sequence(rep_of(M, fresh, P), 10)
    assert err.value.dims == want[:len(err.value.dims)]
    assert dim_sequence(rep_of(M, A, P), 10) == want


def test_crosscheck_report_mismatch_shape():
    rpt = CrosscheckReport((1, 2), (1, 3), False, 1)
    doc = rpt.to_json()
    assert doc["agree"] is False and doc["first_mismatch"] == 1
