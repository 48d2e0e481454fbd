"""Shared fixtures: small algebras with hand-checkable resolutions and a
seeded generator of radical-square-zero algebras (every length-2 path a
relation)."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import syzcx
from syzcx.algebra import Path as QuiverPath, parse_algebra, validate_algebra
from syzcx.polynomials import IntPolynomial, _content_free, _pseudo_divmod
from syzcx.syzygy import ModuleExpr, module_expr, syzygy_key

# Two vertices; the only nonzero paths are the trivial ones and the three
# arrows, so dim P(1) = 2, dim P(2) = 3 and the syzygy dimensions of S1
# satisfy the Fibonacci recursion.
FIB_TEXT = """\
algebra fib
vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow g : 2 -> 2
relation a.b
relation a.g
relation b.a
relation g.b
relation g.g
module S1 = S(1)
module S2 = S(2)
module P1 = P(1)
module Mix = 2*S(1) + P(2)
"""

# Truncated polynomial ring k[x]/(x^3): syzygies of k alternate between the
# radical (dim 2) and the socle (dim 1).
LOOP3_TEXT = """\
algebra loop3
vertex 1
arrow x : 1 -> 1
relation x.x.x
module S1 = S(1)
"""

# One relation of length 4 on the alternating two-cycle.
TWOSTEP_TEXT = """\
algebra twostep
vertex 1
vertex 2
arrow u : 1 -> 2
arrow v : 2 -> 1
relation u.v.u.v
module S1 = S(1)
"""

# Two-vertex path quiver with no relations: S(1) has projective dimension 1.
A2_TEXT = """\
algebra a2
vertex 1
vertex 2
arrow a : 1 -> 2
module S1 = S(1)
"""

# Three-cycle with a truncated loop hanging at vertex 2 and two length-3
# relations; exercises relations of mixed lengths.
CHAIN_TEXT = """\
algebra chain
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
arrow d : 2 -> 2
relation a.d
relation d.b
relation d.d
relation c.a.b
relation b.c.a
module S1 = S(1)
"""


def make_algebra(text):
    return validate_algebra(parse_algebra(text))


def singleton(key):
    """The cyclic module named by `key`, as a one-term ModuleExpr."""
    return ModuleExpr(((key, 1),))


def syzygy_step(M, A):
    """First syzygy of a direct sum, additively."""
    return module_expr((k, c * mult) for key, mult in M.terms
                       for k, c in syzygy_key(key, A).terms)


def evaluate(p, x):
    """p(x) by Horner's rule; exact for int and Fraction x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def path_sort_key(A, p):
    """The order of `A.paths_from`: length, then the index of the source
    vertex, then the indices of the arrows."""
    aidx = A.quiver.arrow_index
    return (len(p.arrows), A.quiver.vertex_index[p.source],
            tuple(aidx[n] for n in p.arrows))


def word_window_moves(A):
    """The forbidden-factor automaton of A as the word-window construction
    builds it, the reference for the Aho-Corasick automaton: a state is a
    vertex plus the last <= R-1 arrows of a nonzero path (R the longest
    relation length), and an arrow has a move unless the word it ends ends
    with a relation. moves[state] maps arrow names to states, in
    arrows_from order; state i is the trivial path at the i-th vertex."""
    Q = A.quiver
    keep = A.max_relation_length - 1
    words = {r.arrows for r in A.relations}
    lengths = {len(w) for w in words}
    index = {(v, ()): i for i, v in enumerate(Q.vertices)}
    states = list(index)
    moves = []
    for vertex, word in states:  # grows while it is scanned
        out = {}
        for a in Q.arrows_from(vertex):
            new = word + (a.name,)
            if any(new[len(new) - k:] in words
                   for k in lengths if k <= len(new)):
                continue  # new ends with a relation
            key = (a.target, new[max(0, len(new) - keep):])
            if key not in index:
                index[key] = len(states)
                states.append(key)
            out[a.name] = index[key]
        moves.append(out)
    return moves


def reference_state(A, moves, p):
    """The state of the reference automaton `moves` after reading p from
    its source, or None when p is zero."""
    state = A.quiver.vertex_index[p.source]
    for name in p.arrows:
        state = moves[state].get(name)
        if state is None:
            return None
    return state


def reference_paths(A, moves):
    """The nonzero paths in paths_from order, breadth-first over `moves`."""
    Q = A.quiver
    layer = [(i, QuiverPath(v, v, ())) for i, v in enumerate(Q.vertices)]
    out = []
    while layer:
        out += [p for _, p in layer]
        layer = [(j, QuiverPath(p.source, Q.arrow_by_name[a].target,
                                p.arrows + (a,)))
                 for i, p in layer for a, j in moves[i].items()]
    return out


def reference_killers(A, moves, p):
    """The minimal killers of a nonzero path p, from the reference zero test
    alone: breadth first over the nonzero paths w from target(p), each
    extended until p.w is zero, with no bound on the length of w."""
    Q = A.quiver
    out = []
    layer = [QuiverPath(p.target, p.target, ())]
    while layer:
        nxt = []
        for w in layer:
            for a in Q.arrows_from(w.target):
                wa = QuiverPath(w.source, a.target, w.arrows + (a.name,))
                if reference_state(A, moves, wa) is None:
                    continue
                pwa = QuiverPath(p.source, a.target, p.arrows + wa.arrows)
                if reference_state(A, moves, pwa) is None:
                    out.append(wa)
                else:
                    nxt.append(wa)
        layer = nxt
    return tuple(sorted(out, key=lambda k: (len(k.arrows), k.arrows)))


def clear_caches():
    """Empty every function cache of every syzcx module."""
    for name, module in list(sys.modules.items()):
        if name.startswith("syzcx."):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def perfbench_module(name):
    """A module of the benchmark (perfbench/), imported read-only."""
    here = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, here)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(here)


def family_gen():
    """The benchmark's seeded algebra generator (perfbench/gen.py)."""
    return perfbench_module("gen")


def python_process(args, preexec_fn=None, timeout=None, **env):
    """Run `python args` in a child process that imports this checkout's
    syzcx, with `env` added to its environment; raises
    subprocess.TimeoutExpired when it outlives `timeout`."""
    src = str(Path(syzcx.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=full_env, preexec_fn=preexec_fn,
                          timeout=timeout)


def run_python(code, timeout=60):
    """`python -c code` in a child process, by `python_process`."""
    return python_process(["-c", code], timeout=timeout)


@pytest.fixture(scope="session")
def fib():
    return make_algebra(FIB_TEXT)


@pytest.fixture(scope="session")
def loop3():
    return make_algebra(LOOP3_TEXT)


@pytest.fixture(scope="session")
def twostep():
    return make_algebra(TWOSTEP_TEXT)


@pytest.fixture(scope="session")
def a2():
    return make_algebra(A2_TEXT)


@pytest.fixture(scope="session")
def chain():
    return make_algebra(CHAIN_TEXT)


def det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix: the reference
    that characteristic polynomials are checked against, point by point."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gcd_by_remainders(a, b):
    """The gcd over Q, primitive with positive leading coefficient, by
    Euclid's algorithm on pseudo-remainders, each divided by its content:
    the reference for `poly_gcd_q`, which this loop was until the gcd came
    from one integer gcd."""
    u, v = _content_free(a.coeffs), _content_free(b.coeffs)
    while v:
        u, v = v, _content_free(_pseudo_divmod(u, v)[2])
    return IntPolynomial(u).primitive()


def sylvester_rows(A, B):
    """Sylvester matrix in y of A and B, ascending lists of IntPolynomials
    in x, neither zero: deg B shifted rows of A, then deg A shifted rows
    of B, highest y power first, the degrees taken after zero top entries
    are dropped."""
    A, B = list(A), list(B)
    for X in (A, B):
        while X[-1].is_zero:
            X.pop()
    da, db = len(A) - 1, len(B) - 1
    zero = IntPolynomial()
    rows = [[zero] * i + A[::-1] + [zero] * (db - 1 - i) for i in range(db)]
    rows += [[zero] * i + B[::-1] + [zero] * (da - 1 - i) for i in range(da)]
    return rows


def sparse_rows(dense):
    """A dense square integer matrix as the sparse rows that
    `syzcx.spectra` reads: row i lists (j, entry) for each nonzero entry,
    j ascending."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in dense)


def fibonacci_numbers(count):
    fs = [1, 1]
    while len(fs) < count:
        fs.append(fs[-1] + fs[-2])
    return fs[:count]


def random_rsz_text(rng: random.Random, max_vertices=6, max_arrows=10):
    """Random radical-square-zero algebra file: a random quiver plus every
    composable length-2 path as a relation."""
    nv = rng.randint(1, max_vertices)
    na = rng.randint(1, max_arrows)
    arrows = [(f"a{i}", rng.randrange(nv), rng.randrange(nv))
              for i in range(na)]
    lines = ["algebra rsz"]
    lines += [f"vertex v{i}" for i in range(nv)]
    lines += [f"arrow {n} : v{s} -> v{t}" for n, s, t in arrows]
    for n1, _, t1 in arrows:
        for n2, s2, _ in arrows:
            if t1 == s2:
                lines.append(f"relation {n1}.{n2}")
    return "\n".join(lines) + "\n"


def path_count_bound(text, steps=10):
    """Largest number of length-n paths (n <= steps) out of any vertex, from
    the adjacency matrix alone; bounds every syzygy dimension of a simple
    over the radical-square-zero algebra on that quiver."""
    spec = parse_algebra(text)
    verts = list(spec.quiver.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    mat = [[0] * n for _ in range(n)]
    for a in spec.quiver.arrows:
        mat[idx[a.source]][idx[a.target]] += 1
    row = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    worst = 1
    for _ in range(steps):
        row = [[sum(row[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        worst = max(worst, max(sum(r) for r in row))
    return worst


def random_rsz_algebras(seed, count, bound=100_000):
    """Deterministic stream of validated radical-square-zero algebras whose
    10-step path counts stay under `bound` (so oracle runs stay far below the
    dimension cap); oversized draws are skipped and redrawn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = random_rsz_text(rng)
        if path_count_bound(text) > bound:
            continue
        out.append(make_algebra(text))
    return out


def random_monomial_text(rng: random.Random, max_vertices=6):
    """Random monomial algebra file with relations of length 3 to 5: a
    random quiver, every composable path of length L (drawn from 3..5) a
    relation, so the algebra is finite dimensional, plus a few random
    composable paths of length 3..L-1 as further relations."""
    nv = rng.randint(1, max_vertices)
    arrows = [(f"a{i}", rng.randrange(nv), rng.randrange(nv))
              for i in range(rng.randint(1, nv + 2))]
    out: dict[int, list] = {}
    for a in arrows:
        out.setdefault(a[1], []).append(a)

    def walks(length):
        layer = [[a] for a in arrows]
        for _ in range(length - 1):
            layer = [w + [b] for w in layer for b in out.get(w[-1][2], ())]
        return layer

    L = rng.randint(3, 5)
    relations = {tuple(a[0] for a in w) for w in walks(L)}
    for length in range(3, L):
        shorter = walks(length)
        for w in rng.sample(shorter, min(len(shorter), rng.randint(0, 2))):
            relations.add(tuple(a[0] for a in w))
    lines = ["algebra mono"]
    lines += [f"vertex v{i}" for i in range(nv)]
    lines += [f"arrow {n} : v{s} -> v{t}" for n, s, t in arrows]
    lines += [f"relation {'.'.join(r)}" for r in sorted(relations)]
    return "\n".join(lines) + "\n"


def random_monomial_texts(seed, count, max_vertices=6):
    """Deterministic stream of random_monomial_text draws; draws without a
    relation (no path of length L) are skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = random_monomial_text(rng, max_vertices)
        if "relation" in text:
            out.append(text)
    return out


def random_monomial_algebras(seed, count, max_vertices=6):
    """The random_monomial_texts draws, validated."""
    return [make_algebra(t)
            for t in random_monomial_texts(seed, count, max_vertices)]
