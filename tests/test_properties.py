"""Seeded randomized property tests for the algebraic invariants the library
promises: multiplication in a monomial algebra is associative with zero as an
absorbing element, nonzero paths are closed under contiguous subwords,
killers match their definition, exact comparisons form a total order,
growth-class operations obey semiring-style laws, partial resolution data
never overstates complexity, the graph traversals match a brute-force
transitive closure and the pointer walk they replaced, vertex classes match
the per-vertex algorithm, module classes match a pinned hash, classes are
invariant under the singularity equivalence of a quadratic monomial algebra
with the radical-square-zero algebra on its relation quiver, walk counts on
syzygy quivers match dense adjacency powers, and the two independent
dimension pipelines agree."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from syzcx.algebra import PathZero, contiguous_subpaths
from syzcx.complexity import (
    compare,
    convolve,
    empirical_class_check,
    join,
    lower_bound_from_partial,
    module_complexity,
    polyexp_class,
    vertex_complexity,
    zero_class,
)
from syzcx.graph import tarjan
from syzcx.oracle import crosscheck
from syzcx.polynomials import (
    IntPolynomial,
    algebraic_real,
    count_real_roots_open,
    det_bareiss_poly,
    isolate_largest_real_root,
    monomial_minus,
    poly,
    poly_gcd_q,
    rational_algebraic,
    squarefree_part,
)
from syzcx.spectra import (
    char_poly,
    compare_algebraic,
    equal_radius,
    scc_condense,
)
from syzcx.syzygy import (
    SyzygyQuiver,
    build_syzygy_quiver,
    key_dimension,
    minimal_killers,
    module_expr,
    path_key,
    projective_key,
    quiver_dim_sequence,
    simple_key,
    syzygy_key,
    syzygy_quiver_from_json,
)

from conftest import (FIB_TEXT, det_bareiss_int, evaluate, family_gen, make_algebra,
                      path_sort_key, random_monomial_algebras,
                      random_rsz_algebras, singleton, sparse_rows)

SEED = 0x5EED


# -- graph traversals -----------------------------------------------------------

def _closure(succ):
    """reach[u][v]: v is reachable from u by a path of length >= 0."""
    n = len(succ)
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u in range(n):
        for v in succ[u]:
            reach[u][v] = True
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                for v in range(n):
                    if reach[k][v]:
                        reach[u][v] = True
    return reach


def test_tarjan_and_reachable_match_transitive_closure():
    rng = random.Random(SEED + 4)
    for _ in range(50):
        n = rng.randint(1, 12)
        succ = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            # self-loops and parallel edges are both allowed
            succ[rng.randrange(n)].append(rng.randrange(n))
        reach = _closure(succ)

        comps = tarjan(succ)
        classes = {
            tuple(v for v in range(n) if reach[u][v] and reach[v][u])
            for u in range(n)
        }
        assert all(c == sorted(c) for c in comps)
        assert sorted(tuple(c) for c in comps) == sorted(classes)

        # Reverse topological order: whatever u reaches comes no later.
        comp_of = {v: ci for ci, c in enumerate(comps) for v in c}
        for u in range(n):
            assert all(comp_of[v] <= comp_of[u]
                       for v in range(n) if reach[u][v])


def _tarjan_by_pointers(succ):
    """Tarjan's walk with an index into succ[v] per stack frame, as
    `graph.tarjan` kept it before it held one iterator per frame: the
    reference the iterator walk must match, component for component."""
    n = len(succ)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack, comps, counter = [], [], 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = succ[v]
            for i in range(ptr, len(out)):
                w = out[i]
                if index_of[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                members.sort()
                comps.append(members)
    return comps


def test_tarjan_matches_the_pointer_walk():
    rng = random.Random(SEED + 12)
    for _ in range(3000):
        n = rng.randint(1, 25)
        succ = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 4 * n)):
            succ[rng.randrange(n)].append(rng.randrange(n))
        assert tarjan(succ) == _tarjan_by_pointers(succ), succ
    # Deep walks: a chain and a cycle of 20,000 vertices.
    n = 20_000
    chain = [[v + 1] for v in range(n - 1)] + [[]]
    assert tarjan(chain) == [[v] for v in reversed(range(n))]
    assert tarjan([[(v + 1) % n] for v in range(n)]) == [list(range(n))]


# -- vertex classes off the condensation --------------------------------------------

def _reference_vertex_class(cond, v, closure):
    """The per-vertex algorithm: the exact max radius over the reachable
    components (a tie goes to the least defining polynomial, by degree and
    then by coefficients), then the longest chain of components of that
    radius, or the longest path when it is 0. `closure` is
    `_closure(cond.succ)`."""
    c0 = cond.vertex_component[v]
    reach = [ci for ci, r in enumerate(closure[c0]) if r]
    b = cond.components[reach[0]].rho
    for ci in reach[1:]:
        rho = cond.components[ci].rho
        c = compare_algebraic(rho, b)
        if c > 0 or c == 0 and ((rho.poly.degree, rho.poly.coeffs)
                                < (b.poly.degree, b.poly.coeffs)):
            b = rho
    zero = compare_algebraic(b, rational_algebraic(0)) == 0
    chain = [0] * len(cond.components)
    for ci, c in enumerate(cond.components):
        best = max((chain[s] for s in cond.succ[ci]), default=0)
        chain[ci] = best + (zero or equal_radius(c.rho, b))
    if zero:
        return zero_class(chain[c0] - 1)
    return polyexp_class(b, chain[c0] - 1)


# Strongly connected blocks whose radii tie with different characteristic
# polynomials: a 1-loop, a 2-cycle and a 3-cycle (radius 1); a double loop
# and a 2-cycle with both loops (radius 2); plus the golden block and a
# loopless vertex.
_BLOCKS = (
    (1, [(0, 0)]),
    (2, [(0, 1), (1, 0)]),
    (3, [(0, 1), (1, 2), (2, 0)]),
    (1, [(0, 0), (0, 0)]),
    (2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (2, [(0, 0), (0, 1), (1, 0)]),
    (1, []),
)


def _block_digraph(rng):
    """Blocks in a random order, with random edges only from later blocks to
    earlier ones (so blocks stay components and the same block can sit at
    several depths), on randomly relabelled vertices; at most 14 vertices."""
    spans, edges, n = [], [], 0
    while True:
        size, inner = rng.choice(_BLOCKS)
        if n + size > 14:
            break
        spans.append(range(n, n + size))
        edges += [(n + a, n + b) for a, b in inner]
        n += size
        if rng.random() < 0.15:
            break
    for _ in range(rng.randint(0, 2 * len(spans)) if len(spans) > 1 else 0):
        i, j = sorted(rng.sample(range(len(spans)), 2))
        edges.append((rng.choice(spans[j]), rng.choice(spans[i])))
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[a], perm[b]) for a, b in edges]


def test_vertex_complexity_matches_per_vertex_reference():
    rng = random.Random(SEED + 5)
    ties = deep = 0
    for i in range(300):
        if i % 2:
            n = rng.randint(1, 14)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))]
        else:
            n, edges = _block_digraph(rng)
        cond = scc_condense(n, edges)
        closure = _closure(cond.succ)
        for v in range(n):
            got = vertex_complexity(cond, v)
            want = _reference_vertex_class(cond, v, closure)
            assert got.to_json() == want.to_json()
            if got.is_zero:
                continue
            reach = closure[cond.vertex_component[v]]
            polys = {c.rho.poly for c, r in zip(cond.components, reach)
                     if r and equal_radius(c.rho, got.base)}
            ties += len(polys) > 1
            deep += got.degree > 0
    assert ties >= 100 and deep >= 150


def test_module_classes_match_pinned_hash():
    """Every base interval and degree of 964 module classes, pinned byte for
    byte: per algebra, each vertex's simple then projective, then the sum of
    the simples."""
    classes = []
    for A in random_monomial_algebras(5, 120):
        vertices = A.quiver.vertices
        for v in vertices:
            classes.append(module_complexity(A, singleton(simple_key(A, v))))
            classes.append(module_complexity(A, singleton(projective_key(A, v))))
        sum_of_simples = module_expr((simple_key(A, v), 1) for v in vertices)
        classes.append(module_complexity(A, sum_of_simples))
    text = json.dumps([c.to_json() for c in classes], sort_keys=True)
    assert len(classes) == 964
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "ab473296e9b63abe"


def test_vertex_classes_survive_renumbering():
    """A vertex's class depends only on what it reaches, not on how the
    closure numbered the quiver: over each simple's and projective's quiver
    on the corpus above, three seeded renumberings of the vertices, each
    with its arrows shuffled, class every vertex as before."""
    rng = random.Random(SEED + 12)
    checked = 0
    for A in random_monomial_algebras(5, 120):
        for v in A.quiver.vertices:
            for key in (simple_key(A, v), projective_key(A, v)):
                Q = build_syzygy_quiver(singleton(key), A)
                n, arrows = Q.digraph()
                cond = scc_condense(n, arrows, Q.labels)
                want = [vertex_complexity(cond, i).to_json() for i in range(n)]
                for _ in range(3):
                    perm = rng.sample(range(n), n)
                    labels = [None] * n
                    for i, label in enumerate(Q.labels):
                        labels[perm[i]] = label
                    moved = scc_condense(n, [(perm[a], perm[b]) for a, b in
                                             rng.sample(arrows, len(arrows))],
                                         labels)
                    assert [vertex_complexity(moved, perm[i]).to_json()
                            for i in range(n)] == want, (A.name, key.label())
                    checked += n
    assert checked == 5007


def test_key_labels_give_the_components_of_one_term_sums():
    """scc_condense orders each component's members by label. On the corpus
    of the pinned hash above, a built quiver's CyclicKey labels give the
    same components, members and matrices as one-term ModuleExpr labels."""
    built = 0
    for A in random_monomial_algebras(5, 120):
        vertices = A.quiver.vertices
        modules = [singleton(f(A, v)) for v in vertices
                   for f in (simple_key, projective_key)]
        modules.append(module_expr((simple_key(A, v), 1) for v in vertices))
        for M in modules:
            q = build_syzygy_quiver(M, A)
            got = scc_condense(*q.digraph(), q.labels)
            want = scc_condense(*q.digraph(), [singleton(k) for k in q.labels])
            assert got.vertex_component == want.vertex_component
            assert ([(c.vertices, c.matrix) for c in got.components]
                    == [(c.vertices, c.matrix) for c in want.components])
            built += 1
    assert built == 964


# -- invariance under a singularity equivalence ----------------------------------------

def _quadratic_text(rng: random.Random, max_vertices=6):
    """Random quadratic monomial algebra file: a random quiver, and as
    relations every composable pair of arrows a.b but some with a before b
    in a random order of the arrows, so every long enough path is zero."""
    nv = rng.randint(1, max_vertices)
    arrows = [(f"a{i}", rng.randrange(nv), rng.randrange(nv))
              for i in range(rng.randint(1, nv + 3))]
    rank = {a[0]: i for i, a in enumerate(rng.sample(arrows, len(arrows)))}
    lines = ["algebra quad"]
    lines += [f"vertex v{i}" for i in range(nv)]
    lines += [f"arrow {n} : v{s} -> v{t}" for n, s, t in arrows]
    lines += [f"relation {n1}.{n2}" for n1, _, t1 in arrows
              for n2, s2, _ in arrows
              if t1 == s2 and (rank[n1] >= rank[n2] or rng.random() < 0.5)]
    return "\n".join(lines) + "\n"


def _relation_quiver_text(text, reverse=False):
    """B, the radical-square-zero algebra on the relation quiver R(A) of the
    quadratic monomial algebra A written in `text`: a vertex per arrow of
    A, an arrow a -> b per relation a.b, and every composable pair of
    arrows of R(A) a relation. `reverse` turns the arrows of R(A) around,
    a mutation that the invariance must catch."""
    lines = text.splitlines()
    names = [line.split()[1] for line in lines if line.startswith("arrow ")]
    pairs = [tuple(line.split(None, 1)[1].replace(" ", "").split("."))
             for line in lines if line.startswith("relation ")]
    assert all(len(pair) == 2 for pair in pairs)
    if reverse:
        pairs = [(b, a) for a, b in pairs]
    out = ["algebra relquiver"]
    out += [f"vertex {n}" for n in names]
    out += [f"arrow r{i} : {a} -> {b}" for i, (a, b) in enumerate(pairs)]
    out += [f"relation r{i}.r{j}" for i, (_, b) in enumerate(pairs)
            for j, (c, _) in enumerate(pairs) if b == c]
    return "\n".join(out) + "\n"


def _equivalence_mismatches(texts, reverse=False):
    """(arrows checked, arrows a whose class of aA over A differs from the
    class of S(a) over B, by `compare` or, for Zero classes, by pd)."""
    checked = mismatched = 0
    for text in texts:
        A = make_algebra(text)
        B = make_algebra(_relation_quiver_text(text, reverse))
        for arrow in A.quiver.arrows:
            over_a = module_complexity(
                A, singleton(path_key(A.quiver.path([arrow.name]), A))).cls
            over_b = module_complexity(
                B, singleton(simple_key(B, arrow.name))).cls
            checked += 1
            mismatched += (compare(over_a, over_b) != 0
                           or (over_a.is_zero and over_a.pd != over_b.pd))
    return checked, mismatched


def test_classes_are_invariant_under_the_relation_quiver_equivalence():
    """The source paper's fourth claim, where the equivalence is a theorem:
    a quadratic monomial algebra A is singularity-equivalent to B, the
    radical-square-zero algebra on its relation quiver R(A) (X.-W. Chen,
    D. Shen & G. Zhou, 2018). The syzygy of aA is the sum of the bA with
    a.b a relation, and the syzygy of S(a) over B the sum of the S(b), so
    for every arrow a, aA over A and S(a) over B have one class."""
    rng = random.Random(SEED + 13)
    texts = [FIB_TEXT]
    while len(texts) < 121:
        text = _quadratic_text(rng)
        if "relation" in text:
            texts.append(text)
    checked, mismatched = _equivalence_mismatches(texts)
    assert mismatched == 0 and checked >= 400, (checked, mismatched)
    checked, mismatched = _equivalence_mismatches(texts, reverse=True)
    assert mismatched >= 200, (checked, mismatched)


# -- path arithmetic -------------------------------------------------------------

def _sample_paths(A, rng, count):
    pool = [p for v in A.quiver.vertices for p in A.paths_from(v)]
    return [rng.choice(pool) for _ in range(count)]


@pytest.mark.parametrize("algebra_name", ["fib", "chain", "twostep"])
def test_extend_is_associative(algebra_name, request):
    A = request.getfixturevalue(algebra_name)
    rng = random.Random(SEED)
    for _ in range(300):
        p, q, r = _sample_paths(A, rng, 3)
        left = A.extend(A.extend(p, q), r)
        right = A.extend(p, A.extend(q, r))
        assert left == right


@pytest.mark.parametrize("algebra_name", ["fib", "chain", "loop3"])
def test_zero_absorbs_under_extend(algebra_name, request):
    A = request.getfixturevalue(algebra_name)
    rng = random.Random(SEED)
    z = PathZero()
    for p in _sample_paths(A, rng, 40):
        assert A.extend(p, z) == z
        assert A.extend(z, p) == z


@pytest.mark.parametrize("algebra_name", ["fib", "chain", "twostep", "loop3"])
def test_nonzero_paths_closed_under_subwords(algebra_name, request):
    A = request.getfixturevalue(algebra_name)
    for v in A.quiver.vertices:
        for p in A.paths_from(v):
            assert A.is_nonzero(p)
            for sub in contiguous_subpaths(A.quiver, p):
                assert A.is_nonzero(sub)
    assert A.dimension == len(list(A.paths_from()))


def test_paths_from_is_sorted_and_duplicate_free(fib, chain):
    for A in (fib, chain):
        for v in A.quiver.vertices:
            ps = A.paths_from(v)
            keys = [path_sort_key(A, p) for p in ps]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_minimal_killers_match_definition():
    # The killers of p are the nonzero w, prefix-minimal with p.w zero.
    checked = 0
    for A in random_monomial_algebras(seed=SEED + 6, count=40):
        for p in A.paths_from():
            nonzero = {w.arrows: w for w in A.paths_from(p.target)}
            kills = [
                w for w in nonzero.values()
                if isinstance(A.extend(p, w), PathZero)
                and not any(isinstance(A.extend(p, nonzero[w.arrows[:k]]), PathZero)
                            for k in range(len(w.arrows)))
            ]
            kills.sort(key=lambda w: (len(w.arrows), w.arrows))
            killers, states = minimal_killers(p, A)
            assert killers == tuple(kills), (A.name, p)
            # Each killer comes with its own state, read from p's target.
            assert states == tuple(map(A.state_after, kills)), (A.name, p)
            # The module generated by p is spanned by the nonzero p.w.
            span = sum(not isinstance(A.extend(p, w), PathZero)
                       for w in nonzero.values())
            assert key_dimension(path_key(p, A), A) == span, (A.name, p)
            checked += len(kills) > 1
    assert checked >= 200


# -- exact real arithmetic ----------------------------------------------------------

def _algebraic_pool():
    phi = algebraic_real(poly(-1, -1, 1), 1, 2)
    phi_again = algebraic_real(
        poly(1, 0, -3, 0, 1), Fraction(3, 2), Fraction(5, 3)
    )
    sqrt2 = algebraic_real(poly(-2, 0, 1), 1, 2)
    phi_sq = algebraic_real(poly(1, -3, 1), 2, 3)
    return [
        rational_algebraic(1),
        rational_algebraic(Fraction(3, 2)),
        rational_algebraic(Fraction(809, 500)),
        phi,
        phi_again,
        sqrt2,
        phi_sq,
        rational_algebraic(2),
        rational_algebraic(3),
    ]


def test_compare_algebraic_is_a_total_order():
    pool = _algebraic_pool()
    for a in pool:
        assert compare_algebraic(a, a) == 0
    for a in pool:
        for b in pool:
            s = compare_algebraic(a, b)
            assert s in (-1, 0, 1)
            assert s == -compare_algebraic(b, a)
    for a in pool:
        for b in pool:
            for c in pool:
                if compare_algebraic(a, b) <= 0 and compare_algebraic(b, c) <= 0:
                    assert compare_algebraic(a, c) <= 0


def test_equal_radius_is_an_equivalence():
    pool = _algebraic_pool()
    for a in pool:
        assert equal_radius(a, a)
    for a in pool:
        for b in pool:
            assert equal_radius(a, b) == equal_radius(b, a)
    for a in pool:
        for b in pool:
            for c in pool:
                if equal_radius(a, b) and equal_radius(b, c):
                    assert equal_radius(a, c)
    # the two constructions of the golden ratio collapse to one class
    phi_members = [x for x in pool if equal_radius(x, pool[3])]
    assert len(phi_members) == 2


def test_compare_agrees_with_float_approximation():
    pool = _algebraic_pool()
    for a in pool:
        for b in pool:
            fa, fb = a.as_float(), b.as_float()
            if abs(fa - fb) > 1e-6:
                assert compare_algebraic(a, b) == (1 if fa > fb else -1)


# -- growth class laws ---------------------------------------------------------------

def _class_pool():
    phi = algebraic_real(poly(-1, -1, 1), 1, 2)
    pool = [zero_class(0), zero_class(2)]
    for base in (rational_algebraic(1), rational_algebraic(2), phi):
        for degree in (0, 1, 2):
            pool.append(polyexp_class(base, degree))
    return pool


def _ceq(c1, c2):
    return (
        c1.kind == c2.kind
        and compare(c1, c2) == 0
        and c1.pd == c2.pd
        and c1.degree == c2.degree
    )


def test_join_and_convolve_are_commutative():
    pool = _class_pool()
    for a in pool:
        for b in pool:
            assert _ceq(join(a, b), join(b, a))
            assert _ceq(convolve(a, b), convolve(b, a))


def test_join_and_convolve_are_associative():
    rng = random.Random(SEED)
    pool = _class_pool()
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert _ceq(join(join(a, b), c), join(a, join(b, c)))
        assert _ceq(convolve(convolve(a, b), c), convolve(a, convolve(b, c)))


def test_join_dominates_both_arguments():
    pool = _class_pool()
    for a in pool:
        for b in pool:
            j = join(a, b)
            assert compare(j, a) >= 0
            assert compare(j, b) >= 0


def test_convolve_dominates_join():
    pool = _class_pool()
    for a in pool:
        for b in pool:
            assert compare(convolve(a, b), join(a, b)) >= 0


def test_zero_support_is_neutral_for_convolve():
    pool = _class_pool()
    z = zero_class(0)
    for c in pool:
        out = convolve(z, c)
        assert out.kind == c.kind
        assert compare(out, c) == 0
        assert out.degree == c.degree


def test_join_is_idempotent():
    for c in _class_pool():
        assert _ceq(join(c, c), c)


# -- partial data gives lower bounds ---------------------------------------------------

def _truncations(q, rng, count):
    n = len(q.labels)
    out = []
    for _ in range(count):
        m = rng.randint(1, n)
        arrows = tuple(a for a in q.arrows if a[0] < m and a[1] < m)
        out.append(SyzygyQuiver(q.algebra, q.labels, arrows, q.start,
                                partial=True))
    return out


def test_truncated_quiver_never_overstates_complexity():
    rng = random.Random(SEED)
    checked = 0
    for A in random_rsz_algebras(seed=SEED, count=6):
        for v in A.quiver.vertices:
            M = singleton(simple_key(A, v))
            q = build_syzygy_quiver(M, A)
            full = module_complexity(A, M).cls
            for t in _truncations(q, rng, 4):
                lb = lower_bound_from_partial(t, q.start[0][0])
                assert compare(lb, full) <= 0
                checked += 1
    assert checked >= 20


# -- determinant backing for characteristic polynomials ----------------------------------

def test_char_poly_matches_direct_determinant():
    rng = random.Random(SEED)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [
            [
                monomial_minus(m[i][j]) if i == j else poly(-m[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert det_bareiss_poly(rows) == char_poly(sparse_rows(m))


def test_char_poly_matches_bareiss_determinant_at_integers():
    """char_poly(M)(t) == det(tI - M), the determinant by fraction-free
    elimination, on seeded dense and sparse nonnegative matrices."""
    rng = random.Random(SEED)
    for trial in range(40):
        n = rng.randint(1, 20)
        density = 0.8 if trial % 2 else 0.15
        m = [[rng.randint(1, 3) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
        p = char_poly(sparse_rows(m))
        assert p.is_monic and p.degree == n
        for t in (-3, -1, 0, 1, 2, 5):
            shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)]
                       for i in range(n)]
            assert evaluate(p, t) == det_bareiss_int(shifted)


# -- the exact layer against rational long division --------------------------------

def _divmod_rational(u, v):
    """Schoolbook division over Q of ascending coefficient lists."""
    rem = [Fraction(c) for c in u]
    quo = [Fraction(0)] * max(0, len(u) - len(v) + 1)
    while len(rem) >= len(v):
        f = rem[-1] / v[-1]
        k = len(rem) - len(v)
        quo[k] = f
        for i, c in enumerate(v):
            rem[k + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def _rational_sturm_count(p, a, b):
    """Distinct roots of p in (a, b), p(a) p(b) != 0, by the classical Sturm
    sequence of p / gcd(p, p') over Q."""
    def value(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    u, v = list(p.coeffs), list(p.derivative().coeffs)
    g_u, g_v = u, v
    while g_v:
        g_u, g_v = g_v, _divmod_rational(g_u, g_v)[1]
    s = _divmod_rational(u, g_u)[0]
    chain = [s, [i * c for i, c in enumerate(s) if i]]
    while len(chain[-1]) > 1:
        r = _divmod_rational(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x):
        signs = [y > 0 for y in (value(cs, x) for cs in chain) if y != 0]
        return sum(1 for t, w in zip(signs, signs[1:]) if t != w)
    return variations(a) - variations(b)


def test_integer_division_and_sturm_counts_match_rational_arithmetic():
    """Random integer polynomials, negative leading coefficients included:
    divmod_q equals schoolbook division over Q, and Sturm counts equal the
    classical rational Sturm sequence."""
    rng = random.Random(SEED)
    for _ in range(250):
        p = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(2, 9))])
        q = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
        if p.degree < 1 or q.is_zero:
            continue
        quo, rem = p.divmod_q(q)
        assert all(isinstance(c, Fraction) for c in quo + rem)
        assert (quo, rem) == _divmod_rational(p.coeffs, q.coeffs)
        for _ in range(3):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            b = a + Fraction(rng.randint(1, 40), rng.randint(1, 6))
            if evaluate(p, a) == 0 or evaluate(p, b) == 0:
                continue
            assert count_real_roots_open(p, a, b) == _rational_sturm_count(p, a, b)


# -- the exact layer against polynomials with known roots ----------------------------

def _mul(a, b):
    """Product of ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors):
    out = [1]
    for f in factors:
        out = _mul(out, f)
    return IntPolynomial(out)


def _linear(r: Fraction):
    return [-r.numerator, r.denominator]  # d*x - n, primitive


# Primitive quadratics without real roots: x^2 + 1, 2x^2 + 3, 3x^2 + 2x + 1,
# x^2 - 2x + 5.
NO_REAL_ROOTS = ([1, 0, 1], [3, 0, 2], [1, 2, 3], [5, -2, 1])


def _known_roots_poly(rng, roots, quads):
    """(p, multiplicities, has_quads): p = c * prod (d x - n)^m, times quads
    (a product of quadratics without real roots) with probability 0.6 or
    when roots is empty, and a random nonzero integer c, possibly negative."""
    mult = {r: rng.randint(1, 3) for r in roots}
    has_quads = rng.random() < 0.6 or not roots
    factors = [_linear(r) for r in roots for _ in range(mult[r])]
    if has_quads:
        factors.append(quads)
    c = rng.choice([-3, -2, -1, 1, 2, 5])
    return _product(factors + [[c]]), mult, has_quads


def _random_roots(rng, count):
    roots = set()
    while len(roots) < count:
        roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 5)))
    return sorted(roots)


def test_exact_layer_on_polynomials_with_known_roots():
    rng = random.Random(SEED)
    for _ in range(150):
        roots = _random_roots(rng, rng.randint(0, 5))
        quads = _product(rng.sample(NO_REAL_ROOTS, rng.randint(1, 2))).to_list()
        p, mult, p_quads = _known_roots_poly(rng, roots, quads)
        if rng.random() < 0.3:
            p = IntPolynomial(-c for c in p.coeffs)

        for _ in range(6):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 7))
            b = a + Fraction(rng.randint(1, 60), rng.randint(1, 7))
            if a in mult or b in mult:
                continue
            expected = sum(1 for r in roots if a < r < b)
            assert count_real_roots_open(p, a, b) == expected

        iso = isolate_largest_real_root(p)
        if not roots:
            assert iso is None
        else:
            top = roots[-1]
            lo, hi = iso
            if lo == hi:
                assert lo == top
            else:
                assert lo < top < hi
                assert not any(lo <= r <= hi for r in roots[:-1])

        sqf = _product([_linear(r) for r in roots] + ([quads] if p_quads else []))
        assert squarefree_part(p) == sqf.primitive()

        # A second polynomial sharing some of the roots.
        shared = [r for r in roots if rng.random() < 0.5]
        extra = [r for r in _random_roots(rng, 3) if r not in mult]
        q, qmult, q_quads = _known_roots_poly(rng, shared + extra, quads)
        common = [_linear(r) for r in shared
                  for _ in range(min(mult[r], qmult[r]))]
        if p_quads and q_quads:
            common.append(quads)
        assert poly_gcd_q(p, q) == _product(common).primitive()
        assert poly_gcd_q(q, p) == _product(common).primitive()


# -- structural coherence on random algebras ----------------------------------------------

def test_quiver_json_round_trips_on_random_algebras():
    for A in random_rsz_algebras(seed=SEED + 1, count=5):
        v = A.quiver.vertices[0]
        q = build_syzygy_quiver(singleton(simple_key(A, v)), A)
        doc = json.loads(json.dumps(q.to_json()))
        q2 = syzygy_quiver_from_json(doc, A)
        assert q2.labels == q.labels
        assert q2.arrows == q.arrows
        assert q2.start == q.start


def test_out_expr_matches_syzygy_step_on_random_algebras():
    for A in random_rsz_algebras(seed=SEED + 2, count=5):
        v = A.quiver.vertices[-1]
        q = build_syzygy_quiver(singleton(simple_key(A, v)), A)
        for out, key in zip(q.out_exprs(), q.labels):
            assert out == syzygy_key(key, A)


# -- walks on syzygy quivers ---------------------------------------------------------

def _dense_walk_dims(Q, N):
    """Reference for quiver_dim_sequence: the start vector times the powers
    of the dense adjacency matrix, filled from the arrows, each walk
    weighted by its end's label dimension."""
    n, arrows = Q.digraph()
    adj, dims = [[0] * n for _ in range(n)], Q.dims
    for u, v in arrows:
        adj[u][v] += 1
    vec = [0] * n
    for i, m in Q.start:
        vec[i] += m
    out = []
    for _ in range(N + 1):
        out.append(sum(x * d for x, d in zip(vec, dims)))
        vec = [sum(vec[i] * adj[i][j] for i in range(n)) for j in range(n)]
    return out


def test_quiver_dim_sequence_matches_dense_adjacency_powers():
    checked = 0
    for A in random_monomial_algebras(SEED + 5, 25):
        vs = A.quiver.vertices
        modules = [singleton(f(A, v)) for v in vs
                   for f in (simple_key, projective_key)]
        modules.append(module_expr([(simple_key(A, v), i + 1)
                                    for i, v in enumerate(vs)]
                                   + [(projective_key(A, vs[0]), 2)]))
        for M in modules:
            q = build_syzygy_quiver(M, A)
            assert quiver_dim_sequence(q, 12) == _dense_walk_dims(q, 12)
            checked += 1
    assert checked >= 200


def test_pipelines_agree_on_random_algebras():
    for A in random_rsz_algebras(seed=SEED + 3, count=6):
        for v in A.quiver.vertices:
            report = crosscheck(A, singleton(simple_key(A, v)), 8)
            assert report.agree, (A.name, v, report)


def test_pipelines_agree_beyond_radical_square_zero():
    # Relations of length 3 to 5 give modules that are not semisimple, so the
    # oracle's general syzygy step is compared with the syzygy quiver. Each
    # module goes as deep (up to 8) as its reference dimensions stay <= 2000.
    deep = 0  # modules with a nonzero second syzygy
    for A in random_monomial_algebras(seed=SEED + 4, count=16):
        for v in A.quiver.vertices:
            for key in (simple_key(A, v), projective_key(A, v)):
                M = singleton(key)
                dims = quiver_dim_sequence(build_syzygy_quiver(M, A), 8)
                depth = 0
                while depth < 8 and max(dims[:depth + 2]) <= 2000:
                    depth += 1
                report = crosscheck(A, M, depth)
                assert report.agree, (A.name, v, key, report)
                assert list(report.dims_oracle) == dims[:depth + 1]
                deep += depth >= 2 and report.dims_oracle[2] > 0
    assert deep >= 10


def test_pipelines_agree_on_benchmark_family_draws():
    # The benchmark's classify family (perfbench/gen.py), nv 20 to 28: every
    # simple and projective, at both primes, as deep (up to 10) as its
    # reference dimensions stay <= 10^4.
    gen, rng = family_gen(), random.Random(2210)
    modules = deep = 0
    for draw in range(3):
        alg = gen.family_algebra(rng.randint(20, 28), rng)
        A = make_algebra(gen.algebra_text(f"fam{draw}", alg))
        for v in A.quiver.vertices:
            for key in (simple_key(A, v), projective_key(A, v)):
                M = singleton(key)
                dims = quiver_dim_sequence(build_syzygy_quiver(M, A), 10)
                depth = 0
                while depth < 10 and max(dims[:depth + 2]) <= 10 ** 4:
                    depth += 1
                report = crosscheck(A, M, depth)
                assert report.agree, (A.name, v, key, report)
                assert list(report.dims_oracle) == dims[:depth + 1]
                modules += 1
                deep = max(deep, max(dims[:depth + 1]))
    assert modules == 124 and deep == 9349


def test_pipelines_agree_to_dimension_1e5_on_benchmark_family_draws():
    # The same draws, as deep (up to 30) as the reference dimensions stay
    # <= 10^5. Each oracle sequence of depth >= 9 also lies in the symbolic
    # class over its last nine terms, the window past any projective
    # dimension.
    gen, rng = family_gen(), random.Random(2210)
    modules = classed = deep = 0
    for draw in range(3):
        alg = gen.family_algebra(rng.randint(20, 28), rng)
        A = make_algebra(gen.algebra_text(f"fam{draw}", alg))
        for v in A.quiver.vertices:
            for key in (simple_key(A, v), projective_key(A, v)):
                M = singleton(key)
                dims = quiver_dim_sequence(build_syzygy_quiver(M, A), 30)
                depth = 0
                while depth < 30 and max(dims[:depth + 2]) <= 10 ** 5:
                    depth += 1
                report = crosscheck(A, M, depth)
                assert report.agree, (A.name, v, key, report)
                assert list(report.dims_oracle) == dims[:depth + 1]
                modules += 1
                deep = max(deep, max(dims[:depth + 1]))
                if depth >= 9:
                    cls = module_complexity(A, M).cls
                    ok, lo, hi = empirical_class_check(
                        list(report.dims_oracle), cls, (depth - 8, depth))
                    assert ok, (A.name, v, key, cls, lo, hi)
                    classed += 1
    assert modules == classed == 124 and deep == 99296


def test_pipelines_agree_at_family_scale_on_benchmark_family_draws():
    # Larger draws of the same family, nv 55, 80 and 120: every simple and
    # projective, at both primes, as deep (up to 30) as the reference
    # dimensions stay <= 10^4, and in the symbolic class over the last nine
    # terms where the depth is >= 9. The crosschecks of one algebra share
    # its table's numbered blocks, and its classes share one Perron root per
    # component, which keeps this affordable.
    gen, rng = family_gen(), random.Random(2210)
    modules, classed, deep = [], [], 0
    for nv in (55, 80, 120):
        alg = gen.family_algebra(nv, rng)
        A = make_algebra(gen.algebra_text(f"fam{nv}", alg))
        modules.append(0)
        classed.append(0)
        for v in A.quiver.vertices:
            for key in (simple_key(A, v), projective_key(A, v)):
                M = singleton(key)
                dims = quiver_dim_sequence(build_syzygy_quiver(M, A), 30)
                depth = 0
                while depth < 30 and max(dims[:depth + 2]) <= 10 ** 4:
                    depth += 1
                report = crosscheck(A, M, depth)
                assert report.agree, (A.name, v, key, report)
                assert list(report.dims_oracle) == dims[:depth + 1]
                modules[-1] += 1
                deep = max(deep, max(dims[:depth + 1]))
                if depth >= 9:
                    cls = module_complexity(A, M).cls
                    ok, lo, hi = empirical_class_check(
                        list(report.dims_oracle), cls, (depth - 8, depth))
                    assert ok, (A.name, v, key, cls, lo, hi)
                    classed[-1] += 1
    assert modules == [110, 160, 240] and classed == [84, 160, 198]
    assert deep == 9902


def test_pipelines_agree_on_fixture_algebras(fib, chain, loop3, twostep):
    for A in (fib, chain, loop3, twostep):
        for v in A.quiver.vertices:
            report = crosscheck(A, singleton(simple_key(A, v)), 8)
            assert report.agree, (A.name, v, report)
