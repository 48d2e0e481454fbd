"""The memos behind the symbolic path: the syzygy rule and the class of
each syzygy-quiver vertex per algebra, the Perron root per matrix (a
component's members in label order, so one component is one matrix
whatever the closure order) and the root count per (polynomial,
interval). A CyclicKey keeps no hash of its own: it hashes as the tuple of
its fields.

Each memo must return what the function computes without it, whatever the
order of the queries, and must spare the repeated work."""

import gc
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import syzcx
from syzcx import complexity, polynomials, spectra, syzygy
from syzcx.complexity import module_complexity, realize_class
from syzcx.curvature import realize_companion
from syzcx.polynomials import poly
from syzcx.syzygy import (module_expr, projective_key, resolve_module,
                          simple_key)

from conftest import (FIB_TEXT, clear_caches, family_gen, make_algebra,
                      perfbench_module, random_monomial_algebras,
                      random_monomial_texts, singleton)

# FIB_TEXT's quiver with g.g allowed: the same vertex and arrow names, hence
# the same CyclicKeys, but other syzygies.
FIB_LONG_LOOP_TEXT = FIB_TEXT.replace("relation g.g\n", "relation g.g.g\n")
FIB_MODULES = ("S1", "S2", "P1", "Mix")


def _box(counts=(1, 0, 1), ell=3):
    """Algebra text and simple names of the realize_class box on a
    companion quiver."""
    return realize_class(realize_companion(list(counts)), ell)


def _realize_box():
    """Algebra text and simple names of the box of the realize benchmark
    (perfbench/gen.py): its companion counts are the fourth draw of the
    family seed, after the three companions."""
    gen = family_gen()
    fam = random.Random(gen.FAMILY_SEED)
    for s in gen.COMPANION_S:
        gen.companion_counts(s, fam)
    return _box(gen.companion_counts(gen.BOX_S, fam), gen.BOX_ELL)


def _record_closures(monkeypatch):
    """Lists that receive every syzygy quiver module_complexity builds and
    every condensation it makes, in call order."""
    logs = []
    for name in ("build_syzygy_quiver", "scc_condense"):
        fn, log = getattr(complexity, name), []

        def call(*args, fn=fn, log=log):
            log.append(fn(*args))
            return log[-1]
        monkeypatch.setattr(complexity, name, call)
        logs.append(log)
    return logs


def _report(A, name):
    return module_complexity(A, resolve_module(A, name)).to_json()


def test_syzygy_memo_belongs_to_its_algebra():
    short, long_ = make_algebra(FIB_TEXT), make_algebra(FIB_LONG_LOOP_TEXT)
    differ = False
    for name in FIB_MODULES:
        for A, text in ((short, FIB_TEXT), (long_, FIB_LONG_LOOP_TEXT)):
            assert _report(A, name) == _report(make_algebra(text), name)
        differ |= _report(short, name) != _report(long_, name)
    assert differ


def test_box_simples_independent_of_query_order():
    text, names = _box()
    clear_caches()
    A = make_algebra(text)
    forward = [_report(A, n) for n in names]
    clear_caches()
    B = make_algebra(text)
    backward = [_report(B, n) for n in reversed(names)][::-1]
    fresh = []
    for n in names:
        clear_caches()
        fresh.append(_report(make_algebra(text), n))
    assert forward == backward == fresh
    assert len({str(r["class"]) for r in forward}) > 1


def test_permuted_component_matrix_gets_uncached_root():
    # The root memo keys on the rows themselves: a renumbered matrix is
    # another key, with the same root. So the memo is exact for any rows,
    # partial quivers included, and it is scc_condense's label order that
    # makes one component of a built quiver one key.
    arrows = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 3), (1, 1)]
    m = spectra.adjacency_matrix(4, arrows)
    perm = [2, 0, 3, 1]
    pm = spectra.adjacency_matrix(
        4, [(perm.index(u), perm.index(v)) for u, v in arrows])
    assert pm != m
    spectra.perron_root.cache_clear()
    root = spectra.perron_root(m)
    assert spectra.perron_root(pm) == root
    assert spectra.perron_root.__wrapped__(pm) == root
    assert polynomials.largest_real_root(spectra.char_poly(pm)) == root
    assert spectra.perron_root(m) is root
    info = spectra.perron_root.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert info.maxsize == polynomials._MEMO_SIZE


# Radical square zero, so the syzygy of a simple is the sum of the simples
# at the heads of its arrows. S(0) enters the cycle S(1) <-> S(2) at S(1),
# and S(3) at S(2); neither closure holds the other's start. The double
# arrow 2 -> 1 makes the two closure orders two different matrices.
TWO_DOORS_TEXT = """\
algebra two_doors
vertex 0
vertex 1
vertex 2
vertex 3
arrow c : 0 -> 1
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow e : 2 -> 1
arrow d : 3 -> 2
relation c.a
relation a.b
relation a.e
relation b.a
relation e.a
relation d.b
relation d.e
"""


def test_one_component_reached_in_two_orders_gets_one_root(monkeypatch):
    A = make_algebra(TWO_DOORS_TEXT)
    clear_caches()
    char_calls, char_poly = Counter(), spectra.char_poly

    def counting_char_poly(m):
        char_calls[m] += 1
        return char_poly(m)

    monkeypatch.setattr(spectra, "char_poly", counting_char_poly)
    quivers, conds = _record_closures(monkeypatch)
    reports = [module_complexity(A, singleton(simple_key(A, v)))
               for v in ("0", "3")]
    monkeypatch.undo()

    assert [[key.vertex for key in Q.labels] for Q in quivers] == [
        ["0", "1", "2"], ["3", "2", "1"]]
    cycles = [c for C in conds for c in C.components if not c.is_trivial]
    assert [len(c.vertices) for c in cycles] == [2, 2]
    assert cycles[0].matrix == cycles[1].matrix == (((1, 1),), ((0, 2),))
    # One miss for the cycle and one for a loopless vertex; the second
    # module's two components are hits.
    info = spectra.perron_root.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert char_calls == {cycles[0].matrix: 1, ((),): 1}
    assert reports[0] == reports[1]
    assert reports[0].cls.base == polynomials.largest_real_root(poly(-2, 0, 1))


def test_cyclic_key_pickles_without_its_hash():
    A = make_algebra(FIB_TEXT)
    key = syzygy.simple_key(A, "2")
    assert hash(key) == hash((key.vertex, key.killers))
    copy = pickle.loads(pickle.dumps(key))
    assert copy == key and hash(copy) == hash(key)
    # Another process hashes strings differently: the copy's hash must be its
    # own, so it finds an equal key in a set.
    code = (
        "import pickle, sys\n"
        "from syzcx.syzygy import CyclicKey\n"
        "k = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = CyclicKey(k.vertex, tuple(k.killers))\n"
        "sys.exit(0 if k in {fresh} and hash(k) == hash(fresh) else 1)\n"
    )
    src = os.path.dirname(os.path.dirname(syzcx.__file__))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    done = subprocess.run([sys.executable, "-c", code],
                          input=pickle.dumps(key), env=env, timeout=60)
    assert done.returncode == 0


def test_box_simples_compute_each_syzygy_and_root_once(monkeypatch):
    # The box of the realize benchmark: 13 vertices, 5 levels. Asked in a
    # seeded order, the simples after the first of each level are class
    # memo lookups.
    text, names = _realize_box()
    assert len(names) == 65
    A = make_algebra(text)
    clear_caches()
    char_calls, killer_calls = Counter(), Counter()
    char_poly, minimal_killers = spectra.char_poly, syzygy.minimal_killers

    def counting_char_poly(m):
        char_calls[m] += 1
        return char_poly(m)

    def counting_minimal_killers(p, A):
        killer_calls[p] += 1
        return minimal_killers(p, A)

    monkeypatch.setattr(spectra, "char_poly", counting_char_poly)
    monkeypatch.setattr(syzygy, "minimal_killers", counting_minimal_killers)
    quivers, conds = _record_closures(monkeypatch)
    order = random.Random(29).sample(names, len(names))
    reports = {n: _report(A, n) for n in order}
    monkeypatch.undo()

    assert len(conds) <= 8 and len(quivers) == len(conds)
    assert len({str(r["class"]) for r in reports.values()}) == 5
    matrices = {c.matrix for C in conds for c in C.components}
    assert set(char_calls) == matrices
    assert max(char_calls.values()) == 1

    keys = {key for Q in quivers for key in Q.labels}
    killers = Counter(w for k in keys for w in k.killers)
    assert all(killer_calls[w] <= killers[w] for w in killer_calls)
    assert sum(killer_calls.values()) <= sum(killers.values())


def test_class_memo_belongs_to_its_algebra(monkeypatch):
    # FIB_TEXT and FIB_LONG_LOOP_TEXT share every CyclicKey; each algebra's
    # memo answers with its own classes, and goes with its algebra.
    short, long_ = make_algebra(FIB_TEXT), make_algebra(FIB_LONG_LOOP_TEXT)
    for A, text in ((short, FIB_TEXT), (long_, FIB_LONG_LOOP_TEXT)):
        first = [_report(A, name) for name in FIB_MODULES]
        assert A.class_memo
        # The second round is answered by the memo alone.
        quivers, _ = _record_closures(monkeypatch)
        assert [_report(A, name) for name in FIB_MODULES] == first
        assert quivers == []
        monkeypatch.undo()
        assert first == [_report(make_algebra(text), n) for n in FIB_MODULES]
    assert set(short.class_memo) & set(long_.class_memo)
    assert ([_report(short, n) for n in FIB_MODULES]
            != [_report(long_, n) for n in FIB_MODULES])
    # Once the algebra is gone, its condensations are held only by `held`,
    # the loop variable and getrefcount's argument.
    held = [C for C, _ in short.class_memo.values()]
    uses = Counter(map(id, held))
    del short
    gc.collect()
    for C in held:
        assert sys.getrefcount(C) == uses[id(C)] + 2


def _corpus():
    """(algebra, text, modules) per algebra: the 120 algebras of the pinned
    module-class hash, then the three family draws of the pipeline agreement
    tests; the modules are every simple and projective and the sum of the
    simples."""
    gen, rng = family_gen(), random.Random(2210)
    texts = random_monomial_texts(5, 120) + [
        gen.algebra_text(f"fam{draw}",
                         gen.family_algebra(rng.randint(20, 28), rng))
        for draw in range(3)]
    for text in texts:
        A = make_algebra(text)
        vertices = A.quiver.vertices
        modules = [singleton(key(A, v)) for v in vertices
                   for key in (simple_key, projective_key)]
        modules.append(module_expr((simple_key(A, v), 1) for v in vertices))
        yield A, text, modules


def _tied_components(C):
    """Components that reach several components of their top radius with
    different characteristic polynomials."""
    reach: list[set] = []
    for ci, out in enumerate(C.succ):
        reach.append({ci}.union(*(reach[s] for s in out)))
    rho = [c.rho for c in C.components]
    return {ci for ci, r in enumerate(reach)
            if len({rho[c].poly for c in r
                    if spectra.equal_radius(rho[c], rho[C.top[ci]])}) > 1}


def test_module_classes_independent_of_query_history(monkeypatch):
    # Asked in a seeded order on one algebra, each module's report is the
    # one a fresh copy of the algebra gives. Every vertex of every quiver
    # built is memoized, those whose top-radius components carry several
    # characteristic polynomials included: the least polynomial is the
    # base's, whatever the closure order.
    quivers, conds = _record_closures(monkeypatch)
    rng = random.Random(2910)
    asked = tied = 0
    for A, text, modules in _corpus():
        quivers.clear()
        conds.clear()
        for M in rng.sample(modules, len(modules)):
            got = module_complexity(A, M).to_json()
            assert got == module_complexity(make_algebra(text), M).to_json(), (
                A.name, M.label())
            asked += 1
        built = [(Q, C) for Q, C in zip(quivers, conds) if Q.start]
        assert {key for Q, _ in built for key in Q.labels} <= set(A.class_memo)
        for Q, C in built:
            ties = _tied_components(C)
            tied += sum(ci in ties for ci in C.vertex_component)
    assert asked == 1091
    assert tied >= 1


def test_sturm_count_memo_keys_on_the_polynomial_and_both_ends():
    count = polynomials.count_real_roots_open
    count.cache_clear()
    two, five = poly(-2, 0, 1), poly(-5, 0, 1)
    # The same ends on two polynomials, two ends on one polynomial.
    questions = [((two, 0, 2), 1), ((five, 0, 2), 0), ((two, -2, 2), 2)]
    for round_ in (questions, questions[::-1], questions):
        for (p, a, b), expected in round_:
            assert count(p, Fraction(a), Fraction(b)) == expected
    info = count.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    assert info.maxsize == polynomials._MEMO_SIZE


def test_sturm_count_memo_never_caches_an_endpoint_root():
    count = polynomials.count_real_roots_open
    count.cache_clear()
    four = poly(-4, 0, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="endpoint is a root"):
            count(four, Fraction(0), Fraction(2))
    assert count(four, Fraction(0), Fraction(3)) == 1
    assert count.cache_info().currsize == 1


def test_sturm_count_memo_answers_the_repeated_ties_of_a_large_draw():
    # Work, not time: join proves the same few radius ties again and again,
    # and the memo answers each repeat without a chain evaluation.
    gen = family_gen()
    A = make_algebra(gen.algebra_text(
        "fam", gen.family_algebra(120, random.Random(3))))
    clear_caches()
    report = module_complexity(
        A, module_expr((simple_key(A, v), 1) for v in A.quiver.vertices))
    assert report.cls.label() == "2.644624271878^n"
    info = polynomials.count_real_roots_open.cache_info()
    assert info.misses and info.hits >= 5 * info.misses, info


def test_perron_roots_of_a_large_draw_build_chains_only_where_needed(
        monkeypatch):
    # Work, not time: largest_real_root isolates a root by bisection only
    # when it is a point of the isolation tree (0 or 1 here), which the
    # certified cell leaves to the isolation.
    gen = family_gen()
    A = make_algebra(gen.algebra_text(
        "fam", gen.family_algebra(120, random.Random(3))))
    clear_caches()
    roots, perron_root = set(), spectra.perron_root
    calls = Counter()
    isolate = polynomials.isolate_largest_real_root

    def recorded(m):
        roots.add(perron_root(m))
        return perron_root(m)

    def isolation(p):
        calls["isolate"] += 1
        return isolate(p)

    monkeypatch.setattr(spectra, "perron_root", recorded)
    monkeypatch.setattr(polynomials, "isolate_largest_real_root", isolation)
    report = module_complexity(
        A, module_expr((simple_key(A, v), 1) for v in A.quiver.vertices))
    assert report.cls.label() == "2.644624271878^n"
    points = sum(r.lo == r.hi for r in roots)
    assert max(r.poly.degree for r in roots) == 160
    assert calls["isolate"] <= points


def _benchmark_pass_counts(monkeypatch, workload) -> Counter:
    """The counts behind the CI guards on a traced benchmark pass at seed 1,
    taken without the tracer: the pass (perfbench/queries.py) runs its
    queries in its own order on emptied function memos, and each count
    wraps the function that its span wraps. A condensation counts only
    inside module_complexity, whose algebras are counted too."""
    queries = perfbench_module("queries")
    clear_caches()
    calls, algebras, open_calls = Counter(), {}, []

    def counted(name, fn, inside=False):
        def call(*args):
            if open_calls or not inside:
                calls[name] += 1
            return fn(*args)
        return call

    def classed(A, M, fn=complexity.module_complexity):
        algebras[id(A)] = A  # kept, so that no id is reused
        open_calls.append(A)
        try:
            return fn(A, M)
        finally:
            open_calls.pop()

    monkeypatch.setattr(polynomials, "isolate_largest_real_root", counted(
        "isolate", polynomials.isolate_largest_real_root))
    monkeypatch.setattr(spectra, "char_poly",
                        counted("char_poly", spectra.char_poly))
    monkeypatch.setattr(complexity, "scc_condense", counted(
        "condense", complexity.scc_condense, inside=True))
    monkeypatch.setattr(complexity, "module_complexity", classed)
    run = queries.run_pass(workload, family_gen().make_inputs(workload, 1),
                           syzcx, None, {})
    monkeypatch.undo()
    assert [q for q in run["queries"] if "error" in q] == []
    calls["algebras"] = len(algebras)
    return calls


def test_benchmark_classify_pass_isolates_at_most_5_roots(monkeypatch):
    # The CI guard polynomials.isolate_calls <= 5 (5 today): perron_root
    # leaves to the isolation only the roots that end a cell, 0 and 1.
    counts = _benchmark_pass_counts(monkeypatch, "classify")
    assert counts["isolate"] <= 5


def test_benchmark_realize_pass_stays_within_its_guards(monkeypatch):
    # The CI guards complexity.condense_per_algebra <= 8 (5.0 today),
    # spectra.char_poly_calls <= 4 and polynomials.isolate_calls <= 4 (4
    # and 2 today): the box's simples after the first of each level are
    # class memo lookups, its levels share one Perron root, every
    # largest_real_root tries the certified cell first, and curvature reads
    # the root of a linear factor off its coefficients.
    counts = _benchmark_pass_counts(monkeypatch, "realize")
    assert counts["algebras"] == 1
    assert counts["condense"] / counts["algebras"] <= 8
    assert counts["char_poly"] <= 4
    assert counts["isolate"] <= 4


def test_sturm_count_memo_changes_no_class(monkeypatch):
    # The corpus of the pinned module-class hash, with the memo and without.
    def classes():
        out = []
        for A in random_monomial_algebras(5, 120):
            vertices = A.quiver.vertices
            for v in vertices:
                for key in (simple_key(A, v), projective_key(A, v)):
                    out.append(module_complexity(A, singleton(key)).to_json())
            out.append(module_complexity(A, module_expr(
                (simple_key(A, v), 1) for v in vertices)).to_json())
        return out

    clear_caches()
    memoized = classes()
    assert len(memoized) == 964
    assert polynomials.count_real_roots_open.cache_info().hits > 0
    bare = polynomials.count_real_roots_open.__wrapped__
    monkeypatch.setattr(polynomials, "count_real_roots_open", bare)
    monkeypatch.setattr(spectra, "count_real_roots_open", bare)
    clear_caches()
    assert classes() == memoized
