"""The memos behind the symbolic path: the syzygy rule per algebra, the
Perron root per component matrix, the largest root per polynomial, and the
hash kept on each CyclicKey.

Each memo must return what the function computes without it, whatever the
order of the queries, and must spare the repeated work."""

import os
import pickle
import subprocess
import sys
from collections import Counter

import syzcx
from syzcx import polynomials, spectra, syzygy
from syzcx.complexity import module_complexity, realize_class
from syzcx.curvature import realize_companion
from syzcx.syzygy import resolve_module

from conftest import FIB_TEXT, make_algebra

# FIB_TEXT's quiver with g.g allowed: the same vertex and arrow names, hence
# the same CyclicKeys, but other syzygies.
FIB_LONG_LOOP_TEXT = FIB_TEXT.replace("relation g.g\n", "relation g.g.g\n")
FIB_MODULES = ("S1", "S2", "P1", "Mix")


def _clear_caches():
    """Empty every function cache of every syzcx module."""
    for name, module in list(sys.modules.items()):
        if name.startswith("syzcx."):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def _box(counts=(1, 0, 1), ell=3):
    """Algebra text and simple names of the realize_class box on a
    companion quiver."""
    return realize_class(realize_companion(list(counts)), ell)


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
    _clear_caches()
    A = make_algebra(text)
    forward = [_report(A, n) for n in names]
    _clear_caches()
    B = make_algebra(text)
    backward = [_report(B, n) for n in reversed(names)][::-1]
    fresh = []
    for n in names:
        _clear_caches()
        fresh.append(_report(make_algebra(text), n))
    assert forward == backward == fresh
    assert len({str(r["class"]) for r in forward}) > 1


def test_permuted_component_matrix_gets_uncached_root():
    m = spectra.adjacency_matrix(
        4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 3), (1, 1)])
    perm = [2, 0, 3, 1]
    pm = spectra.mat_from_rows(
        [[m[perm[i]][perm[j]] for j in range(4)] for i in range(4)])
    assert pm != m
    root = spectra._component_root(m)
    assert spectra._component_root(pm) == root
    assert spectra._component_root.__wrapped__(pm) == root
    assert polynomials.largest_real_root.__wrapped__(
        spectra.char_poly(pm)) == root
    # Lists, as callers outside the memo pass them, still work.
    assert spectra.perron_root([list(row) for row in pm]) == root


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
    text, names = _box()
    A = make_algebra(text)
    _clear_caches()
    char_calls, killer_calls = Counter(), Counter()
    char_poly, minimal_killers = spectra.char_poly, syzygy.minimal_killers

    def counting_char_poly(m):
        char_calls[spectra.mat_from_rows(m)] += 1
        return char_poly(m)

    def counting_minimal_killers(p, A):
        killer_calls[p] += 1
        return minimal_killers(p, A)

    monkeypatch.setattr(spectra, "char_poly", counting_char_poly)
    monkeypatch.setattr(syzygy, "minimal_killers", counting_minimal_killers)
    reports = [module_complexity(A, resolve_module(A, n)) for n in names]
    monkeypatch.undo()

    matrices = {c.matrix for r in reports for c in r.condensation.components}
    assert set(char_calls) == matrices
    assert max(char_calls.values()) == 1

    keys = {r.quiver.key_at(i) for r in reports
            for i in range(r.quiver.n_vertices)}
    killers = Counter(w for k in keys for w in k.killers)
    assert all(killer_calls[w] <= killers[w] for w in killer_calls)
    assert sum(killer_calls.values()) <= sum(killers.values())
