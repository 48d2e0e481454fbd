"""Cyclic keys, the syzygy rule, quiver construction, and path counting.

Dimension sequences are pinned against hand resolutions: over the
truncated loop algebra the syzygies of k alternate radical/socle, and over
the two-vertex Fibonacci algebra dim P(1) = 2, dim P(2) = 3 force the
Fibonacci recursion."""

import json
import time

import pytest

from syzcx.syzygy import (
    cyclic_key,
    ModuleExpr,
    module_expr,
    projective_key,
    simple_key,
    minimal_killers,
    path_key,
    key_dimension,
    expr_dimension,
    resolve_module,
    syzygy_key,
    build_syzygy_quiver,
    quiver_dim_sequence,
    validate_partial,
    syzygy_quiver_from_json,
)
from syzcx.algebra import PathZero
from syzcx.errors import (
    InvalidPartialError,
    ValidationError,
    ZeroPathError,
)

from conftest import fibonacci_numbers, singleton, syzygy_step


# -- keys ------------------------------------------------------------------

def test_cyclic_key_invariants(fib):
    a = fib.quiver.path(["a"])
    with pytest.raises(ValueError, match="does not start at 2"):
        cyclic_key("2", [a])  # killer must start at the key vertex
    with pytest.raises(ValueError, match="positive length"):
        cyclic_key("1", [fib.quiver.trivial_path("1")])
    k = cyclic_key("1", [a])
    assert k.label() == "1|{a}"
    assert k.killers
    assert not projective_key(fib, "1").killers


def test_prefix_antichain_rejected(twostep):
    u = twostep.quiver.path(["u"])
    uv = twostep.quiver.path(["u", "v"])
    with pytest.raises(ValueError, match="u is a prefix of u.v"):
        cyclic_key("1", [uv, u])


def test_simple_key_kills_every_arrow(fib):
    k = simple_key(fib, "2")
    assert k.vertex == "2"
    assert [w.literal() for w in k.killers] == ["b", "g"]
    assert key_dimension(k, fib) == 1


def test_key_basis_and_dimension(loop3):
    x = loop3.quiver.path(["x"])
    xx = loop3.quiver.path(["x", "x"])
    # killing x leaves only the trivial path: the simple module
    assert key_dimension(cyclic_key("1", [x]), loop3) == 1
    # killing x.x leaves the trivial path and x: the radical of P(1)
    k2 = cyclic_key("1", [xx])
    assert key_dimension(k2, loop3) == 2
    # no killers: the whole projective
    assert key_dimension(projective_key(loop3, "1"), loop3) == 3


def test_minimal_killers(fib):
    a = fib.quiver.path(["a"])
    ks = minimal_killers(a, fib)
    assert [w.literal() for w in ks] == ["b", "g"]
    assert path_key(a, fib).label() == "2|{b,g}"


def test_minimal_killers_longer_relation(twostep):
    # u.v.u.v is the relation: the killer of u is v.u.v.
    u = twostep.quiver.path(["u"])
    ks = minimal_killers(u, twostep)
    assert [w.literal() for w in ks] == ["v.u.v"]


def test_minimal_killers_rejects_zero_paths(fib):
    # a.b is a relation of fib; PathZero is the zero of the path calculus.
    for p in (fib.quiver.path(["a", "b"]), PathZero()):
        with pytest.raises(ZeroPathError):
            minimal_killers(p, fib)


def test_module_expr_canonicalization(fib):
    s1 = simple_key(fib, "1")
    s2 = simple_key(fib, "2")
    e = module_expr([(s2, 1), (s1, 2), (s2, 1)])
    assert e.terms == ((s1, 2), (s2, 2))
    assert (singleton(s1) + singleton(s1)).terms == ((s1, 2),)
    assert ModuleExpr().label() == "0"
    assert e.label() == "2*1|{a}+2*2|{b,g}"
    with pytest.raises(ValueError):
        module_expr([(s1, -1)])


def test_expr_dimension(fib):
    m = resolve_module(fib, "Mix")  # 2*S(1) + P(2)
    assert expr_dimension(m, fib) == 2 * 1 + 3


def test_resolve_module_unknown(fib):
    with pytest.raises(ValidationError):
        resolve_module(fib, "nope")


# -- the syzygy rule ---------------------------------------------------------

def test_syzygy_key_fib(fib):
    s1 = simple_key(fib, "1")
    omega = syzygy_key(s1, fib)
    assert omega.label() == "2|{b,g}"
    omega2 = syzygy_step(omega, fib)
    # Omega of 2|{b,g} is one summand per killer: key(1,{a}) and key(2,{b,g}).
    assert omega2.label() == "1|{a}+2|{b,g}"


def test_syzygy_of_projective_is_zero(fib):
    assert syzygy_key(projective_key(fib, "1"), fib).is_zero


def test_syzygy_step_additivity(fib):
    s1 = singleton(simple_key(fib, "1"))
    s2 = singleton(simple_key(fib, "2"))
    both = syzygy_step(s1 + s2, fib)
    assert both == syzygy_step(s1, fib) + syzygy_step(s2, fib)


def test_loop3_alternating_resolution(loop3):
    m = resolve_module(loop3, "S1")
    seq = [expr_dimension(m, loop3)]
    for _ in range(5):
        m = syzygy_step(m, loop3)
        seq.append(expr_dimension(m, loop3))
    assert seq == [1, 2, 1, 2, 1, 2]


# -- quiver construction -------------------------------------------------------

def test_build_fib_quiver(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    assert [key.label() for key in q.labels] == ["1|{a}", "2|{b,g}"]
    assert q.arrows == ((0, 1), (1, 0), (1, 1))
    assert q.start == ((0, 1),)
    assert q.dims == (1, 1)
    assert not q.partial


def test_build_quiver_keeps_projective_sinks(a2):
    q = build_syzygy_quiver(resolve_module(a2, "S1"), a2)
    # S(1) -> S(2) = P(2), a sink.
    assert len(q.labels) == 2
    assert not q.labels[1].killers
    assert all(src != 1 for src, _ in q.arrows)


def test_quiver_dim_sequence_fibonacci(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    assert quiver_dim_sequence(q, 20) == fibonacci_numbers(21)


def test_quiver_dim_sequence_projective(fib):
    q = build_syzygy_quiver(resolve_module(fib, "P1"), fib)
    assert quiver_dim_sequence(q, 4) == [2, 0, 0, 0, 0]


def test_quiver_dim_sequence_mixed_additive(fib):
    qm = build_syzygy_quiver(resolve_module(fib, "Mix"), fib)
    q1 = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    qp = build_syzygy_quiver(resolve_module(fib, "P2"), fib) \
        if "P2" in fib.modules else None
    s1 = quiver_dim_sequence(q1, 8)
    # dim P(2) = 3 and its syzygies vanish.
    expect = [2 * s1[n] + (3 if n == 0 else 0) for n in range(9)]
    assert quiver_dim_sequence(qm, 8) == expect


# -- partial quivers and JSON ---------------------------------------------------

def test_validate_partial_accepts_full_and_truncated(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    assert validate_partial(q)
    from syzcx.syzygy import SyzygyQuiver
    truncated = SyzygyQuiver(fib, q.labels, ((0, 1),), q.start, partial=True)
    assert validate_partial(truncated)


def test_validate_partial_rejects_excess(fib):
    from syzcx.syzygy import SyzygyQuiver
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    bogus = SyzygyQuiver(fib, q.labels, q.arrows + ((0, 0),), q.start,
                         partial=True)
    assert not validate_partial(bogus)


def test_validate_partial_on_a_20000_vertex_ring(fib):
    # S(1) over fib has the keys 1|{a} and 2|{b,g}; each is a summand of the
    # other's syzygy, so a ring alternating them is a partial syzygy quiver.
    n = 20_000
    keys = ({"vertex": "1", "killers": ["a"]},
            {"vertex": "2", "killers": ["b", "g"]})
    q = syzygy_quiver_from_json({
        "vertices": [dict(keys[i % 2], id=i) for i in range(n)],
        "arrows": [{"from": i, "to": (i + 1) % n} for i in range(n)],
        "start": [0],
    }, fib)
    t0 = time.perf_counter()
    assert validate_partial(q)
    assert time.perf_counter() - t0 < 2.0


def test_quiver_json_round_trip(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    doc = json.loads(json.dumps(q.to_json()))
    q2 = syzygy_quiver_from_json(doc, fib)
    assert q2.labels == q.labels
    assert q2.arrows == q.arrows
    assert q2.start == q.start
    assert q2.partial == q.partial


@pytest.mark.parametrize("alg,vertex,killers", [
    ("twostep", "1", ["u", "u.v"]),  # u is a prefix of u.v
    ("fib", "1", ["b"]),             # b starts at vertex 2
])
def test_quiver_json_rejects_bad_killers(request, alg, vertex, killers):
    doc = {"vertices": [{"id": 0, "vertex": vertex, "killers": killers}],
           "arrows": []}
    with pytest.raises(InvalidPartialError):
        syzygy_quiver_from_json(doc, request.getfixturevalue(alg))


def test_quiver_json_shape(fib):
    doc = build_syzygy_quiver(resolve_module(fib, "S1"), fib).to_json()
    assert doc["algebra"] == "fib"
    assert doc["partial"] is False
    assert doc["start"] == [{"id": 0, "mult": 1}]
    assert doc["vertices"][0] == {
        "id": 0, "vertex": "1", "killers": ["a"], "dim": 1
    }
    assert doc["arrows"][0] == {"from": 0, "to": 1}


def test_to_dot_deterministic(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    dot = q.to_dot()
    assert dot.startswith("digraph G {")
    assert 'n0 [label="1|{a}"];' in dot
    assert "n1 -> n1;" in dot


def test_out_expr_matches_syzygy_step(fib):
    q = build_syzygy_quiver(resolve_module(fib, "S1"), fib)
    outs = q.out_exprs()
    assert len(outs) == q.n_vertices
    for out, key in zip(outs, q.labels):
        assert out == syzygy_key(key, fib)
