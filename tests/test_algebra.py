"""Parsing, validation, and the nonzero-path calculus of monomial algebras."""

import pickle
import random

import pytest

from syzcx.algebra import (
    Arrow,
    Quiver,
    PathZero,
    _normalize_relations,
    contiguous_subpaths,
    parse_algebra,
    parse_algebra_file,
    load_algebra,
    validate_algebra,
)
from syzcx.errors import (
    AlgebraSyntaxError,
    InfiniteDimensionalError,
    RelationTooShortError,
    ValidationError,
)

from syzcx.syzygy import minimal_killers

from conftest import (CHAIN_TEXT, FIB_TEXT, LOOP3_TEXT, TWOSTEP_TEXT,
                      family_gen, make_algebra, path_sort_key,
                      random_monomial_algebras, reference_killers,
                      reference_paths, reference_state, run_python,
                      word_window_moves)


# -- quiver basics -------------------------------------------------------------

def test_quiver_rejects_duplicate_and_bad_identifiers():
    with pytest.raises(AlgebraSyntaxError):
        Quiver(("1", "1"), ())
    with pytest.raises(AlgebraSyntaxError):
        Quiver(("a b",), ())
    with pytest.raises(AlgebraSyntaxError):
        Quiver(("1",), (Arrow("x", "1", "2"),))
    with pytest.raises(AlgebraSyntaxError):
        # arrow name colliding with a vertex name
        Quiver(("1",), (Arrow("1", "1", "1"),))


def test_quiver_lookup_and_digraph():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    assert q.vertex_index == {"1": 0, "2": 1}
    assert q.arrow_by_name["a"].target == "2"
    assert [a.name for a in q.arrows_from("2")] == ["b"]
    assert q.digraph() == (2, [(0, 1), (1, 0)])


def test_quiver_lookups_are_computed_once_and_do_not_change_identity():
    def make():
        return Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1"),
                                   Arrow("c", "1", "1")))

    q, fresh = make(), make()
    assert q.vertex_index is q.vertex_index
    assert q.arrows_from("1") is q.arrows_from("1")
    assert [a.name for a in q.arrows_from("1")] == ["a", "c"]
    assert q.arrow_index == {"a": 0, "b": 1, "c": 2}
    assert q == fresh and hash(q) == hash(fresh)
    copy = pickle.loads(pickle.dumps(q))
    assert copy == q and hash(copy) == hash(q)
    assert copy.arrows_from("2") == q.arrows_from("2")
    with pytest.raises(AttributeError):
        q.vertices = ()


def test_path_construction_and_composability():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    p = q.path(["a", "b"])
    assert (p.source, p.target, p.arrows) == ("1", "1", ("a", "b"))
    assert len(p) == 2 and not p.is_trivial
    assert p.literal() == "a.b"
    t = q.trivial_path("2")
    assert t.is_trivial and t.literal() == "e(2)"
    with pytest.raises(AlgebraSyntaxError):
        q.path(["b", "b"])  # b ends at 1, b starts at 2
    with pytest.raises(AlgebraSyntaxError):
        q.path(["nope"])
    with pytest.raises(AlgebraSyntaxError):
        q.path([])
    assert q.parse_path_literal("e(1)") == q.trivial_path("1")
    assert q.parse_path_literal("a.b") == p


def test_contiguous_subpaths():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    p = q.path(["a", "b"])
    subs = {s.literal() for s in contiguous_subpaths(q, p)}
    assert subs == {"e(1)", "e(2)", "a", "b", "a.b"}


def test_quiver_checks_arrow_ends_against_a_set():
    # 50,000 vertices and 99,999 arrows: scanning the vertex tuple for each
    # arrow end takes over a minute, a set lookup well under a second.
    out = run_python("from syzcx.curvature import realize_companion\n"
                     "print(len(realize_companion([1] * 50_000).arrows))",
                     timeout=10)
    assert out.stdout == "99999\n", out.stderr


# -- parsing -------------------------------------------------------------------

def test_parse_full_file():
    spec = parse_algebra(FIB_TEXT)
    assert spec.name == "fib"
    assert spec.quiver.vertices == ("1", "2")
    assert [a.name for a in spec.quiver.arrows] == ["a", "b", "g"]
    assert {r.literal() for r in spec.relations} == {
        "a.b", "a.g", "b.a", "g.b", "g.g"
    }
    assert set(spec.modules) == {"S1", "S2", "P1", "Mix"}
    mix = spec.modules["Mix"]
    assert [(t.mult, t.kind, t.vertex) for t in mix] == [
        (2, "S", "1"), (1, "P", "2")
    ]


def test_parse_reports_line_numbers():
    bad = "algebra x\nvertex 1\nwhatever\n"
    with pytest.raises(AlgebraSyntaxError) as exc:
        parse_algebra(bad)
    assert "line 3" in str(exc.value)


def test_parse_rejects_unknown_arrow_vertex():
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra("algebra x\nvertex 1\narrow a : 1 -> 2\n")
    # An arrow's name is an identifier but not a vertex.
    with pytest.raises(AlgebraSyntaxError, match="unknown vertex 'a' in arrow 'b'"):
        parse_algebra("algebra x\nvertex 1\narrow a : 1 -> 1\narrow b : 1 -> a\n")
    with pytest.raises(AlgebraSyntaxError, match="unknown vertex 'a' in arrow 'b'"):
        Quiver(("1",), (Arrow("a", "1", "1"), Arrow("b", "a", "1")))


def test_parse_checks_arrow_ends_against_a_set():
    # A 20,000-vertex line: scanning the declared vertices for each arrow end
    # takes over 10 s, a set lookup well under a second.
    out = run_python(
        "from syzcx.algebra import parse_algebra\n"
        "n = 20_000\n"
        "text = '\\n'.join(['algebra line'] + [f'vertex v{i}' for i in range(n)]\n"
        "                   + [f'arrow a{i} : v{i} -> v{i + 1}' for i in range(n - 1)])\n"
        "print(len(parse_algebra(text).quiver.arrows))", timeout=6)
    assert out.stdout == "19999\n", out.stderr


def test_parse_comments_and_blank_lines():
    text = ("algebra x\n\n# a comment\nvertex 1\narrow l : 1 -> 1\n"
            "relation l.l\n")
    spec = parse_algebra(text)
    assert spec.quiver.vertices == ("1",)


def test_parse_algebra_file_and_load(tmp_path):
    f = tmp_path / "fib.alg"
    f.write_text(FIB_TEXT)
    spec = parse_algebra_file(f)
    assert spec.name == "fib"
    A = load_algebra(f)
    assert A.dimension == 5


# -- validation ----------------------------------------------------------------

def test_validate_fib_basis():
    A = make_algebra(FIB_TEXT)
    assert A.dimension == 5
    assert A.max_relation_length == 2
    literals = [p.literal() for p in A.paths_from()]
    # Canonical order: lengths first, declaration order inside a length.
    assert literals == ["e(1)", "e(2)", "a", "b", "g"]
    assert [p.literal() for p in A.paths_from("2")] == ["e(2)", "b", "g"]


def test_validate_loop3_basis():
    A = make_algebra(LOOP3_TEXT)
    assert [p.literal() for p in A.paths_from()] == ["e(1)", "x", "x.x"]
    assert A.dimension == 3


def test_validate_twostep_basis():
    A = make_algebra(TWOSTEP_TEXT)
    # u.v.u.v is the only relation; all shorter alternating words survive.
    assert A.dimension == 9
    assert A.max_relation_length == 4
    longest = max(A.paths_from(), key=len)
    assert longest.literal() in ("v.u.v.u",)


def test_validate_rejects_infinite_dimensional_loop():
    text = "algebra x\nvertex 1\narrow l : 1 -> 1\n"
    with pytest.raises(InfiniteDimensionalError) as exc:
        validate_algebra(parse_algebra(text))
    assert "nonzero cycle l" in str(exc.value)


def test_validate_rejects_unrelated_two_cycle():
    text = ("algebra x\nvertex 1\nvertex 2\narrow a : 1 -> 2\n"
            "arrow b : 2 -> 1\n")
    with pytest.raises(InfiniteDimensionalError) as exc:
        validate_algebra(parse_algebra(text))
    assert "nonzero cycle" in str(exc.value)


def test_named_cycle_is_closed_and_nonzero():
    # a.b.c is the only cycle; the relation only cuts off the side arrow s.
    text = ("algebra x\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 1\n"
            "arrow s : 3 -> 4\nrelation b.s\n")
    spec = parse_algebra(text)
    with pytest.raises(InfiniteDimensionalError) as exc:
        validate_algebra(spec)
    message = str(exc.value)
    assert "nonzero cycle " in message
    names = message.rsplit("nonzero cycle ", 1)[1].split(".")
    cycle = spec.quiver.path(names)  # raises unless composable
    assert cycle.source == cycle.target
    cube = tuple(names) * 3
    for r in spec.relations:
        L = len(r.arrows)
        assert all(cube[i:i + L] != r.arrows
                   for i in range(len(cube) - L + 1))


def test_two_cycle_with_one_composition_killed_is_finite():
    # Killing a.b also kills every longer alternating word, since each word
    # of length >= 3 on this cycle contains a.b as a factor.
    text = ("algebra x\nvertex 1\nvertex 2\narrow a : 1 -> 2\n"
            "arrow b : 2 -> 1\nrelation a.b\n")
    A = validate_algebra(parse_algebra(text))
    assert sorted(p.literal() for p in A.paths_from()) == [
        "a", "b", "b.a", "e(1)", "e(2)"
    ]


def test_validate_rejects_short_relation():
    text = "algebra x\nvertex 1\narrow l : 1 -> 1\nrelation l\n"
    with pytest.raises(RelationTooShortError):
        validate_algebra(parse_algebra(text))


def test_relation_normalization_drops_redundant():
    # l.l.l contains l.l, so only l.l generates.
    text = ("algebra x\nvertex 1\narrow l : 1 -> 1\nrelation l.l\n"
            "relation l.l.l\n")
    A = validate_algebra(parse_algebra(text))
    assert [r.literal() for r in A.relations] == ["l.l"]
    assert A.max_relation_length == 2


def _normalize_pairwise(relations):
    """The definition: dedupe, sort by length, then test every relation
    against every kept one for a contiguous factor."""
    uniq = []
    for r in relations:
        if all(u.arrows != r.arrows for u in uniq):
            uniq.append(r)
    uniq.sort(key=lambda r: len(r.arrows))

    def contains(big, small):
        L = len(small)
        return any(big[i:i + L] == small for i in range(len(big) - L + 1))

    kept = []
    for r in uniq:
        if not any(contains(r.arrows, k.arrows) for k in kept):
            kept.append(r)
    return tuple(kept)


def test_relation_normalization_matches_pairwise_definition():
    rng = random.Random(0x5EED)
    Q = Quiver(("1",), tuple(Arrow(a, "1", "1") for a in "abc"))
    for _ in range(600):
        words = [tuple(rng.choice("abc") for _ in range(rng.randint(2, 5)))
                 for _ in range(rng.randint(1, 10))]
        for _ in range(rng.randint(0, 4)):
            w = rng.choice(words)
            i = rng.randrange(len(w) - 1)
            words.append(w[i:rng.randint(i + 2, len(w))])  # nested factor
            words.append(rng.choice(words))  # duplicate
        rng.shuffle(words)
        relations = tuple(Q.path(list(w)) for w in words)
        assert _normalize_relations(relations) == _normalize_pairwise(relations)


def test_extend_traversal_order():
    A = make_algebra(FIB_TEXT)
    a = A.quiver.path(["a"])
    b = A.quiver.path(["b"])
    # a then b is the path a.b, which is a relation here.
    z = A.extend(a, b)
    assert z == PathZero()
    assert z.reason == "relation"
    z2 = A.extend(a, a)
    assert z2 == PathZero() and z2.reason == "non_composable"
    e2 = A.quiver.trivial_path("2")
    assert A.extend(a, e2) == a
    # zero absorbs
    assert A.extend(z, a) == PathZero()


def test_is_nonzero_and_relation_factors():
    A = make_algebra(TWOSTEP_TEXT)
    assert A.is_nonzero(A.quiver.path(["u", "v", "u"]))
    assert not A.is_nonzero(A.quiver.path(["u", "v", "u", "v"]))
    assert not A.is_nonzero(A.quiver.path(["u", "v", "u", "v", "u"]))
    assert not A.is_nonzero(A.quiver.path(["v", "u", "v", "u", "v"]))
    assert A.is_nonzero(A.quiver.path(["v", "u", "v", "u"]))


def test_module_terms_unknown_name():
    A = make_algebra(FIB_TEXT)
    with pytest.raises(ValidationError) as exc:
        A.module_terms("nope")
    assert "unknown module" in str(exc.value)


SWAP_TEXT = """\
algebra swap
vertex u
vertex v
arrow b : v -> u
arrow a : u -> v
relation a.b
relation b.a
"""


def test_path_sort_key_orders_basis():
    # In SWAP the arrow from the second vertex is declared first, so sorting
    # by arrow index before source vertex would put b before a.
    for text in (TWOSTEP_TEXT, SWAP_TEXT):
        A = make_algebra(text)
        basis = list(A.paths_from())
        assert basis == sorted(basis, key=lambda p: path_sort_key(A, p))
    assert [p.literal() for p in basis] == ["e(u)", "e(v)", "a", "b"]


# -- the Aho-Corasick automaton against the word-window one ---------------------

def _one_vertex_text(loops, relations):
    lines = ["algebra overlap", "vertex v"]
    lines += [f"arrow {a} : v -> v" for a in loops]
    lines += [f"relation {r}" for r in relations]
    return "\n".join(lines) + "\n"


def _corpus(name):
    if name == "random":
        return random_monomial_algebras(0xAC, 40)
    if name == "family":
        gen, rng = family_gen(), random.Random(1975)
        return [make_algebra(gen.algebra_text(
                    f"fam{nv}", gen.family_algebra(nv, rng)))
                for nv in (12, 16, 20, 24, 28)]
    if name == "fixtures":
        return [make_algebra(t) for t in (FIB_TEXT, TWOSTEP_TEXT, CHAIN_TEXT,
                                          LOOP3_TEXT)]
    if name == "overlapping":
        # Relations that overlap themselves and each other, so a move
        # falls back along failure links: from a.b, reading b lands on
        # b.b by way of the prefix b of b.a.b.
        return [make_algebra(_one_vertex_text(loops, rels)) for loops, rels in [
            ("ab", ["a.b.a", "b.a.b", "a.a", "b.b"]),
            ("xy", ["x.x.x", "x.y.x", "y.y"]),
            ("xy", ["x.y.x.y", "y.x.y.y", "x.x.y", "y.y.y", "x.x.x"]),
            ("abc", ["a.b.c.a", "b.c.a.b", "c.a.b.c", "a.a", "b.b", "c.c",
                     "a.c", "c.b", "b.a"]),
        ]]
    return [make_algebra(_one_vertex_text("x", [".".join(["x"] * L)]))
            for L in (2, 7, 60)]


def _every_path(Q, length):
    """Every path of the quiver with at most `length` arrows."""
    layer = [Q.trivial_path(v) for v in Q.vertices]
    out = []
    for _ in range(length + 1):
        out += layer
        layer = [Q.path(p.arrows + (a.name,)) for p in layer
                 for a in Q.arrows_from(p.target)]
    return out


@pytest.mark.parametrize("corpus", ["random", "family", "fixtures",
                                    "overlapping", "long_loop"])
def test_automaton_matches_the_word_window_automaton(corpus):
    """The Aho-Corasick automaton against the word-window construction it
    replaced (conftest.word_window_moves): the same dimension and paths_from
    list, the same zero test on every path of at most R + 1 arrows, the
    same minimal killers of every nonzero path (against a search with no
    length bound), and never more states."""
    for A in _corpus(corpus):
        ref = word_window_moves(A)
        assert len(A.moves) <= len(ref)
        paths = reference_paths(A, ref)
        assert A.dimension == len(paths)
        assert list(A.paths_from()) == paths
        for p in _every_path(A.quiver, A.max_relation_length + 1):
            assert A.is_nonzero(p) == (reference_state(A, ref, p) is not None)
        for p in paths:
            assert minimal_killers(p, A)[0] == reference_killers(A, ref, p)
