"""Quivers, paths, and monomial path algebras.

A monomial path algebra is presented by a finite quiver together with a list of
forbidden paths (the relations), each of length >= 2. A path is nonzero in the
algebra iff it contains no relation as a contiguous factor, so the nonzero
paths form a factor-avoiding language. The algebra is finite dimensional iff
the forbidden-factor automaton is acyclic: an Aho-Corasick machine over the
relation words, whose state is a vertex plus a trie node, the longest suffix
of the path read that is a proper prefix of a relation. Validation checks
exactly that and counts the paths readable from each state, listing none.
The algebra keeps the automaton and the counts: zero tests walk it,
dimensions sum the counts.
Only `MonomialAlgebra.paths_from` lists the basis: by length, source, arrows.

Composition is written in traversal order throughout: `a.b` means traverse `a`
then `b`, and requires target(a) == source(b).
"""

from __future__ import annotations

import errno
import re
from functools import cached_property
from typing import NamedTuple

from .errors import (
    AlgebraSyntaxError,
    InfiniteDimensionalError,
    RelationTooShortError,
    ValidationError,
)
from .graph import tarjan

IDENT_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """Finite quiver. Vertex and arrow order is the declaration order; every
    downstream ordering (path enumeration, syzygy-quiver discovery, exports)
    is a pure function of it. A frozen value: equal vertices and arrows make
    equal quivers, and its lookups are computed once."""

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        seen = set()
        for v in vertices:
            if not IDENT_RE.match(v):
                raise AlgebraSyntaxError(f"bad vertex identifier {v!r}")
            if v in seen:
                raise AlgebraSyntaxError(f"duplicate identifier {v!r}")
            seen.add(v)
        vidx = self.vertex_index
        for a in arrows:
            if not IDENT_RE.match(a.name):
                raise AlgebraSyntaxError(f"bad arrow identifier {a.name!r}")
            if a.name in seen:
                raise AlgebraSyntaxError(f"duplicate identifier {a.name!r}")
            seen.add(a.name)
            for v in (a.source, a.target):
                if v not in vidx:
                    raise AlgebraSyntaxError(
                        f"unknown vertex {v!r} in arrow {a.name!r}"
                    )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Quiver")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Quiver")

    def __eq__(self, other):
        if other.__class__ is not Quiver:
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r})"

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    @cached_property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _arrows_by_source(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    def arrows_from(self, vertex: str) -> tuple[Arrow, ...]:
        return self._arrows_by_source[vertex]

    def digraph(self) -> tuple[int, list[tuple[int, int]]]:
        """Vertex count plus arrow list as index pairs (parallel arrows repeat)."""
        vidx = self.vertex_index
        return len(self.vertices), [
            (vidx[a.source], vidx[a.target]) for a in self.arrows
        ]

    def trivial_path(self, vertex: str) -> "Path":
        if vertex not in self.vertex_index:
            raise AlgebraSyntaxError(f"unknown vertex {vertex!r}")
        return Path(vertex, vertex, ())

    def path(self, arrow_names) -> "Path":
        """Path from a nonempty arrow-name sequence, checking composability."""
        return _path_of(self.arrow_by_name, tuple(arrow_names))

    def parse_path_literal(self, text: str) -> "Path":
        m = re.match(r"e\(([A-Za-z0-9_]+)\)\Z", text.strip())
        if m:
            return self.trivial_path(m.group(1))
        return self.path(text.strip().split("."))


class Path(NamedTuple):
    """Path in a quiver: a source vertex and a composable arrow-name sequence
    (empty for the trivial path at `source`). `len` counts the arrows."""

    source: str
    target: str
    arrows: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def literal(self) -> str:
        return ".".join(self.arrows) if self.arrows else f"e({self.source})"

    def __repr__(self):
        return f"Path({self.literal()})"


def _path_of(arrow_by_name: dict[str, Arrow], names: tuple[str, ...],
             line: int | None = None) -> Path:
    """The path of a nonempty arrow-name tuple: its arrows looked up by name
    and checked to compose, in one pass. An error names `line`, if given."""
    if not names:
        raise AlgebraSyntaxError("empty path literal", line=line)
    try:
        arrows = list(map(arrow_by_name.__getitem__, names))
    except KeyError as e:
        raise AlgebraSyntaxError(
            f"unknown arrow {e.args[0]!r} in path literal", line=line) from None
    x = arrows[0]
    for y in arrows[1:]:
        if x.target != y.source:
            raise AlgebraSyntaxError(
                f"non-composable path literal: {x.name!r} ends at "
                f"{x.target!r} but {y.name!r} starts at {y.source!r}", line=line
            )
        x = y
    return Path(arrows[0].source, x.target, names)


# NamedTuple's _make, which _replace calls, counts the fields with len(), but
# len(Path) counts arrows; a NamedTuple body may not redefine _make.
Path._make = classmethod(lambda cls, fields: cls(*fields))


class PathZero:
    """Zero element of the path calculus. All zeros compare equal; the reason
    ('relation' or 'non_composable') is diagnostic only."""

    __slots__ = ("reason",)

    def __init__(self, reason: str = "relation"):
        self.reason = reason

    def __eq__(self, other):
        return isinstance(other, PathZero)

    def __hash__(self):
        return hash(PathZero)

    def __repr__(self):
        return f"PathZero({self.reason})"


def contiguous_subpaths(quiver: Quiver, p: Path) -> list[Path]:
    """All contiguous subpaths of p, trivial ones included."""
    out = []
    verts = [p.source]
    for n in p.arrows:
        verts.append(quiver.arrow_by_name[n].target)
    for v in verts:
        out.append(Path(v, v, ()))
    for i in range(len(p.arrows)):
        for j in range(i + 1, len(p.arrows) + 1):
            out.append(Path(verts[i], verts[j], p.arrows[i:j]))
    return out


class ModuleTerm(NamedTuple):
    """One summand in a module definition: mult * S(v) | P(v) | M(path)."""

    mult: int
    kind: str  # "S" | "P" | "M"
    vertex: str | None = None
    path: Path | None = None


class MonomialAlgebraSpec(NamedTuple):
    """Parsed but unvalidated presentation."""

    name: str
    quiver: Quiver
    relations: tuple[Path, ...]
    modules: dict[str, tuple[ModuleTerm, ...]]


class MonomialAlgebra:
    """Validated finite-dimensional monomial path algebra.

    Holds the normalized relation set, the longest relation length R and the
    forbidden-factor automaton, an Aho-Corasick machine over the relation
    words (A. V. Aho & M. J. Corasick, CACM 18, 1975). A state is a vertex
    plus a node of the trie of the relations: the longest suffix of the path
    read that is a proper prefix of a relation. No state holds a word, and
    there are never more states than pairs of a vertex and the last <= R-1
    arrows of a nonzero path, which fix the node. `moves[state]` maps each
    arrow name to the next state, in `arrows_from` order, and a path is
    zero exactly when some arrow of it has no move. State i is the trivial
    path at the i-th vertex. The automaton answers every zero test.

    Reading arrow a at node n goes to the goto node g: the child a of the
    first node on n's failure chain that has one, else the root (a failure
    link points to the longest proper suffix that is a trie node). g is the
    longest suffix of the path read that is a trie node, and a has no move
    exactly when g ends a relation. That check suffices because the
    relations are normalized, so no relation is a factor of another: a
    relation ending on the failure chain of a node g that ends none would
    be a proper suffix of g, and g a proper prefix of some relation, which
    would then contain it as a proper factor. So no relation ends on the
    failure chain of a node that ends none, and the goto node alone decides.

    `counts[state]` numbers the paths readable from a state, so
    `counts[state_after(p)]` nonzero paths have prefix p. No basis is
    stored; `paths_from` lists it by (length, source vertex, arrow
    declaration indices).
    Only validate_algebra builds one; the counts are 0 until it fills them.
    It owns three memos, each kept as long as it lives, since a CyclicKey
    names a module only inside its algebra:
    - `syzygy_memo` maps each CyclicKey to its syzygy; syzygy.syzygy_key
      fills it, so a key's syzygy is computed once per algebra;
    - `class_memo` maps each vertex of every syzygy quiver that
      complexity.module_complexity builds, a CyclicKey, to a (Condensation,
      vertex) pair, and the class is read off it with vertex_complexity;
    - `path_table` is the oracle's path table, with the blocks it has
      numbered (GradedTable.blocks), or None until oracle.compile_paths
      builds it.
    """

    def __init__(self, name, quiver, relations, modules):
        self.name = name
        self.quiver = quiver
        self.relations = relations
        self.modules = modules
        self.max_relation_length = max((len(r) for r in relations), default=1)
        # The trie of the relation words: node 0 is the empty word, goto[n]
        # maps an arrow name to the child of node n, and `ends` holds the
        # nodes that end a relation.
        goto: list[dict[str, int]] = [{}]
        ends = set()
        for r in relations:
            n = 0
            for a in r.arrows:
                c = goto[n].get(a)
                if c is None:
                    c = goto[n][a] = len(goto)
                    goto.append({})
                n = c
            ends.add(n)
        fail = [0] * len(goto)

        def step(n, a):
            # The longest suffix of (word of n).a that is a trie node: the
            # first node on n's failure chain with a child a, else the root.
            # A miss is stored in goto along the chain, so each (node, arrow)
            # pair is resolved once.
            chain = []
            while (c := goto[n].get(a)) is None and n:
                chain.append(n)
                n = fail[n]
            c = c or 0
            for m in chain:
                goto[m][a] = c
            return c

        # Failure links, breadth first: a node's link comes from its
        # parent's, which is shallower. The stored misses only ever go to
        # nodes shallower than the one being scanned, so each node's goto
        # still holds just its children when its turn comes. A node that
        # ends a relation is a leaf, and no move reads its link.
        order = [0]
        for n in order:  # grows while it is scanned
            for a, c in goto[n].items():
                if c not in ends:
                    fail[c] = step(fail[n], a) if n else 0
                    order.append(c)

        # A state is a (vertex, node) pair, keyed by its node, or by its
        # vertex at the root: a node's last arrow fixes the vertex.
        index: dict = {v: i for i, v in enumerate(quiver.vertices)}
        states = [(v, 0) for v in quiver.vertices]
        self.moves: list[dict[str, int]] = []
        for vertex, node in states:  # grows while it is scanned
            out = {}
            for a in quiver.arrows_from(vertex):
                c = step(node, a.name)
                if c in ends:
                    continue  # the path read so far ends with a relation
                key = c or a.target
                i = index.get(key)
                if i is None:
                    i = index[key] = len(states)
                    states.append((a.target, c))
                out[a.name] = i
            self.moves.append(out)
        self.counts = [0] * len(self.moves)
        self.syzygy_memo: dict = {}
        self.class_memo: dict = {}
        self.path_table = None

    @property
    def dimension(self) -> int:
        return sum(self.counts[:len(self.quiver.vertices)])

    def paths_from(self, *vertices: str):
        """Nonzero paths with a source among `vertices` (default: every
        vertex), by length, then by the index of the source vertex, then by
        the indices of the arrows: breadth-first over the automaton's moves,
        each path with its state."""
        Q = self.quiver
        layer = [(Q.vertex_index[v], Path(v, v, ()))
                 for v in vertices or Q.vertices]
        while layer:
            yield from (p for _, p in layer)
            layer = [(j, Path(p.source, Q.arrow_by_name[a].target,
                              p.arrows + (a,)))
                     for i, p in layer for a, j in self.moves[i].items()]

    def state_after(self, p: Path) -> int | None:
        """The automaton's state after reading p from its source, or None
        when p is zero."""
        state = self.quiver.vertex_index[p.source]
        for name in p.arrows:
            state = self.moves[state].get(name)
            if state is None:
                return None
        return state

    def is_nonzero(self, p: Path) -> bool:
        return self.state_after(p) is not None

    def extend(self, p, q):
        """Compose p then q. Returns a Path, or PathZero with the reason
        ('non_composable' on endpoint mismatch, 'relation' otherwise)."""
        if isinstance(p, PathZero):
            return p
        if isinstance(q, PathZero):
            return q
        if p.target != q.source:
            return PathZero("non_composable")
        pq = Path(p.source, q.target, p.arrows + q.arrows)
        return pq if self.is_nonzero(pq) else PathZero("relation")

    def module_terms(self, name: str) -> tuple[ModuleTerm, ...]:
        if name not in self.modules:
            raise ValidationError(
                f"unknown module {name!r} (defined: {', '.join(self.modules) or 'none'})"
            )
        return self.modules[name]


def _normalize_relations(relations: tuple[Path, ...]) -> tuple[Path, ...]:
    """Minimal relation set: dedupe, then drop any relation containing another
    as a contiguous factor (same ideal, smaller generating set). Relations
    are scanned shortest first, so every kept word is shorter than the
    words of the next length: their factors of the kept lengths are cut
    out by one list of slices per length, and looked up among the kept
    words. The result has no relation that is a factor of another, which
    the automaton of MonomialAlgebra relies on."""
    first: dict[tuple[str, ...], Path] = {}
    for r in relations:
        first.setdefault(r.arrows, r)
    kept: list[Path] = []
    kept_words: set[tuple[str, ...]] = set()
    kept_lengths: set[int] = set()
    n = -1
    for w in sorted(first, key=len):
        if len(w) != n:
            n = len(w)
            cuts = [slice(i, i + k) for k in kept_lengths
                    for i in range(n - k + 1)]
        if kept_words.isdisjoint(map(w.__getitem__, cuts)):
            kept.append(first[w])
            kept_words.add(w)
            kept_lengths.add(n)
    return tuple(kept)


def validate_algebra(spec: MonomialAlgebraSpec) -> MonomialAlgebra:
    """Check admissibility and finite-dimensionality; count the basis.

    Rejects relations shorter than 2 arrows and algebras with a nonzero cycle
    (detected as a cycle in the algebra's forbidden-factor automaton).
    """
    for r in spec.relations:
        if len(r.arrows) < 2:
            raise RelationTooShortError(
                f"relation {r.literal()!r} has length {len(r.arrows)}; "
                "relations must be paths of length >= 2"
            )
    relations = _normalize_relations(spec.relations)
    alg = MonomialAlgebra(spec.name, spec.quiver, relations, dict(spec.modules))
    moves = alg.moves

    # Sinks come first, so a state's successors are counted before it is.
    succ = [list(out.values()) for out in moves]
    for comp in tarjan(succ):
        x = comp[0]
        if len(comp) == 1 and x not in succ[x]:
            alg.counts[x] = 1 + sum(alg.counts[j] for j in succ[x])
            continue
        # Every state of a cyclic component has a move inside it; follow such
        # moves until a state repeats, and name the loop between the visits.
        members = set(comp)
        visited_at: dict[int, int] = {}
        walk: list[str] = []
        while x not in visited_at:
            visited_at[x] = len(walk)
            name, x = next((a, j) for a, j in moves[x].items() if j in members)
            walk.append(name)
        raise InfiniteDimensionalError(
            "the algebra is infinite dimensional: nonzero cycle "
            + ".".join(walk[visited_at[x]:])
        )

    return alg


_LINE_RES = {
    "algebra": re.compile(r"algebra\s+([A-Za-z0-9_]+)\s*\Z"),
    "vertex": re.compile(r"vertex\s+([A-Za-z0-9_]+)\s*\Z"),
    "arrow": re.compile(
        r"arrow\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\Z"
    ),
    "relation": re.compile(r"relation\s+([A-Za-z0-9_]+(?:\s*\.\s*[A-Za-z0-9_]+)*)\s*\Z"),
    "module": re.compile(r"module\s+([A-Za-z0-9_]+)\s*=\s*(.+?)\s*\Z"),
}

_TERM_RE = re.compile(
    r"(?:(\d+)\s*\*\s*)?(S|P)\(\s*([A-Za-z0-9_]+)\s*\)\Z|"
    r"(?:(\d+)\s*\*\s*)?(M)\(\s*([A-Za-z0-9_]+(?:\s*\.\s*[A-Za-z0-9_]+)*)\s*\)\Z"
)


def parse_algebra(text: str) -> MonomialAlgebraSpec:
    """Parse the line-oriented algebra format.

    Grammar (one declaration per line, `#` starts a comment):
        algebra <name>
        vertex <id>
        arrow <id> : <src> -> <tgt>
        relation <arrowid>(.<arrowid>)+
        module <name> = <term> (+ <term>)*   term ::= [<mult>*] S(<v>) | P(<v>) | M(<path>)
    """
    name = None
    vertices: dict[str, None] = {}  # a set in declaration order
    arrow_by_name: dict[str, Arrow] = {}  # in declaration order
    relations: list[tuple[str, int]] = []
    raw_modules: list[tuple[str, str, int]] = []
    ids: set[str] = set()
    module_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        kind = line.split(None, 1)[0]
        rx = _LINE_RES.get(kind)
        m = rx.match(line) if rx else None
        if m is None:
            raise AlgebraSyntaxError(f"cannot parse declaration: {line!r}", line=lineno)
        if kind == "relation":
            relations.append((m.group(1), lineno))
        elif kind == "algebra":
            if name is not None:
                raise AlgebraSyntaxError("repeated algebra declaration", line=lineno)
            name = m.group(1)
        elif kind == "vertex":
            v = m.group(1)
            if v in ids:
                raise AlgebraSyntaxError(f"duplicate identifier {v!r}", line=lineno)
            ids.add(v)
            vertices[v] = None
        elif kind == "arrow":
            an, src, tgt = m.group(1), m.group(2), m.group(3)
            if an in ids:
                raise AlgebraSyntaxError(f"duplicate identifier {an!r}", line=lineno)
            for v in (src, tgt):
                if v not in vertices:
                    raise AlgebraSyntaxError(
                        f"unknown vertex {v!r} in arrow {an!r}", line=lineno
                    )
            ids.add(an)
            arrow_by_name[an] = Arrow(an, src, tgt)
        elif kind == "module":
            mname = m.group(1)
            if mname in module_names:
                raise AlgebraSyntaxError(f"duplicate module {mname!r}", line=lineno)
            module_names.add(mname)
            raw_modules.append((mname, m.group(2), lineno))

    if name is None:
        raise AlgebraSyntaxError("missing algebra declaration")
    quiver = Quiver(tuple(vertices), tuple(arrow_by_name.values()))

    def build_path(literal: str, lineno: int) -> Path:
        # Whitespace can only stand around the dots of a path literal.
        names = tuple("".join(literal.split()).split("."))
        return _path_of(arrow_by_name, names, lineno)

    # After the loop, since a relation may name an arrow declared below it.
    rel_paths = tuple([build_path(lit, ln) for lit, ln in relations])

    modules: dict[str, tuple[ModuleTerm, ...]] = {}
    for mname, body, lineno in raw_modules:
        terms: list[ModuleTerm] = []
        for chunk in body.split("+"):
            t = _TERM_RE.match(chunk.strip())
            if t is None:
                raise AlgebraSyntaxError(
                    f"cannot parse module term {chunk.strip()!r}", line=lineno
                )
            if t.group(2):  # S or P
                mult = int(t.group(1) or 1)
                kind, v = t.group(2), t.group(3)
                if v not in quiver.vertex_index:
                    raise AlgebraSyntaxError(
                        f"unknown vertex {v!r} in module {mname!r}", line=lineno
                    )
                terms.append(ModuleTerm(mult, kind, vertex=v))
            else:  # M
                mult = int(t.group(4) or 1)
                p = build_path(t.group(6), lineno)
                terms.append(ModuleTerm(mult, "M", path=p))
            if terms[-1].mult < 1:
                raise AlgebraSyntaxError(
                    f"multiplicity must be >= 1 in module {mname!r}", line=lineno
                )
        modules[mname] = tuple(terms)

    return MonomialAlgebraSpec(name, quiver, rel_paths, modules)


def read_text(path) -> str:
    """The file's text. A file that is not UTF-8 raises an OSError (EILSEQ)
    that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OSError(errno.EILSEQ, f"not UTF-8 ({e.reason} at byte {e.start})",
                      str(path)) from None


def parse_algebra_file(path) -> MonomialAlgebraSpec:
    return parse_algebra(read_text(path))


def load_algebra(path) -> MonomialAlgebra:
    return validate_algebra(parse_algebra_file(path))
