"""Quivers, paths, and monomial path algebras.

A monomial path algebra is presented by a finite quiver together with a list of
forbidden paths (the relations), each of length >= 2. A path is nonzero in the
algebra iff it contains no relation as a contiguous factor, so the nonzero
paths form a factor-avoiding language. The algebra is finite dimensional iff
the forbidden-factor automaton (states: nonzero paths of length <= R-1, where
R is the longest relation length) is acyclic; validation checks exactly that
and then enumerates the nonzero-path basis.

Composition is written in traversal order throughout: `a.b` means traverse `a`
then `b`, and requires target(a) == source(b).
"""

from __future__ import annotations

import errno
import re
from dataclasses import dataclass, field

from .errors import (
    AlgebraSyntaxError,
    InfiniteDimensionalError,
    RelationTooShortError,
    ValidationError,
)
from .graph import tarjan

IDENT_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite quiver. Vertex and arrow order is the declaration order; every
    downstream ordering (path enumeration, syzygy-quiver discovery, exports)
    is a pure function of it."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if not IDENT_RE.match(v):
                raise AlgebraSyntaxError(f"bad vertex identifier {v!r}")
            if v in seen:
                raise AlgebraSyntaxError(f"duplicate identifier {v!r}")
            seen.add(v)
        for a in self.arrows:
            if not IDENT_RE.match(a.name):
                raise AlgebraSyntaxError(f"bad arrow identifier {a.name!r}")
            if a.name in seen:
                raise AlgebraSyntaxError(f"duplicate identifier {a.name!r}")
            seen.add(a.name)
            for v in (a.source, a.target):
                if v not in self.vertices:
                    raise AlgebraSyntaxError(
                        f"unknown vertex {v!r} in arrow {a.name!r}"
                    )

    @property
    def vertex_index(self) -> dict[str, int]:
        if not hasattr(self, "_vidx"):
            object.__setattr__(self, "_vidx", {v: i for i, v in enumerate(self.vertices)})
        return self._vidx

    @property
    def arrow_index(self) -> dict[str, int]:
        if not hasattr(self, "_aidx"):
            object.__setattr__(self, "_aidx", {a.name: i for i, a in enumerate(self.arrows)})
        return self._aidx

    @property
    def arrow_by_name(self) -> dict[str, Arrow]:
        if not hasattr(self, "_abyn"):
            object.__setattr__(self, "_abyn", {a.name: a for a in self.arrows})
        return self._abyn

    def arrows_from(self, vertex: str) -> tuple[Arrow, ...]:
        if not hasattr(self, "_afrom"):
            afrom = {v: [] for v in self.vertices}
            for a in self.arrows:
                afrom[a.source].append(a)
            object.__setattr__(
                self, "_afrom", {v: tuple(lst) for v, lst in afrom.items()}
            )
        return self._afrom[vertex]

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
        names = tuple(arrow_names)
        if not names:
            raise AlgebraSyntaxError("empty path literal")
        arrows = []
        for n in names:
            a = self.arrow_by_name.get(n)
            if a is None:
                raise AlgebraSyntaxError(f"unknown arrow {n!r} in path literal")
            arrows.append(a)
        for x, y in zip(arrows, arrows[1:]):
            if x.target != y.source:
                raise AlgebraSyntaxError(
                    f"non-composable path literal: {x.name!r} ends at "
                    f"{x.target!r} but {y.name!r} starts at {y.source!r}"
                )
        return Path(arrows[0].source, arrows[-1].target, names)

    def parse_path_literal(self, text: str) -> "Path":
        m = re.match(r"e\(([A-Za-z0-9_]+)\)\Z", text.strip())
        if m:
            return self.trivial_path(m.group(1))
        return self.path(text.strip().split("."))


@dataclass(frozen=True)
class Path:
    """Path in a quiver: a source vertex and a composable arrow-name sequence
    (empty for the trivial path at `source`)."""

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


@dataclass(frozen=True)
class ModuleTerm:
    """One summand in a module definition: mult * S(v) | P(v) | M(path)."""

    mult: int
    kind: str  # "S" | "P" | "M"
    vertex: str | None = None
    path: Path | None = None


@dataclass(frozen=True)
class MonomialAlgebraSpec:
    """Parsed but unvalidated presentation."""

    name: str
    quiver: Quiver
    relations: tuple[Path, ...]
    modules: dict[str, tuple[ModuleTerm, ...]] = field(default_factory=dict)


class MonomialAlgebra:
    """Validated finite-dimensional monomial path algebra.

    Holds the normalized relation set, the longest relation length R, and the
    full nonzero-path basis ordered by (length, arrow declaration indices).
    Only validate_algebra builds one; the basis is empty until it is set.
    `syzygy_memo` maps each CyclicKey to its syzygy; syzygy.syzygy_key fills
    it, so a key's syzygy is computed once per algebra.
    """

    def __init__(self, name, quiver, relations, modules):
        self.name = name
        self.quiver = quiver
        self.relations = relations
        self.modules = modules
        self.max_relation_length = max((len(r) for r in relations), default=1)
        grouped: dict[int, set] = {len(r): set() for r in relations}
        for r in relations:
            grouped[len(r)].add(r.arrows)
        self._rel_by_len: dict[int, frozenset[tuple[str, ...]]] = {
            k: frozenset(v) for k, v in grouped.items()
        }
        self.syzygy_memo: dict = {}
        self._set_basis(())

    def _set_basis(self, nonzero_paths: tuple[Path, ...]):
        self.nonzero_paths = nonzero_paths
        from_v: dict[str, list[Path]] = {v: [] for v in self.quiver.vertices}
        for p in nonzero_paths:
            from_v[p.source].append(p)
        self._paths_from = {v: tuple(ps) for v, ps in from_v.items()}

    @property
    def dimension(self) -> int:
        return len(self.nonzero_paths)

    def paths_from(self, vertex: str) -> tuple[Path, ...]:
        """Nonzero paths with the given source, in canonical order."""
        return self._paths_from[vertex]

    def path_sort_key(self, p: Path):
        aidx = self.quiver.arrow_index
        return (len(p.arrows), tuple(aidx[n] for n in p.arrows),
                self.quiver.vertex_index[p.source])

    def contains_relation_factor(self, arrow_names: tuple[str, ...]) -> bool:
        for L, rels in self._rel_by_len.items():
            if L > len(arrow_names):
                continue
            for i in range(len(arrow_names) - L + 1):
                if arrow_names[i:i + L] in rels:
                    return True
        return False

    def has_relation_suffix(self, arrow_names: tuple[str, ...]) -> bool:
        for L, rels in self._rel_by_len.items():
            if L <= len(arrow_names) and arrow_names[-L:] in rels:
                return True
        return False

    def is_nonzero(self, p: Path) -> bool:
        return not self.contains_relation_factor(p.arrows)

    def extend(self, p, q):
        """Compose p then q. Returns a Path, or PathZero with the reason
        ('non_composable' on endpoint mismatch, 'relation' otherwise)."""
        if isinstance(p, PathZero):
            return p
        if isinstance(q, PathZero):
            return q
        if p.target != q.source:
            return PathZero("non_composable")
        names = p.arrows + q.arrows
        if self.contains_relation_factor(names):
            return PathZero("relation")
        return Path(p.source, q.target, names)

    def module_terms(self, name: str) -> tuple[ModuleTerm, ...]:
        if name not in self.modules:
            raise ValidationError(
                f"unknown module {name!r} (defined: {', '.join(self.modules) or 'none'})"
            )
        return self.modules[name]


def _normalize_relations(relations: tuple[Path, ...]) -> tuple[Path, ...]:
    """Minimal relation set: dedupe, then drop any relation containing another
    as a contiguous factor (same ideal, smaller generating set). Relations
    have length >= 2, so each factor of length >= 2 is looked up among the
    kept words."""
    uniq: list[Path] = []
    seen = set()
    for r in relations:
        if r.arrows not in seen:
            seen.add(r.arrows)
            uniq.append(r)
    uniq.sort(key=lambda r: len(r.arrows))
    kept: list[Path] = []
    kept_words: set[tuple[str, ...]] = set()
    for r in uniq:
        w = r.arrows
        if not any(w[i:j] in kept_words
                   for i in range(len(w)) for j in range(i + 2, len(w) + 1)):
            kept.append(r)
            kept_words.add(w)
    return tuple(kept)


def validate_algebra(spec: MonomialAlgebraSpec) -> MonomialAlgebra:
    """Check admissibility and finite-dimensionality; enumerate the basis.

    Rejects relations shorter than 2 arrows and algebras with a nonzero cycle
    (detected as a cycle in the forbidden-factor automaton whose states are
    nonzero paths of length <= R-1).
    """
    for r in spec.relations:
        if len(r.arrows) < 2:
            raise RelationTooShortError(
                f"relation {r.literal()!r} has length {len(r.arrows)}; "
                "relations must be paths of length >= 2"
            )
    relations = _normalize_relations(spec.relations)
    alg = MonomialAlgebra(spec.name, spec.quiver, relations, dict(spec.modules))
    quiver = spec.quiver
    keep = alg.max_relation_length - 1

    # Materialize the automaton reachable from the trivial paths. States are
    # (vertex, last <= R-1 arrows); moves[i] lists (successor, arrow name).
    index = {(v, ()): i for i, v in enumerate(quiver.vertices)}
    states = list(index)
    moves: list[list[tuple[int, str]]] = []
    for vertex, word in states:  # grows while it is scanned
        out = []
        for a in quiver.arrows_from(vertex):
            new = word + (a.name,)
            if alg.has_relation_suffix(new):
                continue
            key = (a.target, new[max(0, len(new) - keep):])
            if key not in index:
                index[key] = len(states)
                states.append(key)
            out.append((index[key], a.name))
        moves.append(out)

    succ = [[j for j, _ in out] for out in moves]
    for comp in tarjan(succ):
        x = comp[0]
        if len(comp) == 1 and x not in succ[x]:
            continue
        # Every state of a cyclic component has a move inside it; follow such
        # moves until a state repeats, and name the loop between the visits.
        members = set(comp)
        visited_at: dict[int, int] = {}
        walk: list[str] = []
        while x not in visited_at:
            visited_at[x] = len(walk)
            x, name = next((j, a) for j, a in moves[x] if j in members)
            walk.append(name)
        raise InfiniteDimensionalError(
            "the algebra is infinite dimensional: nonzero cycle "
            + ".".join(walk[visited_at[x]:])
        )

    # Acyclic: the language is finite; enumerate by length layers.
    paths: list[Path] = [Path(v, v, ()) for v in quiver.vertices]
    layer = list(paths)
    while layer:
        nxt: list[Path] = []
        for p in layer:
            for a in quiver.arrows_from(p.target):
                names = p.arrows + (a.name,)
                if alg.has_relation_suffix(names):
                    continue
                nxt.append(Path(p.source, a.target, names))
        paths.extend(nxt)
        layer = nxt
    alg._set_basis(tuple(paths))
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
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[Path, int]] = []
    raw_modules: list[tuple[str, str, int]] = []
    ids: set[str] = set()
    module_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = line.split(None, 1)[0]
        rx = _LINE_RES.get(kind)
        m = rx.match(line) if rx else None
        if m is None:
            raise AlgebraSyntaxError(f"cannot parse declaration: {line!r}", line=lineno)
        if kind == "algebra":
            if name is not None:
                raise AlgebraSyntaxError("repeated algebra declaration", line=lineno)
            name = m.group(1)
        elif kind == "vertex":
            v = m.group(1)
            if v in ids:
                raise AlgebraSyntaxError(f"duplicate identifier {v!r}", line=lineno)
            ids.add(v)
            vertices.append(v)
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
            arrows.append(Arrow(an, src, tgt))
        elif kind == "relation":
            relations.append((m.group(1), lineno))
        elif kind == "module":
            mname = m.group(1)
            if mname in module_names:
                raise AlgebraSyntaxError(f"duplicate module {mname!r}", line=lineno)
            module_names.add(mname)
            raw_modules.append((mname, m.group(2), lineno))

    if name is None:
        raise AlgebraSyntaxError("missing algebra declaration")
    quiver = Quiver(tuple(vertices), tuple(arrows))

    def build_path(literal: str, lineno: int) -> Path:
        try:
            return quiver.path(n.strip() for n in literal.split("."))
        except AlgebraSyntaxError as e:
            raise AlgebraSyntaxError(e.message, line=lineno) from None

    rel_paths = tuple(build_path(lit, ln) for lit, ln in relations)

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
