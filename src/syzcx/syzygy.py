"""Combinatorial syzygy calculus for monomial path algebras.

Every module handled here is a direct sum of cyclic modules, each named by a
CyclicKey: a vertex v plus an antichain of "killer" paths starting at v. The
key (v, K) denotes the span of the nonzero paths from v that have no prefix in
K. Killers = none is the projective at v; killers = all arrows out of v is the
simple at v; the module generated by a nonzero path p is keyed by
(target(p), minimal_killers(p)).

The first syzygy of (v, K) is the direct sum over w in K of the module
generated by w, which is again cyclic:

    syzygy(v, K)  =  (+)_{w in K}  (target(w), minimal_killers(w))

Closing a starting module under this rule gives a finite syzygy quiver whose
weighted path counts reproduce the dimensions of all iterated syzygies.

The killers of a nonzero path depend only on the automaton state after it
(see MonomialAlgebra), so each algebra interns the keys it meets: the killer
search runs once per state, every key met gets an integer id with the states
of its killers and its syzygy over ids, and the closure runs on the ids.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .algebra import MonomialAlgebra, Path, PathZero
from .errors import InvalidPartialError, ZeroPathError


class CyclicKey(NamedTuple):
    """Canonical name of a cyclic module: vertex + killer antichain.

    Killers are positive-length paths starting at `vertex`, none a prefix of
    another, stored sorted by (length, arrow-name sequence). `cyclic_key`
    checks this for killers from outside; the killer search and
    `simple_key` build it directly.
    """

    vertex: str
    killers: tuple[Path, ...]

    def label(self) -> str:
        return f"{self.vertex}|{{{','.join(k.literal() for k in self.killers)}}}"

    def __repr__(self):
        return f"CyclicKey({self.label()})"


def cyclic_key(vertex: str, killers) -> CyclicKey:
    """Build a CyclicKey with killers in canonical order, checking that each
    killer has positive length and starts at `vertex`, and that no killer
    is a prefix of another."""
    ks = sorted(killers, key=_killer_order)
    for k in ks:
        if k.is_trivial:
            raise ValueError("killers must have positive length")
        if k.source != vertex:
            raise ValueError(f"killer {k.literal()} does not start at {vertex}")
    # Sorted by length, a prefix comes before every path it is a prefix of.
    for i, a in enumerate(ks):
        for b in ks[i + 1:]:
            if b.arrows[: len(a.arrows)] == a.arrows:
                raise ValueError(
                    f"killer {a.literal()} is a prefix of {b.literal()}"
                )
    return CyclicKey(vertex, tuple(ks))


def _killer_order(k: Path):
    return len(k.arrows), k.arrows


def _key_order(key: CyclicKey):
    """The canonical order of keys, and so of a ModuleExpr's terms: by
    vertex, then number of killers, then the killers in their canonical
    order."""
    return (key.vertex, len(key.killers),
            [(len(k.arrows), k.arrows) for k in key.killers])


class ModuleExpr(NamedTuple):
    """Formal direct sum of cyclic modules: (key, multiplicity) pairs, keys
    distinct and sorted, multiplicities >= 1. Empty means the zero module."""

    terms: tuple[tuple[CyclicKey, int], ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ModuleExpr") -> "ModuleExpr":
        return module_expr(list(self.terms) + list(other.terms))

    def label(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(
            (f"{c}*" if c > 1 else "") + k.label() for k, c in self.terms
        )


def module_expr(pairs) -> ModuleExpr:
    """Canonicalize (key, mult) pairs: merge duplicates, drop zeros, sort."""
    acc: dict[CyclicKey, int] = {}
    for key, mult in pairs:
        if mult < 0:
            raise ValueError("multiplicity must be >= 0")
        if mult:
            acc[key] = acc.get(key, 0) + mult
    items = list(acc.items())
    if len(items) > 1:
        items.sort(key=lambda term: _key_order(term[0]))
    return ModuleExpr(tuple(items))


# -- canonical keys ----------------------------------------------------------

def projective_key(A: MonomialAlgebra, vertex: str) -> CyclicKey:
    A.quiver.trivial_path(vertex)  # existence check
    return CyclicKey(vertex, ())


def simple_key(A: MonomialAlgebra, vertex: str) -> CyclicKey:
    """Simple at a vertex: everything past the generator is killed. Its
    killers are the arrows out of the vertex, paths of length 1 and so an
    antichain, in canonical order: by name, which an Arrow compares first
    and no two share. At a vertex with no outgoing arrows this coincides
    with the projective key."""
    return CyclicKey(vertex, tuple(
        Path(vertex, a.target, (a.name,))
        for a in sorted(A.quiver.arrows_from(vertex))))


def minimal_killers(p: Path, A: MonomialAlgebra, state: int | None = None
                    ) -> tuple[tuple[Path, ...], tuple[int, ...]]:
    """Prefix-minimal nonzero paths w with p.w zero, in canonical order, and
    in the same order the automaton state of each w read from p's target.
    `state` is p's own state, when the caller has it; else it is read off
    p. The killers depend on that state alone: `_path_id`, the one caller
    in the package, keeps one search per state.

    Search with an explicit stack over forward extensions w of p, pruned at
    zero paths; recording stops at the first zero product, which makes the
    result an antichain. Every killer ends inside the relation that kills
    it, so killer length is bounded by the longest relation length minus
    one, and the search goes no deeper. It carries the automaton states of
    p.w and of w: p.w.a is zero exactly when a has no move from the first,
    and w.a is a killer only if a has a move from the second. The stack
    holds each extension's depth and last arrow, and `word` the arrows of
    the extension being expanded, cut back and extended as the search
    backtracks, so a step costs O(1) and only a recorded killer's word is
    built: the search is linear in the killers' total length plus the
    extensions it visits.
    """
    if state is None:
        state = None if isinstance(p, PathZero) else A.state_after(p)
    if state is None:
        raise ZeroPathError(f"path is zero in {A.name}")
    moves, target_of = A.moves, A.quiver.arrow_by_name
    deepest = A.max_relation_length - 1
    out: list[tuple[Path, int]] = []
    word: list[str] = []
    stack = [(0, "", state, A.quiver.vertex_index[p.target])]
    while stack:
        depth, last, pw, s = stack.pop()
        if depth:
            del word[depth - 1:]
            word.append(last)
        from_pw = moves[pw]
        for a, t in moves[s].items():
            u = from_pw.get(a)
            if u is None:
                out.append((Path(p.target, target_of[a].target, (*word, a)),
                            t))
            elif depth + 1 < deepest:
                stack.append((depth + 1, a, u, t))
    if len(out) > 1:
        out.sort(key=lambda wt: _killer_order(wt[0]))
    return tuple([w for w, _ in out]), tuple([t for _, t in out])


# -- interned keys -----------------------------------------------------------

def _key_id(A: MonomialAlgebra, key: CyclicKey, states: tuple = ()) -> int:
    """The id of `key` in A. A new key keeps the states of its killers:
    `states` when the search gives them, else read off the killers, None
    for a zero one (a key from outside, such as a partial quiver's label)."""
    i = A.key_ids.get(key)
    if i is None:
        i = A.key_ids[key] = len(A.keys)
        A.keys.append(key)
        A.killer_states.append(states or tuple(map(A.state_after,
                                                   key.killers)))
        A.syzygies.append(None)
    return i


def _path_id(A: MonomialAlgebra, p: Path, state: int | None) -> int:
    """The id of the key of path p, whose automaton state is `state`: one
    killer search per state, whatever path reaches it. A zero p (state
    None) raises ZeroPathError."""
    i = A.state_ids.get(state)
    if i is None:
        killers, states = minimal_killers(p, A, state)
        i = A.state_ids[state] = _key_id(A, CyclicKey(p.target, killers),
                                         states)
    return i


def _syzygy_ids(A: MonomialAlgebra, i: int) -> tuple[tuple[int, int], ...]:
    """The syzygy of key i as (id, multiplicity) pairs in canonical term
    order, taken once per id: each killer's key is read off its stored
    state."""
    syz = A.syzygies[i]
    if syz is None:
        acc: dict[int, int] = {}
        for w, t in zip(A.keys[i].killers, A.killer_states[i]):
            j = _path_id(A, w, t)
            acc[j] = acc.get(j, 0) + 1
        syz = list(acc.items())
        if len(syz) > 1:
            keys = A.keys
            syz.sort(key=lambda jm: _key_order(keys[jm[0]]))
        syz = A.syzygies[i] = tuple(syz)
    return syz


def path_key(p: Path, A: MonomialAlgebra) -> CyclicKey:
    """Key of the cyclic module generated by a nonzero path."""
    state = None if isinstance(p, PathZero) else A.state_after(p)
    return A.keys[_path_id(A, p, state)]


def key_dimension(key: CyclicKey, A: MonomialAlgebra) -> int:
    """Dimension of the module named by `key`, the number of nonzero paths
    from its vertex with no killer prefix, counted: the paths from the
    vertex less those that extend a nonzero killer, read off the stored
    killer states; the killers are an antichain, so none twice."""
    counts = A.counts
    return (counts[A.quiver.vertex_index[key.vertex]]
            - sum(counts[s] for s in A.killer_states[_key_id(A, key)]
                  if s is not None))


def expr_dimension(M: ModuleExpr, A: MonomialAlgebra) -> int:
    return sum(m * key_dimension(k, A) for k, m in M.terms)


def resolve_module(A: MonomialAlgebra, name: str) -> ModuleExpr:
    """ModuleExpr for a module defined in the algebra file. A term M(p) with
    p zero in the algebra denotes the zero module and contributes nothing."""
    pairs = []
    for t in A.module_terms(name):
        if t.kind == "S":
            pairs.append((simple_key(A, t.vertex), t.mult))
        elif t.kind == "P":
            pairs.append((projective_key(A, t.vertex), t.mult))
        else:
            if A.is_nonzero(t.path):
                pairs.append((path_key(t.path, A), t.mult))
    return module_expr(pairs)


# -- the syzygy rule ---------------------------------------------------------

def syzygy_key(key: CyclicKey, A: MonomialAlgebra) -> ModuleExpr:
    """First syzygy of one cyclic module; zero for projectives. Read off the
    key's interned syzygy: a key names a module only inside its algebra."""
    keys = A.keys
    return ModuleExpr(tuple((keys[j], m)
                            for j, m in _syzygy_ids(A, _key_id(A, key))))


class SyzygyQuiver(NamedTuple):
    """Finite syzygy quiver: each vertex is one cyclic module, labelled by
    its CyclicKey; `arrows` lists one entry per multiplicity and is what
    every reader walks, and `start` records the starting module's vertices
    with multiplicities.

    When `partial` is false, each vertex's out-neighbor multiset equals the
    decomposition of the syzygy of its label; when true it is only a
    sub-multiset (user-supplied truncations)."""

    algebra: MonomialAlgebra
    labels: tuple[CyclicKey, ...]
    arrows: tuple[tuple[int, int], ...]
    start: tuple[tuple[int, int], ...] = ()
    partial: bool = False

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(key_dimension(k, self.algebra) for k in self.labels)

    def digraph(self) -> tuple[int, list[tuple[int, int]]]:
        return self.n_vertices, list(self.arrows)

    def out_exprs(self) -> list[ModuleExpr]:
        """Per vertex, the direct sum of its out-neighbors' labels with arrow
        multiplicities, grouped in one pass over the arrows."""
        terms: list[list] = [[] for _ in self.labels]
        for a, b in self.arrows:
            terms[a].append((self.labels[b], 1))
        return [module_expr(t) for t in terms]

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "partial": self.partial,
            "start": [{"id": i, "mult": m} for i, m in self.start],
            "vertices": [
                {"id": i, "vertex": key.vertex,
                 "killers": [k.literal() for k in key.killers], "dim": dim}
                for i, (key, dim) in enumerate(zip(self.labels, self.dims))
            ],
            "arrows": [{"from": a, "to": b} for a, b in self.arrows],
        }

    def to_dot(self) -> str:
        if not self.labels:
            return "digraph G {}\n"
        lines = ["digraph G {"]
        for i, key in enumerate(self.labels):
            lines.append(f'  n{i} [label="{key.label()}"];')
        for a, b in self.arrows:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_syzygy_quiver(M: ModuleExpr, A: MonomialAlgebra) -> SyzygyQuiver:
    """Close a module under the syzygy rule, deduplicating by CyclicKey.

    Breadth-first from M's summands in canonical order, over the algebra's
    interned key ids, each id's syzygy read off its memo; the labels are
    looked up once the closure is done. Projective keys stay in the quiver
    as sinks (their syzygy is zero), so weighted path counts from the start
    vertices reproduce dim of every iterated syzygy. The zero module yields
    the empty quiver."""
    order: list[int] = []
    index: dict[int, int] = {}

    def vid(i: int) -> int:
        n = index.setdefault(i, len(order))
        if n == len(order):
            order.append(i)
        return n

    start = tuple((vid(_key_id(A, k)), m) for k, m in M.terms)
    arrows: list[tuple[int, int]] = []
    qi = 0
    while qi < len(order):
        for j, m in _syzygy_ids(A, order[qi]):
            arrows.extend([(qi, vid(j))] * m)
        qi += 1
    labels = tuple(map(A.keys.__getitem__, order))
    return SyzygyQuiver(A, labels, tuple(arrows), start, partial=False)


def quiver_dim_sequence(Q: SyzygyQuiver, N: int) -> list[int]:
    """dim of the n-th syzygy of the start module, n = 0..N, exact: the sum
    over vertices of (walks of length n from the start, counted with start
    multiplicities) * (label dim). Each step moves the walk counts forward
    in one pass over the arrow list, O(V + E) per step."""
    dims = Q.dims
    walks = [0] * Q.n_vertices
    for i, m in Q.start:
        walks[i] += m
    out = [sum(map(mul, walks, dims))]
    for _ in range(N):
        nxt = [0] * Q.n_vertices
        for a, b in Q.arrows:
            nxt[b] += walks[a]
        walks = nxt
        out.append(sum(map(mul, walks, dims)))
    return out


# -- partial syzygy quivers --------------------------------------------------

def _is_sub_multiset(sub: ModuleExpr, sup: ModuleExpr) -> bool:
    sup_counts = dict(sup.terms)
    return all(sup_counts.get(k, 0) >= m for k, m in sub.terms)


def validate_partial(Q: SyzygyQuiver) -> bool:
    """True iff each vertex's out-neighbor multiset is a sub-multiset of the
    decomposition of the syzygy of its label. True licenses lower bounds.
    The out-neighbor sums come from one grouping of the arrows (out_exprs),
    so the check is linear in the arrows plus one syzygy_key per label."""
    return all(_is_sub_multiset(out, syzygy_key(key, Q.algebra))
               for out, key in zip(Q.out_exprs(), Q.labels))


def syzygy_quiver_from_json(data: dict, A: MonomialAlgebra) -> SyzygyQuiver:
    """Rebuild a (typically partial) syzygy quiver from the JSON schema used
    by the exporter. Arrows may repeat or carry a "mult", at most the number
    of killers of their tail. Dimensions are recomputed, never trusted."""
    if not isinstance(data, dict):
        raise InvalidPartialError("partial quiver document must be an object")
    try:
        raw_vertices = list(data["vertices"])
        raw_arrows = list(data.get("arrows", []))
    except (KeyError, TypeError):
        raise InvalidPartialError(
            "partial quiver needs 'vertices' and 'arrows' lists"
        ) from None

    keys: dict[int, CyclicKey] = {}
    for entry in raw_vertices:
        try:
            vid = int(entry["id"])
            vertex = entry["vertex"]
            killer_lits = list(entry.get("killers", []))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise InvalidPartialError(f"bad vertex entry: {entry!r}") from None
        if vid in keys:
            raise InvalidPartialError(f"duplicate vertex id {vid}")
        try:
            killers = [A.quiver.parse_path_literal(s) for s in killer_lits]
            key = cyclic_key(vertex, killers)
        except Exception as e:
            raise InvalidPartialError(
                f"vertex {vid}: bad label ({e})"
            ) from None
        if any(not A.is_nonzero(k) for k in key.killers):
            raise InvalidPartialError(f"vertex {vid}: killer is zero")
        if not isinstance(vertex, str) or vertex not in A.quiver.vertex_index:
            raise InvalidPartialError(f"vertex {vid}: unknown vertex {vertex!r}")
        keys[vid] = key

    ids = sorted(keys)
    if ids != list(range(len(ids))):
        raise InvalidPartialError("vertex ids must be 0..n-1")

    arrows: list[tuple[int, int]] = []
    for entry in raw_arrows:
        try:
            a, b = int(entry["from"]), int(entry["to"])
            mult = int(entry.get("mult", 1))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise InvalidPartialError(f"bad arrow entry: {entry!r}") from None
        if not (a in keys and b in keys and 1 <= mult <= len(keys[a].killers)):
            raise InvalidPartialError(f"bad arrow entry: {entry!r}")
        arrows.extend([(a, b)] * mult)

    raw_start = data.get("start", [])
    if not isinstance(raw_start, list):
        raise InvalidPartialError(f"'start' must be a list, got {raw_start!r}")
    start: list[tuple[int, int]] = []
    for entry in raw_start:
        try:
            if isinstance(entry, dict):
                i, m = int(entry.get("id", -1)), int(entry.get("mult", 1))
            else:
                i, m = int(entry), 1
        except (TypeError, ValueError, OverflowError):
            raise InvalidPartialError(f"bad start entry: {entry!r}") from None
        if i not in keys or m < 1:
            raise InvalidPartialError(f"bad start entry: {entry!r}")
        start.append((i, m))

    return SyzygyQuiver(
        A, tuple(keys[i] for i in ids), tuple(arrows),
        tuple(start), partial=bool(data.get("partial", True)),
    )
