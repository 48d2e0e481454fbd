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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MonomialAlgebra, Path, PathZero
from .errors import (
    FiniteProjectiveDimensionError,
    InvalidPartialError,
    ZeroPathError,
)
from .graph import reachable, tarjan
from .spectra import adjacency_matrix


@dataclass(frozen=True)
class CyclicKey:
    """Canonical name of a cyclic module: vertex + killer antichain.

    Killers are positive-length paths starting at `vertex`, none a prefix of
    another, stored sorted by (length, arrow-name sequence). `cyclic_key`
    checks this for killers from outside; `path_key` builds it directly.
    The hash, hash((vertex, killers)), is computed once and kept on the key;
    pickles leave it out, since string hashes differ between processes.
    """

    vertex: str
    killers: tuple[Path, ...]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vertex, self.killers))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {"vertex": self.vertex, "killers": self.killers}

    @property
    def is_projective(self) -> bool:
        return not self.killers

    def sort_key(self):
        return (self.vertex, len(self.killers),
                tuple((len(k.arrows), k.arrows) for k in self.killers))

    def label(self) -> str:
        return f"{self.vertex}|{{{','.join(k.literal() for k in self.killers)}}}"

    def __repr__(self):
        return f"CyclicKey({self.label()})"


def cyclic_key(vertex: str, killers) -> CyclicKey:
    """Build a CyclicKey with killers in canonical order, checking that each
    killer has positive length and starts at `vertex`, and that no killer
    is a prefix of another."""
    ks = sorted(killers, key=lambda k: (len(k.arrows), k.arrows))
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


@dataclass(frozen=True)
class ModuleExpr:
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
    items = sorted(acc.items(), key=lambda kv: kv[0].sort_key())
    return ModuleExpr(tuple(items))


def singleton(key: CyclicKey) -> ModuleExpr:
    return ModuleExpr(((key, 1),))


# -- canonical keys ----------------------------------------------------------

def projective_key(A: MonomialAlgebra, vertex: str) -> CyclicKey:
    A.quiver.trivial_path(vertex)  # existence check
    return CyclicKey(vertex, ())


def simple_key(A: MonomialAlgebra, vertex: str) -> CyclicKey:
    """Simple at a vertex: everything past the generator is killed. At a
    vertex with no outgoing arrows this coincides with the projective key."""
    arrows = A.quiver.arrows_from(vertex)
    return cyclic_key(vertex, [A.quiver.path([a.name]) for a in arrows])


def minimal_killers(p: Path, A: MonomialAlgebra) -> tuple[Path, ...]:
    """Prefix-minimal nonzero paths w with p.w zero, in canonical order.

    Depth-first search over forward extensions w of p, pruned at zero paths;
    recording stops at the first zero product, which makes the result an
    antichain. Every killer ends inside the relation that kills it, so killer
    length is bounded by the longest relation length minus one. Since p.w is
    nonzero, p.w.a (and w.a) is zero exactly when it has a relation suffix.
    """
    if isinstance(p, PathZero) or not A.is_nonzero(p):
        raise ZeroPathError(f"path is zero in {A.name}")
    out: list[Path] = []

    def walk(target: str, w: tuple[str, ...]):
        for a in A.quiver.arrows_from(target):
            wa = w + (a.name,)
            if not A.has_relation_suffix(p.arrows + wa):
                walk(a.target, wa)
            elif not A.has_relation_suffix(wa):
                out.append(Path(p.target, a.target, wa))

    walk(p.target, ())
    return tuple(sorted(out, key=lambda k: (len(k.arrows), k.arrows)))


def path_key(p: Path, A: MonomialAlgebra) -> CyclicKey:
    """Key of the cyclic module generated by a nonzero path."""
    return CyclicKey(p.target, minimal_killers(p, A))


def key_basis(key: CyclicKey, A: MonomialAlgebra) -> tuple[Path, ...]:
    """Basis of the module named by `key`: nonzero paths from its vertex with
    no killer prefix, in canonical path order."""
    kills = tuple(k.arrows for k in key.killers)
    return tuple(
        q for q in A.paths_from(key.vertex)
        if not any(q.arrows[: len(k)] == k for k in kills)
    )


def key_dimension(key: CyclicKey, A: MonomialAlgebra) -> int:
    return len(key_basis(key, A))


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
    """First syzygy of one cyclic module; zero for projectives. Kept in the
    algebra's `syzygy_memo`: a key names a module only inside its algebra."""
    memo = A.syzygy_memo
    syz = memo.get(key)
    if syz is None:
        syz = memo[key] = module_expr((path_key(w, A), 1) for w in key.killers)
    return syz


def syzygy_step(M: ModuleExpr, A: MonomialAlgebra) -> ModuleExpr:
    """First syzygy of a direct sum, additively."""
    return module_expr((k, c * mult) for key, mult in M.terms
                       for k, c in syzygy_key(key, A).terms)


@dataclass(frozen=True)
class SyzygyQuiver:
    """Finite syzygy quiver: vertex labels are module expressions (single
    CyclicKeys for freshly built quivers), arrows repeat per multiplicity,
    and `start` records the starting module's vertices with multiplicities.

    When `partial` is false, each vertex's out-neighbor multiset equals the
    decomposition of the syzygy of its label; when true it is only a
    sub-multiset (user-supplied truncations)."""

    algebra: MonomialAlgebra
    labels: tuple[ModuleExpr, ...]
    arrows: tuple[tuple[int, int], ...]
    start: tuple[tuple[int, int], ...] = ()
    partial: bool = False

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def key_at(self, i: int) -> CyclicKey:
        terms = self.labels[i].terms
        if len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]
        raise ValueError(f"vertex {i} does not carry a single cyclic module")

    @property
    def dims(self) -> tuple[int, ...]:
        if not hasattr(self, "_dims"):
            object.__setattr__(self, "_dims", tuple(
                expr_dimension(lb, self.algebra) for lb in self.labels
            ))
        return self._dims

    def digraph(self) -> tuple[int, list[tuple[int, int]]]:
        return self.n_vertices, list(self.arrows)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return adjacency_matrix(self)

    def out_expr(self, i: int) -> ModuleExpr:
        """Direct sum of out-neighbor labels with arrow multiplicities."""
        return module_expr(t for a, b in self.arrows if a == i
                           for t in self.labels[b].terms)

    def to_json(self) -> dict:
        vertices = []
        for i, lb in enumerate(self.labels):
            entry: dict = {"id": i}
            if len(lb.terms) == 1 and lb.terms[0][1] == 1:
                key = lb.terms[0][0]
                entry["vertex"] = key.vertex
                entry["killers"] = [k.literal() for k in key.killers]
            else:
                entry["terms"] = [
                    {"vertex": k.vertex,
                     "killers": [w.literal() for w in k.killers],
                     "mult": m}
                    for k, m in lb.terms
                ]
            entry["dim"] = self.dims[i]
            vertices.append(entry)
        return {
            "algebra": self.algebra.name,
            "partial": self.partial,
            "start": [{"id": i, "mult": m} for i, m in self.start],
            "vertices": vertices,
            "arrows": [{"from": a, "to": b} for a, b in self.arrows],
        }

    def to_dot(self) -> str:
        if not self.labels:
            return "digraph G {}\n"
        lines = ["digraph G {"]
        for i, lb in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lb.label()}"];')
        for a, b in self.arrows:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_syzygy_quiver(M: ModuleExpr, A: MonomialAlgebra) -> SyzygyQuiver:
    """Close a module under the syzygy rule, deduplicating by CyclicKey.

    Breadth-first from M's summands in canonical order; projective keys stay
    in the quiver as sinks (their syzygy is zero), so weighted path counts
    from the start vertices reproduce dim of every iterated syzygy. The zero
    module yields the empty quiver."""
    order: list[CyclicKey] = []
    index: dict[CyclicKey, int] = {}

    def vid(key: CyclicKey) -> int:
        i = index.setdefault(key, len(order))
        if i == len(order):
            order.append(key)
        return i

    start = tuple((vid(k), m) for k, m in M.terms)
    arrows: list[tuple[int, int]] = []
    qi = 0
    while qi < len(order):
        key = order[qi]
        for k2, m in syzygy_key(key, A).terms:
            j = vid(k2)
            arrows.extend([(qi, j)] * m)
        qi += 1
    labels = tuple(singleton(k) for k in order)
    return SyzygyQuiver(A, labels, tuple(arrows), start, partial=False)


def count_paths(Q: SyzygyQuiver, v: int, N: int) -> list[int]:
    """Number of directed length-n paths from vertex v, n = 0..N, exact."""
    n = Q.n_vertices
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} not in quiver")
    if N < 0:
        raise ValueError("N must be >= 0")
    vec = [0] * n
    vec[v] = 1
    return _weighted_walks(Q, vec, [1] * n, N)


def quiver_dim_sequence(Q: SyzygyQuiver, N: int) -> list[int]:
    """dim of the n-th syzygy of the start module, n = 0..N, via weighted
    path counts: sum over endpoints of (paths from start) * (label dim)."""
    vec = [0] * Q.n_vertices
    for i, m in Q.start:
        vec[i] += m
    return _weighted_walks(Q, vec, Q.dims, N)


def _weighted_walks(Q: SyzygyQuiver, vec, weights, N: int) -> list[int]:
    """sum_j vec_n[j] * weights[j] for n = 0..N, where vec_n = vec * adj^n
    counts the length-n walks from the vertices weighted by vec."""
    n = Q.n_vertices
    adj = Q.adjacency()
    out = [sum(vec[i] * weights[i] for i in range(n))]
    for _ in range(N):
        vec = [sum(vec[i] * adj[i][j] for i in range(n)) for j in range(n)]
        out.append(sum(vec[i] * weights[i] for i in range(n)))
    return out


# -- sink-free reduction -----------------------------------------------------

def sinkfree_reduce(Q: SyzygyQuiver, v: int) -> tuple[SyzygyQuiver, int]:
    """Delete sinks until none remain, keeping the complexity class at v.

    Each round deletes every sink, relabels each survivor by its syzygy, and
    prepends a fresh chain vertex carrying the label the tracked vertex had
    before the round; the chain re-creates the deleted syzygy steps, so the
    growth class at the returned carrier equals that of v in Q. Requires some
    cycle to be reachable from v; otherwise the module has finite projective
    dimension and the iteration would erase the quiver."""
    n = Q.n_vertices
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} not in quiver")
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in Q.arrows:
        succ[a].append(b)
    on_cycle = {x for comp in tarjan(succ) if len(comp) > 1 for x in comp}
    if not any(x in on_cycle or x in succ[x] for x in reachable(succ, (v,))):
        raise FiniteProjectiveDimensionError(
            "no cycle is reachable: the module has finite projective dimension"
        )
    labels: list[ModuleExpr] = list(Q.labels)
    arrows: list[tuple[int, int]] = list(Q.arrows)
    alive = set(range(n))
    carrier = v
    while True:
        with_out = {a for a, _ in arrows}
        sinks = {x for x in alive if x not in with_out}
        if not sinks:
            break
        survivors = alive - sinks
        fresh = len(labels)
        labels.append(labels[carrier])
        for w in survivors:
            labels[w] = syzygy_step(labels[w], Q.algebra)
        arrows = [(a, b) for a, b in arrows
                  if a in survivors and b in survivors]
        arrows.append((fresh, carrier))
        alive = survivors | {fresh}
        carrier = fresh

    keep = sorted(alive)
    remap = {old: i for i, old in enumerate(keep)}
    new_labels = tuple(labels[old] for old in keep)
    new_arrows = tuple((remap[a], remap[b]) for a, b in arrows)
    reduced = SyzygyQuiver(
        Q.algebra, new_labels, new_arrows,
        start=((remap[carrier], 1),), partial=False,
    )
    return reduced, remap[carrier]


# -- partial syzygy quivers --------------------------------------------------

def _is_sub_multiset(sub: ModuleExpr, sup: ModuleExpr) -> bool:
    sup_counts = dict(sup.terms)
    return all(sup_counts.get(k, 0) >= m for k, m in sub.terms)


def validate_partial(Q: SyzygyQuiver) -> bool:
    """True iff each vertex's out-neighbor multiset is a sub-multiset of the
    decomposition of the syzygy of its label. True licenses lower bounds."""
    for i in range(Q.n_vertices):
        if not _is_sub_multiset(Q.out_expr(i),
                                syzygy_step(Q.labels[i], Q.algebra)):
            return False
    return True


def syzygy_quiver_from_json(data: dict, A: MonomialAlgebra) -> SyzygyQuiver:
    """Rebuild a (typically partial) syzygy quiver from the JSON schema used
    by the exporter. Arrows may repeat or carry a "mult" field. Dimensions
    are recomputed, never trusted."""
    if not isinstance(data, dict):
        raise InvalidPartialError("partial quiver document must be an object")
    try:
        raw_vertices = list(data["vertices"])
        raw_arrows = list(data.get("arrows", []))
    except (KeyError, TypeError):
        raise InvalidPartialError(
            "partial quiver needs 'vertices' and 'arrows' lists"
        ) from None

    labels_by_id: dict[int, ModuleExpr] = {}
    for entry in raw_vertices:
        try:
            vid = int(entry["id"])
            vertex = entry["vertex"]
            killer_lits = list(entry.get("killers", []))
        except (KeyError, TypeError, ValueError):
            raise InvalidPartialError(f"bad vertex entry: {entry!r}") from None
        if vid in labels_by_id:
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
        labels_by_id[vid] = singleton(key)

    ids = sorted(labels_by_id)
    if ids != list(range(len(ids))):
        raise InvalidPartialError("vertex ids must be 0..n-1")

    arrows: list[tuple[int, int]] = []
    for entry in raw_arrows:
        try:
            a, b = int(entry["from"]), int(entry["to"])
            mult = int(entry.get("mult", 1))
        except (KeyError, TypeError, ValueError):
            raise InvalidPartialError(f"bad arrow entry: {entry!r}") from None
        if a not in labels_by_id or b not in labels_by_id or mult < 1:
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
        except (TypeError, ValueError):
            raise InvalidPartialError(f"bad start entry: {entry!r}") from None
        if i not in labels_by_id or m < 1:
            raise InvalidPartialError(f"bad start entry: {entry!r}")
        start.append((i, m))

    return SyzygyQuiver(
        A, tuple(labels_by_id[i] for i in ids), tuple(arrows),
        tuple(start), partial=bool(data.get("partial", True)),
    )
