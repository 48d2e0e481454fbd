"""References for every answer, computed without the code being timed.

Nothing here imports syzcx. The syzygy closure below is a second, plain
implementation of the cyclic-module rule for monomial algebras; spectral
radii are numpy floats; roots of integer polynomials are polished in
50-digit decimal arithmetic. Classes are compared by value (kind, base to
about twelve digits, degree or pd), never by interval bytes.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

# L(2n+1), n = 0..7: dimensions of the iterated syzygies of k over the
# xyz-local algebra k[X,Y,Z]/(X^2, Y^2, Z^2, XZ, YZ).
LUCAS_ODD = (1, 4, 11, 29, 76, 199, 521, 1364)

BASE_TOL = 1e-9       # relative, program base vs float spectral radius
EXACT_TOL = 2e-12     # absolute, program 12-digit base vs a 50-digit root


# -- exact-enough roots -------------------------------------------------------------

def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def largest_real_root(coeffs) -> Decimal | None:
    """Largest real root of an integer polynomial (constant term first), as
    a float seed from numpy polished by Newton steps at 50 digits."""
    import numpy as np

    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    real = [r.real for r in roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r))]
    if not real:
        return None
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(repr(float(max(real))))
        for _ in range(12):
            d = _horner(deriv, x)
            if d == 0:
                break
            x -= _horner(coeffs, x) / d
        return +x


def companion_coeffs(counts) -> list[int]:
    """det(xI - A) of the companion quiver: x^{s+1} - a_0 x^s - ... - a_s."""
    return [-c for c in reversed(counts)] + [1]


def combined(op: str, b: Decimal, c: Decimal) -> Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return b + c if op == "sum" else b * c


def vanishes_at(coeffs, x: Decimal) -> bool:
    """|f(x)| is negligible next to the size of f's terms at x."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scale = sum(abs(Decimal(c)) * abs(x) ** i for i, c in enumerate(coeffs))
        return abs(_horner(coeffs, x)) <= scale * Decimal("1e-40")


# -- an independent syzygy closure ----------------------------------------------------

class MonomialRef:
    """A monomial algebra given by arrows and relations (tuples of names)."""

    def __init__(self, alg: dict):
        self.out: dict[str, list[tuple[str, str]]] = {v: [] for v in alg["vertices"]}
        for name, s, t in alg["arrows"]:
            self.out[s].append((name, t))
        self.target = {name: t for name, _, t in alg["arrows"]}
        self.relations = {tuple(r) for r in alg["relations"]}
        self.max_rel = max((len(r) for r in self.relations), default=0)

    def zero(self, word: tuple) -> bool:
        n = len(word)
        for i in range(n):
            for j in range(i + 2, min(n, i + self.max_rel) + 1):
                if word[i:j] in self.relations:
                    return True
        return False

    def paths_from(self, vertex: str):
        """Nonzero paths from vertex as (arrow-name tuple, end vertex)."""
        out, stack = [], [((), vertex)]
        while stack:
            word, end = stack.pop()
            out.append((word, end))
            for name, t in self.out[end]:
                w = word + (name,)
                if not self.zero(w):
                    stack.append((w, t))
        return out

    def killers(self, word: tuple, end: str) -> frozenset:
        """Prefix-minimal nonzero paths u from `end` with word.u zero."""
        found, stack = [], [()]
        while stack:
            u = stack.pop()
            at = self.target[u[-1]] if u else end
            for name, _t in self.out[at]:
                w = u + (name,)
                if self.zero(w):
                    continue
                if self.zero(word + w):
                    found.append(w)
                else:
                    stack.append(w)
        return frozenset(found)

    def dimension(self, key) -> int:
        vertex, kills = key
        return sum(
            1 for w, _ in self.paths_from(vertex)
            if not any(w[:len(k)] == k for k in kills)
        )

    def closure(self, starts):
        """Syzygy quiver of the cyclic modules `starts`: keys, arrow list."""
        index = {k: i for i, k in enumerate(dict.fromkeys(starts))}
        keys = list(index)
        arrows = []
        i = 0
        while i < len(keys):
            _vertex, kills = keys[i]
            for w in sorted(kills):
                k2 = (self.target[w[-1]], self.killers(w, self.target[w[-1]]))
                if k2 not in index:
                    index[k2] = len(keys)
                    keys.append(k2)
                arrows.append((i, index[k2]))
            i += 1
        return keys, arrows

    def simple(self, vertex: str):
        return (vertex, frozenset((name,) for name, _ in self.out[vertex]))


def _sccs(n: int, arrows) -> list[list[int]]:
    """Strongly connected components (Kosaraju, iterative)."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in arrows:
        succ[a].append(b)
        pred[b].append(a)
    order, seen = [], [False] * n
    for r in range(n):
        if seen[r]:
            continue
        seen[r] = True
        stack = [(r, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(succ[v]):
                stack[-1] = (v, i + 1)
                w = succ[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()
    comp = [-1] * n
    comps = []
    for r in reversed(order):
        if comp[r] != -1:
            continue
        members, stack = [], [r]
        comp[r] = len(comps)
        while stack:
            v = stack.pop()
            members.append(v)
            for w in pred[v]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    stack.append(w)
        comps.append(members)
    return comps


def float_class(n: int, arrows, starts) -> dict:
    """Growth class of path counts from `starts` with numpy float spectral
    radii: base = largest radius reachable, degree = longest chain of
    components of that radius minus one, pd = longest path when acyclic."""
    import numpy as np

    comps = _sccs(n, arrows)
    comp = [0] * n
    for ci, members in enumerate(comps):
        for v in members:
            comp[v] = ci
    rho = []
    for members in comps:
        pos = {v: i for i, v in enumerate(members)}
        m = np.zeros((len(members), len(members)))
        for a, b in arrows:
            if a in pos and b in pos:
                m[pos[a], pos[b]] += 1
        rho.append(float(max(abs(np.linalg.eigvals(m)))) if m.any() else 0.0)
    dag = [set() for _ in comps]
    for a, b in arrows:
        if comp[a] != comp[b]:
            dag[comp[a]].add(comp[b])
    # Kosaraju lists components in topological order: successors come later.
    best = None
    for s in starts:
        reach, stack = {comp[s]}, [comp[s]]
        while stack:
            for d in dag[stack.pop()]:
                if d not in reach:
                    reach.add(d)
                    stack.append(d)
        b = max(rho[c] for c in reach)
        if b == 0.0:
            longest = {}
            for c in sorted(reach, reverse=True):
                longest[c] = max((1 + longest[d] for d in dag[c]), default=0)
            cls = ("zero", 0.0, longest[comp[s]])
        else:
            chain = {}
            for c in sorted(reach, reverse=True):
                here = 1 if abs(rho[c] - b) <= BASE_TOL * b else 0
                chain[c] = here + max((chain[d] for d in dag[c]), default=0)
            cls = ("polyexp", b, chain[comp[s]] - 1)
        best = cls if best is None else _join(best, cls)
    return {"kind": best[0], "base": best[1],
            "degree" if best[0] == "polyexp" else "pd": best[2]}


def _join(c1, c2):
    if c1[0] == "zero" and c2[0] == "zero":
        return c1 if c1[2] >= c2[2] else c2
    if c1[0] == "zero" or c2[0] == "zero":
        return c2 if c1[0] == "zero" else c1
    if abs(c1[1] - c2[1]) <= BASE_TOL * max(c1[1], c2[1]):
        return c1 if c1[2] >= c2[2] else c2
    return c1 if c1[1] > c2[1] else c2


def simples_class(alg: dict, vertices) -> dict:
    ref = MonomialRef(alg)
    starts = [ref.simple(v) for v in vertices]
    keys, arrows = ref.closure(starts)
    index = {k: i for i, k in enumerate(keys)}
    return float_class(len(keys), arrows, sorted({index[k] for k in starts}))


def largest_scc(alg: dict) -> int:
    """Size of the largest SCC of the syzygy quiver of the sum of simples."""
    ref = MonomialRef(alg)
    keys, arrows = ref.closure([ref.simple(v) for v in alg["vertices"]])
    return max(len(c) for c in _sccs(len(keys), arrows))


def simple_dims(alg: dict, vertex: str, N: int) -> list[int]:
    """dim of the n-th syzygy of the simple at vertex, n = 0..N."""
    ref = MonomialRef(alg)
    keys, arrows = ref.closure([ref.simple(vertex)])
    dims = [ref.dimension(k) for k in keys]
    vec = [0] * len(keys)
    vec[0] = 1
    out = []
    for _ in range(N + 1):
        out.append(sum(c * d for c, d in zip(vec, dims)))
        nxt = [0] * len(keys)
        for a, b in arrows:
            nxt[b] += vec[a]
        vec = nxt
    return out


# -- comparing classes ------------------------------------------------------------------

def class_matches(answer: dict, expected: dict, tol: float) -> bool:
    """answer: {"kind", "approx" | "pd", "degree"} from the program;
    expected: {"kind", "base" | "pd", "degree"} with a numeric base."""
    if answer.get("kind") != expected["kind"]:
        return False
    if expected["kind"] == "zero":
        return answer.get("pd") == expected["pd"]
    base = float(expected["base"])
    return (answer.get("degree") == expected["degree"]
            and abs(float(answer["approx"]) - base) <= tol * max(1.0, base))
