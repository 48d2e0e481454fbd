"""Poly-exponential growth classes [b^n * n^l] and the algorithms that
compute them for syzygy dimension sequences.

A class is either Zero (dimensions eventually vanish; the payload records the
projective dimension, None meaning the zero module) or PolyExp(base b >= 1,
degree l >= 0). The base is always carried as a certified algebraic number so
ties between spectral radii are decided exactly, never by tolerance.

The central algorithm: condense the syzygy quiver into strongly connected
components, take b = the maximum spectral radius among components reachable
from the start, and l = (longest chain of radius-b components along a
reachability path) - 1.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .algebra import Arrow, MonomialAlgebra, Quiver
from .errors import (
    InvalidPartialError,
    NoArrowsError,
    NotStronglyConnectedError,
    WindowTooSmallError,
)
from .graph import tarjan
from .polynomials import AlgebraicReal, rational_algebraic
from .spectra import Condensation, compare_algebraic, equal_radius, scc_condense
from .syzygy import (
    ModuleExpr,
    SyzygyQuiver,
    build_syzygy_quiver,
    resolve_module,
    validate_partial,
)

_ONE = rational_algebraic(1)


class ComplexityClass(NamedTuple):
    """Growth class of a syzygy dimension sequence.

    kind "zero": the class [0]; `pd` is the projective dimension (None for
    the zero module). kind "polyexp": the class [base^n * n^degree].
    """

    kind: str
    base: AlgebraicReal | None = None
    degree: int | None = None
    pd: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def label(self) -> str:
        if self.is_zero:
            return "0"
        s = f"{self.base.approx_str()}^n"
        if self.degree:
            s += f"*n^{self.degree}"
        return s

    def to_json(self) -> dict:
        if self.is_zero:
            return {"kind": "zero", "pd": self.pd}
        return {
            "kind": "polyexp",
            "base": self.base.to_json(),
            "degree": self.degree,
        }

    def __repr__(self):
        if self.is_zero:
            return f"ComplexityClass(zero, pd={self.pd})"
        return f"ComplexityClass({self.label()})"


def zero_class(pd: int | None = 0) -> ComplexityClass:
    if pd is not None and pd < 0:
        raise ValueError("projective dimension must be >= 0")
    return ComplexityClass("zero", pd=pd)


def polyexp_class(base: AlgebraicReal, degree: int) -> ComplexityClass:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if compare_algebraic(base, _ONE) < 0:
        raise ValueError("poly-exponential base must be >= 1")
    return ComplexityClass("polyexp", base=base, degree=degree)


def compare(c1: ComplexityClass, c2: ComplexityClass) -> int:
    """-1, 0, or 1. Zero is below every PolyExp; PolyExp values compare
    lexicographically by (base, degree), the base exactly."""
    if c1.is_zero and c2.is_zero:
        return 0
    if c1.is_zero:
        return -1
    if c2.is_zero:
        return 1
    c = compare_algebraic(c1.base, c2.base)
    if c:
        return c
    return (c1.degree > c2.degree) - (c1.degree < c2.degree)


def _pd_max(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def join(c1: ComplexityClass, c2: ComplexityClass) -> ComplexityClass:
    """Least upper bound (the class of a direct sum)."""
    if c1.is_zero and c2.is_zero:
        return zero_class(_pd_max(c1.pd, c2.pd))
    return c1 if compare(c1, c2) >= 0 else c2


def convolve(c1: ComplexityClass, c2: ComplexityClass) -> ComplexityClass:
    """Class of the Cauchy product of representative sequences: the larger
    base wins; equal bases add degrees plus one; Zero is the identity."""
    if c1.is_zero and c2.is_zero:
        return zero_class(_pd_max(c1.pd, c2.pd))
    if c1.is_zero:
        return c2
    if c2.is_zero:
        return c1
    c = compare_algebraic(c1.base, c2.base)
    if c == 0:
        return polyexp_class(c1.base, c1.degree + c2.degree + 1)
    return c1 if c > 0 else c2


# -- vertex classes -----------------------------------------------------------

def vertex_complexity(C: Condensation, v: int) -> ComplexityClass:
    """Growth class of path counts from vertex v, off the condensation.

    b = max spectral radius over components reachable from v's component, and
    the degree is one less than the longest chain of radius-b components along
    a reachability path; scc_condense records both per component (`top`,
    `chain`). If b = 0 the reachable region is acyclic and the class is Zero
    with pd = the longest path length from v.
    """
    if not 0 <= v < C.n_vertices:
        raise ValueError(f"vertex {v} not in quiver")
    ci = C.vertex_component[v]
    top = C.components[C.top[ci]]
    if top.is_trivial:
        return zero_class(C.chain[ci] - 1)
    return polyexp_class(top.rho, C.chain[ci] - 1)


class ModuleComplexityReport(NamedTuple):
    """Result of module_complexity: the class, the curvature and the rate.
    The same value whether the class memo answered or a quiver was built."""

    cls: ComplexityClass
    curvature: AlgebraicReal | int
    polynomial_rate: int | None = None
    lower_bound: bool = False

    def to_json(self) -> dict:
        curv = self.curvature
        out = {
            "class": self.cls.to_json(),
            "curvature": curv.to_json() if isinstance(curv, AlgebraicReal) else curv,
            "lower_bound": self.lower_bound,
        }
        if self.polynomial_rate is not None:
            out["polynomial_rate"] = self.polynomial_rate
        return out


def _report_for(cls: ComplexityClass, lower=False):
    if cls.is_zero:
        return ModuleComplexityReport(cls, 0, None, lower)
    rate = cls.degree + 1 if equal_radius(cls.base, _ONE) else None
    return ModuleComplexityReport(cls, cls.base, rate, lower)


def module_complexity(A: MonomialAlgebra, M: ModuleExpr) -> ModuleComplexityReport:
    """Growth class of the syzygy dimensions of M: the join of the vertex
    classes of M's summands, in M's order. The report's curvature is the
    base (0 for the Zero class); for curvature exactly 1 the polynomial
    growth rate degree+1 is reported as well.

    A key's class depends only on the components reachable from it (see
    `Condensation`), so `A.class_memo` keeps, per CyclicKey, a condensation
    and vertex that class it. When every summand is there, no quiver is
    built. Otherwise the syzygy quiver of M is built and condensed, and each
    of its vertices is recorded."""
    memo = A.class_memo
    found = [memo.get(key) for key, _ in M.terms]
    if found and all(found):
        return _report_for(reduce(join, (vertex_complexity(C, v)
                                         for C, v in found)))
    quiver = build_syzygy_quiver(M, A)
    if not quiver.start:
        return _report_for(zero_class(None))
    cond = scc_condense(*quiver.digraph(), quiver.labels)
    for i, key in enumerate(quiver.labels):
        memo.setdefault(key, (cond, i))
    return _report_for(reduce(join, (vertex_complexity(cond, i)
                                     for i, _ in quiver.start)))


def module_complexity_by_name(A: MonomialAlgebra, name: str) -> ModuleComplexityReport:
    return module_complexity(A, resolve_module(A, name))


def lower_bound_from_partial(Q: SyzygyQuiver, v: int) -> ComplexityClass:
    """Certified lower bound for the class of the module at vertex v of a
    partial syzygy quiver: path counts in any partial quiver bound the true
    syzygy dimensions from below, so the quiver's own growth class at v is a
    lower bound for the module's class."""
    if not validate_partial(Q):
        raise InvalidPartialError(
            "not a partial syzygy quiver: some vertex's out-neighbors are "
            "not a sub-multiset of its label's syzygy decomposition"
        )
    cond = scc_condense(*Q.digraph(), Q.labels)
    return vertex_complexity(cond, v)


def lower_bound_report(Q: SyzygyQuiver, v: int) -> ModuleComplexityReport:
    """lower_bound_from_partial packaged with curvature and the lower-bound
    flag set, for serialization."""
    return _report_for(lower_bound_from_partial(Q, v), lower=True)


# -- realization --------------------------------------------------------------

def realize_class(H: Quiver, ell: int) -> tuple[str, list[str]]:
    """Algebra whose simples realize the classes [rho(H)^n * n^s], s <= ell.

    The quiver is the box product of H with a descending chain of length ell
    (a copy of H at each level s, plus one arrow (v,s) -> (v,s-1) per vertex
    and level), and every length-2 path is a relation. The simple at (v,s)
    then has growth class [rho(H)^n * n^s]. Returns the algebra file text and
    the generated module names S_<v>_<s>.
    """
    if ell < 0:
        raise ValueError("level count must be >= 0")
    if not H.arrows:
        raise NoArrowsError("the base quiver has no arrows")
    vidx = H.vertex_index
    count = len(tarjan([[vidx[a.target] for a in H.arrows_from(v)]
                        for v in H.vertices]))
    if count != 1:
        raise NotStronglyConnectedError(
            f"the base quiver has {count} strongly connected "
            "components; exactly one is required"
        )

    lines = [f"algebra box_l{ell}"]
    for s in range(ell + 1):
        for v in H.vertices:
            lines.append(f"vertex {v}_{s}")
    arrows: list[Arrow] = []
    for s in range(ell + 1):
        for a in H.arrows:
            arrows.append(Arrow(f"{a.name}_{s}", f"{a.source}_{s}", f"{a.target}_{s}"))
        if s >= 1:
            for v in H.vertices:
                arrows.append(Arrow(f"d_{v}_{s}", f"{v}_{s}", f"{v}_{s-1}"))
    out: dict[str, list[str]] = {}
    for a in arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
        out.setdefault(a.source, []).append(a.name)
    for x in arrows:
        for y in out.get(x.target, ()):
            lines.append(f"relation {x.name}.{y}")
    names = []
    for s in range(ell + 1):
        for v in H.vertices:
            names.append(f"S_{v}_{s}")
            lines.append(f"module S_{v}_{s} = S({v}_{s})")
    return "\n".join(lines) + "\n", names


def subdivide(Q: Quiver, ell: int) -> Quiver:
    """Replace each arrow by a directed path of length ell through fresh
    vertices. Subdividing a strongly connected quiver takes the spectral
    radius to its ell-th root."""
    if ell < 1:
        raise ValueError("subdivision length must be >= 1")
    if ell == 1:
        return Q
    vertices = list(Q.vertices)
    arrows: list[Arrow] = []
    for a in Q.arrows:
        mids = [f"{a.name}__m{i}" for i in range(1, ell)]
        vertices.extend(mids)
        stops = [a.source] + mids + [a.target]
        for i in range(ell):
            arrows.append(Arrow(f"{a.name}__s{i+1}", stops[i], stops[i + 1]))
    return Quiver(tuple(vertices), tuple(arrows))


# -- numeric witness ----------------------------------------------------------

def empirical_class_check(f, c: ComplexityClass, window) -> tuple[bool, float, float]:
    """Heuristic witness that a sequence lies in a class: over the window,
    min and max of f(n) / (b^n * n^l) must be positive with max/min < 10^4.
    For the Zero class the window values must all be 0. Returns
    (ok, min_ratio, max_ratio). Advisory only; never feeds the exact pipeline.
    """
    n0, n1 = window
    if n1 - n0 < 8:
        raise WindowTooSmallError(
            f"window [{n0}, {n1}] has fewer than 8 steps"
        )
    if n0 < 0 or n1 >= len(f):
        raise ValueError("window extends beyond the sequence")
    if c.is_zero:
        ok = all(f[n] == 0 for n in range(n0, n1 + 1))
        return ok, 0.0, 0.0
    b = c.base.as_float()
    lo = float("inf")
    hi = 0.0
    for n in range(n0, n1 + 1):
        g = (b ** n) * (max(n, 1) ** c.degree)
        r = f[n] / g
        lo = min(lo, r)
        hi = max(hi, r)
    ok = 0.0 < lo <= hi < float("inf") and hi / lo < 1e4
    return ok, lo, hi
