"""Spans around the public functions of each syzcx module.

`install` replaces a function at every place it is looked up: its defining
module, every syzcx module that imported it by name, and the package
namespace. Methods are replaced on their class. Each call records a span
(name, start, end, parent span, query id) and, for some functions, sizes read
off the arguments and result. Spans stay in memory until the pass ends.

`layer_metrics` turns the spans into the per-layer metrics: `_s` is self
time (span time minus the child spans it covers), `_calls` a call count,
`_max` the largest size seen.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _poly_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.coeffs), default=0)


def _same_value(args) -> bool:
    a, b = args[0], args[1]
    return a is b or (a.poly == b.poly and a.lo == b.lo and a.hi == b.hi)


# (module, attribute, span name, sizes(args, result) -> dict or None)
SPANS = (
    ("algebra", "parse_algebra", "algebra.parse", None),
    ("algebra", "validate_algebra", "algebra.validate",
     lambda a, r: {"basis_paths": r.dimension}),
    ("syzygy", "build_syzygy_quiver", "syzygy.build_quiver",
     lambda a, r: {"vertices": r.n_vertices, "arrows": len(r.arrows)}),
    ("syzygy", "quiver_dim_sequence", "syzygy.dim_sequence", None),
    ("spectra", "scc_condense", "spectra.condense",
     lambda a, r: {"sccs": len(r.components),
                   "scc_size": max((len(c.vertices) for c in r.components),
                                   default=0)}),
    ("spectra", "perron_root", "spectra.perron_root", None),
    ("spectra", "char_poly", "spectra.char_poly",
     lambda a, r: {"degree": r.degree, "bits": _poly_bits(r)}),
    ("spectra", "equal_radius", "spectra.equal_radius",
     lambda a, r: {"true": int(r), "same": int(_same_value(a))}),
    ("spectra", "compare_algebraic", "spectra.compare", None),
    ("polynomials", "isolate_largest_real_root", "polynomials.isolate", None),
    ("polynomials", "refine_interval", "polynomials.refine", None),
    ("polynomials", "count_real_roots_open", "polynomials.sturm_count", None),
    ("polynomials", "poly_gcd_q", "polynomials.gcd", None),
    ("polynomials", "resultant_y", "polynomials.resultant", None),
    ("complexity", "module_complexity", "complexity.module_complexity",
     lambda a, r: {"algebra": a[0]}),
    ("complexity", "vertex_complexity", "complexity.vertex_complexity", None),
    ("complexity", "join", "complexity.join", None),
    ("curvature", "check_condition_c", "curvature.check",
     lambda a, r: {"indeterminate": int(r.status == "indeterminate")}),
    ("curvature", "closure_combine", "curvature.combine", None),
    ("curvature", "realize_companion", "curvature.realize_companion", None),
    ("oracle", "rep_of", "oracle.rep_build", None),
    ("oracle", "table_rep", "oracle.rep_build", None),
    ("oracle", "syzygy_rep", "oracle.syzygy_step",
     lambda a, r: {"dim_in": a[0].total_dim, "dim_out": r.total_dim}),
    ("oracle", "TableRepresentation.syzygy", "oracle.syzygy_step",
     lambda a, r: {"dim_in": a[0].total_dim, "dim_out": r.total_dim}),
    ("oracle", "crosscheck", "oracle.crosscheck", None),
)

# Span names each workload is predicted to reach; a pass that leaves one
# without a span means a binding was missed, and the run fails.
# `join` needs a module with several start vertices: only classify has one.
_SYMBOLIC = ("algebra.parse", "algebra.validate", "syzygy.build_quiver",
             "spectra.condense", "spectra.perron_root", "spectra.char_poly",
             "spectra.equal_radius", "spectra.compare", "polynomials.isolate",
             "polynomials.refine", "polynomials.sturm_count",
             "polynomials.gcd", "complexity.module_complexity",
             "complexity.vertex_complexity")
PREDICTED = {
    "classify": _SYMBOLIC + ("complexity.join",),
    "realize": _SYMBOLIC + ("polynomials.resultant", "curvature.check",
                            "curvature.combine",
                            "curvature.realize_companion"),
    "oracle": ("algebra.parse", "algebra.validate", "syzygy.build_quiver",
               "syzygy.dim_sequence", "oracle.rep_build",
               "oracle.syzygy_step", "oracle.crosscheck"),
    "cli": ("cli.process", "cli.import", "cli.numpy_import"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, query, sizes]
        self.stack: list[int] = []
        self.query = None

    def wrap(self, name, fn, sizes):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if sizes is not None:
                rec[5] = sizes(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> int:
        """Wrap every binding of the SPANS functions; returns the count."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == package.__name__
                                      or n.startswith(package.__name__ + "."))]
        bound = 0
        for modname, attr, name, sizes in SPANS:
            home = sys.modules[f"{package.__name__}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], sizes))
                bound += 1
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(name, orig, sizes)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        bound += 1
        return bound


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics plus an accounting of the traced pass: the sum of
    all self times, the remainder outside every span, and span counts."""
    own = self_times(spans)
    t = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(int)
    count = defaultdict(int)
    algebras = set()
    condense_in_mc = 0
    for i, s in enumerate(spans):
        name = s[0]
        t[name] += own[i]
        calls[name] += 1
        sz = s[5]
        if not sz:
            pass
        elif name == "complexity.module_complexity":
            algebras.add(id(sz["algebra"]))
        elif name in ("spectra.equal_radius", "curvature.check"):
            for k, v in sz.items():
                count[f"{name}.{k}"] += v
        elif name == "oracle.syzygy_step":
            d_in, d_out = sz["dim_in"], sz["dim_out"]
            size["oracle.dim"] = max(size["oracle.dim"], d_in, d_out)
            size["oracle.cover_bytes"] = max(size["oracle.cover_bytes"],
                                             8 * d_in * (d_in + d_out))
        else:
            for k, v in sz.items():
                size[f"{name}.{k}"] = max(size[f"{name}.{k}"], v)
        if name == "spectra.condense":
            p = s[3]
            while p >= 0 and spans[p][0] != "complexity.module_complexity":
                p = spans[p][3]
            condense_in_mc += p >= 0
    metrics = {
        "algebra.validate_s": t["algebra.parse"] + t["algebra.validate"],
        "algebra.validate_calls": calls["algebra.validate"],
        "algebra.basis_paths_max": size["algebra.validate.basis_paths"],
        "syzygy.build_quiver_s": t["syzygy.build_quiver"],
        "syzygy.build_quiver_calls": calls["syzygy.build_quiver"],
        "syzygy.quiver_vertices_max": size["syzygy.build_quiver.vertices"],
        "syzygy.quiver_arrows_max": size["syzygy.build_quiver.arrows"],
        "syzygy.dim_sequence_s": t["syzygy.dim_sequence"],
        "spectra.condense_s": t["spectra.condense"],
        "spectra.condense_calls": calls["spectra.condense"],
        "spectra.scc_count_max": size["spectra.condense.sccs"],
        "spectra.scc_size_max": size["spectra.condense.scc_size"],
        "spectra.perron_root_s": t["spectra.perron_root"],
        "spectra.char_poly_s": t["spectra.char_poly"],
        "spectra.char_poly_calls": calls["spectra.char_poly"],
        "spectra.char_poly_degree_max": size["spectra.char_poly.degree"],
        "spectra.char_poly_coeff_bits_max": size["spectra.char_poly.bits"],
        "spectra.equal_radius_s": t["spectra.equal_radius"],
        "spectra.equal_radius_calls": calls["spectra.equal_radius"],
        "spectra.equal_radius_true": count["spectra.equal_radius.true"],
        "spectra.equal_radius_same_value": count["spectra.equal_radius.same"],
        "spectra.compare_s": t["spectra.compare"],
        "spectra.compare_calls": calls["spectra.compare"],
        "polynomials.isolate_s": t["polynomials.isolate"],
        "polynomials.isolate_calls": calls["polynomials.isolate"],
        "polynomials.refine_s": t["polynomials.refine"],
        "polynomials.refine_calls": calls["polynomials.refine"],
        "polynomials.sturm_count_s": t["polynomials.sturm_count"],
        "polynomials.sturm_count_calls": calls["polynomials.sturm_count"],
        "polynomials.gcd_s": t["polynomials.gcd"],
        "polynomials.gcd_calls": calls["polynomials.gcd"],
        "polynomials.resultant_s": t["polynomials.resultant"],
        "complexity.module_complexity_s": t["complexity.module_complexity"],
        "complexity.vertex_complexity_s": t["complexity.vertex_complexity"],
        "complexity.vertex_complexity_calls": calls["complexity.vertex_complexity"],
        "complexity.join_s": t["complexity.join"],
        "complexity.condense_per_algebra":
            condense_in_mc / len(algebras) if algebras else 0.0,
        "curvature.check_s": t["curvature.check"],
        "curvature.check_calls": calls["curvature.check"],
        "curvature.indeterminate": count["curvature.check.indeterminate"],
        "curvature.combine_s": t["curvature.combine"],
        "curvature.realize_companion_s": t["curvature.realize_companion"],
        "oracle.rep_build_s": t["oracle.rep_build"],
        "oracle.syzygy_step_s": t["oracle.syzygy_step"],
        "oracle.syzygy_steps": calls["oracle.syzygy_step"],
        "oracle.dim_max": size["oracle.dim"],
        "oracle.cover_bytes_max": size["oracle.cover_bytes"],
        "oracle.crosscheck_s": t["oracle.crosscheck"],
    }
    in_spans = sum(s[2] - s[1] for s in spans if s[3] < 0)
    accounting = {
        "self_sum_s": sum(own),
        "remainder_s": wall - in_spans,
        "wall_s": wall,
        "span_calls": dict(calls),
    }
    return metrics, accounting
