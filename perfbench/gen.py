"""Seeded inputs for the benchmark workloads (standard library only).

Every input is a plain JSON-able value: algebra files as text, coefficient
lists, CLI argument lists. The workload seed decides the inputs; the same
seed always gives the same inputs, and `input_hash` fingerprints them so two
runs can show they timed the same thing.

Where a workload's cost would swing with its random draw, the algebras and
companion counts come from a fixed draw (family seed 3, as in the ROADMAP's
random monomial family) and the workload seed applies a random isomorphism:
fresh vertex and arrow names and a shuffled declaration order. The answers
are unchanged by construction, the cost is nearly so, and the program still
sees new text every seed. The seed also draws the closure_combine operands
and the order in which a pass runs its queries.
"""

from __future__ import annotations

import hashlib
import json
import random

import reference

FAMILY_SEED = 3

# classify: family draws with nv = 20, 21, ..., 28, 20, ...; the first
# CLASSIFY_COUNT whose largest syzygy-quiver SCC has CLASSIFY_SCC vertices.
CLASSIFY_NV = range(20, 29)
CLASSIFY_COUNT, CLASSIFY_SCC = 31, range(16, 27)
# realize: companion sizes s (s + 1 back-arrow counts each), and the box.
COMPANION_S = (32, 48, 64)
BOX_S, BOX_ELL = 12, 4
COMBINE_PAIRS = 8
# oracle: xyz-local module k up to n; family crosscheck draws, size, depth,
# and the syzygy dimension a crosscheck may reach before it stops early.
XYZ_N, XYZ_PRIMES = 7, 2
CROSSCHECK_DRAWS, CROSSCHECK_NV, CROSSCHECK_N = 3, 12, 10
CROSSCHECK_DIM_BUDGET = 2500

# cli: each golden case runs this often per pass, so that a pass has enough
# queries for its tail (ten queries beyond it) to sit above its median.
CLI_REPEAT = 2

# Monic polynomials (constant term first) with the true verdict of
# `curvature check`, decided by hand from the roots: realizable iff the
# largest real root b is >= 0 and no root of the irreducible factor holding
# b exceeds b in modulus. Degree >= 5 entries are the known "indeterminate"
# cases and always stay in the draw.
CURVATURE_CASES = (
    ("x^2-x-1", (-1, -1, 1), "realizable"),
    ("x^2-2", (-2, 0, 1), "realizable"),
    ("x^2+1", (1, 0, 1), "not_realizable"),
    ("x^2+x-1", (-1, 1, 1), "not_realizable"),
    ("x^2-3x+1", (1, -3, 1), "realizable"),
    ("x^3", (0, 0, 0, 1), "realizable"),
    ("x^3-x-1", (-1, -1, 0, 1), "realizable"),
    ("x^3-3x+1", (1, -3, 0, 1), "not_realizable"),
    ("x^3-2x^2-1", (-1, 0, -2, 1), "realizable"),
    ("x^3-x^2-x-1", (-1, -1, -1, 1), "realizable"),
    ("x^4-x-1", (-1, -1, 0, 0, 1), "realizable"),
    ("x^4-2x^2-1", (-1, 0, -2, 0, 1), "realizable"),
    ("x^4+x^2-1", (-1, 0, 1, 0, 1), "not_realizable"),
    ("x^4-x^3-x^2-x-1", (-1, -1, -1, -1, 1), "realizable"),
    ("x^5-1", (-1, 0, 0, 0, 0, 1), "realizable"),
    ("x^5-x-1", (-1, -1, 0, 0, 0, 1), "realizable"),
    ("x^5-x^4-1", (-1, 0, 0, 0, -1, 1), "realizable"),
    ("x^5-2", (-2, 0, 0, 0, 0, 1), "realizable"),
    ("x^5-x^4-x^3-x^2-x-1", (-1, -1, -1, -1, -1, 1), "realizable"),
    ("x^5+x-1", (-1, 1, 0, 0, 0, 1), "not_realizable"),
    ("x^5-3x+1", (1, -3, 0, 0, 0, 1), "not_realizable"),
    ("x^6-x-1", (-1, -1, 0, 0, 0, 0, 1), "realizable"),
)
# Operands for `closure_combine` sum/product: degree <= 3 entries with a
# positive largest real root, so the reference can check the combined value.
COMBINE_OPERANDS = ("x^2-x-1", "x^2-2", "x^2-3x+1", "x^3-x-1",
                    "x^3-2x^2-1", "x^3-x^2-x-1")

# The CLI goldens in tests/golden with the argument lists that produce them.
CLI_CASES = (
    ("validate_fib.json", ["validate", "tests/data/fib.alg"]),
    ("paths_loop3.json", ["paths", "tests/data/loop3.alg"]),
    ("syzquiver_fib_s1.json",
     ["syzquiver", "tests/data/fib.alg", "--module", "S1", "--json"]),
    ("syzquiver_fib_s1.dot",
     ["syzquiver", "tests/data/fib.alg", "--module", "S1", "--dot"]),
    ("complexity_fib_s1.json",
     ["complexity", "tests/data/fib.alg", "--module", "S1"]),
    ("complexity_a2_s1.json",
     ["complexity", "tests/data/a2.alg", "--module", "S1"]),
    ("lower_bound_fib.json",
     ["lower-bound", "tests/data/fib.alg", "--partial",
      "tests/data/partial_fib.json", "--vertex", "0"]),
    ("curvature_check_golden.json", ["curvature", "check", "[-1,-1,1]"]),
    ("curvature_check_indeterminate.json",
     ["curvature", "check", "[-1,-1,0,0,0,1]"]),
    ("curvature_combine_product.json",
     ["curvature", "combine", "--op", "product", "[-1,-1,1]", "[-1,-1,1]"]),
    ("curvature_combine_root.json",
     ["curvature", "combine", "--op", "root", "[1,-3,1]", "2"]),
    ("curvature_realize_12.json", ["curvature", "realize", "1,2"]),
    ("realize_loop_l1.txt",
     ["realize-class", "--quiver", "tests/data/loopquiver.alg", "--ell", "1"]),
    ("convolve_phi.json", ["convolve", "[-1,-1,1]^n", "[-1,-1,1]^n*n^1"]),
    ("oracle_dims_fib.json",
     ["oracle", "dims", "tests/data/fib.alg", "--module", "S1", "-n", "10"]),
    ("oracle_dims_xyz.json",
     ["oracle", "dims", "--builtin", "xyz-local", "--module", "k", "-n", "5"]),
    ("oracle_crosscheck_fib.json",
     ["oracle", "crosscheck", "tests/data/fib.alg", "--module", "S1",
      "-n", "10"]),
)

WORKLOADS = ("classify", "realize", "oracle", "cli")


# -- algebras -------------------------------------------------------------------

def family_algebra(nv: int, rng: random.Random) -> dict:
    """One draw of the random monomial family: nv vertices, 2*nv arrows with
    uniform endpoints, every length-3 path a relation, and for a random half
    of the arrows a each composable a.b a relation with probability 0.4.
    Finite-dimensional by construction."""
    arrows = [(f"a{i}", rng.randrange(nv), rng.randrange(nv))
              for i in range(2 * nv)]
    out: dict[int, list] = {}
    for a in arrows:
        out.setdefault(a[1], []).append(a)
    relations = set()
    for a in arrows:
        for b in out.get(a[2], ()):
            for c in out.get(b[2], ()):
                relations.add((a[0], b[0], c[0]))
    for i in sorted(rng.sample(range(len(arrows)), len(arrows) // 2)):
        a = arrows[i]
        for b in out.get(a[2], ()):
            if rng.random() < 0.4:
                relations.add((a[0], b[0]))
    return {
        "vertices": [f"v{i}" for i in range(nv)],
        "arrows": [[n, f"v{s}", f"v{t}"] for n, s, t in arrows],
        "relations": [list(r) for r in sorted(relations)],
    }


def companion_quiver(counts) -> dict:
    """The companion quiver of back-arrow counts a_0..a_s: a chain
    v0 -> ... -> vs plus a_i arrows v_i -> v0 (no relations)."""
    s = len(counts) - 1
    arrows = [[f"c{i}", f"v{i}", f"v{i + 1}"] for i in range(s)]
    for i, a in enumerate(counts):
        arrows += [[f"b{i}_{t}", f"v{i}", "v0"] for t in range(a)]
    return {"vertices": [f"v{i}" for i in range(s + 1)], "arrows": arrows,
            "relations": []}


def relabel(alg: dict, rng: random.Random) -> dict:
    """An isomorphic copy with fresh names and shuffled declaration order.
    Returns the copy plus the vertex renaming (old -> new)."""
    names = rng.sample(range(10 ** 6), len(alg["vertices"]) + len(alg["arrows"]))
    vmap = {v: f"q{names[i]}" for i, v in enumerate(alg["vertices"])}
    off = len(alg["vertices"])
    amap = {a[0]: f"e{names[off + i]}" for i, a in enumerate(alg["arrows"])}
    vertices = [vmap[v] for v in alg["vertices"]]
    arrows = [[amap[n], vmap[s], vmap[t]] for n, s, t in alg["arrows"]]
    relations = [[amap[n] for n in r] for r in alg["relations"]]
    for part in (vertices, arrows, relations):
        rng.shuffle(part)
    return {"vertices": vertices, "arrows": arrows, "relations": relations,
            "vmap": vmap}


def algebra_text(name: str, alg: dict, modules=()) -> str:
    """The algebra file format of `syzcx.parse_algebra`."""
    lines = [f"algebra {name}"]
    lines += [f"vertex {v}" for v in alg["vertices"]]
    lines += [f"arrow {n} : {s} -> {t}" for n, s, t in alg["arrows"]]
    lines += ["relation " + ".".join(r) for r in alg["relations"]]
    lines += [f"module {m} = {body}" for m, body in modules]
    return "\n".join(lines) + "\n"


def companion_counts(s: int, rng: random.Random) -> list[int]:
    """s + 1 back-arrow counts in 0..2, the last at least 1."""
    return [rng.randint(0, 2) for _ in range(s)] + [rng.randint(1, 2)]


# -- workloads --------------------------------------------------------------------

def _interleave(lengths, rng: random.Random) -> list[int]:
    """A seeded order of the queries of several chains: the k-th entry equal
    to c means the next query of chain c."""
    order = [c for c, n in enumerate(lengths) for _ in range(n)]
    rng.shuffle(order)
    return order


def _classify(rng: random.Random) -> dict:
    """Algebras whose cost sits in one large SCC. The band keeps out draws
    that take 0.02 s (no SCC of note) and draws that take 1 to 9 s (SCC of
    31 and more); one of those would leave the pass time at the mercy of a
    single query. SCCs of 27 to 30 vertices (0.4 to 1 s each) are left out
    too, so that three passes fit a run on a slow host. The band is read off
    the independent reference closure, never the program."""
    fam = random.Random(FAMILY_SEED)
    queries = []
    draw = 0
    while len(queries) < CLASSIFY_COUNT:
        nv = CLASSIFY_NV[draw % len(CLASSIFY_NV)]
        base = family_algebra(nv, fam)
        if reference.largest_scc(base) in CLASSIFY_SCC:
            alg = relabel(base, rng)
            verts = list(alg["vertices"])
            rng.shuffle(verts)
            body = " + ".join(f"S({v})" for v in verts)
            queries.append({"id": f"fam{draw}_nv{nv}", "draw": draw,
                            "algebra": alg, "text": algebra_text(
                                f"fam{draw}", alg, [("Sum", body)])})
        draw += 1
    return {"queries": queries, "order": _interleave([1] * len(queries), rng)}


def _realize(rng: random.Random) -> dict:
    fam = random.Random(FAMILY_SEED)
    companions = [{"id": f"companion_s{s}", "counts": companion_counts(s, fam)}
                  for s in COMPANION_S]
    box_counts = companion_counts(BOX_S, fam)
    H = relabel(companion_quiver(box_counts), rng)
    box = {"counts": box_counts, "ell": BOX_ELL, "vmap": H["vmap"],
           "text": algebra_text("boxbase", H)}
    checks = [{"id": f"check_{n}", "coeffs": list(c), "truth": t}
              for n, c, t in CURVATURE_CASES]
    coeffs = {n: list(c) for n, c, _ in CURVATURE_CASES}
    combines = []
    for k in range(COMBINE_PAIRS):
        p, q = rng.choice(COMBINE_OPERANDS), rng.choice(COMBINE_OPERANDS)
        op = ("sum", "product")[k % 2]
        combines.append({"id": f"combine{k}_{op}", "op": op, "p": p, "q": q,
                         "pc": coeffs[p], "qc": coeffs[q], "ell": 1})
    ell = rng.randint(2, 4)
    p = rng.choice(COMBINE_OPERANDS)
    combines.append({"id": f"combine_root{ell}", "op": "root", "p": p,
                     "pc": coeffs[p], "qc": coeffs[p], "ell": ell})
    box_queries = 1 + len(H["vmap"]) * (BOX_ELL + 1)
    lengths = ([1] * len(companions) + [box_queries]
               + [1] * (len(checks) + len(combines)))
    return {"companions": companions, "box": box, "checks": checks,
            "combines": combines, "order": _interleave(lengths, rng)}


def _oracle(rng: random.Random) -> dict:
    """xyz-local k step by step, then every simple of a few family algebras,
    each crosschecked to depth CROSSCHECK_N or, when the syzygy dimensions
    grow faster, to the last depth within CROSSCHECK_DIM_BUDGET (the depth
    is read off the independent reference dimensions)."""
    fam = random.Random(FAMILY_SEED)
    algebras = []
    for i in range(CROSSCHECK_DRAWS):
        base = family_algebra(CROSSCHECK_NV, fam)
        alg = relabel(base, rng)
        simples = []
        for v in base["vertices"]:
            dims = reference.simple_dims(base, v, CROSSCHECK_N)
            depth = 0
            while depth < CROSSCHECK_N and max(dims[:depth + 2]) <= CROSSCHECK_DIM_BUDGET:
                depth += 1
            simples.append({"module": f"S_{alg['vmap'][v]}",
                            "vertex": alg["vmap"][v], "depth": depth})
        rng.shuffle(simples)
        modules = [(s["module"], f"S({s['vertex']})") for s in simples]
        algebras.append({"id": f"crossfam{i}", "algebra": alg, "simples": simples,
                         "text": algebra_text(f"crossfam{i}", alg, modules)})
    lengths = [(XYZ_N + 1) * XYZ_PRIMES] + [1 + len(a["simples"]) for a in algebras]
    return {"xyz_n": XYZ_N, "primes": XYZ_PRIMES, "algebras": algebras,
            "order": _interleave(lengths, rng)}


def _cli(rng: random.Random) -> dict:
    cases = [{"id": f"{g}#{k}", "golden": g, "argv": argv}
             for g, argv in CLI_CASES for k in range(CLI_REPEAT)]
    return {"cases": cases, "order": _interleave([1] * len(cases), rng)}


def make_inputs(workload: str, seed: int) -> dict:
    makers = {"classify": _classify, "realize": _realize, "oracle": _oracle,
              "cli": _cli}
    return makers[workload](random.Random(f"{workload}:{seed}"))


def input_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
