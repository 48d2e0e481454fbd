"""The timed query sets, run inside a worker process.

Each query calls syzcx's public functions through the package namespace at
call time, so that traced runs see the wrapped versions. A query's answer is
reduced to plain values (class kind, 12-digit base, degree or pd, verdict,
dimension lists, CLI bytes); run.py checks it against the references.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

from probe import probe


def class_answer(cls) -> dict:
    if cls.is_zero:
        return {"kind": "zero", "pd": cls.pd}
    return {"kind": "polyexp", "approx": cls.base.approx_str(),
            "degree": cls.degree}


def _built(built: dict):
    if "A" not in built:
        raise RuntimeError("the algebra these queries share was not built")
    return built["A"]


# A workload is a list of chains: each chain yields (query id, query) pairs
# whose order matters (a shared algebra is built before its modules are
# queried). gen.py interleaves the chains in a seeded order, which spreads
# every kind of query over the whole pass.

def _one(qid, fn):
    yield qid, fn


def _classify(S, inputs):
    def run(q):
        A = S.validate_algebra(S.parse_algebra(q["text"]))
        return class_answer(S.module_complexity(A, S.resolve_module(A, "Sum")).cls)
    return [_one(q["id"], lambda q=q: run(q)) for q in inputs["queries"]]


def _box_chain(S, box):
    built = {}

    def build():
        H = S.parse_algebra(box["text"]).quiver
        text, names = S.realize_class(H, box["ell"])
        built["A"] = S.validate_algebra(S.parse_algebra(text))
        built["names"] = names
        return {"modules": names}
    yield "box_build", build

    for i in range(len(box["vmap"]) * (box["ell"] + 1)):
        names = built.get("names", ())
        name = names[i] if i < len(names) else f"missing{i}"

        def simple(name=name):
            A = _built(built)
            return class_answer(S.module_complexity(A, S.resolve_module(A, name)).cls)
        yield f"box_{name}", simple


def _realize(S, inputs):
    def companion(c):
        Q = S.realize_companion(c["counts"])
        rho = S.perron_root(S.adjacency_matrix(Q))
        return {"poly": rho.poly.to_list(), "approx": rho.approx_str()}

    def check(c):
        v = S.check_condition_c(S.IntPolynomial(c["coeffs"]))
        return {"status": v.status,
                "b": v.b.approx_str() if v.b is not None else None}

    def combine(c):
        r = S.closure_combine(S.IntPolynomial(c["pc"]), S.IntPolynomial(c["qc"]),
                              c["op"], c["ell"])
        return {"result": r.to_list()}

    return ([_one(c["id"], lambda c=c: companion(c)) for c in inputs["companions"]]
            + [_box_chain(S, inputs["box"])]
            + [_one(c["id"], lambda c=c: check(c)) for c in inputs["checks"]]
            + [_one(c["id"], lambda c=c: combine(c)) for c in inputs["combines"]])


def _xyz_chain(S, primes, n_max):
    """xyz-local k, one syzygy step per query, one prime after the other.
    The last representation is dropped at once, so peak memory does not
    depend on how the chains interleave."""
    rep = {}
    for p in primes:
        def cover(p=p):
            rep["R"] = S.table_rep(S.xyz_local_table(), "k", p)
            return {"dim": rep["R"].total_dim}
        yield f"xyz_p{p}_n0", cover

        for n in range(1, n_max + 1):
            def step(last=n == n_max):
                if "R" not in rep:
                    raise RuntimeError("the previous syzygy step failed")
                R = rep.pop("R").syzygy()
                if not last:
                    rep["R"] = R
                return {"dim": R.total_dim}
            yield f"xyz_p{p}_n{n}", step


def _family_chain(S, fam):
    built = {}

    def build():
        built["A"] = S.validate_algebra(S.parse_algebra(fam["text"]))
        return {"dimension": built["A"].dimension}
    yield f"{fam['id']}_build", build

    for simple in fam["simples"]:
        def cross(simple=simple):
            A = _built(built)
            r = S.crosscheck(A, S.resolve_module(A, simple["module"]),
                             simple["depth"])
            return {"quiver": list(r.dims_quiver),
                    "oracle": list(r.dims_oracle), "agree": r.agree}
        yield f"{fam['id']}_{simple['module']}", cross


def _oracle(S, inputs):
    from syzcx.oracle import PRIMES

    if len(PRIMES) != inputs["primes"]:
        raise RuntimeError(f"the oracle now uses {len(PRIMES)} primes")
    return ([_xyz_chain(S, PRIMES, inputs["xyz_n"])]
            + [_family_chain(S, fam) for fam in inputs["algebras"]])


def _import_times(stderr: str) -> tuple[dict, str]:
    """Cumulative microseconds of `syzcx` and `numpy` from -X importtime,
    plus stderr with the importtime lines removed."""
    found, rest = {}, []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        name = parts[-1].strip()
        if name in ("syzcx", "numpy") and parts[1].strip().isdigit():
            found[name] = found.get(name, 0) + int(parts[1])
    return found, "".join(rest)


def _cli(S, inputs, cfg):
    env = dict(os.environ)
    env["PYTHONPATH"] = cfg["src"] + os.pathsep + env.get("PYTHONPATH", "")
    prefix = [sys.executable] + (["-X", "importtime"] if cfg["trace"] else [])

    def cli(case):
        t0 = perf_counter()
        proc = subprocess.run(prefix + ["-m", "syzcx.cli"] + case["argv"],
                              cwd=cfg["root"], env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = perf_counter() - t0
        times, stderr = _import_times(proc.stderr)
        return {"rc": proc.returncode, "stdout": proc.stdout,
                "stderr": stderr, "process_s": elapsed,
                "syzcx_import_s": times.get("syzcx", 0) / 1e6,
                "numpy_import_s": times.get("numpy", 0) / 1e6,
                "uses_oracle": case["argv"][0] == "oracle"}
    return [_one(case["id"], lambda case=case: cli(case))
            for case in inputs["cases"]]


def run_pass(workload, inputs, S, tracer, cfg) -> dict:
    """Run every query once, in the seeded order; one failing query never
    stops the pass. Returns the pass wall time and one record per query,
    with its latency and the CPU probes (probe.py) just before and after
    it, outside the timed span."""
    if workload == "cli":
        chains = _cli(S, inputs, cfg)
    else:
        chains = {"classify": _classify, "realize": _realize,
                  "oracle": _oracle}[workload](S, inputs)
    records = []
    before = probe()
    start = perf_counter()
    for ci in inputs["order"]:
        qid, fn = next(chains[ci])
        if tracer is not None:
            tracer.query = qid
        t0 = perf_counter()
        try:
            rec = {"id": qid, "answer": fn()}
        except MemoryError:
            rec = {"id": qid, "error": "MemoryError (memory guard)"}
        except Exception as e:  # noqa: BLE001 - one query's failure is data
            rec = {"id": qid, "error": f"{type(e).__name__}: {e}"[:300]}
        rec["latency_s"] = perf_counter() - t0
        rec["probe_s"] = (before, probe())
        before = rec["probe_s"][1]
        records.append(rec)
    return {"wall_s": perf_counter() - start, "queries": records}


def oneshot(item: str, S) -> dict:
    """Single long runs for the ROADMAP baselines; never xyz-local n=9."""
    import random

    import gen

    t0 = perf_counter()
    if item == "family_nv55":
        alg = gen.family_algebra(55, random.Random(gen.FAMILY_SEED))
        body = " + ".join(f"S({v})" for v in alg["vertices"])
        A = S.validate_algebra(S.parse_algebra(
            gen.algebra_text("fam55", alg, [("Sum", body)])))
        answer = class_answer(S.module_complexity(A, S.resolve_module(A, "Sum")).cls)
    elif item == "companion_s96":
        counts = gen.companion_counts(96, random.Random(gen.FAMILY_SEED))
        Q = S.realize_companion(counts)
        m = S.adjacency_matrix(Q)
        t0 = perf_counter()
        answer = {"char_poly_degree": S.char_poly(m).degree}
    elif item == "xyz_n8":
        from syzcx.oracle import PRIMES
        rep = S.table_rep(S.xyz_local_table(), "k", PRIMES[0])
        answer = {"dims": S.dim_sequence(rep, 8)}
    else:
        raise ValueError(f"unknown one-shot item {item!r}")
    return {"item": item, "wall_s": perf_counter() - t0, "answer": answer}
