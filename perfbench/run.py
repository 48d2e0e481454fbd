#!/usr/bin/env python3
"""Layered benchmark for syzcx.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reference          # one-shot ROADMAP baselines

Workloads: classify, realize, oracle, cli (see gen.py and BENCHMARK.json).
Inputs are generated here from the seed; every pass over the query set runs
in a fresh worker process (worker.py) that sets its own address-space limit.
A run makes seconds // PASS_SECONDS passes. Every answer is checked
against references that do not come from the timed code (check.py). Times
are scaled to a fixed CPU speed by the probes taken around them (probe.py);
the unscaled figures are printed beside them.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics; the raw spans go to
.perfbench/ in the checkout. The last stdout line of a completed run is one
JSON object {"correct", "attempted", "failed", "metrics"}; a run that cannot
measure exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from probe import probe, scaled  # noqa: E402

GIB = 1 << 30
MEM_LIMIT = {"classify": 2 * GIB, "realize": 2 * GIB, "oracle": 3 * GIB,
             "cli": 2 * GIB, "reference": 4 * GIB}
SETUP_SAMPLES = 7
# A run makes seconds // PASS_SECONDS passes: a count that --seconds alone
# fixes, 3 (4 for oracle) at the benchmark's 24 s. A pass can take twice
# its usual time when the machine is busy, so the pass count never shrinks
# to fit; every query's latency is a median over at least three passes.
PASS_SECONDS = {"classify": 8, "realize": 8, "oracle": 6, "cli": 8}
TRACE_PAIRS = 2
DEADLINE_S = 150    # every child is stopped by then, so a run ends < 180 s


def child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env["PYTHONHASHSEED"] = "0"
    return env


def left(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def spawn(cfg: dict, mem_limit: int, timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion; (result, stderr tail). The result
    carries the CPU probe taken just before the spawn."""
    before = probe()
    t = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(t), str(SRC),
         str(mem_limit)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=child_env())
    try:
        out, err = proc.communicate(json.dumps(cfg), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "worker timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exit {proc.returncode}: {err[-400:]}"
    res = json.loads(lines[-1])
    res["spawn_probe_s"] = before
    return res, err[-400:]


def cli_setup_sample(deadline: float) -> float:
    """Cold `import syzcx.cli` in a fresh interpreter, from spawn to
    return, scaled by the CPU probes just before and after."""
    env = child_env()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    before = probe()
    t = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c",
         "import syzcx.cli, time; print(repr(time.perf_counter()))"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=left(deadline), check=True).stdout
    return scaled(float(out.strip().splitlines()[-1]) - t, before, probe())


def setup_samples(workload: str, passes: list, deadline: float) -> list[float]:
    if workload == "cli":
        return [cli_setup_sample(deadline) for _ in range(SETUP_SAMPLES)]
    got = [scaled(p["setup_s"], p["spawn_probe_s"], p["setup_probe_s"])
           for p in passes]
    while len(got) < SETUP_SAMPLES:
        res, err = spawn({"mode": "setup"}, MEM_LIMIT[workload], left(deadline))
        if res is None:
            raise RuntimeError(f"set-up worker failed: {err}")
        got.append(scaled(res["setup_s"], res["spawn_probe_s"],
                          res["setup_probe_s"]))
    return got


def pass_config(workload, inputs, trace, spans_path=None) -> dict:
    return {"mode": "pass", "workload": workload, "inputs": inputs,
            "trace": trace, "root": str(ROOT), "src": str(SRC),
            "spans_path": spans_path}


def judge(workload, refs, passes, expected_queries):
    """Check every answer; returns counts and the notable records."""
    attempted = failed = decided = 0
    failures, undecided = [], []
    for p in passes:
        if p is None:  # the worker died: the whole pass failed
            attempted += expected_queries
            failed += expected_queries
            failures.append(("<pass>", "worker died or timed out"))
            continue
        for rec in p["queries"]:
            ok, dec, note = check.check(workload, refs, rec)
            attempted += 1
            failed += not ok
            decided += ok and dec
            if not ok:
                failures.append((rec["id"], note))
            elif not dec:
                undecided.append(rec["id"])
    return attempted, failed, decided, failures, undecided


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with >= 10 queries beyond it."""
    lat = sorted(latencies)
    i = max(len(lat) - 11, 0)
    return lat[i], 100.0 * (i + 1) / len(lat)


def report(workload, seed, digest, attempted, failed, failures, undecided,
           metrics, units, notes):
    print(f"workload={workload} seed={seed} inputs_sha256={digest}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    for qid, note in failures[:20]:
        print(f"  FAILED {qid}: {note}")
    if undecided:
        print(f"  undecided ({len(undecided)}): {', '.join(sorted(set(undecided)))}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_untraced(workload, seed, seconds, inputs, digest, refs,
                 deadline) -> int:
    passes = []
    for _ in range(max(1, int(seconds // PASS_SECONDS[workload]))):
        if deadline - time.perf_counter() < 60:
            break  # leave time for the set-up samples
        res, err = spawn(pass_config(workload, inputs, False),
                         MEM_LIMIT[workload], left(deadline))
        if res is None:
            print(f"pass failed: {err}", file=sys.stderr)
        passes.append(res)
    done = [p for p in passes if p is not None]
    if not done:
        print("every pass failed; no metrics", file=sys.stderr)
        return 3
    attempted, failed, decided, failures, undecided = judge(
        workload, refs, passes, len(done[0]["queries"]))
    # Each query's latency is scaled by the CPU probes around it (probe.py),
    # then its median over the passes is taken; every statistic is over
    # those per-query values. Every pass runs the same queries in the same
    # order from the same state.
    per_query: dict[str, list] = {}
    for p in done:
        for r in p["queries"]:
            per_query.setdefault(r["id"], []).append(r)
    lat = [statistics.median(scaled(r["latency_s"], *r["probe_s"]) for r in rs)
           for rs in per_query.values()]
    raw = [statistics.median(r["latency_s"] for r in rs)
           for rs in per_query.values()]
    tail_s, tail_pct = tail(lat)
    setup = setup_samples(workload, done, deadline)
    metrics = {
        "wall_s": sum(lat),
        "query_p50_s": statistics.median(lat),
        "query_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in done),
        "decided_frac": decided / attempted,
    }
    units = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}
    notes = [
        f"passes={len(passes)} queries={attempted} closed loop, one client",
        "pass wall times: " + " ".join(f"{p['wall_s']:.3f}" for p in done),
        f"unscaled: wall_s {sum(raw):.6f} s, query_p50_s "
        f"{statistics.median(raw):.6f} s, query_tail_s {tail(raw)[0]:.6f} s",
        f"times are scaled to the CPU probe's reference speed; each query's "
        f"median of {len(done)} passes; wall_s is their sum, query_tail_s is "
        f"p{tail_pct:.1f} of the {len(lat)} queries",
        f"setup_s is the median of {len(setup)} fresh set-ups",
        f"failed_frac={failed / attempted:.6f} ratio ({failed} of {attempted})",
    ]
    report(workload, seed, digest, attempted, failed, failures, undecided,
           metrics, units, notes)
    return 0


def cli_layers(p: dict) -> tuple[dict, dict]:
    answers = [r["answer"] for r in p["queries"] if "answer" in r]
    process = sum(a["process_s"] for a in answers)
    syz = sum(a["syzcx_import_s"] for a in answers)
    numpy = sum(a["numpy_import_s"] for a in answers if not a["uses_oracle"])
    metrics = {"cli.process_s": process - syz, "cli.import_s": syz - numpy,
               "cli.numpy_import_s": numpy}
    calls = {"cli.process": len(answers),
             "cli.import": sum(a["syzcx_import_s"] > 0 for a in answers),
             "cli.numpy_import": sum(a["numpy_import_s"] > 0
                                     for a in answers if not a["uses_oracle"])}
    return metrics, {"self_sum_s": process, "remainder_s": p["wall_s"] - process,
                     "wall_s": p["wall_s"], "span_calls": calls}


def per_layer_units() -> dict:
    names = list(spans.layer_metrics([], 0.0)[0]) + [
        "cli.process_s", "cli.import_s", "cli.numpy_import_s", "trace.overhead_s"]
    units = {}
    for n in names:
        if n.endswith("_s"):
            units[n] = "s"
        elif n == "oracle.cover_bytes_max":
            units[n] = "bytes_computed"
        elif n == "complexity.condense_per_algebra":
            units[n] = "ratio"
        else:
            units[n] = "count"
    return units


def run_traced(workload, seed, inputs, digest, refs, deadline) -> int:
    """TRACE_PAIRS untraced and traced passes, alternating. Per-layer times
    are medians over the traced passes; counts and sizes repeat exactly."""
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        for trace, into in ((False, plain), (True, traced)):
            res, err = spawn(pass_config(workload, inputs, trace,
                                         str(spans_path) if trace else None),
                             MEM_LIMIT[workload], left(deadline))
            if res is None:
                print(f"traced run failed: {err}", file=sys.stderr)
                return 3
            into.append(res)
    attempted, failed, _, failures, undecided = judge(
        workload, refs, plain + traced, len(plain[0]["queries"]))
    units = per_layer_units()
    metrics = {k: 0.0 if u in ("s", "ratio") else 0 for k, u in units.items()}
    if workload == "cli":
        layered = [cli_layers(p) for p in traced]
    else:
        layered = [(p["layers"], p["accounting"]) for p in traced]
    for name in layered[0][0]:
        mid = statistics.median if units[name] in ("s", "ratio") else statistics.median_low
        metrics[name] = mid(m[name] for m, _ in layered)
    # Pass time as the sum of probe-scaled query latencies, as for wall_s.
    wall = lambda passes: statistics.median(
        sum(scaled(r["latency_s"], *r["probe_s"]) for r in p["queries"])
        for p in passes)
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    accounting = layered[-1][1]
    missing = [n for n in spans.PREDICTED[workload]
               if not accounting["span_calls"].get(n)]
    if missing:
        print("wrapper self-check failed: no span for " + ", ".join(missing),
              file=sys.stderr)
        return 3
    notes = [
        f"last traced pass: wall_s {accounting['wall_s']:.6f} = self times "
        f"{accounting['self_sum_s']:.6f} + untraced remainder "
        f"{accounting['remainder_s']:.6f}",
        f"scaled wall_s median: traced {wall(traced):.6f}, untraced "
        f"{wall(plain):.6f}",
        "oracle.cover_bytes_max is computed as 8*dimM*(dimM+dim syzygy), "
        "not measured",
    ]
    if workload != "cli":
        notes.append(f"{traced[-1]['bound']} bindings wrapped; spans of the "
                     f"last traced pass: {spans_path}")
    report(workload, seed, digest, attempted, failed, failures, undecided,
           metrics, units, notes)
    return 0


def run_reference() -> int:
    """One-shot baselines under the memory guard; not part of any gate."""
    for item in ("family_nv55", "companion_s96", "xyz_n8"):
        res, err = spawn({"mode": "oneshot", "item": item},
                         MEM_LIMIT["reference"], 1800)
        if res is None:
            print(json.dumps({"item": item, "failed": err}))
        else:
            print(json.dumps({"item": item, "wall_s": res["wall_s"],
                              "peak_rss_mb": res["peak_rss_mb"],
                              "answer": res["answer"]}))
    return 0


def write_expected() -> int:
    """Store the program's classify classes, each cross-validated against
    the float reference first (run once, when the query set changes)."""
    inputs = gen.make_inputs("classify", 0)
    refs = check.prepare("classify", inputs, ROOT)
    res, err = spawn(pass_config("classify", inputs, False),
                     MEM_LIMIT["classify"], DEADLINE_S)
    if res is None:
        print(err, file=sys.stderr)
        return 3
    float_only = {qid: dict(ref, stored=None) for qid, ref in refs.items()}
    draw = {q["id"]: q["draw"] for q in inputs["queries"]}
    stored = {}
    for rec in res["queries"]:
        ok, _, note = check.check("classify", float_only, rec)
        if not ok:
            print(f"{rec['id']}: {note}", file=sys.stderr)
            return 3
        stored[str(draw[rec["id"]])] = rec["answer"]
    check.STORED.parent.mkdir(exist_ok=True)
    check.STORED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="one-shot ROADMAP baselines (long; not gated)")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected/classify.json")
    args = ap.parse_args(argv)

    if not (SRC / "syzcx" / "__init__.py").is_file():
        print(f"error: no syzcx sources under {SRC}", file=sys.stderr)
        return 2
    if args.reference:
        return run_reference()
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "cli" and not (ROOT / "tests" / "golden").is_dir():
        print("error: the cli workload needs tests/golden", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    inputs = gen.make_inputs(args.workload, args.seed)
    digest = gen.input_hash(inputs)
    refs = check.prepare(args.workload, inputs, ROOT)
    if args.trace:
        return run_traced(args.workload, args.seed, inputs, digest, refs,
                          deadline)
    return run_untraced(args.workload, args.seed, args.seconds, inputs,
                        digest, refs, deadline)


if __name__ == "__main__":
    sys.exit(main())
