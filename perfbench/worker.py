"""Child process: set-up, then one pass over a workload's query set.

Usage (started by run.py, one fresh process per pass):
    python3 perfbench/worker.py SPAWN_T SRC_DIR MEM_LIMIT_BYTES < config.json

SPAWN_T is the parent's perf_counter reading just before the spawn (the
clock is system-wide on Linux), so set-up time runs from child start to the
return of `import syzcx`; a CPU probe (probe.py) follows at once. The config
names the workload, its inputs and whether to trace; the result is one JSON
object on stdout.
"""

import sys
import time


def _setup(spawn_t: float, src: str, mem_limit: int):
    import resource

    if mem_limit > 0:
        resource.setrlimit(resource.RLIMIT_AS, (mem_limit, mem_limit))
    sys.path.insert(0, src)
    import syzcx

    return syzcx, time.perf_counter() - spawn_t


def main() -> int:
    spawn_t, src, mem_limit = float(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    syzcx, setup_s = _setup(spawn_t, src, mem_limit)

    import json
    import os
    import resource

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import probe
    import queries
    import spans

    out = {"setup_s": setup_s, "setup_probe_s": probe.probe()}
    cfg = json.loads(sys.stdin.read())
    if cfg["mode"] == "pass":
        tracer = None
        if cfg["trace"] and cfg["workload"] != "cli":
            tracer = spans.Tracer()
            out["bound"] = tracer.install(syzcx)
        real_stdout = sys.stdout
        sys.stdout = sys.stderr  # the program must not corrupt the result
        try:
            res = queries.run_pass(cfg["workload"], cfg["inputs"], syzcx,
                                   tracer, cfg)
        finally:
            sys.stdout = real_stdout
        out.update(res)
        if tracer is not None:
            metrics, accounting = spans.layer_metrics(tracer.spans,
                                                      res["wall_s"])
            out["layers"] = metrics
            out["accounting"] = accounting
            if cfg.get("spans_path"):
                with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
                    json.dump(tracer.spans, fh, separators=(",", ":"),
                              default=lambda o: f"object:{id(o)}")
    elif cfg["mode"] == "oneshot":
        out.update(queries.oneshot(cfg["item"], syzcx))
    who = (resource.RUSAGE_CHILDREN if cfg.get("workload") == "cli"
           else resource.RUSAGE_SELF)
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
