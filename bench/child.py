"""One cold run of one workload, in a fresh single-threaded process.

Reads a job from stdin, as JSON:
  {"workload": name, "inputs": {...}, "mode": "setup" | "run",
   "trace": bool, "spawned_ns": monotonic clock of the parent at spawn}
and prints one JSON result line.  Set-up ends at the first workload call;
"setup" mode stops there.  "run" mode times every step, then, outside the
timed region and with tracing removed, runs the oracle checks.
"""

import hashlib
import json
import resource
import sys
import time
import traceback

def main():
    job = json.loads(sys.stdin.read())
    import numpy
    import workloads
    from tracer import Tracer

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    setup, run = workloads.WORKLOADS[job["workload"]]
    state = setup(job["inputs"])
    first_ns = time.monotonic_ns()
    result = {"setup_s": (first_ns - job["spawned_ns"]) / 1e9,
              "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return 0

    steps = []

    def step(name, fn, check):
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        steps.append((name, time.perf_counter() - t0, out, error, check))
        return out

    if tracer is not None:
        tracer.mark()
    t0 = time.perf_counter()
    run(state, step)
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.stop()

    digest = hashlib.sha256()
    failures = []
    step_counts = {}
    for i, (name, _, out, error, check) in enumerate(steps):
        step_counts[name] = step_counts.get(name, 0) + 1
        if error is None and check is not None:
            try:
                canon = check(out)
            except workloads.Mismatch as e:
                error = f"check failed: {e}"
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
            else:
                digest.update(json.dumps([name, canon], sort_keys=True,
                                         separators=(",", ":")).encode())
                digest.update(b"\n")
        if error is not None:
            failures.append({"step": i, "name": name, "error": error})

    pair_ms = [dt * 1e3 for name, dt, *_ in steps if name == "pair"]
    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(steps),
        "failed": len(failures),
        "failures": failures[:5],
        "step_counts": step_counts,
        "pair_ms": pair_ms,
        "digest": digest.hexdigest(),
    })
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["layer_self_s"] = tracer.layer_self_s()
        result["counters"] = tracer.counters()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
