#!/usr/bin/env python3
"""valdetect benchmark: cold-process workloads with oracle-checked verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory.  Each workload run is a fresh single-threaded child process
(bench/child.py), so valdetect's module-level caches start cold, as they do
for a CLI user.  Children run one at a time.

--trace 0 runs cold workload children back to back, each after a few
set-up-only children: at least two, and more while the next one is expected
to end within --seconds of the first one's start.  It reports the
end-to-end metrics as medians over the children.  --trace 1 runs one
untraced and two traced children of the workload and reports the per-layer
metrics, the tracing overhead, and fails the run if the two traced
children's work counters differ.

The last line of stdout is the result object; the line before it is a record
of the environment, the inputs, the per-step counts and the output digests.
See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_CHILDREN = 3     # before each workload child
MIN_CHILDREN = 2
TRACED_CHILDREN = 2
TIME_LIMIT_S = 170

LIMITS = ("in-process timers and getrusage of the child only; no "
          "machine-wide tracing, no page-cache dropping, no CPU pinning; "
          "other tenants of the machine can slow a run")


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": str(ROOT / "src")})
    return env


def run_child(job, deadline):
    job = dict(job, spawned_ns=time.monotonic_ns())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time limit reached before the child started")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def pair_metrics(runs):
    """Latency of one pair query (direct C-pair plus CL-pair verdict)."""
    lat = [ms for r in runs for ms in r["pair_ms"]]
    if not lat:
        return {"pairs.per_s": metric(0, "1/s"),
                "pairs.p50_ms": metric(0, "ms"),
                "pairs.p99_ms": metric(0, "ms")}
    return {"pairs.per_s": metric(len(lat) / (sum(lat) / 1e3), "1/s"),
            "pairs.p50_ms": metric(percentile(lat, 50), "ms"),
            "pairs.p99_ms": metric(percentile(lat, 99), "ms")}


def end_to_end(setups, runs):
    setup_s = [r["setup_s"] for r in setups + runs]
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in runs), "s"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


# per-layer metrics: (metric, source, key); "self" reads a span's self time,
# "count" a work counter
LAYER_METRICS = [
    ("scans.build_s", "self", "scans.build"),
    ("scans.triples", "count", "scans.triples"),
    ("milnor.steinberg_s", "self", "milnor.steinberg"),
    ("milnor.witnesses", "count", "milnor.witnesses"),
    ("milnor.k2_order_s", "self", "milnor.k2_order"),
    ("milnor.tame_s", "self", "milnor.tame"),
    ("coeffmod.howell_s", "self", "coeffmod.howell"),
    ("coeffmod.howell_calls", "count", "coeffmod.howell_calls"),
    ("coeffmod.howell_rows", "count", "coeffmod.howell_rows"),
    ("coeffmod.kernel_s", "self", "coeffmod.kernel"),
    ("coeffmod.smith_s", "self", "coeffmod.smith"),
    ("central.frame_s", "self", "central.frame"),
    ("central.cl_pair_calls", "count", "central.cl_pair_calls"),
    ("central.cl_pair_s", "self", "central.cl_pair"),
    ("central.cl_center_s", "self", "central.cl_center"),
    ("cpairs.direct_calls", "count", "cpairs.direct_calls"),
    ("cpairs.direct_neg", "count", "cpairs.direct_neg"),
    ("cpairs.direct_s", "self", "cpairs.direct"),
    ("cpairs.ktheory_s", "self", "cpairs.ktheory"),
    ("cpairs.c_center_s", "self", "cpairs.c_center"),
    ("cpairs.c_group_s", "self", "cpairs.c_group"),
    ("characters.elements_s", "self", "characters.elements"),
    ("characters.decomp_chars_s", "self", "characters.decomp_chars"),
    ("characters.evaluate_class_calls", "count",
     "characters.evaluate_class"),
    ("rigid.valuative_test_s", "self", "rigid.valuative_test"),
    ("rigid.is_unit_calls", "count", "rigid.is_unit_calls"),
    ("rigid.is_unit_distinct", "count", "rigid.is_unit_distinct"),
    ("rigid.is_unit_s", "self", "rigid.is_unit"),
    ("rigid.nonmembers", "count", "rigid.nonmembers"),
    ("detect.cpair_s", "self", "detect.cpair"),
    ("detect.cgroup_s", "self", "detect.cgroup"),
    ("detect.inertia_s", "self", "detect.inertia"),
    ("detect.classify_s", "self", "detect.classify"),
    ("detect.valuative_members_s", "self", "detect.valuative_members"),
    ("fields.parse_s", "self", "fields.parse"),
    ("fields.classify_calls", "count", "fields.classify_calls"),
    ("fields.classify_s", "self", "fields.classify"),
    ("fields.elt_add_calls", "count", "fields.elt_add_calls"),
    ("fields.elt_add_s", "self", "fields.elt_add"),
    ("ffpoly.poly_gcd_calls", "count", "ffpoly.poly_gcd_calls"),
    ("ffpoly.poly_gcd_s", "self", "ffpoly.poly_gcd"),
    ("ffpoly.place_multiplicity_calls", "count",
     "ffpoly.place_multiplicity"),
    ("cli.main_calls", "count", "cli.main_calls"),
    ("cli.main_s", "self", "cli.main"),
]


def per_layer(plain, traced):
    """Per-layer metrics: self times are medians over the traced children,
    counters come from the first (all traced children agree on them)."""
    out = {}
    counters = traced[0]["counters"]
    for name, source, key in LAYER_METRICS:
        if source == "self":
            value = statistics.median(r["self_s"].get(key, 0.0)
                                      for r in traced)
            out[name] = metric(value, "s")
        else:
            out[name] = metric(counters.get(key, 0), "count")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    shares = {layer: statistics.median(r["layer_self_s"][layer]
                                       / r["wall_s"] for r in traced)
              for layer in LAYERS}
    for layer, share in shares.items():
        out[f"{layer}.share"] = metric(share, "ratio")
    out["harness.share"] = metric(1 - sum(shares.values()), "ratio")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - plain["wall_s"], "s")
    out["trace.overhead_frac"] = metric(
        traced_wall / plain["wall_s"] - 1, "ratio")
    out.update(pair_metrics([plain]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "valdetect" / "__init__.py").is_file():
        sys.stderr.write(f"no valdetect sources under {ROOT / 'src'}\n")
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    inputs = make_inputs(args.workload, args.seed)
    job = {"workload": args.workload, "inputs": inputs}
    setups, runs, traced = [], [], []
    try:
        if args.trace:
            runs.append(run_child(dict(job, mode="run", trace=False),
                                  deadline))
            for _ in range(TRACED_CHILDREN):
                traced.append(run_child(dict(job, mode="run", trace=True),
                                        deadline))
        else:
            run_start = time.monotonic()
            # the next child is expected to take the mean time so far
            while len(runs) < MIN_CHILDREN or (
                    (time.monotonic() - run_start) * (1 + 1 / len(runs))
                    <= args.seconds):
                for _ in range(SETUP_CHILDREN):
                    setups.append(run_child(
                        dict(job, mode="setup", trace=False), deadline))
                runs.append(run_child(dict(job, mode="run", trace=False),
                                      deadline))
    except ChildFailed as e:
        sys.stderr.write(f"{args.workload} seed {args.seed}: {e}\n")
        return 1

    children = runs + traced
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    counters_agree = all(r["counters"] == traced[0]["counters"]
                         for r in traced)
    for r in children:
        for f in r["failures"]:
            sys.stderr.write(f"{args.workload} step {f['step']} "
                             f"({f['name']}): {f['error']}\n")
    if not counters_agree:
        sys.stderr.write("traced children disagree on work counters\n")

    first = children[0]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": first["python"],
        "numpy": first["numpy"], "nproc": os.cpu_count(),
        "cpu": cpu_model(), "inputs": inputs,
        "children": len(children), "setup_children": len(setups),
        "children_wall_s": [r["wall_s"] for r in children],
        "step_counts": first["step_counts"],
        "failed_frac": failed / attempted,
        "digests": sorted({r["digest"] for r in children}),
        "limits": LIMITS,
    }
    if traced:
        record["counters"] = traced[0]["counters"]
        metrics = per_layer(runs[0], traced)
    else:
        metrics = end_to_end(setups, runs)
        record["pairs"] = {k: v["value"]
                           for k, v in pair_metrics(runs).items()}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and counters_agree,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
