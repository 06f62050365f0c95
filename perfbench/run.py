"""SCBR benchmark: run one workload with one seed, print one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quotes-ingress --seed 1 \\
        --seconds 10 --trace 0

The program is imported from ``src/`` beside this directory; nothing is
installed. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics, and a stage table is printed above the result. The
line before the result records the code identity, machine, seed and
workload parameters. Workloads, metrics and the layer map are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "pub_p50_ms": "ms",
    "pub_capacity_per_s": "1/s",
    "sub_p50_ms": "ms",
    "sub_capacity_per_s": "1/s",
    "ok_frac": "frac",
    "sim_pub_us": "us",
    "peak_rss_mb": "MB",
}


#: layers whose spans see simulated cycles: the engine charges compute
#: inside its ecalls, the memory model charges each touch, and cluster
#: slices return each publication's simulated latency. Crypto and index
#: work run inside ecalls, but the engine charges for them there.
SIM_LAYERS = ("enclave", "memory", "cluster")


def per_layer_units(layers) -> dict:
    """Per-layer metrics (``--trace 1``) and their units."""
    units = {}
    for layer in layers:
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.calls_per_op"] = "count"
    for layer in SIM_LAYERS:
        units[f"{layer}.sim_us_per_op"] = "us"
    units.update({
        "harness.self_ms_per_op": "ms",
        "ingress.batch_size_mean": "count",
        "ingress.queue_wait_p50_ms": "ms",
        "router.deliveries_per_pub": "count",
        "enclave.ecalls_per_pub": "count",
        "matching.compiles_per_pub": "count",
        "memory.epc_faults_per_pub": "count",
        "memory.llc_miss_rate": "frac",
        "recovery.checkpoint_ms": "ms",
        "recovery.sealed_bytes": "bytes",
        "cluster.slice_skew": "ratio",
        "loadgen.lag_p99_ms": "ms",
        "loadgen.backlog_growing": "flag",
        "sim_sub_us": "us",
        "pub_p95_ms": "ms",
        "sub_p95_ms": "ms",
        "failed_frac": "frac",
        "trace.overhead_x": "ratio",
        "trace.reconcile_error": "frac",
    })
    return units


def _git_sha() -> str:
    """HEAD commit when the checkout is a git work tree, else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over every file under ``src/``: identifies the code run
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SCBR publish/subscribe benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from loadgen import percentile
    from spans import LAYERS
    from workloads import RECONCILE_TOLERANCE, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    measured = run_workload(args.workload, args.seed, args.seconds,
                            trace)
    attempted = int(measured["attempted"])
    failed = int(measured["failed"])
    lag_p99_ms = 1e3 * percentile(measured["lag_s"], 99)
    growing = bool(measured["backlog_growing"])
    problems = list(measured["problems"])

    if trace:
        units = per_layer_units(LAYERS)
        values = dict.fromkeys(units, 0.0)
        values.update(measured["layer"])
        values.update({
            "loadgen.lag_p99_ms": lag_p99_ms,
            "loadgen.backlog_growing": float(growing),
            "sim_sub_us": measured["sim_sub_us"],
            "pub_p95_ms": 1e3 * percentile(measured["pub_latency_s"], 95),
            "sub_p95_ms": 1e3 * percentile(measured["sub_latency_s"], 95),
            "failed_frac": failed / attempted,
        })
        if values["trace.reconcile_error"] > RECONCILE_TOLERANCE:
            problems.append("stage self times do not reconcile with the "
                            "traced wall-clock")
    else:
        units = END_TO_END
        values = {
            "setup_s": measured["setup_s"],
            "pub_p50_ms": 1e3 * percentile(measured["pub_latency_s"], 50),
            "pub_capacity_per_s": measured["pub_capacity_per_s"],
            "sub_p50_ms": 1e3 * percentile(measured["sub_latency_s"], 50),
            "sub_capacity_per_s": measured["sub_capacity_per_s"],
            "ok_frac": 1.0 - failed / attempted,
            "sim_pub_us": measured["sim_pub_us"],
            "peak_rss_mb": _peak_rss_mb(),
        }

    wall = measured["wall"]
    meta = {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "params": measured["params"],
        "setups_s": measured["setups_s"],
        "setups_wall_s": measured["setups_wall_s"],
        "probe_ms": measured["probe_ms"],
        "phases_s": measured["phases_s"],
        "latency_ms": {
            kind: {"n": len(samples),
                   **{f"p{q}": 1e3 * percentile(samples, q)
                      for q in (50, 90, 95, 99)}}
            for kind, samples in (("pub", measured["pub_latency_s"]),
                                  ("sub", measured["sub_latency_s"]))},
        "wall": {
            "capacity_per_s": {
                kind: wall[f"{kind}_capacity_per_s"] for kind in
                ("pub", "sub")},
            "latency_ms": {
                kind: {f"p{q}": 1e3 * percentile(
                    wall[f"{kind}_latency_s"], q) for q in (50, 95)}
                for kind in ("pub", "sub")}},
        "loadgen_lag_p99_ms": lag_p99_ms,
        "backlog_growing": growing,
        "problems": problems[:20],
    }
    print(json.dumps({"meta": meta}))
    if trace:
        print(measured["table"])
    if growing:
        print(f"warning: the backlog grew during the open loop at "
              f"{measured['params']['rate_per_s']}/s; latencies are not "
              f"those of a sustainable rate", file=sys.stderr)
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
