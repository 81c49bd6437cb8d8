"""Steinlab benchmark: end-to-end timings and a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of the workloads in `workloads.py`, or `all` to run each in
turn.  Run from the repository root; the package is imported from `src/`.

With `--trace 0`, MEASURE_PROCS fresh processes each run a cold pass and
then warm passes for S / MEASURE_PROCS seconds, with tracing off; then
SETUP_PROBES fresh processes each only import the package and build the
inputs.  End-to-end metrics, medians over those samples:

    wall_s       seconds of a warm pass
    cold_s       seconds of the first pass in a fresh process
    setup_s      seconds from starting an interpreter to `import
                 steinlab.cli` done and the inputs written (every process)
    peak_rss_mb  ru_maxrss of a measuring process
    pass_share   study calls that passed the gate / calls attempted

With `--trace 1` one fresh process runs a cold pass, then alternates
untraced and traced passes for S seconds, and reports the per-layer
metrics of `tracer.py` (medians over the traced passes) and
`trace.overhead_s`, the traced minus the untraced median pass time.

Studies run one after another in one process (a closed loop with one
client); the benchmark starts no threads of its own.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

MEASURE_PROCS = 2
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 80
PROBE_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "cold_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["setup"] = result["setup_done"] - started
    return result


def machine() -> dict:
    """Run metadata the workers cannot see differently from the parent."""
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown", "llc": "unknown", "commit": commit(),
            "isolation": "none: CPUs are not pinned and the machine is shared"}
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else "unknown"
        cache = "/sys/devices/system/cpu/cpu0/cache"
        top = max((d for d in os.listdir(cache) if d.startswith("index")),
                  key=lambda d: int(d[len("index"):]))
        with open(os.path.join(cache, top, "size")) as handle:
            info["llc"] = handle.read().strip()
    except (OSError, ValueError, IndexError):
        pass
    return info


def commit() -> str:
    """HEAD of the checkout, or `unknown` outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}, range {min(values):.4g}..{max(values):.4g}"


def median_note(samples: list[float]) -> tuple[float, str]:
    """Median of the samples, with a note on their count and range."""
    return statistics.median(samples), describe(samples)


def layer_metrics(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced process."""
    res = spawn(name, seed, "trace", seconds, WORKER_TIMEOUT_S)
    metrics = {}
    for metric in res["layers"][0]:
        if metric == "wall_s":
            continue
        values = [layer[metric] for layer in res["layers"]]
        unit = tracer.metric_unit(metric)
        # Counts repeat exactly from pass to pass; times are medians.
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[metric] = (value, unit, describe(values))
    traced = [layer["wall_s"] for layer in res["layers"]]
    untraced = res["warm"]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (
        overhead, "s", f"{len(traced)} traced, {len(untraced)} untraced warm passes"
    )
    return res, metrics


def end_to_end_metrics(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from MEASURE_PROCS measuring and SETUP_PROBES set-up processes."""
    runs = [spawn(name, seed, "measure", seconds / MEASURE_PROCS, WORKER_TIMEOUT_S)
            for _ in range(MEASURE_PROCS)]
    setups = [r["setup"] for r in runs] + [
        spawn(name, seed, "setup", 0.0, PROBE_TIMEOUT_S)["setup"]
        for _ in range(SETUP_PROBES)
    ]
    res = {
        "attempted": sum(r["attempted"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "env": runs[0]["env"],
    }
    failed = len(res["errors"])
    values = {
        "wall_s": median_note([t for r in runs for t in r["warm"]]),
        "cold_s": median_note([r["cold"] for r in runs]),
        "setup_s": median_note(setups),
        "peak_rss_mb": median_note([r["peak_rss_mb"] for r in runs]),
        "pass_share": (1.0 - failed / res["attempted"],
                       f"fail_share={failed}/{res['attempted']}"),
    }
    return res, {m: (v, END_TO_END_UNITS[m], note) for m, (v, note) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "steinlab", "cli.py")):
        print(f"no steinlab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out_metrics = {}
    try:
        for name in names:
            collect = layer_metrics if args.trace else end_to_end_metrics
            res, metrics = collect(name, args.seed, args.seconds)
            print("# env: " + json.dumps({**machine(), **res["env"], "seed": args.seed,
                                          "workload": name, "trace": args.trace}))
            for error in res["errors"]:
                print(f"# error: {name}: {error}", file=sys.stderr)
            for metric, (value, unit, note) in metrics.items():
                print(f"{name} {metric} = {value:.6g} {unit} ({note})")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                out_metrics[key] = {"value": value, "unit": unit}
            attempted += res["attempted"]
            failed += len(res["errors"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
