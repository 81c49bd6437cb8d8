"""One fresh benchmark process: set up, run passes, print one JSON line.

    python3 bench/worker.py --root ROOT --workload NAME --seed N
                            --mode {setup,measure,trace} --seconds S

Set-up is `import steinlab.cli` plus writing the workload's config files;
`setup_done` is reported on the system-wide monotonic clock so the parent
can time it from before it started this interpreter.  A pass runs every
study of the workload once, in order, through `steinlab.cli.main`; its time
is the sum of the `main` calls and excludes the correctness gate.

The first pass is the cold pass.  `measure` then runs warm passes until
`--seconds` have gone by since the cold pass began (at least one); `trace`
runs pairs of an untraced and a traced pass over the same span.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

import tracer
import workloads

class Pass:
    """Runs the workload's CLI calls and keeps the failure tally."""

    def __init__(self, cli, calls, workload):
        self.cli, self.calls, self.workload = cli, calls, workload
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.errors: list[str] = []  # one entry per failed call

    def run(self) -> float:
        """Seconds spent in `cli.main`."""
        elapsed = 0.0
        for argv, study in zip(self.calls, self.workload.studies):
            out, err = io.StringIO(), io.StringIO()
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed call, not a failed benchmark
                self.errors.append(f"{study.command}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                elapsed += time.perf_counter() - start
            if code != 0:
                self.errors.append(f"{study.command}: exit {code}: {err.getvalue().strip()}")
                continue
            mismatches = workloads.gate(self.workload, study, out.getvalue(), self.reference)
            if mismatches:
                self.errors.append("; ".join(mismatches))
        return elapsed


def measure(runner: Pass, seconds: float, traced: bool) -> dict:
    began = time.monotonic()
    cold = runner.run()
    warm, layers = [], []
    while True:
        warm.append(runner.run())
        if traced:
            with tracer.Tracer() as spans:
                elapsed = runner.run()
            layers.append({"wall_s": elapsed, **tracer.layer_metrics(spans.spans)})
        if time.monotonic() - began >= seconds:
            break
    return {
        "cold": cold,
        "warm": warm,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "errors": runner.errors,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    import steinlab.cli as cli

    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"steinlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = os.path.join(args.root, "bench", ".work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        calls = workloads.build_inputs(workload, args.seed, work_dir)
        result = {"setup_done": time.monotonic()}
        if args.mode != "setup":
            runner = Pass(cli, calls, workload)
            result.update(measure(runner, args.seconds, args.mode == "trace"))
            result["env"] = environment()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
