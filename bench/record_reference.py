"""Record the deterministic outputs of every workload in reference.json.

    PYTHONPATH=src python3 bench/record_reference.py

Run once at the commit that defines the reference; the gate in
`workloads.py` compares every later run with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile

import steinlab.cli as cli

import workloads


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in workloads.WORKLOADS.values():
            calls = workloads.build_inputs(workload, 1, work_dir)
            reference[workload.name] = {}
            for argv, study in zip(calls, workload.studies):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{study.command} exited {code}")
                reference[workload.name][study.command] = workloads.deterministic_values(
                    study, out.getvalue()
                )
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
