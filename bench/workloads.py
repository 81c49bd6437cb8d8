"""The benchmark's workloads and the correctness gate on their output.

A workload is a list of studies run in order through `steinlab.cli.main`.
Each study's full configuration is written to a JSON file, so the workload
does not depend on the CLI defaults; the benchmark seed reaches the program
only as `--seed`.  Every call runs with `--check`.

The gate compares the deterministic columns of each CSV with the values in
`reference.json`, recorded at the commit that defined the benchmark, within
`REL_TOL`.  Monte Carlo columns are left to `--check`, so a change to the
sample bits still passes.  This module imports nothing from steinlab.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Loose enough for a reordered sum or a structured (FFT, Levinson) algorithm,
# tight against any change in what is computed.
REL_TOL = 1e-9
ABS_TOL = 1e-12

RHO_HALF = {"kind": "geometric", "rho": 0.5, "scale": 1.0}
RHO_LONG = {"kind": "geometric", "rho": 0.99, "scale": 1.0}
WHITE = {"kind": "white", "scale": 1.0}
LONG_NS = [512, 1024, 2048]


@dataclass(frozen=True)
class Study:
    command: str
    config: dict
    deterministic: tuple[str, ...]  # CSV columns compared with the reference
    summary: tuple[str, ...] = ()  # '# summary:' keys compared with the reference


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple[Study, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Bound by sampling: streams normals and the IS reduction; its 48
        # eigensolves (n <= 256) and the rho=0.5 spectrum barely run.
        Workload(
            "detect-mc",
            (
                Study(
                    "detect",
                    {
                        "cov_p": RHO_HALF,
                        "cov_q": WHITE,
                        "ns": [32, 64, 96, 128, 160, 192, 224, 256],
                        "tau": 0.2,
                        "samples": 100_000,
                        "unit": "nats",
                    },
                    ("D", "lower", "upper"),
                    ("C_s",),
                ),
            ),
        ),
        # The same streams layer used another way: raw draws coloured by the
        # symmetric root, then scored by two dense O(n^2) densities.
        Workload(
            "typical-mc",
            (
                Study(
                    "typical",
                    {
                        "variant": "rel_entropy",
                        "cov_p": RHO_HALF,
                        "cov_q": WHITE,
                        "ns": [128, 256, 384],
                        "eps": 0.05,
                        "delta_factor": 1.1,
                        "samples": 100_000,
                        "unit": "nats",
                    },
                    ("B_n", "delta_min"),
                ),
            ),
        ),
        # Dense eigensolves up to n=2048 and the long-lag spectrum grid, with
        # no random draws: sampler changes must leave it unchanged.
        Workload(
            "exact-long-memory",
            (
                Study(
                    "rate",
                    {"cov_p": RHO_LONG, "cov_q": WHITE, "ns": LONG_NS, "unit": "nats"},
                    ("D", "C_s"),
                    ("C_s",),
                ),
                Study(
                    "asymptotics",
                    {"cov_p": RHO_LONG, "ns": LONG_NS, "unit": "nats"},
                    (
                        "weak_diff_toeplitz_circulant",
                        "eigavg_x",
                        "eigavg_log",
                        "eigavg_inv",
                        "spectral_x",
                        "spectral_log",
                        "spectral_inv",
                    ),
                ),
            ),
        ),
    )
}


def build_inputs(workload: Workload, seed: int, work_dir: str) -> list[list[str]]:
    """Write each study's config file; return the argv of each CLI call."""
    calls = []
    for study in workload.studies:
        path = os.path.join(work_dir, f"{workload.name}-{study.command}.json")
        with open(path, "w") as handle:
            json.dump(study.config, handle)
        calls.append([study.command, "--config", path, "--seed", str(seed), "--check"])
    return calls


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split CLI output into its '# summary:' fields and its data rows."""
    summary: dict[str, str] = {}
    data = []
    for line in text.splitlines():
        if line.startswith("# summary:"):
            for field in line[len("# summary:"):].split():
                key, _, value = field.partition("=")
                summary[key] = value
        elif line and not line.startswith("#"):
            data.append(line.split(","))
    if not data:
        return summary, []
    header, *rows = data
    return summary, [dict(zip(header, row)) for row in rows]


def deterministic_values(study: Study, text: str) -> dict:
    """The gated values of one study's output, as recorded in the reference."""
    summary, rows = parse_csv(text)
    return {
        "n": [int(r["n"]) for r in rows],
        "columns": {c: [float(r[c]) for r in rows] for c in study.deterministic},
        "summary": {k: float(summary[k]) for k in study.summary},
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _close(value: float, expected: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= max(
        ABS_TOL, REL_TOL * abs(expected)
    )


def gate(workload: Workload, study: Study, text: str, reference: dict) -> list[str]:
    """Errors in one study's output; empty when it matches the reference."""
    expected = reference[workload.name][study.command]
    try:
        got = deterministic_values(study, text)
    except (KeyError, ValueError) as exc:
        return [f"{study.command}: unreadable output ({exc!r})"]
    if got["n"] != expected["n"] or got["n"] != study.config["ns"]:
        return [f"{study.command}: rows for n={got['n']}, expected {expected['n']}"]
    errors = []
    for section in ("columns", "summary"):
        for key, want in expected[section].items():
            values = got[section][key]
            pairs = zip(values, want) if section == "columns" else [(values, want)]
            for value, target in pairs:
                if not _close(value, target):
                    errors.append(f"{study.command}: {key}={value!r}, reference {target!r}")
    return errors
