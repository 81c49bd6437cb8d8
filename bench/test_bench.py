"""Tests of the benchmark's own code (not collected by the package's test run).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from steinlab import cli, gaussian, numlin, spectral, streams  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_cli(argv: list[str]) -> dict:
    with tracer.Tracer() as t, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer.layer_metrics(t.spans)


def test_tracer_restores_the_originals_even_after_an_error():
    before = {
        "eig_sym": numlin.eig_sym,
        "chunks": streams.standard_normal_chunks,
        "main": cli.main,
        "from_covariance": spectral.Spectrum.__dict__["from_covariance"],
        "call": spectral.Spectrum.__dict__["__call__"],
    }
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert numlin.eig_sym is not before["eig_sym"]
            assert streams.standard_normal_chunks is not before["chunks"]
            assert spectral.Spectrum.__dict__["__call__"] is not before["call"]
            raise RuntimeError
    assert numlin.eig_sym is before["eig_sym"]
    assert streams.standard_normal_chunks is before["chunks"]
    assert cli.main is before["main"]
    assert spectral.Spectrum.__dict__["from_covariance"] is before["from_covariance"]
    assert spectral.Spectrum.__dict__["__call__"] is before["call"]


def test_self_time_subtracts_child_spans():
    spans = [
        ["gaussian.whiten", 0.0, 10.0, -1, 0, None],
        ["numlin.eig_sym", 2.0, 5.0, 0, 27, None],
        ["numlin.eig_sym", 6.0, 7.0, 0, 27, None],
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["gaussian.whiten_self_s"] == 6.0
    assert metrics["numlin.eig_s"] == 4.0
    assert metrics["numlin.eig_calls"] == 2
    assert metrics["numlin.eig_n3"] == 54


def test_whiten_runs_six_eigensolves():
    cov = spectral.CovarianceSequence.geometric(0.5)
    with tracer.Tracer() as t:
        gaussian.whiten(numlin.toeplitz_from_cov(cov, 8), np.eye(8))
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["gaussian.whiten_calls"] == 1
    assert metrics["numlin.eig_calls"] == 6
    assert metrics["numlin.eig_n3"] == 6 * 8**3


def test_detect_draws_each_evaluation_chunk_twice():
    # 10000 samples = 3 chunks; per n: 3 calibration chunks, then the same
    # 3 evaluation chunks for each of the two detectors.
    metrics = traced_cli(["detect", "--n-list", "4,8,12", "--samples", "10000", "--seed", "5"])
    assert metrics["streams.chunks"] == 27
    assert metrics["streams.distinct_chunk_ratio"] == pytest.approx(2 / 3)
    assert metrics["detect.draws"] == 9 * 10000
    assert metrics["streams.normals"] == 3 * 10000 * (4 + 8 + 12)
    assert metrics["numlin.eig_calls"] == 6 * 3


def test_exact_studies_draw_nothing(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"cov_p": workloads.RHO_LONG}))
    rate = traced_cli(["rate", "--config", str(path), "--n-list", "8,16,32"])
    asym = traced_cli(["asymptotics", "--config", str(path), "--n-list", "8,16,32"])
    assert rate["numlin.eig_calls"] + asym["numlin.eig_calls"] == 9
    assert rate["streams.normals"] == asym["streams.normals"] == 0
    assert rate["streams.distinct_chunk_ratio"] == 1.0
    assert asym["spectral.spectrum_calls"] == 4


def _render(study: workloads.Study, expected: dict) -> str:
    columns = ["n", *expected["columns"]]
    lines = ["# command=x", "# summary: " + " ".join(
        f"{k}={v!r}" for k, v in expected["summary"].items())]
    lines.append(",".join(columns))
    for i, n in enumerate(expected["n"]):
        lines.append(",".join([str(n)] + [repr(expected["columns"][c][i]) for c in columns[1:]]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_the_reference_and_rejects_a_drift(name):
    reference = workloads.load_reference()
    workload = workloads.WORKLOADS[name]
    for study in workload.studies:
        expected = reference[name][study.command]
        assert set(expected["columns"]) == set(study.deterministic)
        assert workloads.gate(workload, study, _render(study, expected), reference) == []
        column = study.deterministic[0]
        drifted = json.loads(json.dumps(expected))
        drifted["columns"][column][-1] *= 1.0 + 1e-7
        errors = workloads.gate(workload, study, _render(study, drifted), reference)
        assert len(errors) == 1 and column in errors[0]
        assert workloads.gate(workload, study, "", reference)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

