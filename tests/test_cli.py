import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from steinlab import cli, detect, gaussian, numlin, spectral, streams, typicality, units


# One small run of each study, as CI's console-script step runs them.
SMALL_STUDIES = [
    ["rate", "--n-list", "64,128", "--check"],
    ["typical", "--n-list", "32,64", "--samples", "10000", "--check"],
    ["detect", "--n-list", "32,64,96", "--samples", "10000", "--check"],
    ["asymptotics", "--n-list", "64,128", "--check"],
    ["sublinear", "--n-list", "4,16,64", "--check"],
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(script):
    """Run `script` in a fresh interpreter that imports the package from src/."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result


# Functions of the package that no study calls, each with its reader.
NOT_RUN_BY_STUDIES = {
    "spectral.bn_limit": "the limit of B_n / sqrt(n), for a large-n sweep of the CLT scale",
    "spectral._bn_integrand": "the integrand of bn_limit",
    "typicality.volume_bounds": "the volume and q-mass window of an eps-good typical set",
    "detect.estimate_beta_is": "the IS estimate of one detector, which scores gcsl_experiment's rows",
    "units.bits_to_nats": "the inverse of nats_to_bits, which criterion 11 round-trips",
}


# Dataclass fields and properties that no code in the package reads by
# name, each with its reader: a whole class stands for all of its fields.
NOT_READ_BY_NAME = {
    "detect.GcslRow": "printed by `detect`, a column per field, through dataclasses.asdict",
    "spectral.EquivalenceRow": "printed by `asymptotics` through dataclasses.asdict",
    "typicality.VolumeBounds": "the volume and q-mass window of an eps-good typical set",
    "detect.ErrorEstimates.beta_hat": "beta itself, which the tests read from estimate_beta_is",
    "detect.ErrorEstimates.stderr_alpha": "the stderr of alpha_hat, read as beta_hat is",
}


def package_sources():
    """{file path: parsed source} for every module of the package."""
    package = os.path.dirname(cli.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path) as source:
                trees[path] = ast.parse(source.read())
    return trees


def module_name(path):
    return os.path.basename(path)[:-3]


def decorator_names(node):
    """The bare names of a definition's decorators: `dataclass` for
    `@dataclass(frozen=True)`, `cached_property` for
    `@functools.cached_property`."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        yield target.attr if isinstance(target, ast.Attribute) else target.id


def package_fields(trees):
    """{dotted name: attribute name} for every dataclass field, property and
    cached_property defined in the package."""
    found = {}
    for path, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            is_dataclass = "dataclass" in decorator_names(cls)
            for item in cls.body:
                if is_dataclass and isinstance(item, ast.AnnAssign):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and {"property", "cached_property"} & set(
                    decorator_names(item)
                ):
                    name = item.name
                else:
                    continue
                found[f"{module_name(path)}.{cls.name}.{name}"] = name
    return found


def package_functions():
    """{(file, first line of its code): dotted name} for every function and
    method defined in the package, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path, tree in package_sources().items():
        visit(tree, path, f"{module_name(path)}.")
    return found


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data[1:]]
    return meta, header, rows


class TestSublinearCommand:
    def test_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "sublinear", "--n-list", "4,16")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta[0].startswith("# command=sublinear config_hash=")
        assert "unit=nats" in meta[0]
        assert header == [
            "n",
            "D",
            "ln_sqrt_n",
            "ratio",
            "p_B",
            "alpha_exact",
            "beta_exact",
            "beta_log",
        ]
        first = rows[0]
        assert first["n"] == "4"
        assert float(first["D"]) == pytest.approx(0.130812, abs=1e-6)
        assert float(first["p_B"]) == pytest.approx(0.75)
        assert float(first["beta_log"]) == pytest.approx(0.5 * math.log(4.0))

    def test_bits_conversion(self, capsys):
        _, out_nats, _ = run_cli(capsys, "sublinear", "--n-list", "16")
        _, out_bits, _ = run_cli(capsys, "sublinear", "--n-list", "16", "--unit", "bits")
        row_nats = parse_csv(out_nats)[2][0]
        row_bits = parse_csv(out_bits)[2][0]
        assert float(row_bits["D"]) == pytest.approx(
            units.nats_to_bits(float(row_nats["D"])), rel=1e-10
        )
        # dimensionless columns are untouched
        assert row_bits["ratio"] == row_nats["ratio"]

    def test_check_passes(self, capsys):
        code, _, _ = run_cli(capsys, "sublinear", "--n-list", "4,64,1024", "--check")
        assert code == 0


class TestRateCommand:
    def test_rate_converges(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--n-list", "32,128")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["C_s"]) == pytest.approx(
            -0.5 * math.log(0.75), abs=1e-10
        )
        assert float(rows[1]["abs_err"]) < float(rows[0]["abs_err"])

    def test_degenerate_pair_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cov_p": {"kind": "white"}}))
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("command", ["rate", "typical", "detect"])
    def test_identical_pair_exits_2(self, capsys, tmp_path, command):
        # The kappas of this pair are 1 only up to rounding, so B_n is not
        # exactly 0; C_s is.  rate and detect reject the pair by C_s,
        # typical by the degenerate-pair rule of its LLR form.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cov_q": {"kind": "geometric", "rho": 0.5}}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--n-list", "32,64,96")
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize("command", ["typical", "detect"])
    def test_pair_identical_at_one_n_exits_2(self, capsys, tmp_path, command):
        # The tables differ only at lag 4, so C_s > 0 but T_4 is the same
        # matrix for both, whose whitened B_n is 9.4e-16, not 0.
        table = [3.3, 1.1, 0.7, 0.2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "cov_p": {"kind": "table", "values": table + [0.1]},
                    "cov_q": {"kind": "table", "values": table + [0.05]},
                }
            )
        )
        argv = ["--config", str(cfg), "--n-list", "4,5,6", "--samples", "10000"]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert "identical" in err

    def test_spectral_integral_not_converged_exits_3(self, capsys, monkeypatch, tmp_path):
        # rho = 0.999 needs 65536 grid points.
        monkeypatch.setattr(spectral, "POINTS_MAX", 8192)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cov_p": {"kind": "geometric", "rho": 0.999}}))
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg), "--n-list", "8")
        assert code == 3
        assert out == ""
        assert "not converged on 8192 grid points" in err


class TestTypicalCommand:
    def test_coverage_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "typical", "--n-list", "64", "--samples", "20000", "--eps", "0.1"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["pass"] == "true"
        assert float(rows[0]["p_hat"]) > 0.85

    def test_bits_conversion(self, capsys):
        # B_n^2/2 is the variance of the LLR in nats, so B_n converts with
        # delta_min = (B_n/sqrt(2)) Qinv(eps/2) and their ratio keeps.
        args = ("typical", "--n-list", "64", "--samples", "1000")
        nats = parse_csv(run_cli(capsys, *args)[1])[2][0]
        bits = parse_csv(run_cli(capsys, *args, "--unit", "bits")[1])[2][0]
        for col in ("B_n", "delta_min"):
            assert float(bits[col]) == pytest.approx(float(nats[col]) / units.LN2, rel=1e-10)
        ratio = float(nats["delta_min"]) / float(nats["B_n"])
        assert float(bits["delta_min"]) / float(bits["B_n"]) == pytest.approx(ratio, rel=1e-10)

    @pytest.mark.parametrize(
        "variant, key",
        [("entropy", "cov_p"), ("rel_entropy", "cov_p"), ("rel_entropy", "cov_q")],
        ids=["entropy-p", "rel_entropy-p", "rel_entropy-q"],
    )
    def test_spectrum_not_positive_exits_2(self, capsys, tmp_path, variant, key):
        # As in `rate`: a configuration error before any n, not a factor
        # that fails at n = 3 (exit 3).
        cfg = tmp_path / "cfg.json"
        spec = {"kind": "table", "values": [1.0, 0.999999999999]}
        cfg.write_text(json.dumps({"variant": variant, key: spec}))
        code, out, err = run_cli(capsys, "typical", "--config", str(cfg), "--n-list", "2,3")
        assert code == 2
        assert out == ""
        assert "spectrum is not positive on the grid" in err

    def test_near_pair_prints_every_row(self, capsys, tmp_path):
        # C_s of this pair needs more grid points than the spectral integral
        # allows; typical never reads C_s.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cov_q": {"kind": "geometric", "rho": 0.5001}}))
        argv = ["--config", str(cfg), "--n-list", "32,64", "--samples", "10000", "--check"]
        code, out, err = run_cli(capsys, "typical", *argv)
        assert code == 0, err
        assert [row["n"] for row in parse_csv(out)[2]] == ["32", "64"]

    @pytest.mark.parametrize("variant", ["entropy", "rel_entropy"])
    def test_no_spectral_rate_computed(self, capsys, monkeypatch, tmp_path, variant):
        def refuse(*args, **kwargs):
            raise AssertionError("spectral.stein_rate called")

        monkeypatch.setattr(spectral, "stein_rate", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": variant}))
        argv = ["--config", str(cfg), "--n-list", "32,64", "--samples", "10000", "--check"]
        code, out, _ = run_cli(capsys, "typical", *argv)
        assert code == 0
        assert len(parse_csv(out)[2]) == 2


class TestDetectCommand:
    def test_window_and_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "detect",
            "--n-list",
            "32,64,96",
            "--samples",
            "20000",
            "--check",
        )
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert any("slope=" in line for line in meta)
        for row in rows:
            assert float(row["lower"]) <= float(row["np_beta_log"]) + 1.0
            assert row["in_window"] == "true"

    def test_rows_are_the_result(self, capsys):
        code, out, _ = run_cli(capsys, "detect", "--n-list", "32,64,96", "--samples", "10000")
        assert code == 0
        _, header, rows = parse_csv(out)
        config = cli.DEFAULTS["detect"]
        result = detect.gcsl_experiment(
            cli.covariance_from_spec(config["cov_p"]),
            cli.covariance_from_spec(config["cov_q"]),
            config["tau"],
            [32, 64, 96],
            10_000,
            config["seed"],
        )
        assert header == [field.name for field in dataclasses.fields(detect.GcslRow)]
        assert rows == [
            {key: cli._format_value(value) for key, value in dataclasses.asdict(row).items()}
            for row in result.rows
        ]

    def test_alpha_and_stderr_columns(self, capsys):
        args = ("detect", "--n-list", "32,64,96", "--samples", "10000", "--seed", "4")
        _, out_nats, _ = run_cli(capsys, *args)
        _, out_bits, _ = run_cli(capsys, *args, "--unit", "bits")
        config = dict(cli.DEFAULTS["detect"], ns=[32, 64, 96], samples=10000, seed=4)
        result = detect.gcsl_experiment(
            cli.covariance_from_spec(config["cov_p"]),
            cli.covariance_from_spec(config["cov_q"]),
            config["tau"],
            config["ns"],
            config["samples"],
            config["seed"],
        )
        rows_nats, rows_bits = parse_csv(out_nats)[2], parse_csv(out_bits)[2]
        for r, nats, bits in zip(result.rows, rows_nats, rows_bits):
            for col in ("np_alpha", "ts_alpha", "np_ess", "ts_ess", "np_underflow", "ts_underflow"):
                assert nats[col] == bits[col] == cli._format_value(getattr(r, col))
            assert 1.0 < float(nats["np_ess"]) < 10000 and 1.0 < float(nats["ts_ess"]) < 10000
            assert nats["np_underflow"] == nats["ts_underflow"] == "false"
            for col in ("np_beta_stderr", "ts_beta_stderr"):
                assert nats[col] == cli._format_value(getattr(r, col))
                assert bits[col] == cli._format_value(getattr(r, col) / units.LN2)


# Output of the three runs below.  `detect` prints eight columns after
# `in_window`; the first seven are compared as printed.  The Monte Carlo
# columns (`np_beta_log`, `ts_beta_log`, `p_hat`, `stderr`) and the
# `detect` summary's slope and rel_err were last re-recorded when the
# chunk generator became SFC64; the exact columns did not move, and
# `TestStreamChange` holds the PCG64 values they replaced.  Earlier, they
# moved when every n of a sweep came to read the leading coordinates of
# one coordinate-major stream, drawn once at the largest n, and
# `detect`'s `np_beta_log` and summary when its threshold became exact
# (`detect.np_threshold_exact`); the `entropy` run's config_hash moved
# when that variant stopped taking `cov_q`.
GOLDEN_DETECT = """\
# command=detect config_hash=8e3aa35ecf40 seed=9 unit=nats
# summary: slope=0.121467585039 C_s=0.143841036226 rel_err=0.155542894948
n,D,lower,upper,np_beta_log,ts_beta_log,in_window
32,4.459072123,0.361668525143,9.06730134463,4.01140429089,2.8421121907,true
64,9.06198528223,3.20473535825,15.43006083,7.8245849178,6.14802297015,true
96,13.6648984415,6.46586815257,21.3747543541,11.7853297334,9.62104670772,true
"""
GOLDEN_TYPICAL = {
    "rel_entropy": """\
# command=typical config_hash=543815e0ae62 seed=9 unit=nats
# summary: variant=rel_entropy eps=0.05 delta_factor=1.1
n,B_n,delta_min,p_hat,stderr,pass
16,3.12694383992,4.33364342627,0.9634,0.00187777634451,true
64,6.46357314322,8.95789073815,0.9666,0.00179678713263,true
100,8.1103500404,11.2401651378,0.969,0.00173317627494,true
""",
    "entropy": """\
# command=typical config_hash=4bada8fb4a03 seed=9 unit=nats
# summary: variant=entropy eps=0.05 delta_factor=1.1
n,B_n,delta_min,p_hat,stderr,pass
16,4,5.5436152974,0.967,0.00178636502429,true
64,8,11.0872305948,0.9718,0.00165543831054,true
100,10,13.8590382435,0.9699,0.00170862488569,true
""",
}
DETECT_ADDED = [
    "np_alpha",
    "np_beta_stderr",
    "ts_alpha",
    "ts_beta_stderr",
    "np_ess",
    "ts_ess",
    "np_underflow",
    "ts_underflow",
]


class TestGoldenOutput:
    def test_detect(self, capsys):
        args = ("detect", "--n-list", "32,64,96", "--samples", "10000", "--seed", "9")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out.splitlines()
        assert lines[2].split(",")[7:] == DETECT_ADDED
        recorded = [",".join(line.split(",")[:7]) for line in lines]
        assert "\n".join(recorded) + "\n" == GOLDEN_DETECT

    @pytest.mark.parametrize("variant", ["rel_entropy", "entropy"])
    def test_typical(self, capsys, tmp_path, variant):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": variant}))
        args = ("--config", str(cfg), "--n-list", "16,64,100", "--samples", "10000")
        code, out, _ = run_cli(capsys, "typical", *args, "--seed", "9")
        assert code == 0
        assert out == GOLDEN_TYPICAL[variant]


def summary_of(out):
    """The '# summary:' line of a CSV as a dict of its printed values."""
    (line,) = [line for line in out.splitlines() if line.startswith("# summary: ")]
    return dict(field.split("=") for field in line[len("# summary: "):].split())


class TestSummary:
    @pytest.mark.parametrize("command", list(cli.RUNNERS))
    def test_nat_columns_are_printed(self, capsys, command):
        # A renamed column or key would silently drop out of the bits
        # conversion.
        code, out, _ = run_cli(capsys, command)
        assert code == 0
        _, header, _ = parse_csv(out)
        summary = summary_of(out) if "# summary: " in out else {}
        assert cli.NAT_COLUMNS[command] <= set(header) | set(summary)

    @pytest.mark.parametrize(
        "argv",
        [["rate"], ["detect", "--n-list", "32,64,96", "--samples", "10000"]],
        ids=["rate", "detect"],
    )
    def test_bits_apply_to_the_summary(self, capsys, argv):
        nats = summary_of(run_cli(capsys, *argv)[1])
        bits = summary_of(run_cli(capsys, *argv, "--unit", "bits")[1])
        assert nats.keys() == bits.keys()
        for key, value in nats.items():
            if key in cli.NAT_COLUMNS[argv[0]]:
                assert float(bits[key]) == pytest.approx(float(value) / units.LN2, rel=1e-11)
            else:
                assert bits[key] == value
        # C_s = -ln(1 - 0.5^2) / 2 nats, as the rate study's C_s column prints it.
        assert bits["C_s"] == "0.207518749639"

    def test_typical_echoes_every_digit(self, capsys):
        args = ("--eps", "0.0123456789", "--n-list", "8", "--samples", "1000")
        code, out, _ = run_cli(capsys, "typical", *args)
        assert code == 0
        assert summary_of(out) == {
            "variant": "rel_entropy",
            "eps": "0.0123456789",
            "delta_factor": "1.1",
        }


class TestAsymptoticsCommand:
    def test_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--n-list", "64,256", "--check")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[1]["weak_diff_toeplitz_circulant"]) < float(
            rows[0]["weak_diff_toeplitz_circulant"]
        )

    def test_rows_are_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--n-list", "8,17,64")
        assert code == 0
        _, header, rows = parse_csv(out)
        cov = spectral.CovarianceSequence.geometric(0.5)
        report = spectral.asym_equiv_report(cov, [8, 17, 64])
        assert header == [field.name for field in dataclasses.fields(spectral.EquivalenceRow)]
        assert rows == [
            {key: cli._format_value(value) for key, value in dataclasses.asdict(row).items()}
            for row in report
        ]

    def test_check_fails_above_the_strong_norm_bound(self, capsys, monkeypatch):
        report = spectral.asym_equiv_report

        def tight_bound(cov, ns):
            return [dataclasses.replace(row, abs_sum_bound=1.0) for row in report(cov, ns)]

        monkeypatch.setattr(spectral, "asym_equiv_report", tight_bound)
        code, _, err = run_cli(capsys, "asymptotics", "--n-list", "8,16", "--check")
        assert code == 4
        assert "abs_sum_bound" in err


def data_rows(out):
    """The data lines of a CSV, without its '#' lines and header."""
    return [line for line in out.splitlines() if not line.startswith("#")][1:]


class TestSweepsMatchSingleRuns:
    """A sweep reads every n off one recursion, or one stream of draws, at
    its largest n; each row must be the bytes a run at that n alone prints."""

    @pytest.mark.parametrize("command", ["rate", "asymptotics"])
    def test_rows(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n-list", "3,50,700")
        assert code == 0, err
        singles = []
        for n in ("3", "50", "700"):
            code, single, err = run_cli(capsys, command, "--n-list", n)
            assert code == 0, err
            singles += data_rows(single)
        assert data_rows(out) == singles

    def test_entropy_sets(self, capsys, monkeypatch, tmp_path):
        # Every n of `typical` reads the leading coordinates of one stream
        # drawn at the largest n, so its sets and whole rows, Monte Carlo
        # columns included, are those of the run at that n alone.
        sets = []
        estimate = typicality.mc_typical_probs

        def recorded(specs, samples, seed):
            sets.extend((spec.delta, spec.center, spec.form.offset) for spec in specs)
            return estimate(specs, samples, seed)

        monkeypatch.setattr(typicality, "mc_typical_probs", recorded)
        cfg = tmp_path / "entropy.json"
        cfg.write_text(json.dumps({"variant": "entropy"}))
        argv = ["typical", "--config", str(cfg), "--samples", "1000"]
        code, out, err = run_cli(capsys, *argv, "--n-list", "16,64,100")
        assert code == 0, err
        rows, sweep = data_rows(out), sets.copy()
        sets.clear()
        singles = []
        for n in ("16", "64", "100"):
            code, single, err = run_cli(capsys, *argv, "--n-list", n)
            assert code == 0, err
            singles += data_rows(single)
        assert rows == singles
        assert sweep == sets

    @pytest.mark.parametrize("variant", ["rel_entropy", "entropy"])
    def test_typical_rows(self, capsys, tmp_path, variant):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": variant}))
        argv = ["typical", "--config", str(cfg), "--samples", "10000"]
        code, out, err = run_cli(capsys, *argv, "--n-list", "16,64,100")
        assert code == 0, err
        singles = []
        for n in ("16", "64", "100"):
            code, single, err = run_cli(capsys, *argv, "--n-list", n)
            assert code == 0, err
            singles += data_rows(single)
        assert data_rows(out) == singles

    def test_detect_row_whatever_the_other_ns(self, capsys):
        # `detect` needs three n for its fit, so its rows are compared across
        # two sweeps that share only n = 64.
        rows = []
        for ns in ("32,64,96", "16,64,200"):
            code, out, err = run_cli(capsys, "detect", "--n-list", ns, "--samples", "10000")
            assert code == 0, err
            rows.append([row for row in data_rows(out) if row.startswith("64,")])
        assert len(rows[0]) == 1
        assert rows[0] == rows[1]


def exact_coverages(config):
    """The exact p-probability of each typical set `run_typical(config)`
    measures: P(|offset + Q - center| <= delta), Q = sum coef z^2."""
    cov_p = cli.covariance_from_spec(config["cov_p"])
    eps, factor = config["eps"], config["delta_factor"]
    if config["variant"] == "entropy":
        forms = gaussian.surprisal_forms(cov_p, config["ns"])
    else:
        cov_q = cli.covariance_from_spec(config["cov_q"])
        forms = [
            gaussian.llr_form(gaussian.whiten_toeplitz(cov_p, cov_q, n)) for n in config["ns"]
        ]
    coverages = []
    for form in forms:
        delta = factor * typicality.good_delta(form, eps)
        center = typicality.TypicalSetSpec(form, delta).center
        upper, _ = form.cdf(center + delta)
        lower, _ = form.cdf(center - delta)
        coverages.append(upper - lower)
    return coverages


def typical_config(variant, **changes):
    config = dict(cli.DEFAULTS["typical"], variant=variant, **changes)
    if variant == "entropy":
        del config["cov_q"]
    return config


class TestMonteCarloWithinTolerance:
    """The sweep's common stream must leave every estimate unbiased: at a
    fixed seed and the default 100k samples, each Monte Carlo column lies
    within 4 standard errors of its exact value."""

    SEED = 17

    @pytest.mark.parametrize("variant", ["rel_entropy", "entropy"])
    def test_typical_p_hat_is_the_exact_coverage(self, variant):
        config = typical_config(variant, seed=self.SEED)
        _, rows = cli.run_typical(config)
        for row, n, exact in zip(rows, config["ns"], exact_coverages(config)):
            assert row["n"] == n
            assert abs(row["p_hat"] - exact) <= 4.0 * row["stderr"], row

    def test_detect_np_alpha_is_tau(self):
        config = dict(cli.DEFAULTS["detect"], seed=self.SEED)
        tau, count = config["tau"], config["samples"]
        _, rows = cli.run_detect(config)
        stderr = math.sqrt(tau * (1.0 - tau) / count)
        assert len(rows) == len(config["ns"])
        for row in rows:
            assert abs(row["np_alpha"] - tau) <= 4.0 * stderr, row


class TestStreamChange:
    """The golden runs' Monte Carlo values under the PCG64 chunk generator,
    which SFC64 replaced, each with its standard error.  The two streams
    are independent estimates of one quantity, so each value of the golden
    runs now lies within 3 sqrt(se_old^2 + se_new^2) of its PCG64 value;
    and either stream's values lie within 3 standard errors of the exact
    coverage and level."""

    # The `detect` golden run: per n = 32, 64, 96, (value, stderr) of
    # -ln(beta) and the type-I error of each detector, and the slope.
    PCG64_DETECT = {
        "np_beta_log": [
            (3.97899005437, 0.0171250618966),
            (7.80929784273, 0.0222869949883),
            (11.7801614585, 0.0261825644865),
        ],
        "ts_beta_log": [
            (2.8121010917, 0.0199135490053),
            (6.09665186681, 0.0269966335715),
            (9.61716448076, 0.0310171195832),
        ],
        "np_alpha": [0.2048, 0.1994, 0.2007],
        "ts_alpha": [0.1795, 0.1894, 0.1918],
    }
    PCG64_SLOPE = 0.12189330319
    # The `typical` golden runs: (p_hat, stderr) per n = 16, 64, 100.
    PCG64_TYPICAL = {
        "rel_entropy": [(0.9628, 0.00189251578593), (0.9658, 0.00181742565185), (0.965, 0.00183779759495)],
        "entropy": [(0.9676, 0.00177059989834), (0.973, 0.00162083311911), (0.9703, 0.00169758387127)],
    }
    COUNT = 10_000
    DETECT = dict(cli.DEFAULTS["detect"], ns=[32, 64, 96], samples=COUNT, seed=9)

    @staticmethod
    def close(old, new):
        (value_old, se_old), (value_new, se_new) = old, new
        return abs(value_new - value_old) <= 3.0 * math.hypot(se_old, se_new)

    @classmethod
    def alpha(cls, value):
        return value, math.sqrt(value * (1.0 - value) / cls.COUNT)

    @staticmethod
    def slope_stderr(ns, stderrs):
        # The slope is sum_i w_i y_i with w_i = (n_i - mean n) / sum (n - mean n)^2,
        # whose standard deviation is at most sum_i |w_i| se_i, however the
        # common random numbers correlate the y_i.
        centred = [n - sum(ns) / len(ns) for n in ns]
        return sum(abs(c) * se for c, se in zip(centred, stderrs)) / sum(c * c for c in centred)

    def test_detect(self):
        summary, rows = cli.run_detect(self.DETECT)
        for i, row in enumerate(rows):
            for kind in ("np", "ts"):
                old = self.PCG64_DETECT[f"{kind}_beta_log"][i]
                assert self.close(old, (row[f"{kind}_beta_log"], row[f"{kind}_beta_stderr"])), row
                old = self.alpha(self.PCG64_DETECT[f"{kind}_alpha"][i])
                assert self.close(old, self.alpha(row[f"{kind}_alpha"])), row
        ns = self.DETECT["ns"]
        se_old = self.slope_stderr(ns, [se for _, se in self.PCG64_DETECT["np_beta_log"]])
        se_new = self.slope_stderr(ns, [row["np_beta_stderr"] for row in rows])
        assert self.close((self.PCG64_SLOPE, se_old), (summary["slope"], se_new)), summary

    @pytest.mark.parametrize("variant", ["rel_entropy", "entropy"])
    def test_typical(self, variant):
        config = typical_config(variant, ns=[16, 64, 100], samples=self.COUNT, seed=9)
        _, rows = cli.run_typical(config)
        new = [(row["p_hat"], row["stderr"]) for row in rows]
        old = self.PCG64_TYPICAL[variant]
        assert all(self.close(a, b) for a, b in zip(old, new)), (old, new)
        # Each stream's p_hat is the exact coverage within 3 stderr.
        for values in (old, new):
            for (p_hat, stderr), exact in zip(values, exact_coverages(config)):
                assert abs(p_hat - exact) <= 3.0 * stderr, (variant, p_hat, exact)

    def test_np_alpha_is_tau(self):
        _, rows = cli.run_detect(self.DETECT)
        _, stderr = self.alpha(self.DETECT["tau"])
        for alpha in self.PCG64_DETECT["np_alpha"] + [row["np_alpha"] for row in rows]:
            assert abs(alpha - self.DETECT["tau"]) <= 3.0 * stderr, alpha


class TestPlumbing:
    def test_import_loads_no_scipy(self):
        # Each would add to every run's start-up time, and the package needs
        # numpy alone; scipy and mpmath are the tests' oracles.
        script = (
            "import sys, steinlab.cli; "
            "print(*[m for m in sys.modules if m.startswith(('scipy', 'mpmath'))])"
        )
        assert run_python(script).stdout.split() == []

    def test_studies_run_without_scipy(self):
        # Every study, --check included, with scipy unimportable.
        script = textwrap.dedent(
            f"""
            import contextlib, importlib.abc, io, json, sys

            class NoScipy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"no module named {{name!r}}")

            sys.meta_path.insert(0, NoScipy())
            from steinlab import cli
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in {SMALL_STUDIES!r}]
            print(json.dumps(codes))
            """
        )
        assert json.loads(run_python(script).stdout) == [0] * len(SMALL_STUDIES)

    def test_studies_reach_every_function(self, capsys, tmp_path):
        # Every study, small, in process, with calls traced in this thread
        # and in the draw workers: a function no study reaches is either
        # named in NOT_RUN_BY_STUDIES or belongs with the tests' oracles.
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"cov_p": {"kind": "table", "values": [2.0, 0.5, -0.25]}}))
        entropy = tmp_path / "entropy.json"
        entropy.write_text(json.dumps({"variant": "entropy"}))
        small = ["--samples", "10000", "--check"]
        runs = [
            ["rate", "--n-list", "8,16", "--unit", "bits", "--check"],
            ["typical", "--n-list", "8,16", *small],
            ["typical", "--config", str(entropy), "--n-list", "8,16", *small],
            ["detect", "--n-list", "8,16,24", *small, "--out", str(tmp_path / "detect.csv")],
            ["asymptotics", "--config", str(table), "--n-list", "8,16", "--check"],
            ["sublinear", "--n-list", "4,16", "--check"],
        ]
        reached = set()

        def profile(frame, event, arg):
            if event == "call":
                reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        previous = sys.getprofile(), threading.getprofile()
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in runs]
        finally:
            sys.setprofile(previous[0])
            threading.setprofile(previous[1])
        capsys.readouterr()
        assert codes == [0] * len(runs)
        functions = package_functions()
        assert set(NOT_RUN_BY_STUDIES) <= set(functions.values())
        unreached = {name for key, name in functions.items() if key not in reached}
        assert sorted(unreached - set(NOT_RUN_BY_STUDIES)) == []

    def test_package_reads_every_field(self):
        """A dataclass field, property or cached_property that no code in the
        package loads as an attribute is a result nothing computes with: it
        is named in NOT_READ_BY_NAME with its reader, or it goes.  The check
        goes by name, so a field that shares its name with an attribute read
        anywhere in the package (another class's, or a module's) passes."""
        trees = package_sources()
        fields = package_fields(trees)
        loaded = {
            node.attr
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        owners = {name.rpartition(".")[0] for name in fields}
        assert set(NOT_READ_BY_NAME) <= set(fields) | owners
        unread = [
            name
            for name, attr in fields.items()
            if attr not in loaded
            and name not in NOT_READ_BY_NAME
            and name.rpartition(".")[0] not in NOT_READ_BY_NAME
        ]
        assert unread == []

    def test_deterministic_output(self, capsys):
        args = ("typical", "--n-list", "32", "--samples", "2000", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, "sublinear", "--n-list", "8", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# command=sublinear")

    @pytest.mark.parametrize("name", ["", "missing/result.csv"], ids=["directory", "no-parent"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, name):
        out_path = str(tmp_path / name) if name else str(tmp_path)
        code, out, err = run_cli(capsys, "sublinear", "--n-list", "8", "--out", out_path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write {out_path}")

    def test_unwritable_out_found_before_the_study(self, capsys, monkeypatch, tmp_path):
        def no_draws(*args, **kwargs):
            raise AssertionError("the study ran before --out was checked")

        monkeypatch.setattr(streams, "quadratic_draws", no_draws)
        code, out, err = run_cli(capsys, "detect", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write {tmp_path}")

    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [4, 8], "unit": "bits"}))
        code, out, _ = run_cli(capsys, "sublinear", "--config", str(cfg))
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert "unit=bits" in meta[0]
        assert [r["n"] for r in rows] == ["4", "8"]

    def test_bad_ns_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sublinear", "--n-list", "64,8")
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "ns", [[8.5, 16], [True, 16], ["8", 16], [16.0, 32], 8],
        ids=["fraction", "bool", "string", "float", "scalar"],
    )
    def test_non_integer_ns_exits_2(self, capsys, tmp_path, ns):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": ns}))
        code, out, err = run_cli(capsys, "sublinear", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("typical", "seed", 1.5),
            ("typical", "seed", True),
            ("typical", "seed", -1),
            ("typical", "samples", 20000.9),
            ("typical", "samples", "20000"),
            ("typical", "eps", "0.1"),
            ("typical", "delta_factor", "1.1"),
            ("typical", "delta_factor", math.inf),
            ("typical", "delta_factor", 0),
            ("typical", "delta_factor", -1),
            ("detect", "tau", "0.2"),
            ("detect", "out", 5),
            ("detect", "tau", 1e-10),
        ],
        ids=[
            "seed-fraction", "seed-bool", "seed-negative", "samples-fraction",
            "samples-string", "eps-string", "delta_factor-string", "delta_factor-inf",
            "delta_factor-zero", "delta_factor-negative", "tau-string", "out-number",
            "tau-below-floor",
        ],
    )
    def test_bad_scalar_exits_2(self, capsys, tmp_path, command, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [32, 64, 96], field: value}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "geometric", "rho": "0.5", "scale": 1.0},
            {"kind": "geometric", "rho": 0.5, "scale": True},
            {"kind": "geometric", "rho": math.inf},
            {"kind": "geometric", "rho": 0.5, "scale": 10**400},
            {"kind": "table", "values": ["1", "0.25"]},
            {"kind": "table", "values": []},
            {"kind": "table", "values": 1.0},
            {"kind": "table", "values": [3.0, True]},
            {"kind": "geometric", "rho": 0.5, "sigma": 1.0},
            {"kind": "geometric", "rho": 0.5, "values": [1.0]},
            {"rho": 0.5},
            {"kind": ["white"]},
            "white",
        ],
        ids=[
            "rho-string", "scale-bool", "rho-inf", "scale-beyond-float", "values-strings",
            "values-empty", "values-scalar", "values-bool", "unknown-key", "key-of-other-kind",
            "kind-missing", "kind-not-string", "spec-not-object",
        ],
    )
    def test_bad_covariance_spec_exits_2(self, capsys, tmp_path, spec):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [4, 8], "cov_p": spec}))
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_integer_spec_fields_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "ns": [4, 8],
                    "cov_p": {"kind": "table", "values": [3, 1]},
                    "cov_q": {"kind": "white", "scale": 2},
                }
            )
        )
        code, _, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 0

    @pytest.mark.parametrize(
        "command, key",
        [
            ("rate", "sample"),
            ("asymptotics", "cov_q"),
            ("typical", "variants"),
            ("sublinear", "n"),
            ("rate", "tau"),
            ("asymptotics", "samples"),
            ("sublinear", "eps"),
            ("typical", "tau"),
            ("detect", "eps"),
        ],
        ids=[
            "rate-typo", "asymptotics-cov_q", "typical-typo", "sublinear-typo", "rate-tau",
            "asymptotics-samples", "sublinear-eps", "typical-tau", "detect-eps",
        ],
    )
    def test_unknown_config_key_exits_2(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [4, 8], key: 1000}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "config error" in err
        assert f"unknown config keys for {command}: [{key!r}]" in err

    @pytest.mark.parametrize(
        "cov_q", [{"kind": "white", "scale": 1.0}, {"kind": "bogus"}], ids=["white", "malformed"]
    )
    def test_entropy_variant_rejects_cov_q(self, capsys, tmp_path, cov_q):
        # The entropy-centred set is a set of p alone, so cov_q is unread there.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [4, 8], "variant": "entropy", "cov_q": cov_q}))
        code, out, err = run_cli(capsys, "typical", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys for typical: ['cov_q']" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--n-list", "8", "--tau", "0.2"],
            ["detect", "--n-list", "32,64,96", "--eps", "0.1"],
            ["typical", "--n-list", "32", "--tau", "0.1"],
        ],
        ids=["rate-tau", "detect-eps", "typical-tau"],
    )
    def test_unread_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_each_study_has_only_the_flags_it_reads(self):
        common = {"config", "seed", "n_list", "unit", "out", "check"}
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(cli.DEFAULTS)
        for command, parser in subparsers.items():
            dests = {action.dest for action in parser._actions} - {"help"}
            assert dests <= set(cli.DEFAULTS[command]) | common, command
            assert common <= dests, command
            assert set(cli.DEFAULTS[command]) & {"tau", "eps", "samples"} <= dests, command

    @pytest.mark.parametrize(
        "field, value",
        [("variant", "entropi"), ("delta_factor", 0), ("delta_factor", -1.0)],
        ids=["variant", "delta_factor-zero", "delta_factor-negative"],
    )
    def test_typical_config_errors_found_before_any_work(
        self, capsys, tmp_path, monkeypatch, field, value
    ):
        def no_work(cov, n):
            raise AssertionError("a Toeplitz matrix was built for a bad config")

        monkeypatch.setattr(numlin, "toeplitz_from_cov", no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code, out, err = run_cli(capsys, "typical", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"config error: field {field!r}" in err

    def test_flag_keys_accepted_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ns": [4, 8], "seed": 3}))
        code, out, _ = run_cli(capsys, "asymptotics", "--config", str(cfg), "--seed", "5")
        assert code == 0
        assert "seed=5" in parse_csv(out)[0][0]

    @pytest.mark.parametrize(
        "command, n_list",
        [
            ("asymptotics", "8,8"),
            ("asymptotics", "2"),
            ("rate", "0,4"),
            ("sublinear", "2,4"),
            ("detect", "128,256"),
            # Each item must be decimal digits; int() takes all four below.
            ("rate", "64,,128"),
            ("rate", "64,"),
            ("rate", "1_6,32"),
            ("rate", " 16,32"),
        ],
        ids=[
            "duplicate",
            "asymptotics-below-3",
            "rate-below-1",
            "sublinear-below-3",
            "detect-fewer-than-3",
            "empty-item",
            "trailing-comma",
            "underscore",
            "leading-space",
        ],
    )
    def test_bad_n_list_exits_2(self, capsys, command, n_list):
        code, out, err = run_cli(capsys, command, "--n-list", n_list)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_bad_unit_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unit": "hartleys"}))
        code, _, _ = run_cli(capsys, "sublinear", "--config", str(cfg))
        assert code == 2

    def test_bad_tau_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "detect", "--tau", "0.7", "--n-list", "32,64,96"
        )
        assert code == 2

    def test_missing_config_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--config", "/nonexistent.json")
        assert code == 2

    def test_check_failure_exits_4(self, capsys, tmp_path):
        # a threshold well below the minimal good value undershoots coverage
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "ns": [64],
                    "eps": 0.05,
                    "delta_factor": 0.3,
                    "samples": 20000,
                    "seed": 2,
                }
            )
        )
        code, _, err = run_cli(capsys, "typical", "--config", str(cfg), "--check")
        assert code == 4
        assert "check failed" in err
