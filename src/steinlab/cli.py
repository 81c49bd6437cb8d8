"""Experiment runner CLI.

Subcommands map one-to-one onto the studies the library supports:

    rate         relative-entropy growth vs the spectral rate
    typical      good-threshold coverage of typical sets
    detect       detector error exponents and the analytic sandwich
    asymptotics  Toeplitz/circulant equivalence diagnostics
    sublinear    the closed-form sublinear-KL example

Configuration comes from a JSON file (--config) with flag overrides; output
is CSV with '#'-prefixed metadata lines.  A study takes only the settings it
reads: its config keys are its entry in DEFAULTS plus 'seed' (less 'cov_q'
for the entropy variant of 'typical'), and of --tau, --eps and --samples it
takes those among its keys.  Any other flag or key is rejected with exit 2.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 check
failure (with --check).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import detect, gaussian, spectral, streams, typicality, sublinear, units
from .exceptions import (
    DegeneratePairError,
    IllConditionedSpectraError,
    InvalidDimensionError,
    NumericalFailureError,
    SteinlabError,
)

# `typical` draws its coverage samples from the sub-stream of this key of
# its seed.
COVERAGE_STREAM = 0


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


DEFAULTS: dict[str, dict[str, Any]] = {
    "rate": {
        "cov_p": {"kind": "geometric", "rho": 0.5, "scale": 1.0},
        "cov_q": {"kind": "white", "scale": 1.0},
        "ns": [64, 128, 256, 512],
        "unit": "nats",
        "out": None,
    },
    "typical": {
        "variant": "rel_entropy",
        "cov_p": {"kind": "geometric", "rho": 0.5, "scale": 1.0},
        "cov_q": {"kind": "white", "scale": 1.0},
        "ns": [64, 128, 256],
        "eps": 0.05,
        "delta_factor": 1.1,
        "samples": 100_000,
        "seed": 1,
        "unit": "nats",
        "out": None,
    },
    "detect": {
        "cov_p": {"kind": "geometric", "rho": 0.5, "scale": 1.0},
        "cov_q": {"kind": "white", "scale": 1.0},
        "ns": [32, 64, 96, 128, 160, 192, 224, 256],
        "tau": 0.2,
        "samples": 100_000,
        "seed": 1,
        "unit": "nats",
        "out": None,
    },
    "asymptotics": {
        "cov_p": {"kind": "geometric", "rho": 0.5, "scale": 1.0},
        "ns": [64, 128, 256, 512],
        "unit": "nats",
        "out": None,
    },
    "sublinear": {
        "ns": [4, 16, 64, 256, 1024, 4096],
        "unit": "nats",
        "out": None,
    },
}

# Columns and summary keys whose values are in nats; divided by ln 2 under
# --unit bits.
NAT_COLUMNS: dict[str, set[str]] = {
    "rate": {"D", "D_over_n", "C_s", "abs_err", "final_abs_err"},
    "typical": {"B_n", "delta_min"},
    "detect": {
        "D",
        "lower",
        "upper",
        "np_beta_log",
        "ts_beta_log",
        "np_beta_stderr",
        "ts_beta_stderr",
        "slope",
        "C_s",
    },
    "asymptotics": {"eigavg_log", "spectral_log"},
    "sublinear": {"D", "ln_sqrt_n", "beta_log"},
}


# The keys each covariance kind takes besides 'kind'.
SPEC_KEYS = {"white": {"scale"}, "geometric": {"rho", "scale"}, "table": {"values"}}


def _is_number(value) -> bool:
    # type() rather than isinstance(): bool is a subclass of int.  An int is
    # finite, and math.isfinite cannot take one too large for a float.
    return type(value) is int or (type(value) is float and math.isfinite(value))


def covariance_from_spec(spec: dict) -> spectral.CovarianceSequence:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in list(SPEC_KEYS) or not set(spec) <= SPEC_KEYS[kind] | {"kind"}:
        raise ConfigError(f"bad covariance spec {spec!r}: keys by kind are {SPEC_KEYS}")
    try:
        if kind == "white":
            return spectral.CovarianceSequence.white(spec.get("scale", 1.0))
        if kind == "geometric":
            return spectral.CovarianceSequence.geometric(spec["rho"], spec.get("scale", 1.0))
        return spectral.CovarianceSequence.from_table(spec["values"])
    except (KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad covariance spec {spec!r}: {exc}") from exc


def _validate(config: dict) -> None:
    ns = config.get("ns")
    # type() rather than isinstance(): bool is a subclass of int.
    if not isinstance(ns, list) or not ns or any(type(n) is not int for n in ns):
        raise ConfigError(f"field 'ns': must be a non-empty list of integers, got {ns}")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"field 'ns': must be strictly ascending, got {ns}")
    for key in ("seed", "samples"):
        if key in config and type(config[key]) is not int:
            raise ConfigError(f"field {key!r}: must be an integer, got {config[key]!r}")
    for key in ("tau", "eps", "delta_factor"):
        if key in config and not _is_number(config[key]):
            raise ConfigError(f"field {key!r}: must be a finite number, got {config[key]!r}")
    if config.get("seed", 0) < 0:
        raise ConfigError(f"field 'seed': must be >= 0, got {config['seed']}")
    for key in ("tau", "eps"):
        if key in config and not 0.0 < config[key] < 1.0:
            raise ConfigError(f"field {key!r}: must lie in (0, 1), got {config[key]}")
    if config.get("tau", 0.0) >= 0.5:
        raise ConfigError(f"field 'tau': must be < 0.5, got {config['tau']}")
    if config.get("tau", 1.0) < detect.TAU_MIN:
        raise ConfigError(f"field 'tau': must be >= {detect.TAU_MIN:g}, got {config['tau']}")
    if config.get("samples", 1000) < 1000:
        raise ConfigError(f"field 'samples': must be >= 1000, got {config['samples']}")
    if config.get("unit") not in ("nats", "bits"):
        raise ConfigError(f"field 'unit': must be 'nats' or 'bits', got {config.get('unit')}")
    if config.get("variant", "entropy") not in ("entropy", "rel_entropy"):
        raise ConfigError(
            f"field 'variant': must be 'entropy' or 'rel_entropy', got {config['variant']!r}"
        )
    if config.get("delta_factor", 1.0) <= 0.0:
        raise ConfigError(f"field 'delta_factor': must be > 0, got {config['delta_factor']}")
    if config.get("out") is not None and not isinstance(config["out"], str):
        raise ConfigError(f"field 'out': must be a path, got {config['out']!r}")


def run_rate(config: dict) -> tuple[dict, list[dict]]:
    cov_p = covariance_from_spec(config["cov_p"])
    cov_q = covariance_from_spec(config["cov_q"])
    rate = spectral.stein_rate(cov_p, cov_q)
    if rate == 0.0:
        raise ConfigError("cov_p and cov_q induce identical spectra (degenerate pair)")
    rows = []
    for n, kl in zip(config["ns"], gaussian.kl_toeplitz(cov_p, cov_q, config["ns"])):
        rows.append(
            {
                "n": n,
                "D": kl,
                "D_over_n": kl / n,
                "C_s": rate,
                "abs_err": abs(kl / n - rate),
            }
        )
    return {"C_s": rate, "final_abs_err": rows[-1]["abs_err"]}, rows


def run_typical(config: dict) -> tuple[dict, list[dict]]:
    eps = config["eps"]
    factor = config["delta_factor"]
    samples = config["samples"]
    seed = config["seed"]
    variant = config["variant"]
    cov_p = covariance_from_spec(config["cov_p"])
    covs = (cov_p,) if variant == "entropy" else (cov_p, covariance_from_spec(config["cov_q"]))
    # A spectrum not positive on the grid is a config error before any n
    # can fail to factor; `llr_form` rejects a pair identical at some n.
    # Then every set's statistic, then every draw (see `streams`); a form
    # keeps only its coefficient vector and offset, not the matrices.
    spectral.check_spectra(covs)
    if variant == "entropy":
        forms = gaussian.surprisal_forms(cov_p, config["ns"])
    else:
        forms = [gaussian.llr_form(gaussian.whiten_toeplitz(*covs, n)) for n in config["ns"]]
    delta_mins = [typicality.good_delta(form, eps) for form in forms]
    specs = [typicality.TypicalSetSpec(form, factor * d) for form, d in zip(forms, delta_mins)]
    estimates = typicality.mc_typical_probs(
        specs, samples, streams.derive_seed(seed, COVERAGE_STREAM)
    )
    rows = []
    for n, form, delta_min, mc in zip(config["ns"], forms, delta_mins, estimates):
        rows.append(
            {
                "n": n,
                "B_n": form.scale,
                "delta_min": delta_min,
                "p_hat": mc.estimate,
                "stderr": mc.stderr,
                "pass": mc.estimate >= 1.0 - eps - 3.0 * mc.stderr,
            }
        )
    return {"variant": variant, "eps": eps, "delta_factor": factor}, rows


def run_detect(config: dict) -> tuple[dict, list[dict]]:
    cov_p = covariance_from_spec(config["cov_p"])
    cov_q = covariance_from_spec(config["cov_q"])
    result = detect.gcsl_experiment(
        cov_p,
        cov_q,
        config["tau"],
        config["ns"],
        config["samples"],
        config["seed"],
    )
    summary = {"slope": result.slope, "C_s": result.stein_rate, "rel_err": result.slope_rel_err}
    return summary, [dataclasses.asdict(row) for row in result.rows]


def run_asymptotics(config: dict) -> tuple[dict, list[dict]]:
    report = spectral.asym_equiv_report(covariance_from_spec(config["cov_p"]), config["ns"])
    return {}, [dataclasses.asdict(row) for row in report]


def run_sublinear(config: dict) -> tuple[dict, list[dict]]:
    rows = []
    for n in config["ns"]:
        kl = sublinear.sub_kl(n)
        errors = sublinear.exact_error_pair(n)
        rows.append(
            {
                "n": n,
                "D": kl,
                "ln_sqrt_n": 0.5 * math.log(n),
                "ratio": kl / (0.5 * math.log(n)),
                "p_B": sublinear.sub_typical_lb(n),
                "alpha_exact": errors.alpha,
                "beta_exact": errors.beta,
                "beta_log": errors.beta_log,
            }
        )
    return {}, rows


RUNNERS = {
    "rate": run_rate,
    "typical": run_typical,
    "detect": run_detect,
    "asymptotics": run_asymptotics,
    "sublinear": run_sublinear,
}


def run_check(command: str, rows: list[dict]) -> None:
    """Built-in pass/fail assertions, one family per subcommand."""
    if command == "rate":
        if len(rows) >= 2 and not rows[-1]["abs_err"] < rows[0]["abs_err"]:
            raise CheckFailure("abs_err did not decrease with n")
    elif command == "typical":
        failed = [r["n"] for r in rows if not r["pass"]]
        if failed:
            raise CheckFailure(f"coverage check failed at n={failed}")
    elif command == "detect":
        failed = [r["n"] for r in rows if not r["in_window"]]
        if failed:
            raise CheckFailure(f"exponent left the analytic window at n={failed}")
    elif command == "asymptotics":
        for r in rows:
            # C attains the bound once n covers every lag; its FFT eigenvalues
            # and abs_sum are different sums of the same terms, so allow 1e-12.
            bound = r["abs_sum_bound"] * (1.0 + 1e-12)
            if max(r["strong_toeplitz"], r["strong_circulant"]) > bound:
                raise CheckFailure(f"a strong norm exceeded abs_sum_bound at n={r['n']}")
        if len(rows) >= 2:
            first, last = rows[0], rows[-1]
            if not last["weak_diff_toeplitz_circulant"] < first["weak_diff_toeplitz_circulant"]:
                raise CheckFailure("weak-norm difference did not decrease")
            for key in ("eigavg_x", "eigavg_log", "eigavg_inv"):
                target = last[key.replace("eigavg", "spectral")]
                if not abs(last[key] - target) <= abs(first[key] - target) + 1e-12:
                    raise CheckFailure(f"{key} did not approach its spectral integral")
    elif command == "sublinear":
        if len(rows) >= 2 and not abs(rows[-1]["ratio"] - 1.0) < abs(rows[0]["ratio"] - 1.0):
            raise CheckFailure("D / ln(sqrt n) did not approach 1")


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def render_csv(command: str, config: dict, summary: dict, rows: list[dict]) -> str:
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:12]
    seed = config.get("seed", "none")
    lines = [f"# command={command} config_hash={digest} seed={seed} unit={config['unit']}"]
    nat_keys = NAT_COLUMNS[command] if config["unit"] == "bits" else set()

    def cell(key, value):
        return _format_value(units.nats_to_bits(float(value)) if key in nat_keys else value)

    if summary:
        lines.append("# summary: " + " ".join(f"{k}={cell(k, v)}" for k, v in summary.items()))
    if rows:
        columns = list(rows[0])
        lines.append(",".join(columns))
        lines.extend(",".join(cell(col, row[col]) for col in columns) for row in rows)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinlab", description="Run error-exponent experiments and emit CSV."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--n-list", metavar="N1,N2,...", help="comma-separated n values")
        # Only the scalars this study reads get a flag.
        for key, kind in (("tau", float), ("eps", float), ("samples", int)):
            if key in DEFAULTS[name]:
                p.add_argument(f"--{key}", type=kind)
        p.add_argument("--unit", choices=["nats", "bits"])
        p.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
        p.add_argument("--check", action="store_true", help="run built-in checks")
    return parser


def merge_config(args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS[args.command])
    loaded = {}
    if args.config:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    # The entropy-centred typical set is a set of p alone: it reads no cov_q.
    if "variant" in config and loaded.get("variant") == "entropy":
        del config["cov_q"]
    # 'seed' is echoed in the CSV header, so every study takes it.
    keys = set(config) | {"seed"}
    unknown = set(loaded) - keys
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    config.update(loaded)
    if args.n_list is not None:
        items = args.n_list.split(",")
        if not all(item.isascii() and item.isdigit() for item in items):
            raise ConfigError(f"bad --n-list {args.n_list!r}: items must be decimal digits")
        config["ns"] = [int(item) for item in items]
    for key, value in vars(args).items():
        if key in keys and value is not None:
            config[key] = value
    _validate(config)
    return config


def _check_writable(path: str) -> None:
    """Reject an output path that the write would fail on, before the study
    runs: a directory, or a file whose directory is missing or read-only."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {reason}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = merge_config(args)
        if config.get("out"):
            _check_writable(config["out"])
        summary, rows = RUNNERS[args.command](config)
        text = render_csv(args.command, config, summary, rows)
        if config.get("out"):
            try:
                with open(config["out"], "w") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {config['out']}: {exc}") from exc
        else:
            sys.stdout.write(text)
        if args.check:
            run_check(args.command, rows)
    # Dimensions come only from 'ns', so the library's dimension checks reject a config.
    except (ConfigError, DegeneratePairError, InvalidDimensionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, IllConditionedSpectraError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except SteinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
