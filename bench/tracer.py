"""Span tracer for the steinlab benchmark, installed from outside the package.

`Tracer` replaces the module (or class) attributes of the public functions
listed in `TARGETS` with timing wrappers and puts the originals back on exit.
Because the package calls its own functions through module attributes
(`numlin.eig_sym`, `streams.standard_normal_chunks`) or module globals, calls
made inside the package are traced too.

Each call records a span (name, start, end, parent, size) in memory.  The
chunk generator `streams.standard_normal_chunks` records one span per
`next()`, sized by the number of normals in the block.  `layer_metrics`
reduces the spans of one pass to the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute path, size of the work as a function of the arguments).
# Attributes a later version of the package no longer has are skipped; their
# metrics then read 0.
TARGETS = [
    ("cli", "main", None),
    ("detect", "gcsl_experiment", None),
    ("detect", "np_calibrate", None),
    ("detect", "estimate_beta_is", None),
    ("gaussian", "whiten", None),
    ("gaussian", "model_from_cov", None),
    ("gaussian", "kl_gaussian", None),
    ("gaussian", "log_density_batch", lambda args: len(args[1])),
    ("typicality", "mc_typical_prob", None),
    ("typicality", "good_delta_correlated", None),
    ("typicality", "good_delta_white_gaussian", None),
    ("numlin", "eig_sym", lambda args: len(args[0]) ** 3),
    ("numlin", "mat_sqrt_pair", None),
    ("numlin", "symmetrize", None),
    ("numlin", "toeplitz_from_cov", None),
    ("numlin", "banded_from_cov", None),
    ("numlin", "circulant_from_cov", None),
    ("numlin", "weak_norm", None),
    ("numlin", "strong_norm", None),
    ("spectral", "Spectrum.from_covariance", None),
    ("spectral", "Spectrum.__call__", None),
    ("spectral", "stein_rate", None),
    ("spectral", "bn_limit", None),
    ("spectral", "spectral_integral", None),
]
CHUNKS = "streams.standard_normal_chunks"

# Per-layer metric -> (reduction, span names).  "_s" metrics sum inclusive
# span time, "_self_s" metrics sum self time (duration minus child spans).
LAYER_METRICS = {
    "streams.normal_s": ("total", [CHUNKS]),
    "streams.normals": ("size", [CHUNKS]),
    "streams.chunks": ("calls", [CHUNKS]),
    "detect.calibrate_self_s": ("self", ["detect.np_calibrate"]),
    "detect.beta_is_self_s": ("self", ["detect.estimate_beta_is"]),
    "detect.experiment_self_s": ("self", ["detect.gcsl_experiment"]),
    "gaussian.density_s": ("total", ["gaussian.log_density_batch"]),
    "gaussian.density_rows": ("size", ["gaussian.log_density_batch"]),
    "typicality.mc_self_s": ("self", ["typicality.mc_typical_prob"]),
    "typicality.threshold_s": (
        "total",
        ["typicality.good_delta_correlated", "typicality.good_delta_white_gaussian"],
    ),
    "numlin.eig_s": ("total", ["numlin.eig_sym"]),
    "numlin.eig_calls": ("calls", ["numlin.eig_sym"]),
    "numlin.eig_n3": ("size", ["numlin.eig_sym"]),
    "numlin.sqrt_pair_self_s": ("self", ["numlin.mat_sqrt_pair"]),
    "numlin.symmetrize_s": ("total", ["numlin.symmetrize"]),
    "gaussian.kl_self_s": ("self", ["gaussian.kl_gaussian"]),
    "gaussian.whiten_self_s": ("self", ["gaussian.whiten"]),
    "gaussian.whiten_calls": ("calls", ["gaussian.whiten"]),
    "gaussian.model_self_s": ("self", ["gaussian.model_from_cov"]),
    "spectral.spectrum_s": (
        "total",
        ["spectral.Spectrum.from_covariance", "spectral.Spectrum.__call__"],
    ),
    "spectral.spectrum_calls": (
        "calls",
        ["spectral.Spectrum.from_covariance", "spectral.Spectrum.__call__"],
    ),
    "spectral.rate_s": ("total", ["spectral.stein_rate", "spectral.bn_limit"]),
    "spectral.integral_s": ("total", ["spectral.spectral_integral"]),
    "numlin.build_s": (
        "total",
        ["numlin.toeplitz_from_cov", "numlin.banded_from_cov", "numlin.circulant_from_cov"],
    ),
    "numlin.norm_s": ("total", ["numlin.weak_norm", "numlin.strong_norm"]),
    "cli.self_s": ("self", ["cli.main"]),
}
UNITS = {"_s": "s", "_ratio": "ratio"}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _resolve(owner, path: str):
    """Return (object holding the attribute, attribute name)."""
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager that traces the steinlab layers while it is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, size, key]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, size_of in TARGETS:
                module = importlib.import_module(f"steinlab.{module_name}")
                try:
                    owner, attr = _resolve(module, path)
                    raw = owner.__dict__[attr]
                except (AttributeError, KeyError):
                    continue
                name = f"{module_name}.{path}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, size_of))
                else:
                    new = self._wrap(name, raw, size_of)
                self._install(owner, attr, raw, new)
            streams = importlib.import_module("steinlab.streams")
            raw = streams.__dict__.get("standard_normal_chunks")
            if raw is not None:
                self._install(streams, "standard_normal_chunks", raw, self._wrap_chunks(raw))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, owner, attr, raw, new) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn, size_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      size_of(args) if size_of else 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _wrap_chunks(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(seed, count, dim):
            blocks = fn(seed, count, dim)
            index = 0
            while True:
                start = perf_counter()
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                spans.append([CHUNKS, start, perf_counter(), stack[-1] if stack else -1,
                              block.size, (int(seed), index, int(dim))])
                index += 1
                yield block

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, size, key in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for i, (name, start, end, parent, size, key) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + size
    tables = {"total": total, "self": self_time, "calls": calls, "size": sizes}
    out = {
        metric: sum(tables[kind].get(name, 0) for name in names)
        for metric, (kind, names) in LAYER_METRICS.items()
    }

    chunks = [s for s in spans if s[0] == CHUNKS]
    distinct = len({s[5] for s in chunks})
    # No chunk drawn means no chunk drawn twice.
    out["streams.distinct_chunk_ratio"] = distinct / len(chunks) if chunks else 1.0
    out["detect.draws"] = sum(
        s[4] // s[5][2] for s in chunks if _has_ancestor(spans, s[3], "detect.")
    )
    return out


def _has_ancestor(spans: list[list], index: int, prefix: str) -> bool:
    while index >= 0:
        if spans[index][0].startswith(prefix):
            return True
        index = spans[index][3]
    return False
