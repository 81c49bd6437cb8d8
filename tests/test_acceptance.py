"""End-to-end acceptance checks, one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  All tolerances are frozen; sampling sizes keep the whole
suite under a few minutes on a laptop.
"""

import math

import numpy as np
import pytest

from steinlab import detect, gaussian, numlin, spectral, sublinear, typicality, units

GEO_HALF = spectral.CovarianceSequence.geometric(0.5)
WHITE = spectral.CovarianceSequence.white()
C_S = -0.5 * math.log(0.75)  # exact spectral rate for rho=0.5 vs unit white


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def toeplitz_pair(n: int) -> gaussian.HypothesisPair:
    return gaussian.whiten(numlin.toeplitz_from_cov(GEO_HALF, n), np.eye(n))


def test_criterion_01_circulant_eigenvalue_identity():
    covs = [WHITE] + [spectral.CovarianceSequence.geometric(r) for r in (0.3, 0.5, 0.8)]
    worst = 0.0
    for cov in covs:
        for n in (8, 64, 256):
            from_matrix = numlin.eig_sym(numlin.circulant_from_cov(cov, n)).eigenvalues
            from_formula = np.sort(spectral.circulant_eigs(cov, n))
            worst = max(worst, float(np.max(np.abs(from_matrix - from_formula))))
    report(1, f"circulant eigenvalues match partial-sum formula (max dev {worst:.2e})", worst < 1e-8)


def test_criterion_02_kl_rate_convergence():
    errs = {}
    for n in (64, 512):
        kl = gaussian.kl_gaussian(numlin.toeplitz_from_cov(GEO_HALF, n), np.eye(n))
        errs[n] = abs(kl / n - C_S)
    ok = errs[512] < 0.02 and errs[512] < errs[64]
    report(2, f"KL/n -> C_s (err {errs[64]:.4f} @64 -> {errs[512]:.4f} @512)", ok)


def test_criterion_03_eigenvalue_functional_limits():
    eigs = numlin.eig_sym(numlin.toeplitz_from_cov(GEO_HALF, 512)).eigenvalues
    devs = []
    for func in (lambda x: x, np.log, lambda x: 1.0 / x):
        target = spectral.spectral_integral(func, GEO_HALF)
        devs.append(abs(spectral.eig_functional_avg(func, eigs) - target))
    ok = max(devs) <= 0.01
    report(3, f"Toeplitz eigenvalue averages near spectral integrals (max dev {max(devs):.4f})", ok)


def test_criterion_04_weak_norm_decay():
    norms = {
        n: numlin.weak_norm(
            numlin.toeplitz_from_cov(GEO_HALF, n) - numlin.circulant_from_cov(GEO_HALF, n)
        )
        for n in (128, 512)
    }
    ratio = norms[512] / norms[128]
    ok = 0.35 <= ratio <= 0.65
    report(4, f"Toeplitz-circulant weak norm decays like 1/sqrt(n) (ratio {ratio:.3f})", ok)


def test_criterion_05_good_threshold_coverage():
    n, eps, count = 256, 0.05, 100_000
    checks = []

    model = gaussian.model_from_cov(np.eye(n))
    delta_white = typicality.good_delta_white_gaussian(n, eps)
    mc = typicality.mc_typical_prob(
        typicality.TypicalSetSpec.entropy(model, delta_white), count, seed=101
    )
    checks.append(mc.estimate >= 1.0 - eps - 3.0 * mc.stderr)

    pair = toeplitz_pair(n)
    delta_corr = typicality.good_delta_correlated(pair, eps)
    mc = typicality.mc_typical_prob(
        typicality.TypicalSetSpec.relative_entropy(pair, delta_corr), count, seed=102
    )
    checks.append(mc.estimate >= 1.0 - eps - 3.0 * mc.stderr)

    mc_half = typicality.mc_typical_prob(
        typicality.TypicalSetSpec.relative_entropy(pair, 0.5 * delta_corr), count, seed=103
    )
    checks.append(mc_half.estimate < 1.0 - eps - 3.0 * mc_half.stderr)

    report(
        5,
        "minimal thresholds give eps-coverage, half thresholds do not "
        f"(last coverage {mc_half.estimate:.3f})",
        all(checks),
    )


def test_criterion_06_exponent_sandwich():
    tau = eps = 0.2
    count = 100_000
    ok = True
    details = []
    for i, n in enumerate((64, 128, 256)):
        pair = toeplitz_pair(n)
        delta = typicality.good_delta_correlated(pair, tau)
        window = detect.stein_bounds(pair.kl, delta, delta, eps, tau)
        det = detect.np_calibrate(pair, tau, count, seed=200 + 2 * i)
        est = detect.estimate_beta_is(det, pair, count, seed=201 + 2 * i)
        margin = 3.0 * est.stderr_beta_log
        ok &= window.exp_lower - margin <= est.beta_log <= window.exp_upper + margin
        details.append(f"{n}:{est.beta_log:.2f}in[{window.exp_lower:.2f},{window.exp_upper:.2f}]")
    report(6, "measured -ln(beta) inside the analytic sandwich (" + " ".join(details) + ")", ok)


def test_criterion_07_exponent_slope():
    result = detect.gcsl_experiment(
        GEO_HALF, WHITE, tau=0.2, ns=list(range(32, 257, 32)), count=100_000, seed=7
    )
    ok = result.slope_rel_err < 0.15
    report(
        7,
        f"fitted exponent slope {result.slope:.4f} within 15% of C_s {C_S:.4f} "
        f"(rel err {result.slope_rel_err:.3f})",
        ok,
    )


def test_criterion_08_importance_sampling_oracle():
    pair = gaussian.diagonal_pair(np.linspace(2.2, 0.6, 8))
    count = 1_000_000
    det = detect.NpThreshold(0.0)
    est = detect.estimate_beta_is(det, pair, count, seed=301)
    llrs_q = detect.sample_llr(pair, count, seed=302, under="q")
    direct = float(np.mean(det.contains(llrs_q)))
    se_direct = math.sqrt(direct * (1.0 - direct) / count)
    se_is = est.beta_hat * est.stderr_beta_log
    joint = math.hypot(se_direct, se_is)
    gap = abs(est.beta_hat - direct)
    report(
        8,
        f"importance sampling matches direct q-sampling (gap {gap:.2e}, 3se {3 * joint:.2e})",
        gap < 3.0 * joint,
    )


def test_criterion_09_clt_of_llr_fluctuation():
    count = 100_000
    result = typicality.clt_psi_check(toeplitz_pair(512), count, seed=401)
    ok = (
        result.ks_distance < 0.02
        and abs(result.mean) < 5.0 / math.sqrt(count)
        and abs(result.variance - 1.0) < 0.05
    )
    report(
        9,
        f"normalized LLR fluctuation is near-normal (KS {result.ks_distance:.4f}, "
        f"mean {result.mean:.4f}, var {result.variance:.4f})",
        ok,
    )


def test_criterion_10_sublinear_example():
    checks = [abs(sublinear.sub_kl(4) - 0.130812) < 1e-6]
    ratio = sublinear.sub_kl(10**6) / (0.5 * math.log(10**6))
    checks.append(0.99 <= ratio <= 1.01)
    for n in (10, 1000):
        checks.append(sublinear.sub_typical_lb(n) == 1.0 - 1.0 / n)
        errors = sublinear.exact_error_pair(n)
        checks.append(errors.beta_log == pytest.approx(0.5 * math.log(n), abs=1e-12))
        # -ln(beta) tracks the divergence within a bounded sandwich width
        width = detect.stein_bounds(sublinear.sub_kl(n), 1.0, 1.0, 0.2, 0.2)
        checks.append(abs(errors.beta_log - sublinear.sub_kl(n)) <= width.exp_upper - width.exp_lower)
    report(10, f"closed-form sublinear example (ratio at n=1e6: {ratio:.4f})", all(checks))


def test_criterion_11_unit_discipline_and_invariance():
    values = [1e-9, 0.1, 1.0, 123.456, 1e6]
    roundtrip_ok = all(
        abs(units.bits_to_nats(units.nats_to_bits(v)) - v) <= 1e-12 * max(1.0, v)
        for v in values
    )

    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (4, 16, 64):
        a = rng.standard_normal((n, n))
        cov_p = a @ a.T + n * np.eye(n)
        b = rng.standard_normal((n, n))
        cov_q = b @ b.T + n * np.eye(n)
        base = gaussian.kl_gaussian(cov_p, cov_q)
        m = gaussian.whiten(cov_p, cov_q).whitener
        mapped = gaussian.kl_gaussian(
            numlin.symmetrize(m @ cov_p @ m.T), numlin.symmetrize(m @ cov_q @ m.T)
        )
        worst = max(worst, abs(mapped - base))
    report(
        11,
        f"nats/bits round-trip exact; KL invariant under whitening (max dev {worst:.2e})",
        roundtrip_ok and worst < 1e-8,
    )
