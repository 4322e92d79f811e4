"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Every tolerance is pinned here, not computed; Monte Carlo criteria use fixed
seeds so outcomes are reproducible bit for bit.
"""

import time

import numpy as np
import pytest

import quantlab.blockquant as bq
import quantlab.codebook as qc
import quantlab.distributions as qd
import quantlab.montecarlo as qmc


def _check(number, budget_s, started, ok, detail):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed <= budget_s else "FAIL"
    print(f"[criterion {number:2d}] {status} ({elapsed:6.1f}s / {budget_s:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed <= budget_s, (
        f"criterion {number}: exceeded runtime budget "
        f"({elapsed:.1f}s > {budget_s:.0f}s)"
    )


def test_criterion_01_nf4_anchor_and_variant_gap():
    t0 = time.perf_counter()
    delta = 0.5 * (1 / 32 + 1 / 30)
    extreme = qd.normal_quantile(1.0 - delta)
    a = qc.nf4_code("quantile_of_average").values
    b = qc.nf4_code("average_of_quantile").values
    gap = float(np.abs(a - b).max())
    ok = abs(extreme - 1.848) <= 0.001 and gap < 0.001
    _check(1, 1.0, t0, ok,
           f"extreme quantile {extreme:.6f} (want 1.848 +/- 0.001), "
           f"variant gap {gap:.2e} (< 0.001)")


def test_criterion_02_absmax_median():
    t0 = time.perf_counter()
    value = qd.absmax_median(4096)
    ok = abs(value - 3.76) <= 0.01
    _check(2, 1.0, t0, ok, f"absmax_median(4096) = {value:.6f} (want 3.76 +/- 0.01)")


def test_criterion_03_tail_fraction():
    t0 = time.perf_counter()
    tail = 1.0 - qd.trunc_normal_cdf(0.65 * 3.76, 3.76)
    ok = abs(tail - 0.007) <= 0.0005
    _check(3, 1.0, t0, ok, f"tail fraction {tail:.6f} (want 0.007 +/- 0.0005)")


def test_criterion_04_cdf_anchors_with_monte_carlo():
    t0 = time.perf_counter()
    approx = qd.fx_cdf_approx(0.5, 32)
    exact = qd.fx_cdf(0.5, 32)
    cfg = qmc.McConfig(seed=20240404, block_size=32, num_blocks=1 << 24)
    (estimate,), (stderr,) = qmc.empirical_cdf_stream(cfg, [0.5])
    ok = (
        abs(approx - 0.8712) <= 0.0005
        and abs(estimate - 0.8728) <= 0.001
        and abs(estimate - exact) <= 4 * stderr
    )
    _check(4, 120.0, t0, ok,
           f"approx {approx:.6f} (0.8712 +/- 0.0005); "
           f"MC {estimate:.6f} +/- {stderr:.1e} over 2^24 retained samples "
           f"(0.8728 +/- 0.001); |MC - exact {exact:.6f}| = "
           f"{abs(estimate - exact):.2e} <= {4 * stderr:.2e}")


def test_criterion_05_nf4_usage_nonuniform():
    t0 = time.perf_counter()
    cfg = qmc.McConfig(seed=51, block_size=64, num_blocks=1 << 20)
    props, _ = qmc.usage_statistics(cfg, qc.nf4_code())
    ok = props.min() < 0.04 and props.max() > 0.07
    _check(5, 120.0, t0, ok,
           f"NF4 usage at B=64 over 2^20 blocks: min {props.min():.4f} (< 0.04), "
           f"max {props.max():.4f} (> 0.07)")


def test_criterion_06_balanced_uniformity():
    t0 = time.perf_counter()
    B = 4096
    nblocks = 1 << 12
    bins = qc.uniform_bins(B)
    lo, hi = qc.feasible_seed_interval(bins)
    balanced = qc.balanced_code(0.5 * (lo + hi), bins, block_size=B)
    cfg = qmc.McConfig(seed=61, block_size=B, num_blocks=nblocks)
    props, stderr = qmc.usage_statistics(cfg, balanced)
    dev = np.abs(props - 0.0625)
    uniform_ok = bool(np.all(dev <= 4 * stderr))

    endpoints = qc.balanced_code_with_endpoints(B)
    props_end, _ = qmc.usage_statistics(cfg, endpoints)
    dev_end = np.abs(props_end - 0.0625)
    less_uniform = float(dev_end.max()) > float(dev.max())
    ok = uniform_ok and less_uniform
    _check(6, 120.0, t0, ok,
           f"balanced max |p - 6.25%| = {dev.max():.2e} "
           f"(all within 4 stderr: {uniform_ok}); with endpoints "
           f"max deviation {dev_end.max():.2e} (strictly larger: {less_uniform})")


AF4_BLOCK_SIZES = (32, 64, 256, 1024, 4096)


def test_criterion_07_af4_stationarity_and_optimality():
    t0 = time.perf_counter()
    worst = 0.0
    opt_ok = True
    interior = list(range(1, 7)) + list(range(8, 15))
    for B in AF4_BLOCK_SIZES:
        code = qc.af4_code(B)
        worst = max(worst, float(qc.median_condition_residuals(code, B).max()))
        base = qc.expected_l1(code, B)
        for j in interior:
            for eps in (-1e-3, 1e-3):
                vals = np.array(code.values)
                vals[j] += eps
                if qc.expected_l1(qc.Code16(vals), B) < base - 1e-9:
                    opt_ok = False
    ok = worst < 1e-6 and opt_ok
    _check(7, 120.0, t0, ok,
           f"max median-condition residual over B in {AF4_BLOCK_SIZES}: "
           f"{worst:.2e} (< 1e-6); +/-1e-3 perturbations never improve "
           f"expected_l1: {opt_ok}")


def test_criterion_08_af4_nf4_coincidence_and_shrinkage():
    t0 = time.perf_counter()
    nf4 = qc.nf4_code().values
    small = qc.af4_code(64).values
    large = qc.af4_code(4096).values
    d2 = abs(small[1] - nf4[1])
    d15 = abs(small[14] - nf4[14])
    interior = list(range(1, 7)) + list(range(8, 15))
    shrink = all(abs(large[j]) < abs(small[j]) for j in interior)
    ok = d2 <= 0.05 and d15 <= 0.05 and shrink
    _check(8, 60.0, t0, ok,
           f"|a2 - q2| = {d2:.4f}, |a15 - q15| = {d15:.4f} (<= 0.05); "
           f"interior magnitudes shrink from B=64 to B=4096: {shrink}")


def test_criterion_09_oracle_equivalence_and_file_roundtrips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    code = qc.nf4_code()
    w = rng.standard_normal((10_000, 64)).astype(np.float32)
    qt = bq.quantize(w, code, 64, axis=1)
    got = bq.unpack_nibbles(qt.packed, 64)
    M = np.abs(w).max(axis=1).astype(np.float32)
    x = (w / M[:, None]).astype(np.float64)
    dist = np.abs(x[:, :, None] - code.values[None, None, :])
    oracle = dist.argmin(axis=2)
    indices_ok = bool(np.array_equal(got, oracle))

    files_ok = True
    for shape, B, axis in [((1000,), 64, 0), ((13, 77), 7, 1), ((5, 6, 7), 4, 0)]:
        t = rng.standard_normal(shape).astype(np.float32)
        p_t = tmp_path / "t.fqt"
        bq.tensor_write(t, p_t)
        files_ok &= bool(np.array_equal(bq.tensor_read(p_t), t))
        qt2 = bq.quantize(t, code, B, axis=axis)
        p_q = tmp_path / "t.fqz"
        bq.qtensor_write(qt2, p_q)
        back = bq.qtensor_read(p_q)
        files_ok &= bool(np.array_equal(back.scales, qt2.scales))
        files_ok &= bool(np.array_equal(back.packed, qt2.packed))
        p_q2 = tmp_path / "t2.fqz"
        bq.qtensor_write(back, p_q2)
        files_ok &= p_q.read_bytes() == p_q2.read_bytes()
    ok = indices_ok and files_ok
    _check(9, 30.0, t0, ok,
           f"10^4 blocks match the exhaustive oracle: {indices_ok}; "
           f"FQT1/FQZ1 round trips bit-exact: {files_ok}")


def test_criterion_10_large_block_improvement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    w = rng.standard_normal((4096, 4096)).astype(np.float32)
    nf4 = qc.nf4_code()

    def mean_abs(code, B):
        qt = bq.quantize(w, code, B, axis=0)
        return bq.reconstruction_errors(w, bq.dequantize(qt))["mean_abs"]

    err_nf4_4096 = mean_abs(nf4, 4096)
    err_af4_4096 = mean_abs(qc.af4_code(4096), 4096)
    err_nf4_64 = mean_abs(nf4, 64)
    err_af4_64 = mean_abs(qc.af4_code(64), 64)
    rel_gap_64 = abs(err_af4_64 - err_nf4_64) / min(err_af4_64, err_nf4_64)
    ok = err_af4_4096 < err_nf4_4096 and rel_gap_64 <= 0.10
    _check(10, 180.0, t0, ok,
           f"B=4096 mean_abs: af4 {err_af4_4096:.6f} < nf4 {err_nf4_4096:.6f}; "
           f"B=64 relative gap {rel_gap_64:.3%} (<= 10%)")
