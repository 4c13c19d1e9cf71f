"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; the scenarios are
either bundled files or constructed inline from the same parameters.
"""

import math
import time

import numpy as np
import pytest
from conftest import crb_ratio_interval
from scipy.stats import unitary_group

import emitterfisher as ef

pytestmark = pytest.mark.filterwarnings("ignore:paraxial mode")

K, Z0 = 1.0, 100.0
RATIO_LO, RATIO_HI = 1 - 1e-5, 1 + 1e-6


def _pass(n, text):
    print(f"\nPASS criterion {n}: {text}")


def symmetric_pair(dx, dz=0.0, collectors=((5.0, 0.0), (-5.0, 0.0))):
    return ef.Scenario(
        sources=(ef.SourcePoint(dx / 2, 0, dz / 2), ef.SourcePoint(-dx / 2, 0, -dz / 2)),
        collectors=tuple(ef.Collector(u, v) for u, v in collectors),
        k=K,
        z0=Z0,
    )


def random_sweep_scenario(rng):
    ns = int(rng.integers(1, 5))
    nc = int(rng.integers(ns, 9))
    mode = (ef.Mode.PARAXIAL, ef.Mode.EXACT)[int(rng.integers(2))]
    scale = (0.1, 5.0, 20.0)[int(rng.integers(3))]
    return ef.Scenario(
        sources=tuple(
            ef.SourcePoint(*rng.normal(0, scale, 3), weight=w)
            for w in rng.uniform(0.5, 1.5, ns)
        ),
        collectors=tuple(ef.Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
        k=K,
        z0=Z0,
        mode=mode,
    )


SEP_X = ef.named_direction("separation-x", 2)
SEP_Z = ef.named_direction("separation-z", 2)


def test_criterion_1_two_collector_qfi_closed_form():
    # QFI(dx) = k^2 (u1 - u2)^2 / (4 z0^2) = 0.0025, within 1e-4, under 1 s.
    start = time.monotonic()
    scenario = ef.load_scenario(ef.bundled_scenario_path("two_collector.scn"))
    report = ef.qfi(scenario, SEP_X)
    elapsed = time.monotonic() - start
    expected = K**2 * (5.0 - (-5.0)) ** 2 / (4 * Z0**2)
    assert expected == 0.0025
    assert report.converged
    assert report.qfi == pytest.approx(expected, rel=1e-4)
    assert elapsed < 1.0
    _pass(1, f"two-collector QFI(dx) = {report.qfi:.6e} vs 2.5e-3 ({elapsed:.2f} s)")


def test_criterion_2_beam_splitter_saturation():
    # CFI/QFI for the alpha=0 splitter at dx = 1e-3 z0 / k.  The upper edge
    # uses the 1e-6 slack the specification applies to this ratio elsewhere.
    dx = 1e-3 * Z0 / K
    scenario = symmetric_pair(dx)
    report = ef.information_report(scenario, SEP_X, ef.beam_splitter_with_phase(0.0))
    assert report.converged
    ratio = report.saturation_ratio
    assert RATIO_LO <= ratio <= RATIO_HI
    _pass(2, f"bs_phase(0) CFI/QFI = {ratio:.9f} at dx = {dx}")


def test_criterion_3_four_collector_qft():
    u1 = 3.0
    collectors = ((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0))
    qft = ef.qft_interferometer(4)

    # Transverse separation, evaluated in the small-separation regime.
    dx = 1e-3 * Z0 / K
    s_dx = symmetric_pair(dx, collectors=collectors)
    expected_dx = 5 * u1**2 / (9 * Z0**2)
    assert expected_dx == pytest.approx(5e-4)
    rep_q = ef.qfi(s_dx, SEP_X)
    rep_c = ef.cfi(s_dx, SEP_X, qft)
    assert rep_q.qfi == pytest.approx(expected_dx, rel=1e-4)
    assert rep_c.cfi == pytest.approx(expected_dx, rel=1e-3)

    # Axial separation at dx = 0 (evaluated at a small axial offset so the
    # probability derivatives are well defined).
    s_dz = symmetric_pair(0.0, dz=1.0, collectors=collectors)
    expected_dz = 4 * u1**4 / (81 * Z0**4)
    assert expected_dz == pytest.approx(4e-8)
    rep_qz = ef.qfi(s_dz, SEP_Z)
    rep_cz = ef.cfi(s_dz, SEP_Z, qft)
    assert rep_qz.qfi == pytest.approx(expected_dz, rel=1e-4)
    assert rep_cz.cfi == pytest.approx(expected_dz, rel=1e-3)
    _pass(
        3,
        f"QFT scheme: QFI(dx) = {rep_q.qfi:.6e}, CFI(dx) = {rep_c.cfi:.6e}, "
        f"QFI(dz) = {rep_qz.qfi:.6e}, CFI(dz) = {rep_cz.cfi:.6e}",
    )


def test_criterion_4_diagonality_condition():
    moments = ef.generator_moments(
        [ef.Collector(u, 0.0) for u in (3.0, 1.0, -1.0, -3.0)], K, Z0
    )
    sigma_xz = moments.covariance[0, 2]
    assert abs(sigma_xz) < 1e-12
    _pass(4, f"evenly spaced array: |sigma_xz| = {abs(sigma_xz):.2e} < 1e-12")


def test_criterion_5_synthesis_saturation_sweep():
    rng = np.random.default_rng(20250809)
    start = time.monotonic()
    ratios = []
    for _ in range(200):
        scenario = random_sweep_scenario(rng)
        direction = ef.GeneralizedCoordinate.from_tangent(
            rng.normal(size=3 * scenario.n_sources)
        )
        report = ef.verify_saturation(scenario, direction)
        assert report.unitarity_residual < 1e-10
        assert report.lower_triangular_residual < 1e-9
        assert report.upper_triangular_residual < 1e-9
        assert RATIO_LO <= report.saturation_ratio <= RATIO_HI, report.to_dict()
        ratios.append(report.saturation_ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(
        5,
        f"200 scenarios: ratio in [{min(ratios):.9f}, {max(ratios):.9f}], "
        f"structure residuals < 1e-9 ({elapsed:.1f} s)",
    )


def test_criterion_6_cauchy_schwarz_suite():
    rng = np.random.default_rng(606)
    worst = math.inf
    for s_idx in range(20):
        scenario = random_sweep_scenario(rng)
        direction = ef.GeneralizedCoordinate.from_tangent(
            rng.normal(size=3 * scenario.n_sources)
        )
        moved = ef.displace(scenario, direction, 10 ** rng.uniform(-4, -1))
        C = ef.build_amplitude_matrix(scenario)
        Cp = ef.build_amplitude_matrix(moved)
        fq = ef.quantum_fidelity(ef.overlap_matrix(C, Cp))
        for u_idx in range(100):
            R = unitary_group.rvs(scenario.n_collectors, random_state=7000 + 100 * s_idx + u_idx)
            fc = ef.classical_fidelity(C, Cp, R)
            worst = min(worst, fc - fq)
            assert fc >= fq - 1e-10
    _pass(6, f"2000 unitary/scenario pairs: min(fc - fq) = {worst:.3e} >= -1e-10")


def test_criterion_7_paraxial_finite_difference_cross_check():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        n_c = int(rng.integers(2, 8))
        collectors = tuple(ef.Collector(*rng.normal(0, 5, 2)) for _ in range(n_c))
        scenario = ef.Scenario(
            sources=(ef.SourcePoint(0, 0, 0),),
            collectors=collectors,
            k=K,
            z0=Z0,
            mode=ef.Mode.PARAXIAL,
        )
        report = ef.qfi_matrix_consistency(scenario, ef.ParaxialTarget.SINGLE_SOURCE)
        worst = max(worst, report.max_relative_error)
        assert report.max_relative_error < 1e-4
    _pass(7, f"20 collector arrays: worst elementwise relative error {worst:.2e} < 1e-4")


def test_criterion_8_continuous_aperture_convergence():
    target = K**2 / (4 * Z0**2)
    errors = []
    for spacing in (0.2, 0.1, 0.05):
        scenario = ef.Scenario(
            sources=(ef.SourcePoint(0.1, 0, 0), ef.SourcePoint(-0.1, 0, 0)),
            collectors=ef.disc_collector_grid(spacing, 1.0),
            k=K,
            z0=Z0,
            mode=ef.Mode.PARAXIAL,
        )
        report = ef.qfi(scenario, SEP_X)
        assert report.converged
        errors.append(abs(report.qfi - target) / target)
    assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
    assert errors[-1] < 1e-2
    _pass(
        8,
        "disc grid errors " + " -> ".join(f"{e:.2e}" for e in errors)
        + f" (monotone, final < 1e-2, target {target:.2e})",
    )


def test_criterion_9_crb_attainment():
    # The truth sits where the dark port collects hundreds of photons, so
    # the estimator is in its asymptotic regime; the bound itself is
    # parameter independent for this scheme.
    # The band holds crb_ratio's chi-squared spread at this trial count
    # but with probability 1e-6.
    trials = 5090
    lo, hi = crb_ratio_interval(trials)
    assert 0.9 <= lo and hi <= 1.1
    start = time.monotonic()
    scenario = ef.load_scenario(ef.bundled_scenario_path("two_collector.scn"))
    aggregate, _ = ef.crb_sweep(
        scenario,
        SEP_X,
        ef.beam_splitter_with_phase(0.0),
        theta_true=2.0,
        n_photons=10**5,
        trials=trials,
        seed=0,
    )
    elapsed = time.monotonic() - start
    assert 0.9 <= aggregate.crb_ratio <= 1.1
    assert elapsed < 120.0
    _pass(
        9,
        f"empirical_variance * n * CFI = {aggregate.crb_ratio:.4f} "
        f"over {trials} trials ({elapsed:.1f} s)",
    )


def test_criterion_10_exact_mode_sanity():
    # Full pipeline in exact mode against the paraxial fast path, with all
    # geometry coordinates at 1e-4 z0 (inside the stated <= 1e-3 z0 regime).
    rng = np.random.default_rng(1010)
    scale = 1e-4 * Z0
    worst = 0.0
    for _ in range(8):
        ns = int(rng.integers(1, 3))
        sources = tuple(ef.SourcePoint(*rng.normal(0, scale, 3)) for _ in range(ns))
        collectors = tuple(ef.Collector(*rng.normal(0, scale, 2)) for _ in range(4))
        direction = ef.GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))
        q_exact = ef.qfi(
            ef.Scenario(sources, collectors, K, Z0, ef.Mode.EXACT), direction
        )
        q_parax = ef.qfi(
            ef.Scenario(sources, collectors, K, Z0, ef.Mode.PARAXIAL), direction
        )
        rel = abs(q_exact.qfi - q_parax.qfi) / abs(q_parax.qfi)
        worst = max(worst, rel)
        assert rel < 1e-3
    _pass(10, f"exact vs paraxial QFI: worst relative difference {worst:.2e} < 1e-3")
