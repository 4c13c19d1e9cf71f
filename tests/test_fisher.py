"""Fidelity, closed-form QFI/CFI, generator-moment and closed-form matrix tests."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

import emitterfisher
from emitterfisher import (
    Collector,
    GeneralizedCoordinate,
    Mode,
    ParaxialTarget,
    Scenario,
    ScenarioError,
    SourcePoint,
    beam_splitter_with_phase,
    build_amplitude_matrix,
    bundled_scenario_path,
    cfi,
    classical_fidelity,
    crb_sweep,
    detection_probabilities,
    displace,
    generator_moments,
    identity_interferometer,
    information_report,
    named_direction,
    natural_displacement_scale,
    overlap_matrix,
    paraxial_qfi_matrix,
    qfi,
    qfi_matrix_consistency,
    qft_interferometer,
    quantum_fidelity,
    synthesize_optimal_interferometer,
)
from emitterfisher._precision import (
    one_minus_classical_fidelity,
    one_minus_trace_norm_fidelity,
)
from emitterfisher.fisher import FisherReport, NumericalError, _qfi_matrix
from emitterfisher.geometry import amplitude_arrays

K, Z0 = 1.0, 100.0


def symmetric_pair(dx, dz=0.0, collectors=((5.0, 0.0), (-5.0, 0.0)), mode=Mode.PARAXIAL):
    return Scenario(
        sources=(SourcePoint(dx / 2, 0.0, dz / 2), SourcePoint(-dx / 2, 0.0, -dz / 2)),
        collectors=tuple(Collector(u, v) for u, v in collectors),
        k=K,
        z0=Z0,
        mode=mode,
    )


def random_scenario(rng, ns=None, nc=None, mode=None, scale=0.5):
    ns = ns if ns is not None else int(rng.integers(1, 4))
    nc = nc if nc is not None else int(rng.integers(max(ns, 2), 8))
    mode = mode if mode is not None else (Mode.PARAXIAL, Mode.EXACT)[int(rng.integers(2))]
    weights = rng.uniform(0.3, 1.5, ns)
    return Scenario(
        sources=tuple(
            SourcePoint(*rng.normal(0, scale, 3), weight=w) for w in weights
        ),
        collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
        k=1.0,
        z0=100.0,
        mode=mode,
    )


def random_direction(rng, ns):
    return GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))


# ---------------------------------------------------------------------------
# overlap matrix and quantum fidelity
# ---------------------------------------------------------------------------


def test_overlap_single_source_self():
    s = symmetric_pair(0.0)
    s1 = Scenario(sources=(SourcePoint(0, 0, 0),), collectors=s.collectors, k=K, z0=Z0)
    C = build_amplitude_matrix(s1)
    M = overlap_matrix(C, C)
    np.testing.assert_allclose(M, [[1.0]], atol=1e-14)


def test_overlap_self_is_hermitian_trace_one():
    s = symmetric_pair(0.2)
    C = build_amplitude_matrix(s)
    M = overlap_matrix(C, C)
    np.testing.assert_allclose(M, M.conj().T, atol=1e-14)
    assert np.trace(M).real == pytest.approx(1.0, abs=1e-13)


def test_overlap_symmetric_displacement_structure():
    # Symmetric two-source configuration: M has the form [[a, b], [b*, a*]].
    s = symmetric_pair(0.2, dz=0.4)
    d = named_direction("separation-x", 2)
    moved = displace(s, d, 1e-3)
    M = overlap_matrix(build_amplitude_matrix(s), build_amplitude_matrix(moved))
    assert M[1, 1] == pytest.approx(np.conj(M[0, 0]), abs=1e-14)
    assert M[1, 0] == pytest.approx(np.conj(M[0, 1]), abs=1e-14)


def test_quantum_fidelity_trivial_and_frozen():
    assert quantum_fidelity(np.array([[1.0]])) == pytest.approx(1.0)
    # singular values of [[0.8, 0.1], [0.1, 0.8]] are 0.9 and 0.7
    assert quantum_fidelity(np.array([[0.8, 0.1], [0.1, 0.8]])) == pytest.approx(1.6)


def test_quantum_fidelity_conjugate_pair_form():
    # ||[[a, b], [b*, a*]]||_1 = 2 |a| when |a| > |b|.
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal() + 1j * rng.normal()
        b = (rng.normal() + 1j * rng.normal()) * 0.3 * abs(a) / 1.0
        M = np.array([[a, b], [np.conj(b), np.conj(a)]])
        assert quantum_fidelity(M) == pytest.approx(2 * abs(a), rel=1e-12)


def test_quantum_fidelity_rejects_nonfinite():
    with pytest.raises(NumericalError):
        quantum_fidelity(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_fidelity_bounds_random_scenarios():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = random_scenario(rng)
        C = build_amplitude_matrix(s)
        assert quantum_fidelity(overlap_matrix(C, C)) == pytest.approx(1.0, abs=1e-12)
        moved = displace(s, random_direction(rng, s.n_sources), 0.05)
        f = quantum_fidelity(overlap_matrix(C, build_amplitude_matrix(moved)))
        assert 0.0 <= f <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# QFI
# ---------------------------------------------------------------------------


def test_qfi_two_collector_closed_form():
    # k^2 (u1 - u2)^2 / (4 z0^2) = 0.0025 for u = +-5, z0 = 100.
    s = symmetric_pair(0.2)
    report = qfi(s, named_direction("separation-x", 2))
    assert report.converged
    assert report.qfi == pytest.approx(0.0025, rel=1e-6)


def test_qfi_zero_information_direction():
    # All collectors at the same u: no transverse-x information.
    s = symmetric_pair(0.2, collectors=((5.0, 0.0), (5.0, 0.0)))
    report = qfi(s, named_direction("separation-x", 2))
    assert report.qfi == 0.0
    assert report.converged


@pytest.mark.parametrize("qfi_value, cfi_value, converged", [
    (1.0, None, True), (None, 0.5, True), (0.0, 0.5, True), (None, None, True),
    (math.nan, None, False), (None, math.inf, False), (1.0, -math.inf, False),
    (math.nan, 0.5, False),
])
def test_converged_is_read_from_the_values(qfi_value, cfi_value, converged):
    # A report is converged when every value it holds (None is not held) is
    # finite; neither flag nor steps are constructor arguments.
    from emitterfisher.fisher import FisherReport

    direction = named_direction("separation-x", 2)
    report = FisherReport(direction, qfi=qfi_value, cfi=cfi_value)
    assert report.converged is converged
    assert report.step_sequence == ()
    with pytest.raises(TypeError):
        FisherReport(direction, qfi=qfi_value, converged=converged)


def test_qfi_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_scenario(rng)
        report = qfi(s, random_direction(rng, s.n_sources))
        assert report.qfi >= -1e-12


def test_qfi_global_phase_invariance():
    # Scaling a column of C by a unit phase must not change ||M||_1 or p_q.
    rng = np.random.default_rng(9)
    s = random_scenario(rng, ns=2, nc=4, mode=Mode.PARAXIAL)
    moved = displace(s, named_direction("separation-x", 2), 1e-3)
    C = build_amplitude_matrix(s)
    Cp = build_amplitude_matrix(moved)
    phased = C.copy()
    phased[:, 0] *= np.exp(1j * 0.73)
    assert quantum_fidelity(overlap_matrix(phased, Cp)) == pytest.approx(
        quantum_fidelity(overlap_matrix(C, Cp)), rel=1e-13
    )
    R = unitary_group.rvs(4, random_state=1)
    np.testing.assert_allclose(
        detection_probabilities(phased, R), detection_probabilities(C, R), atol=1e-13
    )


def test_collector_relabeling_invariance():
    rng = np.random.default_rng(21)
    s = random_scenario(rng, ns=2, nc=5)
    d = random_direction(rng, 2)
    R = unitary_group.rvs(5, random_state=2)
    rep = information_report(s, d, R)
    perms = [rng.permutation(5) for _ in range(3)] + [np.arange(5)[::-1], np.roll(np.arange(5), 1)]
    for perm in perms:
        s_perm = Scenario(
            sources=s.sources,
            collectors=tuple(s.collectors[i] for i in perm),
            k=s.k,
            z0=s.z0,
            mode=s.mode,
        )
        rep_perm = information_report(s_perm, d, R[:, perm])
        assert rep_perm.qfi == pytest.approx(rep.qfi, rel=1e-9)
        assert rep_perm.cfi == pytest.approx(rep.cfi, rel=1e-9)


@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qfi_matches_fidelity_oracle(mode, seed):
    # 8 (1 - f(h)) / h^2 from the extended-precision trace-norm fidelity of
    # the pair r -+ a h/2, at h and h/2, then one Richardson step.
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, mode=mode)
    d = random_direction(rng, s.n_sources)

    def curvature(h):
        one_minus_f = one_minus_trace_norm_fidelity(
            displace(s, d, -h / 2), displace(s, d, h / 2)
        )
        return 8.0 * one_minus_f / h**2

    h = 1e-3 / s.k
    oracle = (4.0 * curvature(h / 2) - curvature(h)) / 3.0
    assert qfi(s, d).qfi == pytest.approx(d.parameter_scale**2 * oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# detection probabilities and classical fidelity
# ---------------------------------------------------------------------------


def test_identity_probabilities_single_source():
    s = Scenario(
        sources=(SourcePoint(0, 0, 0),),
        collectors=(Collector(5, 0), Collector(-5, 0)),
        k=K,
        z0=Z0,
    )
    p = detection_probabilities(build_amplitude_matrix(s), identity_interferometer(2))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-14)


def test_beam_splitter_constructive_port():
    s = Scenario(
        sources=(SourcePoint(0, 0, 0),),
        collectors=(Collector(5, 0), Collector(-5, 0)),
        k=K,
        z0=Z0,
    )
    p = detection_probabilities(build_amplitude_matrix(s), beam_splitter_with_phase(0.0))
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-14)


def _two_detector_probability_oracle(dx, dz, u1, u2, alpha, k, z0):
    """Cosine form of the two-detector click probabilities (phase then 50:50)."""
    def dphi(x, z):
        return -k * (u1 - u2) * x / z0 - k * z * (u1**2 - u2**2) / (2 * z0**2)

    p1 = 0.25 * (2 + math.cos(alpha + dphi(dx / 2, dz / 2)) + math.cos(alpha + dphi(-dx / 2, -dz / 2)))
    return np.array([p1, 1.0 - p1])


@pytest.mark.parametrize("alpha", [0.0, 0.7, -1.3, math.pi])
def test_two_detector_cosine_probabilities(alpha):
    dx, dz, u1, u2 = 0.6, 0.0, 5.0, -5.0
    s = symmetric_pair(dx, dz)
    p = detection_probabilities(build_amplitude_matrix(s), beam_splitter_with_phase(alpha))
    np.testing.assert_allclose(
        p, _two_detector_probability_oracle(dx, dz, u1, u2, alpha, K, Z0), atol=1e-12
    )


def test_two_detector_cosine_probabilities_axial():
    dx, dz = 0.4, 2.0
    s = symmetric_pair(dx, dz, collectors=((7.0, 0.0), (-3.0, 0.0)))
    p = detection_probabilities(build_amplitude_matrix(s), beam_splitter_with_phase(0.0))
    np.testing.assert_allclose(
        p, _two_detector_probability_oracle(dx, dz, 7.0, -3.0, 0.0, K, Z0), atol=1e-12
    )


def test_phase_pi_swaps_ports():
    s = symmetric_pair(0.6)
    C = build_amplitude_matrix(s)
    p0 = detection_probabilities(C, beam_splitter_with_phase(0.0))
    ppi = detection_probabilities(C, beam_splitter_with_phase(math.pi))
    np.testing.assert_allclose(ppi, p0[::-1], atol=1e-12)


def test_probabilities_require_unitary():
    s = symmetric_pair(0.2)
    bad = np.eye(2) * 1.001
    with pytest.raises(NumericalError):
        detection_probabilities(build_amplitude_matrix(s), bad)


def test_classical_fidelity_identical_distributions():
    s = symmetric_pair(0.2)
    C = build_amplitude_matrix(s)
    assert classical_fidelity(C, C, beam_splitter_with_phase(0.0)) == pytest.approx(1.0)


def test_classical_fidelity_requires_matching_shapes():
    # C and C' of different shapes are two different source sets: rejected
    # with overlap_matrix's message, not applied side by side.
    C = build_amplitude_matrix(symmetric_pair(0.2))
    R = beam_splitter_with_phase(0.0)
    with pytest.raises(ScenarioError) as expected:
        overlap_matrix(C, C[:, :1])
    with pytest.raises(ScenarioError) as raised:
        classical_fidelity(C, C[:, :1], R)
    assert str(raised.value) == str(expected.value) == "amplitude matrix shapes differ: (2, 2) vs (2, 1)"


def test_cauchy_schwarz_random_unitaries():
    # Classical fidelity never drops below the trace-norm fidelity.
    rng = np.random.default_rng(17)
    for trial in range(40):
        s = random_scenario(rng)
        moved = displace(s, random_direction(rng, s.n_sources), 10 ** rng.uniform(-4, -1))
        C = build_amplitude_matrix(s)
        Cp = build_amplitude_matrix(moved)
        fq = quantum_fidelity(overlap_matrix(C, Cp))
        R = unitary_group.rvs(s.n_collectors, random_state=1000 + trial)
        assert classical_fidelity(C, Cp, R) >= fq - 1e-10


# ---------------------------------------------------------------------------
# CFI
# ---------------------------------------------------------------------------


def test_cfi_two_collector_matches_qfi():
    s = symmetric_pair(0.1)
    d = named_direction("separation-x", 2)
    report = information_report(s, d, beam_splitter_with_phase(0.0))
    assert report.cfi == pytest.approx(0.0025, rel=1e-6)
    assert report.saturation_ratio == pytest.approx(1.0, abs=1e-6)


def test_cfi_identity_measurement_is_blind():
    # Identity measurement on the symmetric pair: probabilities stationary.
    s = symmetric_pair(0.2)
    report = cfi(s, named_direction("separation-x", 2), identity_interferometer(2))
    assert report.cfi == 0.0


def test_cfi_four_collector_qft():
    s = symmetric_pair(0.1, collectors=((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0)))
    report = cfi(s, named_direction("separation-x", 2), qft_interferometer(4))
    assert report.cfi == pytest.approx(5 * 3.0**2 / (9 * Z0**2), rel=1e-3)


def test_cfi_never_exceeds_qfi():
    # Monotone information, asserted on converged estimates (the engine
    # flags derivative estimates that sit too close to a dark valley).
    rng = np.random.default_rng(23)
    n_converged = 0
    for trial in range(15):
        s = random_scenario(rng, scale=0.3)
        d = random_direction(rng, s.n_sources)
        R = unitary_group.rvs(s.n_collectors, random_state=3000 + trial)
        rep = information_report(s, d, R)
        if not rep.converged or not math.isfinite(rep.cfi):
            continue
        n_converged += 1
        assert rep.cfi <= rep.qfi * (1 + 1e-6) + 1e-15
    assert n_converged >= 10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 3),
    nc=st.integers(2, 7),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
)
def test_cfi_never_exceeds_qfi_property(seed, ns, nc, mode):
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, ns=ns, nc=nc, mode=mode)
    d = random_direction(rng, ns)
    R = unitary_group.rvs(nc, random_state=rng)
    rep = information_report(s, d, R)
    assert rep.converged
    assert rep.cfi <= rep.qfi * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(2, 3),
    nc=st.integers(3, 7),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
)
def test_source_permutation_invariance_property(seed, ns, nc, mode):
    # Relabeling the sources, together with their weights and their
    # direction triples, describes the same state and the same parameter.
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, ns=ns, nc=nc, mode=mode)
    d = random_direction(rng, ns)
    R = unitary_group.rvs(nc, random_state=rng)
    perm = rng.permutation(ns)
    s_perm = Scenario(tuple(s.sources[i] for i in perm), s.collectors, s.k, s.z0, s.mode)
    d_perm = GeneralizedCoordinate(d.a.reshape(-1, 3)[perm].ravel(), d.parameter_scale)
    rep, rep_perm = information_report(s, d, R), information_report(s_perm, d_perm, R)
    assert rep_perm.qfi == pytest.approx(rep.qfi, rel=1e-12)
    assert rep_perm.cfi == pytest.approx(rep.cfi, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nc=st.integers(2, 7),
    c=st.floats(0.1, 10.0),
    c_prime=st.floats(0.5, 10.0),
)
def test_paraxial_transverse_qfi_scales_as_k2_over_z02_property(seed, nc, c, c_prime):
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, ns=1, nc=nc, mode=Mode.PARAXIAL)
    tangent = np.append(rng.normal(size=2), 0.0)
    d = GeneralizedCoordinate.from_tangent(tangent)
    scaled = Scenario(s.sources, s.collectors, c * s.k, c_prime * s.z0, Mode.PARAXIAL)
    base = qfi(s, d).qfi
    assert base > 0
    assert qfi(scaled, d).qfi == pytest.approx(c**2 / c_prime**2 * base, rel=1e-12)


def test_cfi_synthesized_dark_port_reaches_qfi():
    # One source, two collectors: the synthesized measurement sends all
    # light to port 0, so port 1 is dark and carries the information
    # through the 0/0 limit of (dp)^2 / p.
    s = Scenario(
        sources=(SourcePoint(0.3, -0.1, 0.2),),
        collectors=(Collector(5.0, 0.0), Collector(-4.0, 1.0)),
        k=K,
        z0=Z0,
    )
    d = named_direction("x", 1)
    moved = displace(s, d, 1e-4)
    C = build_amplitude_matrix(s)
    R = synthesize_optimal_interferometer(C, build_amplitude_matrix(moved)).interferometer
    assert detection_probabilities(C, R)[1] < 1e-14
    rep = information_report(s, d, R)
    assert rep.qfi == pytest.approx(4 * K**2 * 4.5**2 / Z0**2, rel=1e-9)
    assert 1 - 1e-5 <= rep.saturation_ratio <= 1 + 1e-6


FOUR = ((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0))


def weighted_pair(dx, collectors, mode, weights):
    return Scenario(
        sources=(
            SourcePoint(dx / 2, 0.0, 0.0, weight=weights[0]),
            SourcePoint(-dx / 2, 0.0, 0.0, weight=weights[1]),
        ),
        collectors=tuple(Collector(u, v) for u, v in collectors),
        k=K,
        z0=Z0,
        mode=mode,
    )


@pytest.mark.parametrize("name", ["separation-x", "separation-z"])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_qfi_continuous_at_coincident_sources(mode, weights, name):
    # C loses rank at dx = 0; the QFI is the limit from nearby separations.
    d = named_direction(name, 2)
    reference = qfi(weighted_pair(1e-3, FOUR, mode, weights), d).qfi
    if mode is Mode.PARAXIAL and name == "separation-x":
        assert reference == pytest.approx(5 * 3.0**2 / (9 * Z0**2), rel=1e-9)
    for dx in (0.0, 1e-9, 1e-6):
        s = weighted_pair(dx, FOUR, mode, weights)
        report = qfi(s, d)
        assert report.converged
        assert report.qfi == pytest.approx(reference, rel=1e-6)
        assert cfi(s, d, qft_interferometer(4)).cfi <= report.qfi * (1 + 1e-9)
        pair = weighted_pair(dx, ((5.0, 0.0), (-5.0, 0.0)), mode, weights)
        bs = cfi(pair, d, beam_splitter_with_phase(0.0)).cfi
        assert bs <= qfi(pair, d).qfi * (1 + 1e-9)


@pytest.mark.parametrize("measurement", ["qft", "haar", "synthesized"])
@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
@pytest.mark.parametrize("seed", range(1, 7))
def test_cfi_matches_fidelity_oracle(seed, mode, measurement):
    # Symmetric curvature (e(h) + e(-h)) / 2 with e(h) = 8 (1 - F_c(r, r + a h)) / h^2
    # from the extended-precision classical fidelity, at h and h/2, then one
    # Richardson step.  The symmetric form cancels the cubic term of 1 - F_c.
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, mode=mode)
    d = random_direction(rng, s.n_sources)
    h = 1e-4 * natural_displacement_scale(s)
    if measurement == "qft":
        R = qft_interferometer(s.n_collectors).matrix
    elif measurement == "haar":
        R = unitary_group.rvs(s.n_collectors, random_state=seed)
    else:
        C_moved = build_amplitude_matrix(displace(s, d, h))
        R = synthesize_optimal_interferometer(build_amplitude_matrix(s), C_moved).interferometer.matrix

    def curvature(step):
        e = [8.0 * one_minus_classical_fidelity(s, displace(s, d, t), R, dps=50) / t**2
             for t in (step, -step)]
        return (e[0] + e[1]) / 2.0

    oracle = (4.0 * curvature(h / 2) - curvature(h)) / 3.0
    assert cfi(s, d, R).cfi == pytest.approx(d.parameter_scale**2 * oracle, rel=1e-7)


def test_cfi_requires_unitary_raw_matrix():
    s = symmetric_pair(0.2)
    with pytest.raises(NumericalError):
        cfi(s, named_direction("separation-x", 2), np.eye(2) * 1.001)


MEASUREMENT_ENTRY_POINTS = {
    "cfi": lambda s, d, R: cfi(s, d, R),
    "information_report": lambda s, d, R: information_report(s, d, R),
    "detection_probabilities": lambda s, d, R: detection_probabilities(
        build_amplitude_matrix(s), R),
    "classical_fidelity": lambda s, d, R: classical_fidelity(
        build_amplitude_matrix(s), build_amplitude_matrix(displace(s, d, 1e-3)), R),
    "crb_sweep": lambda s, d, R: crb_sweep(s, d, R, theta_true=0.0, n_photons=100, trials=3,
                                           seed=0),
}


@pytest.mark.parametrize("entry", sorted(MEASUREMENT_ENTRY_POINTS))
def test_entry_points_reject_non_interferometer_measurement(entry):
    # An object with a non-unitary `.matrix` is not an Interferometer: every
    # entry point passes it to the Interferometer constructor, which cannot
    # read it, so no Fisher value (here CFI = 2 QFI) is computed from it.
    s = symmetric_pair(0.2)
    fake = SimpleNamespace(matrix=np.array([[1, 1], [1, -1]], dtype=complex))
    with pytest.raises(TypeError):
        MEASUREMENT_ENTRY_POINTS[entry](s, named_direction("separation-x", 2), fake)


def test_fisher_does_not_import_interferometer():
    # The Interferometer type and its unitarity check live in fisher, so the
    # measurement modules import fisher and never the other way round.
    tree = ast.parse(Path(emitterfisher.fisher.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not any(name and name.endswith("interferometer") for name in imported)


def _loaded_after(module: str, statement: str = "pass") -> bool:
    """Whether importing emitterfisher and its CLI, then ``statement``, loads ``module``.

    Run in a fresh interpreter; the last line of its output is the answer.
    """
    src = str(Path(emitterfisher.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "\n".join(["import sys, emitterfisher, emitterfisher.cli", statement,
                      f"print({module!r} in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_does_not_load_mpmath():
    # mpmath is a test dependency: only the _precision oracle uses it.
    assert not _loaded_after("mpmath")


def test_saturate_runs_without_scipy(tmp_path):
    # The package depends on numpy and PyYAML only: the theorem check's
    # pivoted QR included, saturate loads no scipy module.
    path = bundled_scenario_path("four_collector.scn")
    out = tmp_path / "saturate.json"
    argv = ["saturate", "--scenario", str(path), "--direction", "separation-x", "--out", str(out)]
    assert not _loaded_after("scipy", f"assert emitterfisher.cli.main({argv!r}) == 0")
    assert out.exists()


def test_information_report_equals_separate_values():
    # One (C, dC) for both values gives bit for bit what qfi and cfi give alone.
    rng = np.random.default_rng(8)
    for mode in (Mode.PARAXIAL, Mode.EXACT):
        for ns, nc in ((1, 3), (2, 2), (3, 6)):
            s = random_scenario(rng, ns=ns, nc=nc, mode=mode)
            d = random_direction(rng, ns)
            R = unitary_group.rvs(nc, random_state=int(rng.integers(1 << 30)))
            rep = information_report(s, d, R)
            assert rep.qfi == qfi(s, d).qfi
            assert rep.cfi == cfi(s, d, R).cfi
            assert rep.converged


def _stride_order(strides) -> list[int]:
    """Axes from the one with the smallest stride to the largest."""
    return np.argsort(strides, kind="stable").tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 9),
    nc=st.integers(2, 40),
    trials=st.integers(2, 6),
    layout=st.sampled_from(["block", "stack", "applied"]),
)
def test_source_sum_matches_numpy_sum_in_memory_order(seed, ns, nc, trials, layout):
    # The column-by-column sum over sources equals numpy's sum(axis=-1)
    # bit for bit below 8 sources, signed zeros included, and to rounding
    # from 8 on, where numpy sums pairwise.  It keeps the memory order of
    # its input: on the strided stacks that _applied returns, a (T, N_C)
    # result stays N_C-major, as estimation's sums over ports need.
    import emitterfisher.fisher as fisher_mod

    rng = np.random.default_rng(seed)
    if layout == "block":
        X = rng.normal(size=(nc, ns))
    elif layout == "stack":
        X = rng.normal(size=(trials, nc, ns))
    else:
        stack = rng.normal(size=(2, trials, nc, ns)) + 1j * rng.normal(size=(2, trials, nc, ns))
        RX = fisher_mod._applied(qft_interferometer(nc), stack)
        X = np.abs(RX) ** 2
        p = fisher_mod._probabilities(RX[0])
        assert p.strides[1] > p.strides[0]
        assert p.tobytes() == fisher_mod._source_sum(X[0]).tobytes()
    X[rng.random(X.shape) < 0.2] = -0.0
    total = fisher_mod._source_sum(X)
    reference = X.sum(axis=-1)
    assert total.shape == reference.shape
    assert _stride_order(total.strides) == _stride_order(X.strides[:-1])
    if ns < 8:
        assert total.tobytes() == reference.tobytes()
    else:
        bound = 8 * np.finfo(float).eps * np.abs(X).sum(axis=-1)
        assert np.all(np.abs(total - reference) <= bound)


# ---------------------------------------------------------------------------
# generator moments and closed forms
# ---------------------------------------------------------------------------


def test_generator_moments_symmetric_pair():
    m = generator_moments([Collector(5, 0), Collector(-5, 0)], K, Z0)
    assert m.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert m.covariance[0, 0] == pytest.approx(K**2 * 25 / Z0**2)


def test_generator_moments_even_array_diagonal():
    # Evenly spaced collinear array: odd third moment kills the x-z mixing.
    m = generator_moments(
        [Collector(3, 0), Collector(1, 0), Collector(-1, 0), Collector(-3, 0)], K, Z0
    )
    assert abs(m.covariance[0, 2]) < 1e-12


def test_generator_moments_disc_quadrature():
    # Midpoint quadrature over the unit disc gives <u^2> -> 1/4.
    from emitterfisher import disc_collector_grid

    m = generator_moments(disc_collector_grid(0.01, 1.0), K, Z0)
    assert m.covariance[0, 0] == pytest.approx(K**2 * 0.25 / Z0**2, rel=2e-4)


@pytest.mark.parametrize("collectors", [[], np.empty((0, 2))], ids=["list", "array"])
def test_generator_moments_need_a_collector(collectors):
    with pytest.raises(ScenarioError, match="at least one collector"):
        generator_moments(collectors, K, Z0)


def test_paraxial_matrix_single_source():
    mat = paraxial_qfi_matrix(
        [Collector(5, 0), Collector(-5, 0)], K, Z0, ParaxialTarget.SINGLE_SOURCE
    )
    assert mat[0, 0] == pytest.approx(4 * K**2 * 25 / Z0**2)


def test_paraxial_matrix_separation():
    mat = paraxial_qfi_matrix(
        [Collector(5, 0), Collector(-5, 0)], K, Z0, ParaxialTarget.TWO_SOURCE_SEPARATION
    )
    assert mat[0, 0] == pytest.approx(K**2 * 25 / Z0**2)
    mat4 = paraxial_qfi_matrix(
        [Collector(3, 0), Collector(1, 0), Collector(-1, 0), Collector(-3, 0)],
        K,
        Z0,
        ParaxialTarget.TWO_SOURCE_SEPARATION,
    )
    assert mat4[0, 0] == pytest.approx(5 * 3.0**2 / (9 * Z0**2))


def test_paraxial_matrix_centroid_symmetric():
    mat = paraxial_qfi_matrix(
        [Collector(5, 0), Collector(-5, 0)], K, Z0, ParaxialTarget.TWO_SOURCE_CENTROID
    )
    assert mat[0, 0] == pytest.approx(4 * K**2 * 25 / Z0**2)


@pytest.mark.parametrize("target", list(ParaxialTarget))
@pytest.mark.parametrize("name", ["two_collector.scn", "four_collector.scn", "disc_aperture_r1.scn"])
def test_paraxial_matrix_takes_collectors_or_their_positions(name, target):
    # qfi_matrix_consistency passes the Scenario's kept (N_C, 2) array; a
    # sequence of Collectors gives the same matrix bit for bit.
    s = emitterfisher.load_scenario(bundled_scenario_path(name))
    from_records = paraxial_qfi_matrix(s.collectors, s.k, s.z0, target)
    from_array = paraxial_qfi_matrix(s.collector_positions(), s.k, s.z0, target)
    assert np.array_equal(from_array, from_records)


def test_paraxial_matrix_centroid_requires_symmetry():
    with pytest.raises(ScenarioError):
        paraxial_qfi_matrix(
            [Collector(5, 0), Collector(-4, 0)], K, Z0, ParaxialTarget.TWO_SOURCE_CENTROID
        )


# ---------------------------------------------------------------------------
# closed form vs finite differences
# ---------------------------------------------------------------------------


def test_consistency_single_source_diagonal():
    rng = np.random.default_rng(31)
    collectors = tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(5))
    s = Scenario(sources=(SourcePoint(0, 0, 0),), collectors=collectors, k=K, z0=Z0)
    report = qfi_matrix_consistency(s, ParaxialTarget.SINGLE_SOURCE)
    assert report.max_relative_error < 1e-4


@pytest.mark.parametrize("target, n_sources", [(ParaxialTarget.SINGLE_SOURCE, 2),
                                               (ParaxialTarget.TWO_SOURCE_SEPARATION, 1)])
def test_consistency_requires_the_targets_source_count(target, n_sources):
    s = symmetric_pair(0.05)
    s = Scenario(s.sources[:n_sources], s.collectors, s.k, s.z0)
    with pytest.raises(ScenarioError, match=f"requires {3 - n_sources} source"):
        qfi_matrix_consistency(s, target)


@pytest.mark.parametrize("name", ["two_collector.scn", "four_collector.scn",
                                  "disc_aperture_r1.scn", "one_source"])
def test_consistency_refuses_exact_mode(name):
    # The closed form is paraxial: against an exact-mode QFI its gap is model
    # error (1.04e-3 on four_collector, 1.002e-3 on the disc), not a fault
    # the cross check could judge, so an exact-mode scenario is refused.
    if name == "one_source":
        s = Scenario((SourcePoint(0, 0, 0),), symmetric_pair(0.05).collectors, K, Z0)
        target = ParaxialTarget.SINGLE_SOURCE
    else:
        s = emitterfisher.load_scenario(bundled_scenario_path(name))
        target = ParaxialTarget.TWO_SOURCE_SEPARATION
    qfi_matrix_consistency(s, target)
    with pytest.raises(ScenarioError, match="closed form is paraxial"):
        qfi_matrix_consistency(Scenario(s.sources, s.collectors, s.k, s.z0, Mode.EXACT), target)


def test_consistency_symmetric_two_source():
    s = symmetric_pair(0.05)
    report = qfi_matrix_consistency(s, ParaxialTarget.TWO_SOURCE_SEPARATION)
    assert report.max_relative_error < 1e-4


def test_consistency_four_collector_axial_entry():
    # At small transverse separation the axial separation information of the
    # evenly spaced array approaches (5 dx^2 u1^2 / 36 + 4 u1^4 / 81) / z0^4.
    dx, u1 = 0.01, 3.0
    s = symmetric_pair(dx, collectors=((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0)))
    report = qfi(s, named_direction("separation-z", 2))
    closed = (5 * dx**2 * u1**2 / 36 + 4 * u1**4 / 81) / Z0**4
    assert report.qfi == pytest.approx(closed, rel=1e-3)


def _count_calls(monkeypatch, targets) -> dict:
    """Replace each (module, name) in ``targets`` by a wrapper counting its calls by name."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_qfi_matrix_check_builds_amplitudes_and_svd_once(monkeypatch, cold_loads):
    # C and the six dC come from one amplitude build, and every qfi from one
    # SVD; both stay on the scenario, so a second check builds and factors
    # nothing.
    import emitterfisher.fisher as fisher_mod
    import emitterfisher.geometry as geometry_mod

    s = emitterfisher.load_scenario(bundled_scenario_path("four_collector.scn"))
    calls = _count_calls(monkeypatch, [(geometry_mod, "_raw_amplitudes"), (fisher_mod, "support_svd")])
    first = qfi_matrix_consistency(s, ParaxialTarget.TWO_SOURCE_SEPARATION)
    assert calls == {"_raw_amplitudes": 1, "support_svd": 1}
    second = qfi_matrix_consistency(s, ParaxialTarget.TWO_SOURCE_SEPARATION)
    assert calls == {"_raw_amplitudes": 1, "support_svd": 1}
    assert second.finite_difference.tobytes() == first.finite_difference.tobytes()


def _six_qfi_matrix(scenario, tangents):
    """The qfi matrix from one qfi call per axis and per pair of axes (polarization identity)."""
    def Q(t):
        return qfi(scenario, GeneralizedCoordinate.from_tangent(t)).qfi

    m = np.diag([Q(t) for t in tangents])
    for a, b in ((0, 1), (0, 2), (1, 2)):
        m[a, b] = m[b, a] = 0.5 * (Q(tangents[a] + tangents[b]) - m[a, a] - m[b, b])
    return m


@pytest.mark.parametrize(
    "name, target",
    [
        (name, target)
        for name in ("two_collector.scn", "four_collector.scn", "disc_aperture_r1.scn")
        for target in (ParaxialTarget.TWO_SOURCE_SEPARATION, ParaxialTarget.TWO_SOURCE_CENTROID)
    ]
    + [(None, ParaxialTarget.SINGLE_SOURCE)],
)
def test_qfi_matrix_check_equals_six_qfi_calls(name, target):
    # The batched check reports the matrix that six separate qfi calls give.
    if name is None:
        rng = np.random.default_rng(32)
        s = Scenario(sources=(SourcePoint(0.3, -0.2, 0.5),),
                     collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(6)), k=K, z0=Z0)
    else:
        s = emitterfisher.load_scenario(bundled_scenario_path(name))
    eye = np.eye(3)
    tangents = {
        ParaxialTarget.SINGLE_SOURCE: list(eye),
        ParaxialTarget.TWO_SOURCE_SEPARATION: [np.concatenate([0.5 * e, -0.5 * e]) for e in eye],
        ParaxialTarget.TWO_SOURCE_CENTROID: [np.concatenate([e, e]) for e in eye],
    }[target]
    reference = _six_qfi_matrix(s, tangents)
    fd = qfi_matrix_consistency(s, target).finite_difference
    diagonal = np.diagonal(reference)
    assert np.all(np.abs(np.diagonal(fd) - diagonal) <= 1e-14 * np.abs(diagonal))
    off = ~np.eye(3, dtype=bool)
    assert np.all(np.abs(fd - reference)[off] <= 1e-14 * np.abs(reference).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 4),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
)
def test_qfi_matrix_is_the_gram_of_the_qfi_rows(seed, ns, mode):
    # The QFI is a quadratic form in the tangent: along t_a + t_b it is
    # H_aa + H_bb + 2 H_ab, H is symmetric, and its diagonal is qfi along
    # each tangent.  Each value is a sum of squares of dC less its part in
    # the range of C, which can be most of dC; two dC built apart (along
    # t_a + t_b and the sum of the two, along t and t / |t|) round apart by
    # about eps ||dC|| per entry, so their values differ by up to about
    # eps sqrt(Q ||dC||^2).  That is below 1e-13 of max |H| (1e-14 of Q on
    # the diagonal) on the bundled files but not on every random scenario
    # (up to 4e-13 and 2e-12 measured), so each check also admits 64 times
    # the rounding estimate (at most 14 times it on 5600 random scenarios).
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    s = random_scenario(rng, ns=ns, mode=mode)
    ta, tb = rng.normal(size=(2, 3 * ns))
    tangents = np.stack([ta, tb, ta + tb]).reshape(3, ns, 3)
    H = _qfi_matrix(s, tangents)
    assert np.array_equal(H, H.T)
    _, dC = amplitude_arrays(s, None, tangents)
    norms2 = [np.vdot(d, d).real for d in dC]
    polarized = H[0, 0] + H[1, 1] + 2.0 * H[0, 1]
    top = np.abs(H).max()
    assert abs(H[2, 2] - polarized) <= max(1e-13 * top, 64 * eps * math.sqrt(top * max(norms2)))
    for t, value, n2 in zip(tangents, np.diagonal(H), norms2):
        reference = qfi(s, GeneralizedCoordinate.from_tangent(t.ravel())).qfi
        assert abs(value - reference) <= max(1e-14 * reference, 64 * eps * math.sqrt(reference * n2))


def test_natural_displacement_scale_of_collectors_at_the_origin():
    # No collector offset sets the scale: it falls back to z0 / k.
    s = Scenario((SourcePoint(0.1, 0, 0),), (Collector(0, 0), Collector(0, 0)), k=2.0, z0=100.0)
    assert natural_displacement_scale(s) == 50.0


@pytest.mark.parametrize("values", [{}, {"qfi": 1.0}, {"cfi": 1.0}])
def test_saturation_ratio_needs_both_values(values):
    report = FisherReport(named_direction("x", 1), **values)
    assert report.saturation_ratio is None
    assert report.converged

