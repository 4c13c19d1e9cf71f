"""Built-in interferometers, SVD alignment, synthesis and saturation tests."""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emitterfisher import (
    Collector,
    DegenerateGeometryError,
    GeneralizedCoordinate,
    Interferometer,
    Mode,
    NumericalError,
    Provenance,
    Scenario,
    ScenarioError,
    SourcePoint,
    amplitude_and_derivative,
    beam_splitter_with_phase,
    build_amplitude_matrix,
    builtin_interferometer,
    bundled_scenario_path,
    bundled_scenarios,
    cfi,
    classical_fidelity,
    crb_sweep,
    detection_probabilities,
    disc_collector_grid,
    displace,
    identity_interferometer,
    information_report,
    interferometer_from_json,
    interferometer_to_json,
    load_scenario,
    named_direction,
    ParaxialTarget,
    optimal_interferometer,
    overlap_matrix,
    qfi,
    qfi_matrix_consistency,
    qft_interferometer,
    quantum_fidelity,
    synthesize_optimal_interferometer,
    verify_saturation,
)
import emitterfisher.fisher as fisher_mod
import emitterfisher.interferometer as itf_mod
from emitterfisher.interferometer import svd_alignment
from emitterfisher._precision import (
    one_minus_classical_fidelity,
    one_minus_trace_norm_fidelity,
)

RATIO_LO = 1 - 1e-5
RATIO_HI = 1 + 1e-6

# The randomized sweep intentionally includes geometries beyond the
# paraxial-validity guard; the model itself stays well defined there.
pytestmark = pytest.mark.filterwarnings("ignore:paraxial mode")


def symmetric_pair(dx, collectors=((5.0, 0.0), (-5.0, 0.0)), dz=0.0):
    return Scenario(
        sources=(SourcePoint(dx / 2, 0.0, dz / 2), SourcePoint(-dx / 2, 0.0, -dz / 2)),
        collectors=tuple(Collector(u, v) for u, v in collectors),
        k=1.0,
        z0=100.0,
    )


def random_scenario(rng):
    ns = int(rng.integers(1, 5))
    nc = int(rng.integers(ns, 9))
    mode = (Mode.PARAXIAL, Mode.EXACT)[int(rng.integers(2))]
    scale = (0.1, 5.0, 20.0)[int(rng.integers(3))]
    weights = rng.uniform(0.5, 1.5, ns)
    return Scenario(
        sources=tuple(
            SourcePoint(*rng.normal(0, scale, 3), weight=w) for w in weights
        ),
        collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
        k=1.0,
        z0=100.0,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# built-ins and serialization
# ---------------------------------------------------------------------------


def test_identity_builtin():
    ident = builtin_interferometer("identity", 3)
    np.testing.assert_array_equal(ident.matrix, np.eye(3))
    assert ident.provenance is Provenance.IDENTITY


def test_qft4_matches_quarter_phase_array():
    # Four-mode Fourier transform: (1/2) * i^(j*q).
    qft = builtin_interferometer("qft", 4)
    expected = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
    )
    np.testing.assert_allclose(qft.matrix, expected, atol=1e-15)


def test_qft_general_entry_formula():
    n = 5
    qft = qft_interferometer(n)
    j, q = 3, 4
    assert qft.matrix[j, q] == pytest.approx(np.exp(2j * np.pi * j * q / n) / math.sqrt(n))


def test_qft_depends_on_the_collector_order():
    # qft is a 1-D DFT over the collectors in file order, not imaging of a
    # 2-D array: reordering the 49 collectors of a disc leaves the QFI and
    # the optimal measurement's saturation, but moves centroid-x's CFI
    # behind qft (5.79e-11 in grid order, 3.71e-11 and 3.60e-11 reordered).
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    grid = disc_collector_grid(0.25)
    d = named_direction("centroid-x", 2)
    rng = np.random.default_rng(0)
    values = []
    for order in (np.arange(len(grid)), rng.permutation(len(grid)), rng.permutation(len(grid))):
        s = Scenario(pair.sources, tuple(grid[i] for i in order), pair.k, pair.z0, pair.mode)
        assert abs(verify_saturation(s, d).saturation_ratio - 1.0) <= 1e-9
        values.append((qfi(s, d).qfi, cfi(s, d, qft_interferometer(s.n_collectors)).cfi))
    (q0, c0), *reordered = values
    for q, c in reordered:
        assert q == pytest.approx(q0, rel=1e-12)
        assert abs(c - c0) > 0.1 * c0


@pytest.mark.parametrize("build, text", [
    (lambda: qft_interferometer(49), "Interferometer(n_modes=49, provenance='qft')"),
    (lambda: identity_interferometer(3), "Interferometer(n_modes=3, provenance='identity')"),
    (lambda: beam_splitter_with_phase(0.3), "Interferometer(n_modes=2, provenance='bs_phase')"),
    (lambda: optimal_interferometer(*amplitude_and_derivative(symmetric_pair(0.2),
                                                              named_direction("separation-x", 2))),
     "Interferometer(n_modes=2, provenance='synthesized')"),
])
def test_interferometer_repr_names_size_and_provenance(build, text, monkeypatch):
    # A measurement prints as its size and provenance, in every form, without
    # forming its matrix.
    R = build()

    def no_matrix(self):
        raise AssertionError("repr formed the N_C x N_C matrix")

    monkeypatch.setattr(type(R), "_form", no_matrix, raising=False)
    assert repr(R) == text


def test_bs_phase_needs_two_modes():
    with pytest.raises(ScenarioError):
        builtin_interferometer("bs_phase", 3)
    with pytest.raises(ScenarioError):
        builtin_interferometer("cascade", 2)


@pytest.mark.parametrize("builder", [
    lambda: identity_interferometer(4),
    lambda: beam_splitter_with_phase(0.37),
    lambda: qft_interferometer(6),
])
def test_builtins_are_unitary(builder):
    itf = builder()
    n = itf.n_modes
    assert np.linalg.norm(itf.matrix.conj().T @ itf.matrix - np.eye(n)) < 1e-10


def test_serialization_round_trip():
    original = beam_splitter_with_phase(1.25)
    doc = interferometer_to_json(original)
    loaded = interferometer_from_json(doc)
    np.testing.assert_allclose(loaded.matrix, original.matrix, atol=1e-15)
    assert loaded.provenance is Provenance.USER_SUPPLIED
    assert loaded.alpha == pytest.approx(1.25)


def test_serialization_is_strict_json():
    # The CLI's document encoder writes it: json.dumps(indent=2) byte for
    # byte.  A non-finite alpha is refused by the constructor, so none
    # reaches the encoder.
    original = beam_splitter_with_phase(1.25)
    doc = interferometer_to_json(original)
    assert doc == json.dumps(json.loads(doc), indent=2)
    with pytest.raises(ScenarioError, match="alpha"):
        Interferometer(original.matrix, alpha=math.nan)


@pytest.mark.parametrize("alpha", [math.nan, -math.inf, 10**400, "abc", "1.5", True, [1.0]],
                         ids=["nan", "-inf", "huge-int", "text", "numeric-text", "bool", "list"])
def test_alpha_must_be_a_finite_number(alpha):
    # Checked by the constructor, and so on load: json reads NaN, a huge
    # integer, a string or a bool as given.
    matrix = beam_splitter_with_phase(0.0).matrix
    with pytest.raises(ScenarioError, match="alpha"):
        Interferometer(matrix, alpha=alpha)
    doc = json.loads(interferometer_to_json(Interferometer(matrix)))
    with pytest.raises(ScenarioError, match="alpha"):
        interferometer_from_json(json.dumps({**doc, "alpha": alpha}))


@pytest.mark.parametrize("n_modes", [5, 1, 2.0, "2", None, True])
def test_n_modes_must_match_the_matrix(n_modes):
    doc = json.loads(interferometer_to_json(identity_interferometer(2)))
    with pytest.raises(ScenarioError, match="n_modes"):
        interferometer_from_json(json.dumps({**doc, "n_modes": n_modes}))
    # The key is optional.
    del doc["n_modes"]
    assert interferometer_from_json(json.dumps(doc)).n_modes == 2


_IDENTITY_ROWS = '[[{}, [0, 0]], [[0, 0], [1, 0]]]'


@pytest.mark.parametrize("entry", ["1" + "0" * 399, "true", "false", '"1"', "null", "[[1], 0]",
                                   "[1]", "1, 0, 0"],
                         ids=["400-digit-int", "true", "false", "numeric-text", "null", "nested",
                              "short-pair", "long-pair"])
def test_matrix_entries_must_be_number_pairs(entry):
    # A bool among numbers, which numpy would promote to one, an integer
    # beyond the float range, text and pairs of the wrong shape are a
    # malformed document.
    pair = entry if entry.startswith("[") else f"[{entry}, 0]"
    with pytest.raises(ScenarioError, match="malformed interferometer document"):
        interferometer_from_json(f'{{"matrix": {_IDENTITY_ROWS.format(pair)}}}')


@pytest.mark.parametrize("matrix", ['[[[1, 0], [0, 0]], [[0, 0]]]', '[[1, 0], [0, 1]]',
                                    '[[[1, 0]], [[0, 1]]]', '[]', '"identity"', '{"a": 1}'],
                         ids=["ragged", "no-pairs", "not-square", "empty", "text", "mapping"])
def test_matrix_must_be_square_pairs(matrix):
    with pytest.raises(ScenarioError, match="malformed interferometer document"):
        interferometer_from_json(f'{{"matrix": {matrix}}}')


def test_matrix_entries_keep_their_bits():
    # Integers and floats mix; signed zeros keep their sign bits.
    loaded = interferometer_from_json(
        '{"matrix": [[[1, -0.0], [-0.0, 0]], [[0, -0.0], [1.0, 0]]]}').matrix
    np.testing.assert_array_equal(loaded, np.eye(2))
    assert np.signbit(loaded.view(float)).tolist() == [[False, True, True, False],
                                                       [False, True, False, False]]


def test_non_unitary_rejected_on_load():
    bad = interferometer_to_json(identity_interferometer(2)).replace('1.0', '1.01', 1)
    with pytest.raises(NumericalError):
        interferometer_from_json(bad)


def test_interferometer_constructor_validates():
    with pytest.raises(NumericalError):
        Interferometer(np.array([[1.0, 0.0], [0.1, 1.0]]))
    # A non-finite matrix has a NaN residual, which must not pass.
    with pytest.raises(NumericalError, match="nan"):
        Interferometer(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_interferometer_matrix_must_be_square():
    with pytest.raises(ScenarioError, match="must be square"):
        Interferometer(np.ones((2, 3)) / math.sqrt(3))
    with pytest.raises(ScenarioError, match="must be square"):
        Interferometer(np.ones(2))


@pytest.mark.parametrize("build", [qft_interferometer, identity_interferometer])
@pytest.mark.parametrize("n_modes", [2.5, 0, -1, True, "2", None, math.nan],
                         ids=["fraction", "zero", "negative", "bool", "text", "none", "nan"])
def test_builtin_mode_count_must_be_a_whole_number(build, n_modes):
    with pytest.raises(ScenarioError, match="n_modes"):
        build(n_modes)


def test_builtin_mode_count_is_kept_as_an_int():
    for n_modes in (1, 3.0, np.int64(4)):
        R = qft_interferometer(n_modes)
        assert type(R.n_modes) is int and R.n_modes == n_modes


def test_fourier_unitarity_residual_is_computed_when_read():
    R = qft_interferometer(16)
    assert R._matrix is None
    residual = R.unitarity_residual
    assert R._matrix is not None and 0.0 <= residual < 1e-13
    assert residual == fisher_mod._full_unitarity_residual(R.matrix)


# ---------------------------------------------------------------------------
# SVD alignment
# ---------------------------------------------------------------------------


def test_svd_alignment_scalar():
    align = svd_alignment(np.array([[1.0]]))
    np.testing.assert_allclose(align.V, [[1.0]])
    np.testing.assert_allclose(align.W, [[1.0]])
    np.testing.assert_allclose(align.D, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_svd_alignment_refuses_non_finite_matrices(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        svd_alignment(M)


def test_svd_alignment_diagonal_positive():
    M = np.diag([0.2, 0.7, 0.1])
    align = svd_alignment(M)
    np.testing.assert_allclose(align.D, [0.7, 0.2, 0.1])
    np.testing.assert_allclose(
        align.V.conj().T @ M @ align.W, np.diag(align.D), atol=1e-12
    )


def test_svd_alignment_conjugate_pair_trace_norm():
    a, b = 0.45 * np.exp(0.3j), 0.2 * np.exp(-1.1j)
    M = np.array([[a, b], [np.conj(b), np.conj(a)]])
    align = svd_alignment(M)
    assert align.D.sum() == pytest.approx(2 * abs(a), rel=1e-12)
    np.testing.assert_allclose(
        align.V.conj().T @ M @ align.W, np.diag(align.D), atol=1e-12
    )


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesized_two_collector_is_balanced_splitter():
    # Symmetric pair: every matrix element has modulus 1/sqrt(2).
    s = symmetric_pair(0.2)
    d = named_direction("separation-x", 2)
    report = verify_saturation(s, d)
    R = report.interferometer.matrix
    np.testing.assert_allclose(np.abs(R), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-9)
    assert RATIO_LO <= report.saturation_ratio <= RATIO_HI


def test_synthesized_four_collector_acts_like_qft():
    # Near-coincident sources on the even array: same output distribution
    # as the four-mode Fourier transform, bright mode balanced over inputs.
    s = symmetric_pair(0.02, collectors=((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0)))
    d = named_direction("separation-x", 2)
    report = verify_saturation(s, d)
    R = report.interferometer
    C = build_amplitude_matrix(s)
    np.testing.assert_allclose(
        detection_probabilities(C, R),
        detection_probabilities(C, qft_interferometer(4)),
        atol=1e-6,
    )
    np.testing.assert_allclose(np.abs(R.matrix[0]), [0.5] * 4, atol=1e-3)
    assert RATIO_LO <= report.saturation_ratio <= RATIO_HI


def test_single_source_any_geometry_saturates():
    rng = np.random.default_rng(2)
    for mode in (Mode.PARAXIAL, Mode.EXACT):
        s = Scenario(
            sources=(SourcePoint(0.4, -0.2, 0.3),),
            collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(5)),
            k=1.0,
            z0=100.0,
            mode=mode,
        )
        d = GeneralizedCoordinate.from_tangent(rng.normal(size=3))
        report = verify_saturation(s, d)
        assert RATIO_LO <= report.saturation_ratio <= RATIO_HI
        # First output mode carries all the light at the base point.
        p = detection_probabilities(build_amplitude_matrix(s), report.interferometer)
        assert p[0] == pytest.approx(1.0, abs=1e-6)


def test_synthesis_requires_enough_collectors():
    s = symmetric_pair(0.2, collectors=((5.0, 0.0),))
    C = build_amplitude_matrix(s)
    with pytest.raises(ScenarioError):
        synthesize_optimal_interferometer(C, C)


def test_synthesis_result_holds_the_measurement_and_pivot_flag():
    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    d = named_direction("separation-x", 2)
    syn = synthesize_optimal_interferometer(build_amplitude_matrix(s),
                                            build_amplitude_matrix(displace(s, d, 1e-4)))
    assert [f.name for f in dataclasses.fields(syn)] == ["interferometer", "pivoted"]
    assert syn.pivoted is False


def test_synthesized_classical_fidelity_matches_trace_norm():
    # The synthesized measurement reaches the quantum fidelity for the pair.
    # 1 - F is ~1e-12 here, below double-precision resolution of F itself,
    # so both infidelities are compared in extended precision: the ratio is
    # 1 for the synthesized R, and ~0 for the identity (which a difference
    # of fidelities could not tell apart).
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_scenario(rng)
        d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * s.n_sources))
        moved = displace(s, d, 1e-4)
        C, Cp = build_amplitude_matrix(s), build_amplitude_matrix(moved)
        syn = synthesize_optimal_interferometer(C, Cp)
        one_minus_fq = one_minus_trace_norm_fidelity(s, moved)
        one_minus_fc = one_minus_classical_fidelity(s, moved, syn.interferometer.matrix)
        assert abs(one_minus_fc / one_minus_fq - 1.0) < 1e-6


def test_coincident_sources_fall_back_gracefully():
    s = Scenario(
        sources=(SourcePoint(0, 0, 0), SourcePoint(0, 0, 0)),
        collectors=tuple(Collector(u, 0) for u in (3.0, 1.0, -1.0, -3.0)),
        k=1.0,
        z0=100.0,
    )
    report = verify_saturation(s, named_direction("separation-x", 2))
    assert report.structure_ok
    assert RATIO_LO <= report.saturation_ratio <= RATIO_HI


def test_parameter_independent_magnitude_pattern():
    # Paraxial two-source separation: the optimal mode magnitudes do not
    # depend on the displacement of the theorem check.
    s = symmetric_pair(0.1, collectors=((3.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-3.0, 0.0)))
    d = named_direction("separation-x", 2)
    r1 = verify_saturation(s, d, delta_theta=2e-3)
    r2 = verify_saturation(s, d, delta_theta=2e-3 / 3)
    np.testing.assert_array_equal(
        np.abs(r1.interferometer.matrix), np.abs(r2.interferometer.matrix)
    )


def test_optimal_measurement_is_step_free():
    # The returned measurement comes from (C, dC) alone: bit-identical for
    # any step of the theorem check, and equal to optimal_interferometer.
    rng = np.random.default_rng(61)
    for _ in range(6):
        s = random_scenario(rng)
        d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * s.n_sources))
        R = verify_saturation(s, d).interferometer.matrix
        other_step = verify_saturation(s, d, delta_theta=-3e-6).interferometer.matrix
        np.testing.assert_array_equal(other_step, R)
        direct = optimal_interferometer(*amplitude_and_derivative(s, d)).matrix
        np.testing.assert_array_equal(direct, R)


def test_verify_saturation_builds_one_interferometer(monkeypatch, cold_loads):
    # One factored unitarity check on a cold scenario, and no O(N_C^3)
    # constructor check: the measurement is built from its Householder
    # factors and the theorem check builds none.
    built, factored = [], []
    check = Interferometer.__post_init__
    householder = itf_mod._householder_interferometer

    def counted_check(self):
        built.append(self)
        check(self)

    def counted_factored(*args):
        factored.append(args)
        return householder(*args)

    monkeypatch.setattr(Interferometer, "__post_init__", counted_check)
    monkeypatch.setattr(itf_mod, "_householder_interferometer", counted_factored)
    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    report = verify_saturation(s, named_direction("separation-x", 2))
    assert (len(built), len(factored)) == (0, 1)
    assert report.interferometer.provenance is Provenance.SYNTHESIZED
    assert report.unitarity_residual == report.interferometer.unitarity_residual


def test_verify_saturation_builds_amplitudes_once(monkeypatch, cold_loads):
    # On a cold scenario C and dC come from one amplitude build at the base
    # positions, and the displaced C' from one build without a derivative.
    # The theorem check is kept for the direction and step: a second call
    # builds no amplitudes and runs no alignment; another step builds C'
    # once, and the default step, no longer the kept one, builds it again.
    # The Fisher values equal, bit for bit, what information_report gives
    # for the returned measurement.
    import emitterfisher.geometry as geometry_mod

    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    d = named_direction("separation-z", 2)
    builds, alignments = [], []
    raw, align = geometry_mod._raw_amplitudes, itf_mod._align

    def counted(rows, xyz, *args):
        builds.append((xyz, args[-1] is not None))
        return raw(rows, xyz, *args)

    def counted_align(*args):
        alignments.append(args)
        return align(*args)

    monkeypatch.setattr(geometry_mod, "_raw_amplitudes", counted)
    monkeypatch.setattr(itf_mod, "_align", counted_align)
    report = verify_saturation(s, d)
    assert [derivative for _, derivative in builds] == [True, False]
    assert len(alignments) == 1
    np.testing.assert_array_equal(builds[0][0], s.source_positions())
    moved = s.source_positions() + geometry_mod.direction_rows(d, 2) * report.delta_theta
    np.testing.assert_array_equal(builds[1][0], moved)
    builds.clear()
    again = verify_saturation(s, d)
    assert (builds, len(alignments)) == ([], 1)
    assert again.to_dict() == report.to_dict()
    step = 2 * report.delta_theta
    verify_saturation(s, d, step)
    assert len(builds) == 1 and not builds[0][1] and len(alignments) == 2
    np.testing.assert_array_equal(builds[0][0], s.source_positions()
                                  + geometry_mod.direction_rows(d, 2) * step)
    builds.clear()
    assert verify_saturation(s, d).to_dict() == report.to_dict()
    assert len(builds) == 1 and not builds[0][1] and len(alignments) == 3
    np.testing.assert_array_equal(builds[0][0], moved)
    monkeypatch.undo()
    info = information_report(s, d, report.interferometer)
    assert (report.qfi_estimate, report.cfi_estimate, report.saturation_ratio) == (
        info.qfi, info.cfi, info.saturation_ratio)


def test_verify_saturation_factors_amplitudes_once(monkeypatch, cold_loads):
    # One support SVD of C serves the optimal measurement and the QFI, and
    # it stays on the scenario: a second call takes none.
    svd = fisher_mod.support_svd
    calls = []

    def counted(C):
        calls.append(C.shape)
        return svd(C)

    monkeypatch.setattr(fisher_mod, "support_svd", counted)
    monkeypatch.setattr(itf_mod, "support_svd", counted)
    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    verify_saturation(s, named_direction("separation-x", 2))
    assert calls == [(4, 2)]
    verify_saturation(s, named_direction("separation-x", 2))
    assert calls == [(4, 2)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 4),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
    coincident=st.booleans(),
)
def test_step_free_saturation_property(seed, ns, mode, coincident):
    # CFI / QFI of the optimal measurement is 1 to rounding, also where two
    # sources coincide and C loses rank.
    rng = np.random.default_rng(seed)
    nc = int(rng.integers(ns, 9))
    sources = [SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in rng.uniform(0.5, 1.5, ns)]
    if coincident and ns > 1:
        sources[1] = SourcePoint(sources[0].x, sources[0].y, sources[0].z, weight=sources[1].weight)
    s = Scenario(tuple(sources), tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
                 k=1.0, z0=100.0, mode=mode)
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))
    assert abs(verify_saturation(s, d).saturation_ratio - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# verify_saturation
# ---------------------------------------------------------------------------


def test_saturation_structure_residuals():
    s = symmetric_pair(0.2)
    report = verify_saturation(s, named_direction("separation-x", 2))
    assert report.unitarity_residual < 1e-10
    assert report.lower_triangular_residual < 1e-10
    assert report.upper_triangular_residual < 1e-9
    assert report.diagonal_product_residual < 1e-9
    assert report.scalar_product_residual < 1e-10
    assert report.structure_ok


def test_saturation_random_three_source():
    rng = np.random.default_rng(14)
    s = Scenario(
        sources=tuple(SourcePoint(*rng.normal(0, 0.5, 3)) for _ in range(3)),
        collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(6)),
        k=1.0,
        z0=100.0,
    )
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=9))
    report = verify_saturation(s, d, delta_theta=1e-4)
    assert 1 - 1e-6 <= report.saturation_ratio <= 1.0 + 1e-12


def test_saturation_two_collector_closed_form():
    s = symmetric_pair(0.1)
    d = named_direction("separation-x", 2)
    report = verify_saturation(s, d)
    expected = (10.0) ** 2 / (4 * 100.0**2)
    assert report.qfi_estimate == pytest.approx(expected, rel=1e-6)
    assert report.cfi_estimate == pytest.approx(expected, rel=1e-6)


def test_saturation_zero_displacement():
    # A zero step synthesizes from an identical pair: no measurement is defined.
    s = symmetric_pair(0.2)
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ScenarioError):
            verify_saturation(s, named_direction("separation-x", 2), delta_theta=step)


@pytest.mark.parametrize(
    "step", [True, False, "abc", "1e-3", 10**400, -math.inf, 1e-3j, [1e-3]]
)
def test_saturation_step_must_be_a_finite_real_number(step):
    # A bool, text, a complex or a sequence is not a step, and an integer
    # beyond the float range is not finite: each is a ScenarioError, not
    # a TypeError or an OverflowError, and none is reported as a step.
    s = symmetric_pair(0.2)
    with pytest.raises(ScenarioError):
        verify_saturation(s, named_direction("separation-x", 2), delta_theta=step)


@pytest.mark.parametrize("step", [np.float64(2e-3), np.float32(2e-3), 2e-3, 1])
def test_saturation_step_is_reported_as_a_float(step):
    # Real numbers of any type are taken, and reported as the float checked.
    s = symmetric_pair(0.2)
    report = verify_saturation(s, named_direction("separation-x", 2), delta_theta=step)
    assert type(report.delta_theta) is float and report.delta_theta == float(step)


def _full_q_theorem_check(C, C_prime, unitarity_residual):
    """Reference: the theorem check through the full N_C x N_C Q of the QR.

    Returns (residuals, quantum fidelity, pivots, structure_ok) as computed
    by projecting A and B with every output row, the N_C - N_S dark ones
    included, and the fidelity from its own SVD of C^dag C'.
    """
    import scipy.linalg

    nc, ns = C.shape
    align = svd_alignment(C.conj().T @ C_prime)
    A, B = C @ align.V, C_prime @ align.W
    Q, T, piv = scipy.linalg.qr(A, mode="full", pivoting=True)
    d = np.diagonal(T)
    phases = np.ones(nc, dtype=complex)
    phases[:ns] = np.where(np.abs(d) > 1e-300, d.conj() / np.maximum(np.abs(d), 1e-300), 1.0)
    R1 = phases[:, None] * Q.conj().T
    A, B, D = A[:, piv], B[:, piv], align.D[piv]
    RA, RB = R1 @ A, R1 @ B
    residuals = {
        "lower_triangular_residual": float(np.max(np.abs(np.tril(RA, -1)))),
        "upper_triangular_residual": float(np.max(np.abs(np.triu(RB, 1)))) if ns > 1 else 0.0,
        "diagonal_product_residual": float(
            np.max(np.abs(np.abs(np.diagonal(RA)[:ns] * np.diagonal(RB)[:ns]) - D))),
        "scalar_product_residual": float(np.max(np.abs(A.conj().T @ B - np.diag(D)))),
    }
    structure_ok = (
        unitarity_residual < itf_mod.UNITARITY_TOL
        and residuals["lower_triangular_residual"] < itf_mod.LOWER_TRIANGULAR_TOL
        and residuals["upper_triangular_residual"] < itf_mod.UPPER_TRIANGULAR_TOL
        and residuals["diagonal_product_residual"] < itf_mod.DIAGONAL_PRODUCT_TOL
    )
    return residuals, quantum_fidelity(overlap_matrix(C, C_prime)), piv, structure_ok


def test_theorem_check_matches_full_q_reference():
    # The check on the N_S occupied rows gives the full-Q numbers: same
    # pivots and verdict, residuals and fidelity within 1e-14, over 1-6
    # sources, both modes, coincident pairs and source scales down to 1e-6.
    rng = np.random.default_rng(808)
    verdicts = set()
    for i in range(240):
        ns = 1 + i % 6
        nc = int(rng.integers(ns, ns + 7))
        mode = (Mode.PARAXIAL, Mode.EXACT)[(i // 6) % 2]
        scale = (1e-6, 1e-3, 0.1, 0.5, 5.0)[(i // 12) % 5]
        sources = [SourcePoint(*rng.normal(0, scale, 3), weight=w)
                   for w in rng.uniform(0.5, 1.5, ns)]
        if ns > 1 and (i // 60) % 2:
            sources[1] = SourcePoint(sources[0].x, sources[0].y, sources[0].z,
                                     weight=sources[1].weight)
        s = Scenario(tuple(sources), tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
                     k=1.0, z0=100.0, mode=mode)
        d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))
        report = verify_saturation(s, d)
        C = build_amplitude_matrix(s)
        C_prime = build_amplitude_matrix(displace(s, d, report.delta_theta))
        residuals, fq, piv, ok = _full_q_theorem_check(C, C_prime, report.unitarity_residual)
        np.testing.assert_array_equal(report.pivots, piv)
        assert report.structure_ok == ok
        verdicts.add(ok)
        for name, value in residuals.items():
            assert abs(getattr(report, name) - value) < 1e-14, (i, name)
        assert abs(report.quantum_fidelity - fq) < 1e-14
    assert verdicts == {True, False}


def _pivot_case(rng, i):
    """(scenario, direction) of case i of the pivot search's generator.

    1-8 sources (the theorem check's range), both modes, source spreads
    from 1e-8 to 1, a coincident pair in about a fifth of the cases and,
    from four sources, a second one in about a third.
    """
    ns = 1 + i % 8
    nc = int(rng.integers(max(ns, 2), 40))
    mode = (Mode.PARAXIAL, Mode.EXACT)[(i // 8) % 2]
    positions = rng.normal(0, 10 ** rng.uniform(-8, 0), (ns, 3))
    if ns > 1 and rng.random() < 0.2:
        positions[1] = positions[0]
    if ns > 3 and rng.random() < 0.3:
        positions[3] = positions[2]
    s = Scenario(
        tuple(SourcePoint(*p, weight=w) for p, w in zip(positions, rng.uniform(0.5, 1.5, ns))),
        tuple(Collector(*rng.uniform(-1, 1, 2)) for _ in range(nc)),
        k=2 * math.pi * rng.uniform(1, 5), z0=1.0, mode=mode,
    )
    return s, GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))


def _wide_margin_pivot_case():
    """(scenario, direction) whose pivot search swaps by a margin far above rounding.

    Three paraxial sources whose columns are exactly orthogonal discrete
    Fourier modes of a 4 x 5 collector grid, whatever the y of source 1,
    which alone moves, along y.  C^dag C' is then diagonal,
    (w0, w1 |f|, w2) with 1 - |f| = var(dphi) / 2 = 2.5e-9 at the default
    step.  With w1 = w0 (1 + 1.25e-9), the aligned frame A takes source 0's
    column first (its singular value is larger by 1.25e-9 relative), while
    source 1's column is longer (by 6.3e-10 relative, some 10^6 ulps): the
    search swaps the two and re-factors the trailing triangle.
    """
    collectors = tuple(Collector(u, v) for u in (-1.5, -0.5, 0.5, 1.5)
                       for v in (-2.0, -1.0, 0.0, 1.0, 2.0))
    # k u x / z0 steps by 2 pi / 4 along u for source 1; k v y / z0 by 2 pi / 5 along v
    # for source 2.
    sources = (SourcePoint(0.0, 0.0, 0.0, weight=1.0),
               SourcePoint(2.5, 0.0, 0.0, weight=1.0 + 1.25e-9),
               SourcePoint(0.0, 2.0, 0.0, weight=0.5))
    s = Scenario(sources, collectors, k=20 * math.pi, z0=100.0)
    return s, GeneralizedCoordinate.from_tangent([0, 0, 0, 0, 1, 0, 0, 0, 0])


def _pivot_pair(s, d):
    """(C, C') of the theorem check's pair at the default step."""
    C = build_amplitude_matrix(s)
    return C, build_amplitude_matrix(displace(s, d, 1e-4 * itf_mod.natural_displacement_scale(s)))


def _two_qr_alignment(C, C_prime):
    """Reference alignment: the pivot search on a mode="r" QR of A, then a QR of A[:, piv]."""
    align = svd_alignment(C.conj().T @ C_prime)
    A, B = C @ align.V, C_prime @ align.W
    piv = itf_mod._pivot_order(np.linalg.qr(A, mode="r"))
    Q, T = np.linalg.qr(A[:, piv])
    d = np.diagonal(T)
    phases = np.where(np.abs(d) > 1e-300, d.conj() / np.maximum(np.abs(d), 1e-300), 1.0)
    return phases[:, None] * Q.conj().T, A[:, piv], B[:, piv], align.D[piv], piv


def test_pivot_order_matches_lapack_pivoted_qr():
    # The pivot search gives the column order of scipy's pivoted QR (LAPACK
    # geqp3) on aligned frames (_pivot_case), where the coincident pairs
    # make swaps cascade through re-factored trailing blocks.  On each
    # frame the one-QR alignment equals the two-QR reference bit for bit.
    import scipy.linalg

    rng = np.random.default_rng(909)
    permuted = 0
    for i in range(480):
        C, C_prime = _pivot_pair(*_pivot_case(rng, i))
        A = C @ svd_alignment(C.conj().T @ C_prime).V
        piv = scipy.linalg.qr(A, mode="r", pivoting=True)[1]
        B = np.linalg.qr(A, mode="r")
        np.testing.assert_array_equal(itf_mod._pivot_order(B), piv, err_msg=f"case {i}")
        for got, want in zip(itf_mod._align(C, C_prime), _two_qr_alignment(C, C_prime)):
            assert got.tobytes() == want.tobytes(), f"case {i}"
        permuted += bool(np.any(piv != np.arange(C.shape[1])))
    assert permuted >= 10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.integers(0, 15))
# Cases whose search permuted by rounding when they were found; (2, 7)
# still does.  test_one_qr_alignment_past_a_wide_margin_swap permutes by
# design, so both branches always run.
@example(seed=6, case=3)
@example(seed=0, case=5)
@example(seed=2, case=7)
def test_one_qr_alignment_equals_two_qr_reference(seed, case):
    # _align takes one reduced QR of A and reads the pivot search from its
    # triangle, with a second QR only when the search permuted: P, A, B, D
    # and the pivots equal, bit for bit, those of a separate mode="r" QR
    # for the search followed by a QR of A[:, piv].
    C, C_prime = _pivot_pair(*_pivot_case(np.random.default_rng(seed), case))
    for got, want in zip(itf_mod._align(C, C_prime), _two_qr_alignment(C, C_prime)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_qr_alignment_past_a_wide_margin_swap():
    C, C_prime = _pivot_pair(*_wide_margin_pivot_case())
    got, want = itf_mod._align(C, C_prime), _two_qr_alignment(C, C_prime)
    assert got[-1].tolist() == [1, 0, 2]
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _recorded_qrs(monkeypatch):
    """A list that records (mode, input shape, output) of every np.linalg.qr call."""
    qr = np.linalg.qr
    calls = []

    def recording(a, mode="reduced"):
        out = qr(a, mode=mode)
        calls.append((mode, np.shape(a), out))
        return out

    monkeypatch.setattr(np.linalg, "qr", recording)
    return calls


def test_theorem_check_forms_no_square_q(monkeypatch, cold_loads):
    # No QR of the theorem check returns an N_C x N_C factor.  The check
    # takes one reduced QR of the N_C x N_S frame A, whose triangle the
    # pivot search reads; a second one, of the permuted A, only when the
    # search permuted.  The optimal measurement's Householder QR is raw
    # (on a cold scenario: a warm one keeps the measurement).
    calls = _recorded_qrs(monkeypatch)
    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    report = verify_saturation(s, named_direction("separation-x", 2))
    assert not report.pivoted
    assert "complete" not in [mode for mode, _, _ in calls]
    assert [mode for mode, _, _ in calls] == ["raw", "reduced"]
    assert [out[0].shape for mode, _, out in calls if mode == "reduced"] == [(4, 2)]

    # A search that permutes by a wide margin: its swap re-factors the
    # trailing N_S x N_S triangle before the second reduced QR.
    calls.clear()
    s, d = _wide_margin_pivot_case()
    report = verify_saturation(s, d)
    assert report.pivots.tolist() == [1, 0, 2] and (s.n_sources, s.n_collectors) == (3, 20)
    assert [mode for mode, _, _ in calls if mode != "r"] == ["raw", "reduced", "reduced"]
    assert [out[0].shape for mode, _, out in calls if mode == "reduced"] == [(20, 3)] * 2
    assert [shape for mode, shape, _ in calls if mode == "r"] == [(3, 3)]


def test_each_optimal_measurement_does_one_householder_qr(monkeypatch):
    # The optimal measurement completes its support rows from the raw
    # Householder factors of one QR, not the square Q of a complete QR;
    # the pair synthesis is that builder fed the finite difference.
    qr = np.linalg.qr
    modes = []

    def recording(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    s = load_scenario(bundled_scenario_path("four_collector.scn"))
    d = named_direction("separation-x", 2)
    C, dC = amplitude_and_derivative(s, d)
    C_prime = build_amplitude_matrix(displace(s, d, 1e-4))
    monkeypatch.setattr(np.linalg, "qr", recording)
    optimal_interferometer(C, dC)
    assert modes == ["raw"]
    syn = synthesize_optimal_interferometer(C, C_prime)
    # The theorem check's own QRs (_align) are the other calls.
    assert modes.count("raw") == 2 and "complete" not in modes
    np.testing.assert_array_equal(syn.interferometer.matrix,
                                  optimal_interferometer(C, C_prime - C).matrix)


def _random_array(seed, ns, mode, coincident, max_collectors=64):
    """(scenario, direction): ns sources, up to max_collectors collectors, maybe a coincident pair."""
    rng = np.random.default_rng(seed)
    nc = int(rng.integers(ns, max_collectors + 1))
    sources = [SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in rng.uniform(0.5, 1.5, ns)]
    if coincident and ns > 1:
        sources[1] = SourcePoint(sources[0].x, sources[0].y, sources[0].z, weight=sources[1].weight)
    s = Scenario(tuple(sources), tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
                 k=1.0, z0=100.0, mode=mode)
    return s, GeneralizedCoordinate.from_tangent(rng.normal(size=3 * ns))


def _factored_check_case(seed, ns, mode, coincident, max_collectors=64):
    """(C, dC, C') of a random array with ns sources and up to max_collectors collectors."""
    s, d = _random_array(seed, ns, mode, coincident, max_collectors)
    C, dC = amplitude_and_derivative(s, d)
    C_prime = build_amplitude_matrix(displace(s, d, 1e-4 * itf_mod.natural_displacement_scale(s)))
    return C, dC, C_prime


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 6),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
    coincident=st.booleans(),
)
def test_factored_unitarity_residual_matches_full_check(seed, ns, mode, coincident):
    # The residual checked from the Householder factors is the O(N_C^3)
    # constructor's ||R^dag R - I||_F of the same matrix, to rounding, for
    # both optimal measurements, also where coincident sources make the
    # support rank r < N_S.
    C, dC, C_prime = _factored_check_case(seed, ns, mode, coincident)
    for R in (optimal_interferometer(C, dC),
              synthesize_optimal_interferometer(C, C_prime).interferometer):
        full = Interferometer(np.array(R.matrix)).unitarity_residual
        assert abs(R.unitarity_residual - full) < 1e-12
        assert R.unitarity_residual < 1e-12
        assert R.provenance is Provenance.SYNTHESIZED and not R.matrix.flags.writeable


def _reflector_product(reflectors, tau):
    """Q^dag = H_r^dag ... H_1^dag from the definition H_i = I - tau_i v_i v_i^dag."""
    r, n = reflectors.shape
    Qh = np.eye(n, dtype=complex)
    for i in range(r):
        v = np.concatenate([np.zeros(i), [1.0], reflectors[i, i + 1:]])
        Qh = (np.eye(n) - np.conj(tau[i]) * np.outer(v, v.conj())) @ Qh
    return Qh


def test_factored_check_rejects_non_unitary_factors():
    # Support rows off by 1e-6, support rows that overlap the dark rows,
    # and reflectors whose product is not unitary all raise NumericalError;
    # a product 1e-12 off unitary passes with the full check's residual.
    from emitterfisher.fisher import _householder_interferometer

    C, dC, _ = _factored_check_case(7, 3, Mode.PARAXIAL, False, max_collectors=12)
    Ur = itf_mod.support_svd(C)[0]
    r, n = Ur.shape[1], C.shape[0]
    reflectors, tau = np.linalg.qr(Ur, mode="raw")
    rows = optimal_interferometer(C, dC).matrix[:r]
    _householder_interferometer(reflectors, tau, rows)
    noise = np.random.default_rng(3).normal(size=rows.shape)
    with pytest.raises(NumericalError):
        _householder_interferometer(reflectors, tau, rows + 1e-6 * noise)
    turned = np.linalg.qr(np.vstack([rows[:-1], rows[-1] + 1e-3 * noise[-1]]).T).Q.T
    assert np.linalg.norm(turned @ turned.conj().T - np.eye(r)) < 1e-12
    with pytest.raises(NumericalError):
        _householder_interferometer(reflectors, tau, turned)
    # Only the dark block is off: the support rows are orthonormal and
    # orthogonal to the dark rows of the perturbed product.
    for scale, rejected in ((1e-6, True), (1e-12, False)):
        bent = tau * (1.0 + scale)
        dark = _reflector_product(reflectors, bent)[r:]
        own_rows = np.linalg.svd(dark)[2][n - r:]
        if rejected:
            with pytest.raises(NumericalError):
                _householder_interferometer(reflectors, bent, own_rows)
        else:
            R = _householder_interferometer(reflectors, bent, own_rows)
            residual = np.linalg.norm(R.matrix.conj().T @ R.matrix - np.eye(n))
            assert R.unitarity_residual == pytest.approx(residual, rel=1e-3)
            assert R.unitarity_residual > 1e-13


def _close(value, reference, rel=1e-12):
    return abs(value - reference) <= rel * abs(reference)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 6),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
    coincident=st.booleans(),
)
def test_measurement_forms_agree_with_their_matrices(seed, ns, mode, coincident):
    # Dense, Householder and Fourier forms: apply(X) is matrix @ X, so is
    # every slice of a (T, N_C, m) stack applied at once, and every entry
    # point gives through the operator what it gives for the same
    # measurement passed as a raw dense matrix.
    s, d = _random_array(seed, ns, mode, coincident)
    n = s.n_collectors
    C, dC = amplitude_and_derivative(s, d)
    C_prime = build_amplitude_matrix(displace(s, d, 1e-4 * itf_mod.natural_displacement_scale(s)))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    stack = rng.normal(size=(4, n, 3)) + 1j * rng.normal(size=(4, n, 3))
    haar = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))).Q
    forms = (Interferometer(haar), optimal_interferometer(C, dC),
             synthesize_optimal_interferometer(C, C_prime).interferometer, qft_interferometer(n))
    for R in forms:
        for block in (X, C, dC):
            assert np.linalg.norm(R.apply(block) - R.matrix @ block) <= 1e-13 * np.linalg.norm(block)
        applied = fisher_mod._applied(R, stack)
        assert applied.shape == stack.shape
        for RX, block in zip(applied, stack):
            assert np.linalg.norm(RX - R.matrix @ block) <= 1e-13 * np.linalg.norm(stack)
        raw = np.array(R.matrix)
        assert _close(cfi(s, d, R).cfi, cfi(s, d, raw).cfi)
        report, dense_report = information_report(s, d, R), information_report(s, d, raw)
        assert report.qfi == dense_report.qfi and _close(report.cfi, dense_report.cfi)
        p, dense_p = detection_probabilities(C, R), detection_probabilities(C, raw)
        # Dark ports hold rounding only: 1e-15 absolute there.
        assert np.all(np.abs(p - dense_p) <= np.maximum(1e-12 * dense_p, 1e-15))
        assert _close(classical_fidelity(C, C_prime, R), classical_fidelity(C, C_prime, raw))


def test_measurements_compare_and_hash_by_identity():
    # Two measurements built alike are two measurements: == and hash are
    # by identity and never form or compare a matrix, in every form.
    C, dC, _ = _factored_check_case(7, 2, Mode.PARAXIAL, False, max_collectors=12)
    for build in (lambda: identity_interferometer(4), lambda: qft_interferometer(4),
                  lambda: optimal_interferometer(C, dC)):
        a, b = build(), build()
        assert a == a and a != b and not a == b
        table = {a: "a", b: "b"}
        assert (table[a], table[b]) == ("a", "b")


def test_wide_disc_measurements_form_no_dense_matrix():
    # The N_C = 5025 disc, where one dense R is 404 MB: the optimal
    # measurement and qft are applied in factored form, so the saturation
    # check, the cfi behind qft and a Monte-Carlo sweep behind qft never
    # hold an N_C x N_C array.
    import tracemalloc

    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    s = Scenario(pair.sources, disc_collector_grid(0.025), pair.k, pair.z0, pair.mode)
    assert s.n_collectors == 5025
    d = named_direction("separation-x", 2)
    tracemalloc.start()
    try:
        report = verify_saturation(s, d)
        behind_qft = cfi(s, d, qft_interferometer(s.n_collectors)).cfi
        crb_sweep(s, d, qft_interferometer(s.n_collectors), theta_true=1.0,
                  n_photons=10_000_000, trials=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert abs(report.saturation_ratio - 1.0) < 1e-10
    assert behind_qft <= report.qfi_estimate


@pytest.mark.parametrize("form", ["qft", "optimal"])
def test_sweep_behind_factored_measurement_forms_no_matrix(monkeypatch, form):
    # A Monte-Carlo sweep on the N_C = 49 disc applies qft and the optimal
    # measurement in their own form: reading their matrix would raise.
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    s = Scenario(pair.sources, disc_collector_grid(0.25), pair.k, pair.z0, pair.mode)
    assert s.n_collectors == 49
    d = named_direction("separation-x", 2)
    R = qft_interferometer(49) if form == "qft" else verify_saturation(s, d).interferometer

    def no_matrix(self):
        raise AssertionError("the sweep formed the N_C x N_C matrix")

    monkeypatch.setattr(type(R), "_form", no_matrix)
    aggregate, estimates = crb_sweep(s, d, R, theta_true=1.0, n_photons=5_000_000, trials=5, seed=3)
    assert len(estimates) == 5 and math.isfinite(aggregate.crb_ratio)


def test_pair_built_measurement_saturates_on_ill_conditioned_array():
    # Eight seeded sources on the N_C = 317 disc, drawn in the order of the
    # wide-aperture benchmark (seed 101): the amplitude matrix is badly
    # conditioned, and the measurement built from the pair at the default
    # step still saturates the QFI at the base point.
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    rng = np.random.default_rng(101)
    sources = tuple(SourcePoint(*rng.normal(0, 0.2, 3), weight=w) for w in rng.uniform(0.5, 1.5, 8))
    s = Scenario(sources, disc_collector_grid(0.1), pair.k, pair.z0, pair.mode)
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * s.n_sources))
    step = itf_mod.SYNTH_STEP_FRACTION * itf_mod.natural_displacement_scale(s)
    C = build_amplitude_matrix(s)
    R = synthesize_optimal_interferometer(C, build_amplitude_matrix(displace(s, d, step))).interferometer
    assert RATIO_LO <= information_report(s, d, R).saturation_ratio <= RATIO_HI


def test_disc_design_matrix_passes_full_check_after_json_round_trip():
    # The N_C = 317 disc: the design measurement, checked from its factors,
    # still passes the constructor's O(N_C^3) check once read back from
    # its JSON document, at the same residual.
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    s = Scenario(pair.sources, disc_collector_grid(0.1), pair.k, pair.z0, pair.mode)
    assert s.n_collectors == 317
    R = verify_saturation(s, named_direction("separation-x", 2)).interferometer
    loaded = interferometer_from_json(interferometer_to_json(R))
    np.testing.assert_array_equal(loaded.matrix, R.matrix)
    assert loaded.unitarity_residual < 1e-12
    assert abs(loaded.unitarity_residual - R.unitarity_residual) < 1e-12


def test_saturation_ratio_is_the_closed_form_ratio():
    # design, saturate and cfi report one number: the information_report
    # ratio of the measurement verify_saturation returns, bit for bit, as
    # both apply it once to [C, dC].
    rng = np.random.default_rng(41)
    cases = [(s, named_direction(name, s.n_sources))
             for s in map(load_scenario, bundled_scenarios().values())
             for name in ("separation-x", "separation-z")]
    for _ in range(8):
        s = random_scenario(rng)
        cases.append((s, GeneralizedCoordinate.from_tangent(rng.normal(size=3 * s.n_sources))))
    for s, d in cases:
        report = verify_saturation(s, d)
        info = information_report(s, d, report.interferometer)
        assert report.saturation_ratio == info.saturation_ratio
        assert report.qfi_estimate == info.qfi
        assert report.cfi_estimate == info.cfi


def _check_wide_aperture_step_free(seed):
    # Eight sources seen through the N_C = 317 disc (sigma_min / sigma_max
    # ~ 1e-10): a measurement synthesized from a displaced pair reaches only
    # 0.99996 of the QFI at the default step; the step-free one reaches it
    # to rounding.
    rng = np.random.default_rng(seed)
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    sources = tuple(
        SourcePoint(*rng.normal(0, 0.2, 3), weight=w) for w in rng.uniform(0.5, 1.5, 8)
    )
    s = Scenario(sources, disc_collector_grid(0.1), pair.k, pair.z0, pair.mode)
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * 8))
    report = verify_saturation(s, d)
    info = information_report(s, d, report.interferometer)
    assert report.saturation_ratio == pytest.approx(info.saturation_ratio, rel=1e-12)
    assert abs(report.saturation_ratio - 1.0) < 1e-10


def test_saturation_refines_ill_conditioned_wide_aperture():
    # Seed 101, where the step-refinement used to be needed, now checked
    # step-free at 1e-10, tighter than the [RATIO_LO, RATIO_HI] band.
    _check_wide_aperture_step_free(101)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_saturation_step_free_on_ill_conditioned_wide_aperture(seed):
    _check_wide_aperture_step_free(seed)


def test_saturation_sweep_smoke():
    # 20-scenario slice of the acceptance sweep.
    rng = np.random.default_rng(100)
    for _ in range(20):
        s = random_scenario(rng)
        d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * s.n_sources))
        report = verify_saturation(s, d)
        assert report.structure_ok, report.to_dict()
        assert RATIO_LO <= report.saturation_ratio <= RATIO_HI, report.to_dict()


# ---------------------------------------------------------------------------
# Data kept on a Scenario
# ---------------------------------------------------------------------------


def _saturation_values(report) -> tuple:
    return (*report.to_dict().values(), report.probabilities.tobytes(), report.pivots.tobytes(),
            report.interferometer.matrix.tobytes())


def _design_values(design) -> tuple:
    R, report, p = design
    return R.matrix.tobytes(), report.qfi, report.cfi, p.tobytes()


def _consistency_values(scenario) -> tuple:
    target = (ParaxialTarget.SINGLE_SOURCE, ParaxialTarget.TWO_SOURCE_SEPARATION)[scenario.n_sources - 1]
    report = qfi_matrix_consistency(scenario, target)
    return report.finite_difference.tobytes(), report.relative_errors.tobytes()


# Each scenario entry point, as (scenario, direction, measurement) -> its
# values, whose repr holds every bit of them.
_KEPT_CALLS = {
    "qfi": lambda s, d, R: qfi(s, d),
    "cfi": lambda s, d, R: cfi(s, d, R),
    "report": lambda s, d, R: information_report(s, d, R),
    "saturate": lambda s, d, R: _saturation_values(verify_saturation(s, d)),
    "design": lambda s, d, R: _design_values(itf_mod._design(s, d)),
    "consistency": lambda s, d, R: _consistency_values(s),
}


# The slots of what is kept on a Scenario from its amplitudes on.
_KEPT_SLOTS = {"_amplitudes", "_derivative", "_svd", "_qfi", "_design", "_theorem"}


def _held_arrays(value):
    """The numpy arrays in a kept value or slot, however nested in tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in _held_arrays(item)]
    return []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ns=st.integers(1, 4),
    mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]),
    calls=st.lists(st.tuples(st.sampled_from(sorted(_KEPT_CALLS)), st.integers(0, 1)),
                   min_size=1, max_size=8),
)
def test_kept_values_equal_cold_values(seed, ns, mode, calls):
    # Calls interleaved over two directions and qfi_matrix_consistency's
    # direction stack, which take turns in the one dC slot, give, bit for
    # bit, what a cold copy of the scenario (nothing kept) gives.  Each
    # call parses its direction anew, as the CLI does.
    rng = np.random.default_rng(seed)
    nc = int(rng.integers(ns, 9))
    s = Scenario(
        tuple(SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in rng.uniform(0.5, 1.5, ns)),
        tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)), k=1.0, z0=100.0, mode=mode,
    )
    tangents = rng.normal(size=(2, 3 * ns))
    R = qft_interferometer(nc)
    for name, i in calls:
        if name == "consistency" and (ns > 2 or mode is Mode.EXACT):
            continue
        d = GeneralizedCoordinate.from_tangent(tangents[i])
        cold = dataclasses.replace(s)
        assert cold == s and not set(vars(cold)) & _KEPT_SLOTS
        assert repr(_KEPT_CALLS[name](s, d, R)) == repr(_KEPT_CALLS[name](cold, d, R))


def test_kept_arrays_are_read_only():
    # A caller's in-place edit would change every later result of the
    # scenario, so every array it holds refuses writes.
    s = symmetric_pair(0.2)
    d = named_direction("separation-x", 2)
    C, dC = amplitude_and_derivative(s, d)
    report = verify_saturation(s, d)
    drho = fisher_mod._direction_qfi(s, d)[1]
    qfi_matrix_consistency(s, ParaxialTarget.TWO_SOURCE_SEPARATION)
    held = _held_arrays(tuple(vars(s).values()))
    # positions, weights, collectors, rows, C, dC stack, U_r, s_r, V_r, d rho, p
    assert len(held) >= 11
    assert any(array is drho for array in held)
    assert any(array is report.probabilities for array in held)
    for array in (C, dC, build_amplitude_matrix(s), report.probabilities, report.pivots, drho,
                  *held):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("entry", ["verify_saturation", "_design"])
def test_second_design_along_a_direction_builds_nothing(entry, monkeypatch):
    # The QFI with its d rho and the optimal measurement with its CFI and
    # probabilities are kept on the scenario for the direction: a second
    # call along it, with the direction parsed anew or at another
    # parameter_scale, takes no QFI and builds no measurement, and returns
    # the same measurement; a new direction builds both again.
    qfi_values, builds = [], []
    qfi_value, householder = fisher_mod._qfi_value, itf_mod._householder_interferometer

    def counted_qfi(*args):
        qfi_values.append(args)
        return qfi_value(*args)

    def counted_householder(*args):
        builds.append(args)
        return householder(*args)

    monkeypatch.setattr(fisher_mod, "_qfi_value", counted_qfi)
    monkeypatch.setattr(itf_mod, "_householder_interferometer", counted_householder)
    call = getattr(itf_mod, entry)

    def measurement(s, d):
        result = call(s, d)
        return result.interferometer if entry == "verify_saturation" else result[0]

    s = symmetric_pair(0.2, collectors=((5.0, 0.0), (-5.0, 0.0), (0.0, 5.0)))
    R = measurement(s, named_direction("separation-x", 2))
    assert (len(qfi_values), len(builds)) == (1, 1)
    assert measurement(s, named_direction("separation-x", 2)) is R
    assert measurement(s, GeneralizedCoordinate.from_tangent([1, 0, 0, -1, 0, 0])) is R
    assert (len(qfi_values), len(builds)) == (1, 1)
    other = measurement(s, named_direction("separation-z", 2))
    assert other is not R and (len(qfi_values), len(builds)) == (2, 2)
    # The report scales the kept values by each coordinate's parameter_scale.
    longer = GeneralizedCoordinate.from_tangent([1, 0, 0, -1, 0, 0])
    kept = itf_mod._design(s, longer)[1]
    monkeypatch.undo()
    cold = itf_mod._design(dataclasses.replace(s), longer)[1]
    assert (kept.qfi, kept.cfi) == (cold.qfi, cold.cfi)
    assert kept.qfi == 4.0 * itf_mod._design(s, named_direction("separation-x", 2))[1].qfi


def test_large_optimal_measurement_is_not_kept():
    # Above geometry.KEPT_MEASUREMENT_BYTES of factors the measurement is
    # built on every call and not kept, so the memo's charge for such a
    # scenario holds none; the QFI is kept all the same, and the values
    # equal a cold build's.
    import emitterfisher.geometry as geometry_mod

    s = Scenario((SourcePoint(0.1, 0.0, 0.0), SourcePoint(-0.1, 0.0, 0.0)),
                 tuple(Collector(0.001 * q, 0.0) for q in range(22000)), k=1.0, z0=100.0)
    assert 48 * s.n_collectors * s.n_sources > geometry_mod.KEPT_MEASUREMENT_BYTES
    assert geometry_mod._kept_measurement_entries(s.n_collectors, s.n_sources) == 0
    d = named_direction("separation-x", 2)
    first, second = itf_mod._design(s, d), itf_mod._design(s, d)
    assert first[0] is not second[0]
    assert "_design" not in vars(s) and "_qfi" in vars(s)
    # Not its matrix: that has 22000^2 entries.
    for R, report, p in (second, itf_mod._design(dataclasses.replace(s), d)):
        assert (report.qfi, report.cfi, p.tobytes()) == (first[1].qfi, first[1].cfi,
                                                          first[2].tobytes())


def test_degenerate_build_keeps_nothing():
    # A source on a collector (exact mode) fails every call alike: nothing
    # is kept from the failed build.
    s = Scenario((SourcePoint(3.0, 0.0, -10.0), SourcePoint(-1.0, 0.0, 0.0)),
                 (Collector(3.0, 0.0), Collector(-3.0, 0.0)), k=1.0, z0=10.0, mode=Mode.EXACT)
    d = named_direction("separation-x", 2)
    for call in (lambda: qfi(s, d), lambda: verify_saturation(s, d), lambda: build_amplitude_matrix(s)):
        for _ in range(2):
            with pytest.raises(DegenerateGeometryError, match="coincides with collector"):
                call()
    assert not set(vars(s)) & _KEPT_SLOTS


def test_kept_theorem_check_repeats_the_step_checks():
    # The kept theorem check skips C' and the alignment, not the checks of
    # the step: displaced positions out of the paraxial regime warn on
    # every call, and a pair that cannot be aligned raises on every call
    # and keeps no check.  A kept report equals a cold one bit for bit.
    s = symmetric_pair(20.0)
    d = named_direction("separation-x", 2)
    with pytest.warns(UserWarning, match="paraxial"):
        report = verify_saturation(s, d)
    with pytest.warns(UserWarning, match="paraxial"):
        again = verify_saturation(s, d)
    assert "_theorem" in vars(s) and again.pivots is report.pivots
    with pytest.warns(UserWarning, match="paraxial"):
        cold = verify_saturation(dataclasses.replace(s), d)
    assert repr(_saturation_values(again)) == repr(_saturation_values(cold))
    few = Scenario(tuple(SourcePoint(0.1 * i, 0.0, 0.0) for i in range(3)),
                   (Collector(5.0, 0.0), Collector(-5.0, 0.0)), k=1.0, z0=100.0)
    tangent = GeneralizedCoordinate.from_tangent([1, 0, 0, 0, 0, 0, -1, 0, 0])
    for _ in range(2):
        with pytest.raises(ScenarioError, match="at least as many collectors"):
            verify_saturation(few, tangent)
    assert "_theorem" not in vars(few)


def test_kept_arrays_are_freed_with_their_scenario():
    s = symmetric_pair(0.2)
    d = named_direction("separation-x", 2)
    report = verify_saturation(s, d)
    refs = [weakref.ref(value) for value in (
        build_amplitude_matrix(s), amplitude_and_derivative(s, d)[1], *fisher_mod._scenario_svd(s),
        report.interferometer, report.pivots)]
    del report
    assert all(ref() is not None for ref in refs)
    del s
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# identity measurement
# ---------------------------------------------------------------------------


def test_identity_measurement_is_factored(monkeypatch):
    # No O(N_C^3) check and no matrix until it is read; every value behind
    # it equals, bit for bit, the value behind a dense np.eye measurement.
    def full_check(m):
        raise AssertionError("identity ran the full unitarity check")

    s = Scenario(symmetric_pair(0.2).sources, disc_collector_grid(0.2), k=1.0, z0=100.0)
    n = s.n_collectors
    d = named_direction("separation-x", 2)
    dense = Interferometer(np.eye(n), Provenance.IDENTITY)
    monkeypatch.setattr(fisher_mod, "_full_unitarity_residual", full_check)
    R = identity_interferometer(n)
    assert R._matrix is None and R.unitarity_residual == 0.0 == dense.unitarity_residual
    assert R.provenance is Provenance.IDENTITY and R.n_modes == n and R.alpha is None
    C = build_amplitude_matrix(s)
    assert cfi(s, d, R).cfi == cfi(s, d, dense).cfi
    report, dense_report = information_report(s, d, R), information_report(s, d, dense)
    assert (report.qfi, report.cfi) == (dense_report.qfi, dense_report.cfi)
    assert detection_probabilities(C, R).tobytes() == detection_probabilities(C, dense).tobytes()
    assert R._matrix is None
    assert R.matrix.tobytes() == dense.matrix.tobytes() and not R.matrix.flags.writeable
    assert interferometer_to_json(R) == interferometer_to_json(dense)
