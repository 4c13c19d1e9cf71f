"""Geometry, amplitude model and scenario-file tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPEATED_KEY_FILES
from emitterfisher import (
    Collector,
    DegenerateGeometryError,
    GeneralizedCoordinate,
    Mode,
    Scenario,
    ScenarioError,
    SourcePoint,
    amplitude_and_derivative,
    beam_splitter_with_phase,
    build_amplitude_matrix,
    bundled_scenario_path,
    bundled_scenarios,
    crb_sweep,
    disc_collector_grid,
    displace,
    load_scenario,
    mle_estimate,
    named_direction,
    optimal_interferometer,
    sample_detections,
    save_scenario,
    scenario_digest,
    verify_saturation,
)
from emitterfisher import geometry
from emitterfisher.geometry import scenario_from_dict

COLUMN_TOL = 1e-12


def make_scenario(sources, collectors, k=1.0, z0=100.0, mode=Mode.PARAXIAL):
    return Scenario(
        sources=tuple(SourcePoint(*s) for s in sources),
        collectors=tuple(Collector(*c) for c in collectors),
        k=k,
        z0=z0,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# amplitude entries
# ---------------------------------------------------------------------------


def _raw_entry(c, s, k, z0, mode):
    """The amplitude of one source of weight 1 at one lone collector: exp(i phase), modulus 1."""
    C, _ = geometry._raw_amplitudes(
        geometry._phase_rows(np.array([[c.u, c.v]])), np.array([[s.x, s.y, s.z]]), k, z0, mode,
        np.ones(1), None,
    )
    return complex(C[0, 0])


def test_paraxial_on_axis_amplitude():
    # On-axis source: zero phase, modulus 1/sqrt(N_C).
    C = build_amplitude_matrix(make_scenario([(0, 0, 0)], [(3.0, -2.0), (-1.0, 4.0)]))
    np.testing.assert_allclose(C, 1 / math.sqrt(2), rtol=1e-15)


def test_paraxial_phase_linear_in_x():
    k, z0, u, x = 2.0, 50.0, 3.0, 0.4
    s = make_scenario([(x, 0, 0)], [(u, 0.0), (-u, 0.0), (0.0, 1.0), (1.0, 0.0)], k=k, z0=z0)
    gamma = build_amplitude_matrix(s)[0, 0]
    assert np.angle(gamma) == pytest.approx(-k * u * x / z0)
    assert abs(gamma) == pytest.approx(0.5)


def test_exact_unit_distance_phase():
    # k = 1, distance 1 -> phase exactly 1 radian; a lone collector's modulus is 1.
    gamma = _raw_entry(Collector(0.0, 0.0), SourcePoint(0, 0, 0), 1.0, 1.0, Mode.EXACT)
    assert np.angle(gamma) == pytest.approx(1.0)
    assert abs(gamma) == pytest.approx(1.0)


def test_exact_source_on_collector_is_degenerate():
    s = make_scenario([(0, 0, -1.0)], [(0.0, 0.0)], z0=1.0, mode=Mode.EXACT)
    with pytest.raises(DegenerateGeometryError):
        build_amplitude_matrix(s)
    with pytest.raises(DegenerateGeometryError):
        _raw_entry(Collector(0.0, 0.0), SourcePoint(0, 0, -1.0), 1.0, 1.0, Mode.EXACT)


def test_degenerate_geometry_error_prints_plain_numbers():
    # The coordinates read as Python floats, not as numpy scalar reprs.
    s = make_scenario([(0, 0, -100.0)], [(0.0, 0.0), (1.0, 0.0)], mode=Mode.EXACT)
    with pytest.raises(DegenerateGeometryError) as caught:
        build_amplitude_matrix(s)
    assert str(caught.value) == "source (0.0, 0.0, -100.0) coincides with collector (0.0, 0.0)"


def _small_phase_scenario(rng, n_sources, mode):
    """Random sources and 2-23 collectors whose phases stay below two radians.

    k z0 <= 1, collectors within z0 of the axis and sources within 0.05 z0
    of the reference point, so the rounding of the phase itself stays at
    the level of the rest of the build.
    """
    z0 = 10 ** rng.uniform(-1, 1)
    sources = tuple(SourcePoint(*rng.uniform(-0.05 * z0, 0.05 * z0, 3), weight=w)
                    for w in rng.uniform(0.5, 1.5, n_sources))
    collectors = tuple(Collector(*rng.uniform(-z0, z0, 2))
                       for _ in range(int(rng.integers(max(n_sources, 2), 24))))
    return Scenario(sources, collectors, rng.uniform(0.1, 1.0) / z0, z0, mode)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 8),
       mode=st.sampled_from([Mode.PARAXIAL, Mode.EXACT]))
def test_closed_form_columns_match_the_oracle(seed, n_sources, mode):
    # The closed-form build normalizes without a norm of C: each column has
    # norm sqrt(w_s) to a few ulp, each derivative column is orthogonal to
    # its column (Re c_s^dag dc_s = 0) to rounding, and C is the mpmath
    # oracle's to 4 eps max|C|.  That oracle renormalizes the double weights
    # in extended precision, which alone moves C by up to N_S / 2 ulp.
    from emitterfisher._precision import amplitude_matrix_mp

    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    s = _small_phase_scenario(rng, n_sources, mode)
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=3 * n_sources))
    C, dC = amplitude_and_derivative(s, d)
    np.testing.assert_allclose(np.linalg.norm(C, axis=0), np.sqrt(s.weights()), rtol=4 * eps,
                               atol=0)
    radial = np.real(np.sum(C.conj() * dC, axis=0))
    assert (np.abs(radial) <= 8 * eps * np.sum(np.abs(C) * np.abs(dC), axis=0)).all()
    M = amplitude_matrix_mp(s)
    oracle = np.array([[complex(M[q, j]) for j in range(M.cols)] for q in range(M.rows)])
    assert np.abs(C - oracle).max() <= 4 * eps * np.abs(C).max()


@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_stacked_closed_form_builds_equal_one_build_per_set(mode):
    # A stack of source sets gives, bit for bit, the arrays of one call per set.
    rng = np.random.default_rng(3)
    s = _small_phase_scenario(rng, 3, mode)
    a = rng.normal(size=(3, 3)) / 3
    stack = s.source_positions() + rng.normal(0, 0.01 * s.z0, (7, 3, 3))
    C, dC = geometry.amplitude_arrays(s, stack, a)
    for t, xyz in enumerate(stack):
        C_t, dC_t = geometry.amplitude_arrays(s, xyz, a)
        assert C[t].tobytes() == C_t.tobytes() and dC[t].tobytes() == dC_t.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("z0, z, match", [
    (1.0, -1.0, "coincides with collector"),
    # d^2 underflows to 0, so d = 0 and 1/d would overflow.
    (1e-170, 0.0, "coincides with collector"),
    # 1/d^2 overflows, so ||gamma||^2 does.
    (1e-160, 0.0, "zero-norm amplitude column for source 0"),
], ids=["on-collector", "squared-distance-underflows", "inverse-square-overflows"])
def test_closed_form_exact_build_rejects_degenerate_distances(z0, z, match):
    # Source 0 on, or within d of, the collector at the origin.
    s = make_scenario([(0, 0, z), (0.5, 0, 0)], [(0.0, 0.0), (1.0, 0.0)], z0=z0, mode=Mode.EXACT)
    with pytest.raises(DegenerateGeometryError, match=match):
        amplitude_and_derivative(s, named_direction("separation-x", 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_overflowing_phase_is_degenerate(mode):
    # k / z0 overflows the paraxial phase, k d the exact one.
    s = make_scenario([(0, 0, 0)], [(5.0, 0.0), (-5.0, 0.0)], k=1e308, z0=1e-10, mode=mode)
    with pytest.raises(DegenerateGeometryError, match="zero-norm amplitude column for source 0"):
        build_amplitude_matrix(s)


# ---------------------------------------------------------------------------
# build_amplitude_matrix
# ---------------------------------------------------------------------------


def test_on_axis_column_symmetric_collectors():
    s = make_scenario([(0, 0, 0)], [(5, 0), (-5, 0)])
    C = build_amplitude_matrix(s)
    np.testing.assert_allclose(C[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_equal_weight_column_norms():
    s = make_scenario([(0.1, 0, 0), (-0.1, 0, 0)], [(5, 0), (-5, 0), (1, 2)])
    C = build_amplitude_matrix(s)
    for col in C.T:
        assert np.sum(np.abs(col) ** 2) == pytest.approx(0.5, abs=COLUMN_TOL)


def test_exact_mode_inverse_distance_oracle():
    # Moduli proportional to inverse distances, renormalized per column.
    s = make_scenario([(0.3, -0.1, 0.2)], [(5, 1), (-2, -7), (0.5, 3)], mode=Mode.EXACT)
    C = build_amplitude_matrix(s)
    dists = np.array(
        [
            math.sqrt((0.3 - u) ** 2 + (-0.1 - v) ** 2 + (100.0 + 0.2) ** 2)
            for u, v in [(5, 1), (-2, -7), (0.5, 3)]
        ]
    )
    inv = 1.0 / dists
    expected = inv / np.linalg.norm(inv)
    np.testing.assert_allclose(np.abs(C[:, 0]), expected, atol=1e-14)
    assert np.sum(np.abs(C[:, 0]) ** 2) == pytest.approx(1.0, abs=COLUMN_TOL)


@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_column_norm_equals_weight(mode):
    rng = np.random.default_rng(42)
    for _ in range(10):
        ns, nc = rng.integers(1, 4), rng.integers(2, 7)
        weights = rng.uniform(0.2, 2.0, ns)
        s = Scenario(
            sources=tuple(
                SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in weights
            ),
            collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(nc)),
            k=rng.uniform(0.5, 2.0),
            z0=100.0,
            mode=mode,
        )
        C = build_amplitude_matrix(s)
        np.testing.assert_allclose(
            (np.abs(C) ** 2).sum(axis=0), s.weights(), atol=COLUMN_TOL
        )


@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_amplitude_derivative_matches_central_difference(mode):
    rng = np.random.default_rng(43)
    s = Scenario(
        sources=tuple(SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in (0.7, 1.3)),
        collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(5)),
        k=1.3,
        z0=100.0,
        mode=mode,
    )
    d = GeneralizedCoordinate.from_tangent(rng.normal(size=6))
    C, dC = amplitude_and_derivative(s, d)
    np.testing.assert_array_equal(C, build_amplitude_matrix(s))
    h = 1e-4
    fd = (build_amplitude_matrix(displace(s, d, h)) - build_amplitude_matrix(displace(s, d, -h))) / (2 * h)
    np.testing.assert_allclose(dC, fd, atol=1e-8 * np.abs(dC).max())


@pytest.mark.parametrize("mode", [Mode.PARAXIAL, Mode.EXACT])
def test_stacked_amplitude_arrays_match_one_call_per_set(mode):
    # A stack of moved source sets gives, slice for slice, the very bits
    # that one call per set gives, with and without the derivative.
    rng = np.random.default_rng(44)
    s = Scenario(
        sources=tuple(SourcePoint(*rng.normal(0, 0.5, 3), weight=w) for w in (0.7, 1.3)),
        collectors=tuple(Collector(*rng.normal(0, 5, 2)) for _ in range(9)),
        k=1.3,
        z0=100.0,
        mode=mode,
    )
    a = named_direction("separation-x", 2)
    rows = geometry.direction_rows(a, 2)
    stack = s.source_positions() + rows * rng.normal(0, 0.3, (7, 1, 1))
    for direction in (None, rows):
        C, dC = geometry.amplitude_arrays(s, stack, direction)
        assert C.shape == (7, 9, 2)
        for t, xyz in enumerate(stack):
            C_t, dC_t = geometry.amplitude_arrays(s, xyz, direction)
            np.testing.assert_array_equal(C[t], C_t)
            if direction is None:
                assert dC is None and dC_t is None
            else:
                np.testing.assert_array_equal(dC[t], dC_t)
    # A stack of directions with one source set gives C once and, slice for
    # slice, the dC that each direction alone gives, flat or one row per source.
    xyz = s.source_positions()
    directions = rng.normal(0, 1, (5, 2, 3))
    C, dC = geometry.amplitude_arrays(s, xyz, directions)
    assert C.shape == (9, 2) and dC.shape == (5, 9, 2)
    for i, direction in enumerate(directions):
        for form in (direction, direction.ravel()):
            C_i, dC_i = geometry.amplitude_arrays(s, xyz, form)
            np.testing.assert_array_equal(C, C_i)
            np.testing.assert_array_equal(dC[i], dC_i)


def test_stacked_amplitude_arrays_reject_a_source_on_a_collector():
    # One degenerate set anywhere in the stack fails the whole call.
    s = make_scenario([(0, 0, 0), (1, 0, 0)], [(3, 0), (-3, 0)], z0=10.0, mode=Mode.EXACT)
    stack = np.repeat(s.source_positions()[None], 4, axis=0)
    stack[2, 1] = (-3.0, 0.0, -10.0)
    with pytest.raises(DegenerateGeometryError, match=r"with collector \(-3.0, 0.0\)$"):
        geometry.amplitude_arrays(s, stack)


def test_scenario_arrays_are_built_once_and_read_only():
    # The arrays are cached, not fields: equality, hashing and repr see only
    # the source and collector records.
    s = make_scenario([(0, 0, 0), (1, 0, 0)], [(3, 0), (-3, 0), (0, 2)])
    for getter in (s.source_positions, s.weights, s.collector_positions):
        assert getter() is getter()
        assert not getter().flags.writeable
    np.testing.assert_array_equal(s.collector_positions(), [[3, 0], [-3, 0], [0, 2]])
    np.testing.assert_array_equal(s.source_positions(), [[0, 0, 0], [1, 0, 0]])
    twin = make_scenario([(0, 0, 0), (1, 0, 0)], [(3, 0), (-3, 0), (0, 2)])
    assert s == twin and hash(s) == hash(twin)
    assert "_positions" not in repr(s) and "_weights" not in repr(s)
    d = named_direction("separation-x", 2)
    moved = displace(s, d, 0.5)
    np.testing.assert_array_equal(
        moved.source_positions(), s.source_positions() + geometry.direction_rows(d, 2) * 0.5
    )
    np.testing.assert_array_equal(s.source_positions(), [[0, 0, 0], [1, 0, 0]])


def test_weights_default_equal_and_normalized():
    s = make_scenario([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(1, 0)])
    np.testing.assert_allclose(s.weights(), [1 / 3] * 3)
    s2 = Scenario(
        sources=(SourcePoint(0, 0, 0, weight=3.0), SourcePoint(1, 0, 0, weight=1.0)),
        collectors=(Collector(1, 0),),
        k=1.0,
        z0=10.0,
    )
    np.testing.assert_allclose(s2.weights(), [0.75, 0.25])


def _phase(c, s, k, z0, mode):
    if mode is Mode.PARAXIAL:
        return np.angle(_raw_entry(c, s, k, z0, mode))
    return k * math.sqrt((s.x - c.u) ** 2 + (s.y - c.v) ** 2 + (z0 + s.z) ** 2)


def _second_difference(src, ca, cb, k, z0, mode):
    # Source-dependent part of the collector phase difference (the
    # source-independent part is a detection-invariant mode phase).
    origin = SourcePoint(0.0, 0.0, 0.0)
    return (_phase(ca, src, k, z0, mode) - _phase(cb, src, k, z0, mode)) - (
        _phase(ca, origin, k, z0, mode) - _phase(cb, origin, k, z0, mode)
    )


@pytest.mark.parametrize(
    "scale_frac,with_axial",
    [(1e-3, False), (1e-4, True)],
    ids=["transverse-1e-3", "full3d-1e-4"],
)
def test_paraxial_consistency_with_exact_phases(scale_frac, with_axial):
    # In-plane sources agree to O(scale^2); axial offsets add O(z/z0)
    # relative terms, so the 3-D check runs at a smaller scale.
    k, z0 = 1.0, 100.0
    scale = scale_frac * z0
    rng = np.random.default_rng(7)
    for _ in range(20):
        u1, v1, u2, v2 = rng.uniform(-scale, scale, 4)
        x, y = rng.uniform(-scale, scale, 2)
        z = rng.uniform(-scale, scale) if with_axial else 0.0
        src = SourcePoint(x, y, z)
        ca, cb = Collector(u1, v1), Collector(u2, v2)
        exact = _second_difference(src, ca, cb, k, z0, Mode.EXACT)
        parax = _phase(ca, src, k, z0, Mode.PARAXIAL) - _phase(cb, src, k, z0, Mode.PARAXIAL)
        assert exact == pytest.approx(parax, rel=1e-4, abs=1e-18)


# ---------------------------------------------------------------------------
# displace
# ---------------------------------------------------------------------------


def test_displace_zero_is_identity():
    s = make_scenario([(0.1, 0, 0), (-0.1, 0, 0)], [(5, 0), (-5, 0)])
    d = named_direction("separation-x", 2)
    assert displace(s, d, 0.0) is s


def test_displace_single_axis():
    s = make_scenario([(0.0, 0, 0)], [(5, 0)])
    d = GeneralizedCoordinate(np.array([1.0, 0.0, 0.0]))
    moved = displace(s, d, 0.1)
    assert moved.sources[0].x == pytest.approx(0.1)
    assert moved.sources[0].y == 0.0


def test_displace_separation_componentwise():
    s = make_scenario([(0.0, 0, 0), (0.0, 0, 0)], [(5, 0), (-5, 0)])
    a = np.array([1, 0, 0, -1, 0, 0]) / math.sqrt(2)
    eps = 0.3
    moved = displace(s, GeneralizedCoordinate(a), eps)
    assert moved.sources[0].x == pytest.approx(eps / math.sqrt(2))
    assert moved.sources[1].x == pytest.approx(-eps / math.sqrt(2))


def test_displace_round_trip_bitwise():
    s = make_scenario([(0.125, 0.5, -0.25), (-0.375, 0.0, 1.0)], [(5, 0), (-5, 0)])
    a = np.zeros(6)
    a[0] = 1.0
    d = GeneralizedCoordinate(a)
    eps = 0.25  # exactly representable
    back = displace(displace(s, d, eps), d, -eps)
    assert back.source_positions().tolist() == s.source_positions().tolist()


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


def test_named_directions():
    d = named_direction("separation-x", 2)
    np.testing.assert_allclose(d.a, np.array([1, 0, 0, -1, 0, 0]) / math.sqrt(2))
    assert d.parameter_scale == pytest.approx(1 / math.sqrt(2))
    c = named_direction("centroid-y", 2)
    np.testing.assert_allclose(c.a, np.array([0, 1, 0, 0, 1, 0]) / math.sqrt(2))
    assert c.parameter_scale == pytest.approx(math.sqrt(2))
    x = named_direction("x", 1)
    assert x.parameter_scale == 1.0
    with pytest.raises(ScenarioError):
        named_direction("separation-x", 3)
    with pytest.raises(ScenarioError):
        named_direction("sideways", 1)


def test_direction_must_be_unit():
    with pytest.raises(ScenarioError):
        GeneralizedCoordinate(np.array([1.0, 1.0, 0.0]))
    d = GeneralizedCoordinate.from_tangent([2.0, 0.0, 0.0])
    assert d.parameter_scale == pytest.approx(2.0)
    np.testing.assert_allclose(d.a, [1, 0, 0])


# ---------------------------------------------------------------------------
# scenario validation and files
# ---------------------------------------------------------------------------


def test_scenario_invariants():
    with pytest.raises(ScenarioError):
        make_scenario([], [(1, 0)])
    with pytest.raises(ScenarioError):
        make_scenario([(0, 0, 0)], [])
    with pytest.raises(ScenarioError):
        make_scenario([(0, 0, 0)], [(1, 0)], k=-1.0)
    with pytest.raises(ScenarioError):
        make_scenario([(0, 0, 0)], [(1, 0)], z0=0.0)
    with pytest.raises(ScenarioError):
        SourcePoint(0, 0, 0, weight=-0.5)


def test_mode_is_checked_by_the_constructor(tmp_path):
    # An unknown mode is a ScenarioError from the constructor itself; a
    # file's mode is read without regard to case.
    with pytest.raises(ScenarioError, match="mode must be"):
        make_scenario([(0, 0, 0)], [(1, 0)], mode="fresnel")
    path = tmp_path / "upper.scn"
    path.write_text(
        "mode: EXACT\nk: 1.0\nz0: 100.0\n"
        "sources:\n  - {x: 0, y: 0, z: 0}\ncollectors:\n  - {u: 1, v: 0}\n"
    )
    assert load_scenario(path).mode is Mode.EXACT


def test_paraxial_scale_warning():
    with pytest.warns(UserWarning, match="paraxial"):
        make_scenario([(20.0, 0, 0)], [(5, 0)], z0=100.0)


def test_source_position_check_on_a_stack():
    # One warning for a stack of position sets, naming the first set out of
    # the paraxial regime; exact mode never warns; a non-finite value raises.
    stack = np.array([[[1.0, 0, 0]], [[-12.5, 0, 0]], [[30.0, 0, 0]]])
    with pytest.warns(UserWarning, match="offsets 12.5 ") as caught:
        geometry.check_source_positions(stack, 100.0, Mode.PARAXIAL)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry.check_source_positions(stack, 100.0, Mode.EXACT)
    stack[0, 0, 2] = math.nan
    with pytest.raises(ScenarioError, match="finite"):
        geometry.check_source_positions(stack, 100.0, Mode.EXACT)


_SCENARIO_DATA = {"k": 1.0, "z0": 100.0, "sources": [{"x": 0, "y": 0, "z": 0}],
                  "collectors": [{"u": 1, "v": 0}]}


@pytest.mark.parametrize("call, message", [
    (lambda: GeneralizedCoordinate(np.ones((1, 3)) / math.sqrt(3)), "flat 3\\*N_S vector"),
    (lambda: GeneralizedCoordinate(np.zeros(3)), "nonzero and finite"),
    (lambda: GeneralizedCoordinate(np.array([math.nan, 0.0, 0.0])), "nonzero and finite"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=0.0), "parameter_scale"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=-1.0), "parameter_scale"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=math.inf),
     "parameter_scale must be finite"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=True),
     "parameter_scale must be a number"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale="2"),
     "parameter_scale must be a number"),
    (lambda: GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=None),
     "parameter_scale must be a number"),
    (lambda: GeneralizedCoordinate.from_tangent([0.0, 0.0, 0.0]), "tangent must be nonzero"),
    (lambda: GeneralizedCoordinate(np.array([1e200, 0.0, 0.0])), "direction vector norm overflows"),
    (lambda: geometry.direction_rows(np.ones(6), 1), "direction length 6 != 3 \\* 1 sources"),
    (lambda: scenario_from_dict({**_SCENARIO_DATA, "sources": {"x": 0, "y": 0, "z": 0}}),
     "'sources' must be a non-empty list"),
    (lambda: scenario_from_dict({**_SCENARIO_DATA, "collectors": [[1, 0]]}),
     "collector #0 must be a mapping"),
    (lambda: scenario_from_dict([_SCENARIO_DATA]), "mapping at top level"),
    (lambda: disc_collector_grid(0), "spacing and radius must be positive"),
    (lambda: disc_collector_grid(math.nan), "spacing must be finite"),
    (lambda: disc_collector_grid(0.1, math.nan), "radius must be finite"),
    (lambda: optimal_interferometer(np.ones((4, 2)), np.ones((4, 1))),
     "amplitude and derivative shapes differ"),
], ids=["non-flat-a", "zero-a", "nan-a", "zero-scale", "negative-scale", "inf-scale",
        "bool-scale", "text-scale", "none-scale", "zero-tangent", "overflowing-a",
        "direction-length", "sources-not-list", "item-not-mapping", "top-not-mapping",
        "zero-spacing", "nan-spacing", "nan-radius", "derivative-shape"])
def test_input_checks_raise(call, message):
    with pytest.raises(ScenarioError, match=message):
        call()


def test_parameter_scale_is_kept_as_a_float():
    for scale in (2, np.float32(0.5), np.int64(3)):
        kept = GeneralizedCoordinate(np.array([1.0, 0, 0]), parameter_scale=scale).parameter_scale
        assert type(kept) is float and kept == scale


@pytest.mark.parametrize("value", [None, "abc", [1, 2], math.inf])
def test_non_numeric_coordinates_rejected(value):
    with pytest.raises(ScenarioError):
        SourcePoint(value, 0, 0)
    with pytest.raises(ScenarioError):
        Collector(value, 0)
    with pytest.raises(ScenarioError):
        make_scenario([(0, 0, 0)], [(1, 0)], k=value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
def test_boolean_values_rejected(value):
    # float() takes a bool as 1.0 or 0.0; a coordinate, weight, wavenumber
    # or distance is a number, not a truth value.
    calls = (lambda: SourcePoint(value, 0, 0), lambda: SourcePoint(0, 0, 0, weight=value),
             lambda: Collector(0, value), lambda: make_scenario([(0, 0, 0)], [(1, 0)], k=value),
             lambda: make_scenario([(0, 0, 0)], [(1, 0)], z0=value),
             lambda: disc_collector_grid(value))
    for call in calls:
        with pytest.raises(ScenarioError, match="must be a number"):
            call()


@pytest.mark.parametrize("entry", ["x: yes", "y: on", "z: false", "weight: true"])
def test_scenario_file_boolean_rejected(entry, tmp_path):
    # YAML 1.1 reads yes, on, false and true as booleans.
    path = tmp_path / "bool.scn"
    source = {"x": 0, "y": 0, "z": 0, **dict([entry.split(": ")])}
    path.write_text("k: 1.0\nz0: 100.0\nsources:\n  - {"
                    + ", ".join(f"{key}: {val}" for key, val in source.items())
                    + "}\ncollectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n")
    with pytest.raises(ScenarioError, match="must be a number"):
        load_scenario(path)


def test_scenario_file_numeric_text_is_a_number(tmp_path):
    # PyYAML reads 1e-3 and 1e2, without a dot, as strings; they are numbers.
    path = tmp_path / "text.scn"
    path.write_text("k: 1e0\nz0: 1e2\nsources:\n  - {x: 1e-3, y: 0, z: 0, weight: 2e0}\n"
                    "collectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n")
    s = load_scenario(path)
    assert (s.k, s.z0, s.sources[0].x) == (1.0, 100.0, 1e-3)


def test_scenario_file_round_trip(tmp_path):
    s = make_scenario([(0.1, 0.2, -0.3), (-0.1, 0, 0)], [(5, 0), (-5, 1)], k=2.0, z0=80.0)
    path = tmp_path / "roundtrip.scn"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded == s
    assert scenario_digest(loaded) == scenario_digest(s)


# Coordinates from 1e-9 to 1e3 in magnitude, either sign, and zero.
_coordinate = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
              st.sampled_from((-1.0, 1.0)), st.integers(-9, 2), st.floats(1.0, 10.0)),
)
_positive = st.floats(1e-9, 1e3)
_scenario_dicts = st.fixed_dictionaries({
    "mode": st.sampled_from(("paraxial", "exact")),
    "k": _positive,
    "z0": _positive,
    "sources": st.lists(st.fixed_dictionaries({
        "x": _coordinate, "y": _coordinate, "z": _coordinate, "weight": _positive,
    }), min_size=1, max_size=5),
    "collectors": st.lists(st.fixed_dictionaries({"u": _coordinate, "v": _coordinate}),
                           min_size=1, max_size=40),
})


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_scenario_yaml_classes_match_pure_python_bundled(name):
    # The module's (libyaml, where available) loader and dumper agree with
    # PyYAML's pure-Python reference on the bundled files.
    text = bundled_scenarios()[name].read_text(encoding="utf-8")
    data = yaml.load(text, Loader=geometry.SCENARIO_LOADER)
    assert data == yaml.load(text, Loader=yaml.SafeLoader)
    dumped = yaml.dump(data, Dumper=geometry.SCENARIO_DUMPER, sort_keys=False)
    assert dumped == yaml.safe_dump(data, sort_keys=False)


@settings(max_examples=60, deadline=None)
@given(data=_scenario_dicts)
def test_scenario_yaml_classes_match_pure_python(data):
    text = yaml.dump(data, Dumper=geometry.SCENARIO_DUMPER, sort_keys=False)
    assert text == yaml.safe_dump(data, sort_keys=False)
    loaded = yaml.load(text, Loader=geometry.SCENARIO_LOADER)
    assert loaded == yaml.load(text, Loader=yaml.SafeLoader) == data


def test_scenario_file_pure_python_fallback(monkeypatch, tmp_path):
    # PyYAML built without libyaml: the pure-Python classes read and write
    # the same scenarios.
    path = bundled_scenarios()["four_collector.scn"]
    expected = load_scenario(path)
    monkeypatch.setattr(geometry, "SCENARIO_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(geometry, "SCENARIO_DUMPER", yaml.SafeDumper)
    # Bytes no earlier load has seen, so that the pure-Python loader parses them.
    unseen = tmp_path / "unseen.scn"
    unseen.write_bytes(path.read_bytes() + f"# {tmp_path}\n".encode())
    assert load_scenario(unseen) == expected
    save_scenario(expected, tmp_path / "fallback.scn")
    assert load_scenario(tmp_path / "fallback.scn") == expected


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=5),
    data=st.data(),
)
def test_scenario_save_load_round_trip_property(weights, data, tmp_path_factory):
    # Normalized weights are kept as they are, so save -> load is lossless.
    xs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(weights), max_size=len(weights)))
    s = Scenario(
        sources=tuple(SourcePoint(x, -x, 0.5 * x, weight=w) for x, w in zip(xs, weights)),
        collectors=(Collector(3.0, 0.5), Collector(-2.0, 1.0)),
        k=1.0,
        z0=100.0,
        mode=Mode.EXACT,
    )
    path = tmp_path_factory.mktemp("round_trip") / "s.scn"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded == s
    assert scenario_digest(loaded) == scenario_digest(s)


def test_scenario_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(
        "mode: paraxial\nk: 1.0\nz0: 100.0\nwavelength: 0.5\n"
        "sources:\n  - {x: 0, y: 0, z: 0}\ncollectors:\n  - {u: 1, v: 0}\n"
    )
    with pytest.raises(ScenarioError, match="wavelength"):
        load_scenario(path)


def test_scenario_file_unknown_nested_key_rejected():
    data = {
        "mode": "paraxial",
        "k": 1.0,
        "z0": 100.0,
        "sources": [{"x": 0, "y": 0, "z": 0, "brightness": 2}],
        "collectors": [{"u": 1, "v": 0}],
    }
    with pytest.raises(ScenarioError, match="brightness"):
        scenario_from_dict(data)


def test_scenario_file_missing_key_rejected():
    data = {
        "mode": "exact",
        "k": 1.0,
        "z0": 100.0,
        "sources": [{"x": 0, "y": 0}],
        "collectors": [{"u": 1, "v": 0}],
    }
    with pytest.raises(ScenarioError, match="z"):
        scenario_from_dict(data)


def test_scenario_weight_optional(tmp_path):
    path = tmp_path / "weights.scn"
    path.write_text(
        "mode: exact\nk: 1.0\nz0: 50.0\n"
        "sources:\n  - {x: 0.1, y: 0, z: 0}\n  - {x: -0.1, y: 0, z: 0, weight: 3}\n"
        "collectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n"
    )
    s = load_scenario(path)
    np.testing.assert_allclose(s.weights(), [0.25, 0.75])
    assert s.mode is Mode.EXACT


# ---------------------------------------------------------------------------
# scenario loads memoized by file content
# ---------------------------------------------------------------------------

_PAIR_TEXT = (
    "mode: paraxial\nk: 1.0\nz0: 100.0\n"
    "sources:\n  - {{x: {x}, y: 0, z: 0}}\n  - {{x: -0.1, y: 0, z: 0}}\n"
    "collectors:\n  - {{u: 5, v: 0}}\n  - {{u: -5, v: 0}}\n"
    "# {tag}\n"
)


def _pair_file(path, x):
    """A two-source file whose bytes no other test writes (``path`` is in them)."""
    path.write_text(_PAIR_TEXT.format(x=x, tag=path), encoding="utf-8")
    return path


def test_reload_of_unchanged_file_does_not_parse(monkeypatch, tmp_path):
    path = _pair_file(tmp_path / "pair.scn", 0.1)
    first = load_scenario(path)
    parses = []
    parse = yaml.load

    def counted(*args, **kwargs):
        parses.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(yaml, "load", counted)
    assert load_scenario(path) is first
    assert load_scenario(str(path)) is first
    assert parses == []


def test_rewritten_file_is_loaded_again(tmp_path):
    path = _pair_file(tmp_path / "pair.scn", 0.1)
    assert load_scenario(path).sources[0].x == 0.1
    _pair_file(path, 0.3)
    assert load_scenario(path).sources[0].x == 0.3


def test_failed_load_is_not_remembered(tmp_path):
    path = tmp_path / "pair.scn"
    path.write_text(_PAIR_TEXT.format(x="[0.1", tag=path), encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ScenarioError, match="cannot load scenario file"):
            load_scenario(path)
    path.write_text(_PAIR_TEXT.format(x="abc", tag=path), encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ScenarioError, match="must be a number"):
            load_scenario(path)
    assert load_scenario(_pair_file(path, 0.1)).sources[0].x == 0.1


@pytest.mark.parametrize("case", sorted(REPEATED_KEY_FILES))
def test_repeated_key_is_refused(case, tmp_path):
    # PyYAML keeps the last value of a repeated key; the loader refuses the
    # file, naming the key, and remembers nothing of the failed load.
    text, repeat, key = REPEATED_KEY_FILES[case]
    path = tmp_path / "repeated.scn"
    path.write_text(text + f"# {tmp_path}\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ScenarioError, match=f"repeated key '{key}'"):
            load_scenario(path)
    assert geometry._loaded.get(path.read_bytes()) is None
    path.write_text(text.replace(repeat, "") + f"# {tmp_path}\n", encoding="utf-8")
    s = load_scenario(path)
    assert (s.z0, s.sources[0].x) == (100.0, 0.1)


@pytest.mark.parametrize("second, positions", [
    ("{<<: *s, x: -0.1}", [[0.1, 0, 0], [-0.1, 0, 0]]),
    ("{<<: [*s, *s], y: 2}", [[0.1, 0, 0], [0.1, 2, 0]]),
])
def test_merge_keys_are_not_repeated_keys(second, positions, tmp_path):
    # A YAML merge key (<<) brings in an anchored mapping's keys, which the
    # mapping's own keys override; neither counts as a repeated key.
    path = tmp_path / "merged.scn"
    path.write_text("k: 1.0\nz0: 100.0\nsources:\n  - &s {x: 0.1, y: 0, z: 0}\n  - " + second
                    + "\ncollectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n", encoding="utf-8")
    np.testing.assert_array_equal(load_scenario(path).source_positions(), positions)


def test_every_load_warns_outside_the_paraxial_regime(tmp_path):
    path = _pair_file(tmp_path / "wide.scn", 12.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = load_scenario(path)
        assert load_scenario(path) is first
    assert [type(w.message) for w in caught] == [UserWarning, UserWarning]
    assert str(caught[0].message) == str(caught[1].message)
    assert "offsets 12.5 " in str(caught[1].message)


_SEP = named_direction("separation-x", 2)
_BS = beam_splitter_with_phase(0.0)


@pytest.mark.parametrize("call", [
    lambda pair, path: Scenario((SourcePoint(12.5, 0, 0),), pair.collectors, 1.0, 100.0),
    lambda pair, path: displace(pair, _SEP, 25.0),
    lambda pair, path: dataclasses.replace(pair, sources=(SourcePoint(12.5, 0, 0),)),
    lambda pair, path: (load_scenario(path), load_scenario(path)),
    lambda pair, path: verify_saturation(pair, _SEP, delta_theta=25.0),
    lambda pair, path: crb_sweep(pair, _SEP, _BS, theta_true=25.0, n_photons=2000, trials=5,
                                 seed=1),
    lambda pair, path: sample_detections(pair, _SEP, 25.0, _BS, 2000, seed=3),
    lambda pair, path: mle_estimate(np.array([900, 1100]), pair, _SEP, _BS, (-30.0, 30.0)),
], ids=["Scenario", "displace", "dataclasses.replace", "load-miss-and-hit", "verify_saturation", "crb_sweep",
        "sample_detections", "mle_estimate"])
def test_paraxial_warning_names_the_calling_line(call, tmp_path):
    # Whichever entry point runs the check, the warning names the line that
    # called into the package: here the lambda's, for a load miss and a
    # load hit alike.
    pair = make_scenario([(0.1, 0, 0), (-0.1, 0, 0)], [(5, 0), (-5, 0)])
    path = _pair_file(tmp_path / "wide.scn", 12.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(pair, path)
    assert caught and all("paraxial mode" in str(w.message) for w in caught)
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, caught[0].lineno)}


def test_digest_of_a_loaded_scenario(monkeypatch, tmp_path):
    path = _pair_file(tmp_path / "pair.scn", 0.1)
    loaded = load_scenario(path)
    fresh = make_scenario([(0.1, 0, 0), (-0.1, 0, 0)], [(5, 0), (-5, 0)])
    assert scenario_digest(load_scenario(path)) == scenario_digest(fresh)
    # Computed once per object; equality, hashing and repr are unchanged by it.
    dumps = []
    monkeypatch.setattr(geometry, "scenario_to_dict", lambda s: dumps.append(s))
    assert scenario_digest(loaded) == scenario_digest(fresh)
    assert dumps == []
    assert loaded == fresh and hash(loaded) == hash(fresh) and repr(loaded) == repr(fresh)


@pytest.mark.parametrize("name, digest", [
    ("two_collector.scn", "0c656f6011e537f0"),
    ("four_collector.scn", "3f54a8c15c38bc0e"),
    ("disc_aperture_r1.scn", "fafb4b1ca12d3a96"),
])
def test_bundled_scenario_digests(name, digest):
    # Every document carries the digest, so a change to scenario_to_dict's
    # keys, their order or the number format shows here first.
    assert scenario_digest(load_scenario(bundled_scenario_path(name))) == digest


def test_loaded_scenarios_bounded_by_bytes():
    # Each entry is charged what it holds once used, not its file's bytes;
    # the bound here admits two of these entries.
    a, b, c = (make_scenario([(x, 0, 0)], [(1, 0)]) for x in (0.1, 0.2, 0.3))
    charge = geometry._held_bytes(b"aaaa", a)
    held = geometry._LoadedScenarios(max_bytes=2 * charge + 1)
    held.put(b"aaaa", a)
    held.put(b"bbbb", b)
    assert held.get(b"aaaa") is a
    held.put(b"cccc", c)
    # Least recently used first: b goes, a (read after b was put) stays.
    assert held.get(b"bbbb") is None
    assert held.get(b"aaaa") is a and held.get(b"cccc") is c
    # An entry charged more than the bound is not held and evicts nothing.
    held.put(b"x" * 2 * charge, b)
    assert held.get(b"x" * 2 * charge) is None
    assert held.get(b"aaaa") is a and held.get(b"cccc") is c


def test_loaded_scenarios_large_files_evict_each_other():
    # 100 sources on 2000 collectors: a short file whose Scenario holds
    # about 10 MB once used, so two do not fit in the memo's 16 MiB; small
    # arrays stay held beside one of them.
    sources = [(0.01 * i, 0, 0) for i in range(100)]
    collectors = [(0.01 * q, 0) for q in range(2000)]
    big, other = (make_scenario(sources, collectors, z0=z0) for z0 in (100.0, 200.0))
    held = geometry._LoadedScenarios(geometry._loaded.max_bytes)
    assert held.max_bytes == 16 << 20
    assert held.max_bytes / 2 < geometry._held_bytes(b"big", big) < held.max_bytes
    small = load_scenario(bundled_scenario_path("four_collector.scn"))
    held.put(b"small", small)
    held.put(b"big", big)
    assert held.get(b"big") is big and held.get(b"small") is small
    held.put(b"other", other)
    assert held.get(b"big") is None
    assert held.get(b"other") is other and held.get(b"small") is small


def test_memo_charge_bounds_what_a_used_scenario_holds(monkeypatch, tmp_path):
    # tracemalloc of a load and a qfi, cfi, verify_saturation (and, for one
    # or two sources, qfimatrix) round stays under the entry's charge, for
    # the bundled files and for many sources on many collectors.
    import gc
    import tracemalloc

    from emitterfisher import (ParaxialTarget, cfi, qfi, qfi_matrix_consistency,
                               qft_interferometer)

    rng = np.random.default_rng(3)
    wide = make_scenario(rng.normal(0, 0.1, (100, 3)), rng.normal(0, 5, (1000, 2)))
    save_scenario(wide, tmp_path / "wide.scn")
    paths = [bundled_scenario_path(n) for n in ("two_collector.scn", "four_collector.scn",
                                                  "disc_aperture_r1.scn")]

    def load_and_use(path):
        s = load_scenario(path)
        d = GeneralizedCoordinate.from_tangent(np.eye(3 * s.n_sources)[0])
        qfi(s, d)
        cfi(s, d, qft_interferometer(s.n_collectors))
        verify_saturation(s, d)
        scenario_digest(s)
        if s.n_sources == 2:
            qfi_matrix_consistency(s, ParaxialTarget.TWO_SOURCE_SEPARATION)
        return s

    # A first round warms the process-wide caches that no entry holds.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        load_and_use(_pair_file(tmp_path / "warm.scn", 0.1))
        for path in [*paths, tmp_path / "wide.scn"]:
            monkeypatch.setattr(geometry, "_loaded",
                                geometry._LoadedScenarios(geometry._loaded.max_bytes))
            content = path.read_bytes()
            gc.collect()
            tracemalloc.start()
            try:
                s = load_and_use(path)
                gc.collect()
                used = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert used <= geometry._held_bytes(content, s), path.name
