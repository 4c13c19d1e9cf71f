"""Photon sampling, maximum-likelihood estimation and Cramer-Rao attainment."""

import csv
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import crb_ratio_interval, spy_refine, sweep_draws
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterfisher import (
    Collector,
    NonIdentifiableError,
    Scenario,
    ScenarioError,
    SourcePoint,
    beam_splitter_with_phase,
    cfi,
    crb_sweep,
    default_search_interval,
    displace,
    identity_interferometer,
    mle_estimate,
    named_direction,
    qfi,
    sample_detections,
)


def two_collector_scenario(dx=0.2, u=5.0):
    return Scenario(
        sources=(SourcePoint(dx / 2, 0, 0), SourcePoint(-dx / 2, 0, 0)),
        collectors=(Collector(u, 0), Collector(-u, 0)),
        k=1.0,
        z0=100.0,
    )


# Wide-aperture variant: phases are order one at theta ~ 1, so the MLE is
# comfortably in its asymptotic regime at moderate photon numbers.
def wide_scenario():
    return Scenario(
        sources=(SourcePoint(0, 0, 0), SourcePoint(0, 0, 0)),
        collectors=(Collector(50.0, 0), Collector(-50.0, 0)),
        k=1.0,
        z0=100.0,
    )


SEP_X = named_direction("separation-x", 2)


def numpys_draw(s, R, theta_true, n_photons, seed):
    """default_rng(seed).multinomial(n_photons, p(theta_true)) along SEP_X: one draw, no size."""
    from emitterfisher import estimation

    path, _ = estimation._probability_path(s, SEP_X, R, theta_true)
    p_true = estimation._normalized(path([theta_true])[0])
    return np.random.default_rng(seed).multinomial(n_photons, p_true)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_deterministic_distribution():
    # On the symmetric pair the alpha=0 splitter sends everything to port 1
    # when the sources coincide.
    s = two_collector_scenario(dx=0.0)
    counts = sample_detections(s, SEP_X, 0.0, beam_splitter_with_phase(0.0), 100, seed=5)
    np.testing.assert_array_equal(counts, [100, 0])


def test_binomial_concentration():
    s = two_collector_scenario(dx=0.0)
    counts = sample_detections(s, SEP_X, 0.0, identity_interferometer(2), 10**6, seed=11)
    # p = (1/2, 1/2); five sigma around the mean.
    sigma = math.sqrt(10**6 * 0.25)
    assert abs(counts[0] - 5 * 10**5) < 5 * sigma


def test_seed_determinism():
    s = two_collector_scenario()
    a = sample_detections(s, SEP_X, 0.3, beam_splitter_with_phase(0.0), 1000, seed=42)
    b = sample_detections(s, SEP_X, 0.3, beam_splitter_with_phase(0.0), 1000, seed=42)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**200), trials=st.integers(2, 80), more=st.integers(1, 40),
       rows=st.one_of(st.none(), st.integers(1, 90)))
def test_crb_draws_are_one_generators_rows(seed, trials, more, rows):
    # A sweep refines the rows of default_rng(seed).multinomial(n, p_true,
    # size=trials), drawn from that one generator in blocks of ``rows``
    # trials (on two collectors, GRID_BLOCK // GRID_POINTS; all trials by
    # default); its estimates are one float64 vector, one entry per row, and
    # its rows are the first rows of a longer sweep with the same seed.
    from emitterfisher import estimation

    with pytest.MonkeyPatch.context() as monkeypatch:
        if rows is not None:
            monkeypatch.setattr(estimation, "GRID_BLOCK", rows * estimation.GRID_POINTS)
        refined = spy_refine(monkeypatch)
        s = two_collector_scenario()
        bs = beam_splitter_with_phase(0.0)
        _, estimates = crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=5000, trials=trials,
                                 seed=seed)
        blocks = refined[:]
        refined.clear()
        crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=5000, trials=trials + more, seed=seed)
    assert estimates.shape == (trials,) and estimates.dtype == np.float64
    rows = rows or trials
    assert [len(b) for b in blocks] == [min(rows, trials - i) for i in range(0, trials, rows)]
    drawn = np.concatenate(blocks)
    np.testing.assert_array_equal(drawn, sweep_draws(s, SEP_X, bs, 2.0, 5000, trials, seed))
    np.testing.assert_array_equal(np.concatenate(refined)[:trials], drawn)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 12345])
def test_crb_trial_seeds_and_draws_are_numpys(seed, monkeypatch):
    # The same at seeds on word boundaries, and at simulate's default 500
    # trials: every sweep's rows are the first rows of the 500-trial one.
    refined = spy_refine(monkeypatch)
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    for trials in (2, 3, 50, 500):
        _, estimates = crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=5000, trials=trials,
                                 seed=seed)
        assert estimates.shape == (trials,) and estimates.dtype == np.float64
    np.testing.assert_array_equal(refined[-1], sweep_draws(s, SEP_X, bs, 2.0, 5000, 500, seed))
    for counts in refined:
        np.testing.assert_array_equal(counts, refined[-1][:len(counts)])


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, np.float64(4.0)])
def test_invalid_seed_rejected(seed):
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    with pytest.raises(ScenarioError, match="seed must be a non-negative integer"):
        sample_detections(s, SEP_X, 2.0, bs, 1000, seed=seed)
    with pytest.raises(ScenarioError, match="seed must be a non-negative integer"):
        crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=3, seed=seed)


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
def test_boolean_counts_seeds_and_thetas_rejected(value):
    # int(True) is 1, but a bool is not a photon count, trial count, seed
    # or parameter value.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    calls = {
        "n_photons must be": lambda: crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=value,
                                               trials=3, seed=1),
        "trials must be": lambda: crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000,
                                            trials=value, seed=1),
        "seed must be": lambda: crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=3,
                                          seed=value),
        "theta_true must be a number": lambda: crb_sweep(s, SEP_X, bs, theta_true=value,
                                                         n_photons=1000, trials=3, seed=1),
        "n_photons must": lambda: sample_detections(s, SEP_X, 2.0, bs, value, seed=1),
        "seed must": lambda: sample_detections(s, SEP_X, 2.0, bs, 1000, seed=value),
        "counts must be": lambda: mle_estimate([value, value], s, SEP_X, bs, (1.5, 2.5)),
        "prior_center must be a number": lambda: default_search_interval(value, 1000, 0.0025),
    }
    for match, call in calls.items():
        with pytest.raises(ScenarioError, match=match):
            call()


def test_seeds_of_any_integer_type_and_size_accepted():
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    big = 2**200 + 3
    # The draw is default_rng's at the seed's full value, not at a truncation of it.
    np.testing.assert_array_equal(sample_detections(s, SEP_X, 2.0, bs, 1000, seed=big),
                                  numpys_draw(s, bs, 2.0, 1000, big))
    # A numpy integer seeds the sweep as the Python int of its value.
    for seed in (np.uint64(2**64 - 1), big):
        _, estimates = crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=3, seed=seed)
        _, as_int = crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=3,
                              seed=int(seed))
        assert estimates.shape == (3,) and estimates.dtype == np.float64
        assert estimates.tobytes() == as_int.tobytes()


def test_sample_detections_returns_the_sweeps_first_draw():
    # A draw is its int64 vector of counts, trial 0 of the sweep at its seed.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    for seed in (0, 42, 2**200 + 3):
        counts = sample_detections(s, SEP_X, 0.3, bs, 1000, seed=seed)
        assert counts.dtype == np.int64 and counts.shape == (2,)
        np.testing.assert_array_equal(counts, sweep_draws(s, SEP_X, bs, 0.3, 1000, 1, seed)[0])


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def test_zero_noise_counts_recover_truth():
    s = wide_scenario()
    theta_true = 1.3
    bs = beam_splitter_with_phase(0.0)
    from emitterfisher import build_amplitude_matrix, detection_probabilities

    moved = displace(s, SEP_X, SEP_X.parameter_scale * theta_true)
    p = detection_probabilities(build_amplitude_matrix(moved), bs)
    counts = 10**6 * p  # noiseless fractional counts
    theta_hat = mle_estimate(counts, s, SEP_X, bs, (0.9, 1.7))
    assert theta_hat == pytest.approx(theta_true, abs=1e-6)


def test_mle_estimate_result_is_strict_json():
    # An estimate is its theta, a finite Python float, for integer and float counts alike.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    theta_hat = mle_estimate(np.array([900.0, 1100.0]), s, SEP_X, bs, (-0.5, 0.5))
    assert type(theta_hat) is float and -0.5 <= theta_hat <= 0.5
    assert json.loads(json.dumps(theta_hat, allow_nan=False)) == theta_hat
    assert mle_estimate(np.array([900, 1100]), s, SEP_X, bs, (-0.5, 0.5)) == theta_hat


def test_mle_concentration():
    # |theta_hat - theta| < 5 / sqrt(n CFI) in at least 99% of trials.
    s = wide_scenario()
    bs = beam_splitter_with_phase(0.0)
    theta_true = 1.0
    n = 10**5
    at_truth = displace(s, SEP_X, SEP_X.parameter_scale * theta_true)
    cfi_value = cfi(at_truth, SEP_X, bs).cfi
    bound = 5.0 / math.sqrt(n * cfi_value)
    interval = default_search_interval(theta_true, n, cfi_value)
    hits = 0
    trials = 120
    for i in range(trials):
        counts = sample_detections(s, SEP_X, theta_true, bs, n, seed=900 + i)
        hits += abs(mle_estimate(counts, s, SEP_X, bs, interval) - theta_true) < bound
    assert hits / trials >= 0.99


def test_identity_measurement_not_identifiable():
    s = two_collector_scenario()
    counts = sample_detections(s, SEP_X, 0.0, identity_interferometer(2), 100, seed=1)
    with pytest.raises(NonIdentifiableError):
        mle_estimate(counts, s, SEP_X, identity_interferometer(2), (-0.5, 0.5))


# ---------------------------------------------------------------------------
# CRB sweep
# ---------------------------------------------------------------------------


def test_crb_ratio_optimal_scheme():
    s = two_collector_scenario()
    trials = 2330
    lo, hi = crb_ratio_interval(trials)
    assert 0.85 <= lo and hi <= 1.15
    aggregate, estimates = crb_sweep(
        s,
        SEP_X,
        beam_splitter_with_phase(0.0),
        theta_true=2.0,
        n_photons=20000,
        trials=trials,
        seed=6,
    )
    assert estimates.shape == (trials,)
    assert 0.85 <= aggregate.crb_ratio <= 1.15
    # no estimator beats the quantum bound
    q = qfi(displace(s, SEP_X, SEP_X.parameter_scale * 2.0), SEP_X).qfi
    assert aggregate.empirical_variance >= 0.9 / (20000 * q)
    # consistency: the mean tracks the truth.  The MLE's O(1/n) bias is
    # about -0.03 sigma here (-0.004 in sweeps of 40000 trials at two
    # seeds), more than a standard error at this trial count: allow 0.1
    # sigma of bias on top of the sample mean's spread at the 1e-6 budget.
    from scipy.stats import norm

    sigma = math.sqrt(aggregate.fisher_predicted_variance)
    se = math.sqrt(aggregate.empirical_variance / aggregate.trials)
    assert abs(aggregate.theta_hat - 2.0) < norm.isf(0.5e-6) * se + 0.1 * sigma


def test_crb_ratio_suboptimal_measurement():
    # A detuned splitter phase costs information; the variance pays 1/c.
    s = wide_scenario()
    sub = beam_splitter_with_phase(0.6)
    theta_true = 2.0
    at_truth = displace(s, SEP_X, SEP_X.parameter_scale * theta_true)
    c_sub = cfi(at_truth, SEP_X, sub).cfi
    q = qfi(at_truth, SEP_X).qfi
    assert c_sub < 0.8 * q
    trials = 2330
    lo, hi = crb_ratio_interval(trials)
    assert 0.85 <= lo and hi <= 1.15
    aggregate, _ = crb_sweep(
        s, SEP_X, sub, theta_true=theta_true, n_photons=20000, trials=trials, seed=9
    )
    assert 0.85 <= aggregate.crb_ratio <= 1.15
    assert aggregate.empirical_variance > 1.0 / (20000 * q)


def test_crb_ratio_qft_scheme():
    # Four-collector Fourier-transform readout of the transverse separation.
    from emitterfisher import qft_interferometer

    s = Scenario(
        sources=(SourcePoint(0, 0, 0), SourcePoint(0, 0, 0)),
        collectors=tuple(Collector(u, 0) for u in (30.0, 10.0, -10.0, -30.0)),
        k=1.0,
        z0=100.0,
    )
    trials = 1350
    lo, hi = crb_ratio_interval(trials)
    assert 0.8 <= lo and hi <= 1.2
    aggregate, _ = crb_sweep(
        s, SEP_X, qft_interferometer(4),
        theta_true=1.5, n_photons=30000, trials=trials, seed=21,
    )
    assert 0.8 <= aggregate.crb_ratio <= 1.2


def test_crb_trials_equal_one_trial_estimates():
    # A sweep shares p(theta_true) and the likelihood grid between trials and
    # refines them together; each trial must still give what the one-trial
    # functions give, on the symmetric pair, on four collectors in exact
    # mode behind the Fourier measurement, and behind it on the N_C = 49
    # disc, where sums over more than eight collectors are pairwise, and on
    # the bundled N_C = 1257 disc, where a CFI summed over one row's ports
    # pairwise rather than in order moves one of these 40 trials by
    # 9.5e-15 sigma.
    from emitterfisher import (Mode, bundled_scenario_path, disc_collector_grid, load_scenario,
                               qft_interferometer)

    four = load_scenario(bundled_scenario_path("four_collector.scn"))
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    disc = Scenario(pair.sources, disc_collector_grid(0.25), pair.k, pair.z0, pair.mode)
    bundled_disc = load_scenario(bundled_scenario_path("disc_aperture_r1.scn"))
    # The disc's CFI is about 2.4e-5: more photons keep its search interval
    # inside the paraxial range.
    cases = (
        (two_collector_scenario(), beam_splitter_with_phase(0.0), 40, 5000, 12),
        (replace(four, mode=Mode.EXACT), qft_interferometer(4), 20, 5000, 12),
        (disc, qft_interferometer(49), 20, 5_000_000, 12),
        (bundled_disc, qft_interferometer(bundled_disc.n_collectors), 40, 100_000, 3),
    )
    for s, R, trials, n, seed in cases:
        aggregate, estimates = crb_sweep(s, SEP_X, R, theta_true=2.0, n_photons=n,
                                         trials=trials, seed=seed)
        interval = default_search_interval(2.0, n, aggregate.cfi)
        draws = sweep_draws(s, SEP_X, R, 2.0, n, trials, seed=seed)
        for theta_hat, counts in zip(estimates.tolist(), draws, strict=True):
            assert theta_hat == mle_estimate(counts, s, SEP_X, R, interval)
        # Trial 0's photons are what sample_detections draws at the sweep seed.
        counts = sample_detections(s, SEP_X, 2.0, R, n, seed=seed)
        assert estimates[0] == mle_estimate(counts, s, SEP_X, R, interval)


def _scalar_refine(counts, slopes, theta, log_p):
    """One trial's score search with one p(theta) per call: the reference for _refine."""
    from emitterfisher.estimation import LOG_FLOOR, REFINE_TOL

    mask = counts > 0
    n = counts.sum()
    scores = np.einsum("q,gq->g", counts, log_p)
    best = int(np.argmax(scores))
    a, b = theta[max(best - 1, 0)], theta[min(best + 1, len(theta) - 1)]
    # The vertex of the parabola through the scores around the mode, kept
    # off the end rows; the mode itself where that triple is not concave.
    c = min(max(best, 1), len(theta) - 2)
    f0, f1, f2 = (float(f) for f in scores[c - 1:c + 2])
    h = (theta[-1] - theta[0]) / (len(theta) - 1)
    x = theta[best]
    if f0 - 2.0 * f1 + f2 < 0:
        x = min(max(theta[c] + h * (f0 - f2) / (2.0 * (f0 - 2.0 * f1 + f2)), a), b)
    tol = REFINE_TOL * (theta[-1] - theta[0])
    x_prev = s_prev = None
    steps = [math.inf, math.inf]
    while True:
        p, dp, cfi = (v[0] for v in slopes([x]))
        s = np.sum(counts[mask] * dp[mask] / np.maximum(p[mask], LOG_FLOOR))
        if s >= 0:
            a = x
        if s <= 0:
            b = x
        step = s / (n * cfi)
        if s_prev is not None and (s - s_prev) / (x - x_prev) < 0:
            step = -s / ((s - s_prev) / (x - x_prev))
        to = x + step
        if not a < to < b or abs(step) > 0.5 * steps[-2]:
            to = 0.5 * (a + b)
        steps.append(abs(to - x))
        x_prev, s_prev, x = x, s, to
        if steps[-1] <= tol:
            return float(x)


def test_lockstep_refinement_matches_one_trial_search():
    # Below eight collectors the score sums group their terms the same way,
    # so the lockstep search must reproduce the scalar one bit for bit, also
    # for trials whose mode sits at or beyond an end of the grid and which
    # therefore freeze earlier than the rest.
    from emitterfisher import estimation, qft_interferometer

    s = Scenario(
        sources=(SourcePoint(0.1, 0, 0), SourcePoint(-0.1, 0, 0)),
        collectors=tuple(Collector(u, 0.5 * u) for u in (30.0, 10.0, -10.0, -30.0)),
        k=1.0,
        z0=100.0,
    )
    R = qft_interferometer(4)
    path, slopes = estimation._probability_path(s, SEP_X, R, 1.5, 2.5)
    theta = estimation._checked_interval(1.5, 2.5)
    log_p = estimation._likelihood_grid(path, theta)
    truths = np.concatenate([np.linspace(1.3, 2.7, 15), [1.5, 2.5]])
    rng = np.random.default_rng(5)
    counts = np.array([rng.multinomial(20000, p / p.sum()) for p in path(truths)], dtype=float)
    expected = [_scalar_refine(c, slopes, theta, log_p) for c in counts]
    assert min(expected) == 1.5 and max(expected) == 2.5
    assert estimation._refine(counts, slopes, theta, log_p).tolist() == expected


class _Started(Exception):
    """Raised by a stand-in for slopes at the first point _refine evaluates."""


def _first_point(scores, theta):
    """The point at which _refine starts one trial whose grid scores are ``scores``."""
    from emitterfisher import estimation

    started = []

    def slopes(x):
        started.append(float(x[0]))
        raise _Started

    # One photon at one collector: each grid score is that row of log_p, exactly.
    with pytest.raises(_Started):
        estimation._refine(np.ones((1, 1)), slopes, theta, np.asarray(scores)[:, None])
    return started[0]


_GRID = 64
_END_ROWS = st.sampled_from([0, 1, 2, _GRID - 3, _GRID - 2, _GRID - 1])


@settings(max_examples=300, deadline=None)
@given(at=st.one_of(_END_ROWS, st.integers(0, _GRID - 1)),
       triple=st.one_of(st.tuples(*[st.integers(-3, 3)] * 3),
                        st.tuples(*[st.floats(-1e3, 1e3)] * 3)),
       offset=st.sampled_from([0.0, -1e5, 1e9]))
def test_refinement_starts_inside_the_mode_bracket(at, triple, offset):
    # Concave, flat and convex triples of grid scores, with the mode at,
    # next to and away from both ends of the grid: the start lies in the
    # mode's bracket, and is the mode itself wherever the triple around it
    # is not concave.
    from emitterfisher import estimation

    assert estimation.GRID_POINTS == _GRID
    theta = np.linspace(-1.0, 2.0, _GRID)
    scores = np.full(_GRID, offset - 1e4)
    start = min(max(at - 1, 0), _GRID - 3)
    scores[start:start + 3] = offset + np.array(triple, dtype=float)
    best = int(np.argmax(scores))
    c = min(max(best, 1), _GRID - 2)
    x = _first_point(scores, theta)
    assert theta[max(best - 1, 0)] <= x <= theta[min(best + 1, _GRID - 1)]
    if scores[c - 1] - 2.0 * scores[c] + scores[c + 1] >= 0:
        assert x == theta[best]


def test_refinement_starts_at_the_vertex_of_a_parabola():
    # Grid scores on an exact parabola: the start is its vertex, wherever
    # that falls inside the bracket of the grid mode.
    theta = np.linspace(-1.0, 2.0, 64)
    h = theta[1] - theta[0]
    for peak in (-1.0, -1.0 + 0.3 * h, 0.123, 1.7, 2.0 - 0.4 * h, 2.0):
        assert _first_point(-3e4 * (theta - peak) ** 2, theta) == pytest.approx(peak, abs=1e-9 * h)


@pytest.mark.parametrize("seed", [0, 7])
def test_workload_sweeps_evaluate_the_score_twice(seed, monkeypatch):
    # Started at the vertex of its grid parabola, every trial of the 50-trial
    # sweeps of perfbench's crb-montecarlo workload on two collectors behind
    # bs_phase(0) and four behind qft freezes after its second evaluation:
    # slopes is called twice per sweep, not four times.
    from emitterfisher import bundled_scenario_path, estimation, load_scenario, qft_interferometer

    calls, real_path = [], estimation._probability_path

    def counted_path(*args):
        path, slopes = real_path(*args)

        def counted(theta):
            calls.append(len(theta))
            return slopes(theta)

        return path, counted

    monkeypatch.setattr(estimation, "_probability_path", counted_path)
    for name, R in (("two_collector.scn", beam_splitter_with_phase(0.0)),
                    ("four_collector.scn", qft_interferometer(4))):
        calls.clear()
        crb_sweep(load_scenario(bundled_scenario_path(name)), SEP_X, R, theta_true=2.0,
                  n_photons=100_000, trials=50, seed=seed)
        assert calls == [50, 50], name


def _row_by_row_modes(counts, log_p):
    """The grid scan one row of counts at a time: the reference for _grid_modes.

    Each trial is scored alone by the one-trial einsum.  Returns each
    trial's mode and its scores at rows c - 1, c, c + 1, c the mode kept
    off the end rows.
    """
    scores = np.array([np.einsum("q,gq->g", row, log_p) for row in counts])
    modes = np.argmax(scores, axis=1)
    c = np.clip(modes, 1, len(log_p) - 2)
    return modes, np.array([row[i - 1:i + 2] for row, i in zip(scores, c, strict=True)])


@settings(max_examples=200, deadline=None)
@given(trials=st.integers(1, 120), n_collectors=st.integers(2, 16), ties=st.integers(0, 40),
       block_rows=st.one_of(st.none(), st.integers(1, 130)), seed=st.integers(0, 2**32))
def test_blocked_grid_scan_matches_row_by_row_scan(trials, n_collectors, ties, block_rows, seed):
    # The einsum scan must pick, bit for bit, the grid row the one-trial
    # scan picks, and return the same three scores around it, for all
    # trials at once or block by block (block_rows trials each, as a sweep
    # passes them), past the vector lanes in which einsum's inner loop
    # accumulates a score, on exact ties, forced by repeating log_p rows and
    # trials, where both take the first row, and on near ties, rows a few
    # ulps from another, where the pick depends on the order in which each
    # score is summed.
    from emitterfisher import estimation

    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_collectors), estimation.GRID_POINTS)
    log_p = np.log(np.maximum(p, estimation.LOG_FLOOR))
    for _ in range(ties):
        i, j = rng.integers(estimation.GRID_POINTS, size=2)
        ulps = rng.integers(-2, 3, n_collectors) * rng.integers(2)
        log_p[max(i, j)] = log_p[min(i, j)] * (1 + ulps * np.finfo(float).eps)
    counts = rng.multinomial(int(rng.integers(1, 10**6)), p[rng.integers(estimation.GRID_POINTS)],
                             size=trials).astype(float)
    counts[rng.random(trials) < 0.2] = counts[0]
    block_rows = block_rows or trials
    scans = [estimation._grid_modes(counts[i:i + block_rows], log_p)
             for i in range(0, trials, block_rows)]
    modes, around = (np.concatenate(v) for v in zip(*scans))
    row_modes, row_around = _row_by_row_modes(counts, log_p)
    np.testing.assert_array_equal(modes, row_modes)
    assert around.shape == (trials, 3)
    assert around.tobytes() == row_around.tobytes()


@settings(max_examples=40, deadline=None)
@given(trials=st.integers(1, 30), n_collectors=st.integers(1, 1300), block_rows=st.integers(1, 12),
       shift=st.integers(1, 7), seed=st.integers(0, 2**32))
def test_grid_scan_scores_each_trial_as_it_alone_is_scored(trials, n_collectors, block_rows, shift,
                                                          seed):
    # Each trial's mode and scores equal, bit for bit, those of the
    # one-trial einsum, whatever block of block_rows trials it is scanned
    # in, when the trials are a slice of a longer array, and when counts and
    # log_p start ``shift`` doubles off the alignment of a fresh array.
    from emitterfisher import estimation

    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_collectors), estimation.GRID_POINTS)
    log_p = np.log(np.maximum(p, estimation.LOG_FLOOR))
    counts = rng.multinomial(10**5, p[rng.integers(estimation.GRID_POINTS)],
                             size=trials + 3).astype(float)
    want_modes, want_around = _row_by_row_modes(counts, log_p)

    def shifted(x):
        out = np.empty(x.size + shift)[shift:].reshape(x.shape)
        out[...] = x
        return out

    scans = ((counts, log_p, slice(None)), (counts[2:], log_p, slice(2, None)),
             (shifted(counts), shifted(log_p), slice(None)),
             (shifted(counts)[1:-1], shifted(log_p), slice(1, -1)))
    for scanned, grid, rows in scans:
        blocks = [estimation._grid_modes(scanned[i:i + block_rows], grid)
                  for i in range(0, len(scanned), block_rows)]
        modes, around = (np.concatenate(v) for v in zip(*blocks))
        assert modes.tolist() == want_modes[rows].tolist()
        assert around.tobytes() == want_around[rows].tobytes()


def test_sweep_in_many_grid_blocks_equals_one_block(monkeypatch):
    # A 40-trial sweep drawn, scanned and refined in blocks of 7 trials, or
    # of one, gives the estimates and the aggregate of the sweep run as one
    # block, on four collectors and on the N_C = 49 disc.  A block holds
    # GRID_BLOCK // max(GRID_POINTS, 2 N_C N_S) trials, one at least.
    from emitterfisher import (bundled_scenario_path, disc_collector_grid, estimation,
                               load_scenario, qft_interferometer)

    four = load_scenario(bundled_scenario_path("four_collector.scn"))
    disc = Scenario(four.sources, disc_collector_grid(0.25), four.k, four.z0, four.mode)
    default = estimation.GRID_BLOCK
    for s, n in ((four, 20000), (disc, 5_000_000)):
        entries = max(estimation.GRID_POINTS, 2 * s.n_collectors * s.n_sources)
        assert default // entries >= 40

        def sweep():
            return crb_sweep(s, SEP_X, qft_interferometer(s.n_collectors), theta_true=2.0,
                             n_photons=n, trials=40, seed=9)

        monkeypatch.setattr(estimation, "GRID_BLOCK", default)
        aggregate, estimates = sweep()
        for rows in (7, 1):
            monkeypatch.setattr(estimation, "GRID_BLOCK", rows * entries)
            blocked_aggregate, blocked_estimates = sweep()
            assert blocked_aggregate.to_dict() == aggregate.to_dict()
            assert blocked_estimates.tobytes() == estimates.tobytes()


def _disc_sweep_peak(trials, n_photons):
    """tracemalloc's peak over one sweep of the bundled disc behind qft, at theta 2 and seed 0."""
    import tracemalloc

    from emitterfisher import bundled_scenario_path, load_scenario, qft_interferometer

    disc = load_scenario(bundled_scenario_path("disc_aperture_r1.scn"))
    R = qft_interferometer(disc.n_collectors)
    tracemalloc.start()
    try:
        crb_sweep(disc, SEP_X, R, theta_true=2.0, n_photons=n_photons, trials=trials, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_disc_sweep_memory_is_bounded():
    # On the bundled disc (N_C = 1257) a 500-trial sweep's broadcast grid
    # product would hold 500 x 64 x 1257 doubles, 322 MB, and its
    # refinement of all trials at once about 140 MB.  The sweep runs 208
    # trials at a time, whose amplitude stack is 2 x 208 x 1257 x 2
    # complex entries, 16.7 MB, and peaks near 57 MB.
    peak = _disc_sweep_peak(500, 10**7)
    assert peak < 75e6, f"crb_sweep peaked at {peak / 1e6:.1f} MB"


def test_disc_sweep_memory_does_not_grow_with_trials():
    # Drawn, scanned and refined one block at a time, a 2000-trial sweep
    # of the disc peaks within 10 % of a 250-trial one (both near 57 MB).
    small, large = _disc_sweep_peak(250, 10**5), _disc_sweep_peak(2000, 10**5)
    assert large <= 1.1 * small, f"{small / 1e6:.1f} MB at 250 trials, {large / 1e6:.1f} at 2000"


def _golden_section(counts, path, theta, log_p):
    """One trial's golden-section search on log-likelihood values, from the grid mode."""
    from emitterfisher.estimation import LOG_FLOOR, REFINE_TOL

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    mask = counts > 0

    def f(t):
        p = path([t])[0]
        return float(np.sum(counts[mask] * np.log(np.maximum(p[mask], LOG_FLOOR))))

    best = int(np.argmax((counts[mask] * log_p[:, mask]).sum(axis=1)))
    a, b = theta[max(best - 1, 0)], theta[min(best + 1, len(theta) - 1)]
    tol = REFINE_TOL * (theta[-1] - theta[0])
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = f(x1)
    return float(0.5 * (a + b))


def test_refinement_reaches_the_score_root():
    # The three arrays of perfbench's crb-montecarlo workload, at its photon
    # count.  Near the peak the log-likelihood (about -1e5 here) changes by
    # less than its own rounding, so golden-section search on its values
    # stops up to about 1e-5 sigma from the stationary point; each estimate
    # must be within 1e-9 sigma of the root of the score, and at least as
    # likely as golden section's.  The root is bisected on the score; the
    # log-likelihood gain over golden section's estimate is integrated from
    # the score by Simpson's rule, which is exact for a cubic l(theta) and
    # does not carry the rounding of l itself.  The fourth case is
    # simulate's default, the bundled disc behind qft at theta_true = 0,
    # where the first evaluation, at the vertex of the grid parabola,
    # already freezes almost every trial.
    from emitterfisher import Mode, bundled_scenario_path, estimation, load_scenario, qft_interferometer

    rng = np.random.default_rng(3)
    exact = Scenario(
        tuple(SourcePoint(x + rng.normal(0, 0.02), *rng.normal(0, 0.02, 2)) for x in (0.1, -0.1)),
        tuple(Collector(u + rng.normal(0, 0.1), rng.normal(0, 0.1)) for u in (3.0, 1.0, -1.0, -3.0)),
        1.0, 100.0, Mode.EXACT,
    )
    disc = load_scenario(bundled_scenario_path("disc_aperture_r1.scn"))
    cases = (
        (load_scenario(bundled_scenario_path("two_collector.scn")), beam_splitter_with_phase(0.0), 2.0),
        (load_scenario(bundled_scenario_path("four_collector.scn")), qft_interferometer(4), 2.0),
        (exact, qft_interferometer(4), 2.0),
        (disc, qft_interferometer(disc.n_collectors), 0.0),
    )
    n = 100_000
    for s, R, truth in cases:
        aggregate, estimate = crb_sweep(s, SEP_X, R, theta_true=truth, n_photons=n, trials=50,
                                        seed=7)
        sigma = math.sqrt(aggregate.fisher_predicted_variance)
        lo, hi = default_search_interval(truth, n, 1.0 / (n * aggregate.fisher_predicted_variance))
        path, slopes = estimation._probability_path(s, SEP_X, R, lo, hi)
        theta = estimation._checked_interval(lo, hi)
        log_p = estimation._likelihood_grid(path, theta)
        counts = sweep_draws(s, SEP_X, R, truth, n, len(estimate), seed=7).astype(float)

        def score(t):
            p, dp, _ = slopes(t)
            return (counts * dp / p).sum(axis=-1)

        golden = np.array([_golden_section(c, path, theta, log_p) for c in counts])
        a, b = golden - 1e-3 * sigma, golden + 1e-3 * sigma
        assert (score(a) > 0).all() and (score(b) < 0).all()
        for _ in range(60):
            mid = 0.5 * (a + b)
            up = score(mid) > 0
            a, b = np.where(up, mid, a), np.where(up, b, mid)
        root = 0.5 * (a + b)
        assert np.abs(estimate - root).max() <= 1e-9 * sigma
        gain = (estimate - golden) / 6.0 * (
            score(golden) + 4.0 * score(0.5 * (golden + estimate)) + score(estimate)
        )
        assert (gain >= 0.0).all()


@pytest.mark.parametrize("name", ["two_collector.scn", "four_collector.scn",
                                  "disc_aperture_r1.scn"])
@pytest.mark.parametrize("mode", ["paraxial", "exact"])
def test_crb_sweep_reports_information_at_the_truth(name, mode):
    # The aggregate's qfi and cfi are, bit for bit, information_report of
    # the sources moved to the truth, behind the sweep's measurement; cfi
    # sizes the predicted variance.
    from emitterfisher import (amplitude_and_derivative, bundled_scenario_path, information_report,
                               load_scenario, optimal_interferometer, qft_interferometer)

    base = load_scenario(bundled_scenario_path(name))
    s = Scenario(base.sources, base.collectors, base.k, base.z0, mode)
    n = 20000
    measurements = [qft_interferometer(s.n_collectors),
                    optimal_interferometer(*amplitude_and_derivative(s, SEP_X))]
    if s.n_collectors == 2:
        measurements.append(beam_splitter_with_phase(0.3))
    for R in measurements:
        for theta_true in (0.5, -1.3, 2.0):
            aggregate, _ = crb_sweep(s, SEP_X, R, theta_true=theta_true, n_photons=n, trials=2,
                                     seed=1)
            moved = displace(s, SEP_X, SEP_X.parameter_scale * theta_true)
            truth = information_report(moved, SEP_X, R)
            assert (aggregate.qfi, aggregate.cfi) == (truth.qfi, truth.cfi)
            assert 0.0 < aggregate.cfi <= aggregate.qfi * (1 + 1e-9)
            assert aggregate.fisher_predicted_variance == 1.0 / (n * aggregate.cfi)
            doc = json.loads(json.dumps(aggregate.to_dict(), allow_nan=False))
            assert list(doc)[:3] == ["qfi", "cfi", "theta_hat"]


def test_crb_amplitude_calls_do_not_depend_on_trials(monkeypatch):
    # All trials are refined in lockstep: each step evaluates the score of
    # every trial still refining in one amplitude call, and a handful of
    # steps suffice.  Also in the Rayleigh regime: the N_C = 49 disc behind
    # the Fourier measurement at zero separation, where the CFI tends to
    # zero and the likelihood is far from quadratic.
    from emitterfisher import bundled_scenario_path, disc_collector_grid, estimation, load_scenario
    from emitterfisher import qft_interferometer

    calls = []
    original = estimation.amplitude_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, "amplitude_arrays", counting)
    s = two_collector_scenario()
    counts = []
    for trials in (2, 40):
        calls.clear()
        crb_sweep(s, SEP_X, beam_splitter_with_phase(0.0),
                  theta_true=2.0, n_photons=5000, trials=trials, seed=12)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 12
    pair = load_scenario(bundled_scenario_path("two_collector.scn"))
    disc = Scenario(pair.sources, disc_collector_grid(0.25), pair.k, pair.z0, pair.mode)
    calls.clear()
    crb_sweep(disc, SEP_X, qft_interferometer(49),
              theta_true=0.0, n_photons=5_000_000, trials=40, seed=12)
    assert len(calls) <= 12


def test_crb_scenario_count_does_not_depend_on_trials(monkeypatch):
    # The sweep checks the truth and the two ends of its search interval
    # from arrays, and the trials evaluate p(theta) from arrays: no Scenario
    # is built.
    s = two_collector_scenario()
    built = []
    original = Scenario.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Scenario, "__post_init__", counting)
    counts = []
    for trials in (2, 40):
        built.clear()
        crb_sweep(s, SEP_X, beam_splitter_with_phase(0.0),
                  theta_true=2.0, n_photons=5000, trials=trials, seed=12)
        counts.append(len(built))
    assert counts == [0, 0]


def test_crb_identity_measurement_rejected():
    # The CFI is exactly zero, so the sweep is refused before any photon is
    # sampled: no displaced scenario (and no paraxial-validity warning for
    # a search interval sized by a vanishing CFI) is ever built.
    s = two_collector_scenario()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonIdentifiableError):
            crb_sweep(
                s,
                SEP_X,
                identity_interferometer(2),
                theta_true=0.0,
                n_photons=100,
                trials=10,
                seed=0,
            )
    assert not [w for w in caught if "paraxial mode" in str(w.message)]


def test_crb_sweep_warns_once_per_call():
    # The truth and both ends of the search interval each fail the
    # paraxial-validity check (offsets 19.8, 17.6 and 22.0 > 0.1 z0); the
    # sweep reports it once, with the first offset.
    s = two_collector_scenario(dx=19.8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crb_sweep(s, SEP_X, beam_splitter_with_phase(0.0),
                  theta_true=19.8, n_photons=2000, trials=5, seed=1)
    paraxial = [str(w.message) for w in caught if "paraxial mode" in str(w.message)]
    assert len(paraxial) == 1
    assert "offsets 19.8 " in paraxial[0]


def test_repeated_sweeps_warn_once_under_default_filter():
    # Each sweep warns with the same text from the same place, so Python's
    # default filter shows the paraxial-validity warning only once.
    s = two_collector_scenario(dx=19.8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for seed in (1, 2, 3):
            crb_sweep(s, SEP_X, beam_splitter_with_phase(0.0),
                      theta_true=19.8, n_photons=2000, trials=5, seed=seed)
    assert len([w for w in caught if "paraxial mode" in str(w.message)]) == 1


def test_mle_estimate_warns_once_per_call():
    # Both ends of the interval leave the paraxial regime (offsets 14.9 and
    # 15.1 > 0.1 z0); they are checked in one call, which names the first.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    counts = sample_detections(s, SEP_X, 0.2, bs, 2000, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mle_estimate(counts, s, SEP_X, bs, (-30.0, 30.0))
    paraxial = [str(w.message) for w in caught if "paraxial mode" in str(w.message)]
    assert len(paraxial) == 1
    assert "offsets 14.9 " in paraxial[0]


def test_trial_outputs(tmp_path):
    # simulate's trial CSV is csv.writer's rows (trial, seed, repr(theta_hat))
    # and its gnuplot file the columns (float(trial), theta_hat), both of
    # crb_sweep's estimates at the same arguments, the sweep seed on every row.
    from emitterfisher import bundled_scenario_path, cli, load_scenario

    path = bundled_scenario_path("two_collector.scn")
    out, dat = tmp_path / "sim.json", tmp_path / "sim.dat"
    for seed in (4, 2**64 + 5):
        assert cli.main(["simulate", "--scenario", str(path), "--direction", "separation-x",
                         "--interferometer", "bs_phase:0.0", "--theta-true", "2.0", "--photons",
                         "2000", "--trials", "10", "--seed", str(seed), "--out", str(out),
                         "--gnuplot-dat", str(dat)]) == cli.EXIT_OK
        _, estimates = crb_sweep(load_scenario(path), SEP_X, beam_splitter_with_phase(0.0),
                                 theta_true=2.0, n_photons=2000, trials=10, seed=seed)
        rows = io.StringIO(newline="")
        csv.writer(rows).writerows([["trial", "seed", "theta_hat"]] + [
            [i, seed, repr(theta)] for i, theta in enumerate(estimates.tolist())])
        assert out.with_suffix(".csv").read_bytes() == rows.getvalue().encode()
        columns = [f"{float(i)!r} {theta!r}\n" for i, theta in enumerate(estimates.tolist())]
        assert dat.read_bytes() == ("# trial theta_hat\n" + "".join(columns)).encode()


# ---------------------------------------------------------------------------
# input checks at the edges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts, match",
    [
        ([10, 5, 1], "vector of 2"),
        ([[10, 5]], "vector of 2"),
        ([10, math.nan], "finite"),
        ([10, -1], "non-negative"),
        ([0, 0], "no photons"),
        ([[1], [1, 0]], "vector of 2"),
        (2, "vector of 2"),
        (["one", 1], "integers or floats, got dtype <U"),
        ([1 + 0j, 2], "integers or floats, got dtype complex128"),
        ([True, True], "integers or floats, got dtype bool"),
        ([2**64, 0], "integers or floats, got dtype object"),
        ([True, 900], "integers or floats, got a bool"),
        ((900, np.bool_(True)), "integers or floats, got a bool"),
    ],
)
def test_mle_estimate_rejects_bad_counts(counts, match):
    # Counts enter as given, integer, float or not: only integer and float arrays are counts,
    # and a bool among numbers, which numpy reads as an integer, is refused too.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    with pytest.raises(ScenarioError, match=match):
        mle_estimate(counts, s, SEP_X, bs, (1.5, 2.5))


@pytest.mark.parametrize(
    "args, match",
    [
        ((0.0, math.nan, 1.0), "n_photons must be finite"),
        ((0.0, 1.5, 1.0), "n_photons must be an integer"),
        ((0.0, 0, 1.0), "n_photons must be an integer >= 1"),
        ((math.nan, 100, 1.0), "prior_center must be finite"),
        ((0.0, 100, math.inf), "the CFI must be finite"),
        ((0.0, 100, 0.0), "the CFI must be positive"),
        ((1e17, 100000, 0.0025), "has no resolution"),
        ((0.0, 2**62, 1e308), "has no resolution"),
    ],
    ids=["nan-photons", "fractional-photons", "no-photons", "nan-center", "infinite-cfi",
         "zero-cfi", "center-beyond-resolution", "vanishing-width"],
)
def test_search_interval_input_checks_raise(args, match):
    with pytest.raises(ScenarioError, match=match):
        default_search_interval(*args)


@pytest.mark.parametrize(
    "interval, match",
    [
        ((-1e308, 1e308), "too wide: its width overflows"),
        ((-math.inf, 1.0), "must be finite"),
        ((0.0, math.nan), "must be finite"),
        ((0.5, 0.5), "has no resolution"),
        ((1e17, 1e17 + 64), "has no resolution"),
        ((2.5, 1.5), "invalid search interval"),
        ((0.0, 1.0, 2.0), "search_interval must be a pair of numbers"),
        (5, "search_interval must be a pair of numbers"),
        (("a", 1.0), "a search interval end must be a number"),
    ],
)
def test_mle_search_interval_checks_raise(interval, match):
    # Before any p(theta): an interval whose grid would hold NaN, inf or
    # repeated values is a ScenarioError, not a geometry error.
    s = two_collector_scenario()
    with pytest.raises(ScenarioError, match=match):
        mle_estimate(np.array([900.0, 1100.0]), s, SEP_X, beam_splitter_with_phase(0.0), interval)


def test_search_interval_resolution_boundary():
    # Doubles near 1e17 are 16 apart: 63 of those steps resolve the 64 grid
    # points, and the accepted interval is passed on as it is; 62 do not.
    from emitterfisher.estimation import _checked_interval

    theta = _checked_interval(1e17, 1e17 + 63 * 16)
    assert (theta[0], theta[-1]) == (1e17, 1e17 + 1008)
    with pytest.raises(ScenarioError, match="has no resolution"):
        _checked_interval(1e17, 1e17 + 62 * 16)
    sigma = math.sqrt(1.0 / (1000 * 0.0025))
    assert default_search_interval(2.0, 1000, 0.0025) == (2.0 - 10 * sigma, 2.0 + 10 * sigma)


def test_non_integer_photon_and_trial_counts_rejected():
    # Refused before any p(theta) is computed, so no paraxial-validity
    # warning precedes the error.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="n_photons must be an integer"):
            sample_detections(s, SEP_X, 2.0, bs, 1.5, seed=1)
        with pytest.raises(ScenarioError, match="n_photons must be an integer"):
            crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1.5, trials=10, seed=1)
        with pytest.raises(ScenarioError, match="trials must be an integer"):
            crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=2.5, seed=1)
        with pytest.raises(ScenarioError, match="trials must be an integer >= 2"):
            crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=1, seed=1)
        with pytest.raises(ScenarioError, match="n_photons must be a number"):
            crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons="1000", trials=10, seed=1)
    # An integral float is a whole number: the draw of that many photons.
    np.testing.assert_array_equal(sample_detections(s, SEP_X, 2.0, bs, 1000.0, seed=1),
                                  numpys_draw(s, bs, 2.0, 1000, 1))


def test_photon_counts_taken_exactly(monkeypatch):
    # Integers are taken as they are, not through a float, which would draw
    # 2**53 photons for 2**53 + 1; the multinomial draw's int64 bounds them.
    s = two_collector_scenario()
    bs = beam_splitter_with_phase(0.0)
    for n in (2**53 + 1, 2**63 - 1):
        counts = sample_detections(s, SEP_X, 2.0, bs, n, seed=1)
        assert int(counts.sum()) == n
        np.testing.assert_array_equal(counts, numpys_draw(s, bs, 2.0, n, 1))
    np.testing.assert_array_equal(sample_detections(s, SEP_X, 2.0, bs, np.int64(1000), seed=1),
                                  numpys_draw(s, bs, 2.0, 1000, 1))
    for n in (2**63, 2**70, float(2**63)):
        with pytest.raises(ScenarioError, match=r"n_photons must be below 2\*\*63"):
            sample_detections(s, SEP_X, 2.0, bs, n, seed=1)
        with pytest.raises(ScenarioError, match=r"n_photons must be below 2\*\*63"):
            crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=n, trials=3, seed=1)
    with pytest.raises(ScenarioError, match=r"trials must be below 2\*\*63"):
        crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=1000, trials=2**63, seed=1)
    # A sweep at 2**53 + 1 photons refines that draw, not the 2**53 draw;
    # the two differ by one photon.
    n = 2**53 + 1
    refined = spy_refine(monkeypatch)
    crb_sweep(s, SEP_X, bs, theta_true=2.0, n_photons=n, trials=3, seed=1)
    exact, rounded = (sweep_draws(s, SEP_X, bs, 2.0, m, 3, seed=1) for m in (n, n - 1))
    assert (exact.sum(axis=1) == n).all() and (exact != rounded).any()
    np.testing.assert_array_equal(refined[0], exact)
