"""Monte-Carlo photon detection and maximum-likelihood estimation.

Validates that the variance attainable by an actual estimator matches
the Cramer-Rao prediction 1/(n * CFI) for photon counting behind a given
interferometer.  Photon records are i.i.d. multinomial draws (weak
sources: at most one photon per detection window, no losses or dark
counts); the scalar parameter is estimated by a grid scan refined with
golden-section search on the log-likelihood.  Detection probabilities
are evaluated for a vector of thetas at once, one apply of the measurement
to all their amplitudes; the trials of a sweep are refined together, one
batched p(theta) per golden-section step, and a single estimate is the
one-trial case of the same code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import fisher
from .geometry import (
    GeneralizedCoordinate,
    Scenario,
    ScenarioError,
    amplitude_arrays,
    check_source_positions,
    direction_rows,
    finite_number,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Probability floor inside log-likelihoods.
LOG_FLOOR = 1e-300
# Grid resolution of the coarse likelihood scan.
GRID_POINTS = 64
# Relative tolerance of the golden-section refinement.
REFINE_TOL = 1e-8
# Half-width of the default search interval in predicted standard deviations.
SEARCH_SIGMAS = 10.0


class NonIdentifiableError(ValueError):
    """The detection probabilities do not depend on the parameter."""


@dataclass(frozen=True)
class DetectionRecord:
    """Photon counts per detector for one experiment."""

    counts: np.ndarray
    n_photons: int
    seed: int
    true_theta: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.n_photons:
            raise ScenarioError("counts do not sum to n_photons")


@dataclass
class EstimationResult:
    """Point estimate or trial aggregate with the Cramer-Rao prediction."""

    theta_hat: float
    log_likelihood: float
    fisher_predicted_variance: float
    empirical_variance: float
    trials: int
    crb_ratio: float | None = None

    def to_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "log_likelihood": self.log_likelihood,
            "fisher_predicted_variance": self.fisher_predicted_variance,
            "empirical_variance": self.empirical_variance,
            "trials": self.trials,
            "crb_ratio": self.crb_ratio,
        }


def _probability_path(scenario: Scenario, direction: GeneralizedCoordinate, R, *checked: float):
    """p(theta) for the sources at r + a * parameter_scale * theta, with no Scenario per theta.

    The returned function maps T thetas to a (T, N_C) array of detection
    probabilities, row t depending only on theta t.  The source positions
    at the ``checked`` thetas are validated in one check; sources move
    linearly in theta, so the ends of an interval cover all of it.  A
    measurement R that is not an Interferometer is checked once, here.  Each
    call applies R once, in its own form, to the (T, N_C, N_S) stack of
    amplitudes (fisher._applied), and forms no N_C x N_C matrix.
    """
    R = fisher._measurement(R, scenario.n_collectors)
    scale = direction.parameter_scale
    uv, xyz, weights = scenario.collector_positions(), scenario.source_positions(), scenario.weights()
    a = direction_rows(direction, scenario.n_sources)
    steps = scale * np.array(checked, dtype=float)
    check_source_positions(xyz + a * steps[:, None, None], scenario.z0, scenario.mode)

    def path(theta) -> np.ndarray:
        moved = xyz + a * (scale * np.asarray(theta, dtype=float))[:, None, None]
        C, _ = amplitude_arrays(uv, moved, weights, scenario.k, scenario.z0, scenario.mode)
        return fisher._probabilities(fisher._applied(R, C))

    return path


def _whole_number(value, what: str, least: int) -> int:
    """``value`` as an int no smaller than ``least``; ScenarioError otherwise."""
    number = finite_number(value, what)
    if not number.is_integer() or number < least:
        raise ScenarioError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(number)


def _checked_counts(counts, n_collectors: int) -> np.ndarray:
    """Photon counts as a float vector of length N_C: finite, non-negative, not all zero."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (n_collectors,):
        raise ScenarioError(f"counts must be a vector of {n_collectors} detector counts, "
                            f"got shape {counts.shape}")
    if not (np.isfinite(counts).all() and (counts >= 0).all()):
        raise ScenarioError("counts must be finite and non-negative")
    if not counts.sum() > 0:
        raise ScenarioError("counts hold no photons")
    return counts


def _draw(p: np.ndarray, n_photons: int, seed: int, theta_true: float) -> DetectionRecord:
    """Multinomial draw of n photons from p, clipped at 0 and renormalized."""
    p = np.clip(p, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(n_photons, p / p.sum())
    return DetectionRecord(counts=counts, n_photons=n_photons, seed=seed, true_theta=theta_true)


def sample_detections(
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    theta_true: float,
    R,
    n_photons: int,
    seed: int,
) -> DetectionRecord:
    """Multinomial draw of n photons from p(. | theta_true); seed-reproducible."""
    n_photons = _whole_number(n_photons, "n_photons", 1)
    p = _probability_path(scenario, direction, R, theta_true)([theta_true])[0]
    return _draw(p, n_photons, seed, theta_true)


def _log_likelihood(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_q counts_q log p_q over the last axis; terms with zero counts add nothing."""
    return (counts * np.log(np.maximum(p, LOG_FLOOR))).sum(axis=-1)


def mle_estimate(
    counts: np.ndarray | DetectionRecord,
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    R,
    search_interval: tuple[float, float],
) -> EstimationResult:
    """Maximize the counting log-likelihood over the search interval.

    The counts must be a finite, non-negative vector of length N_C with a
    positive total.  A coarse grid locates the mode (and checks
    identifiability: flat detection probabilities raise
    NonIdentifiableError); golden-section search refines it to REFINE_TOL
    times the interval width.  This is the one-trial case of crb_sweep's
    refinement.
    """
    if isinstance(counts, DetectionRecord):
        counts = counts.counts
    counts = _checked_counts(counts, scenario.n_collectors)
    lo, hi = map(float, search_interval)
    if not lo < hi:
        raise ScenarioError(f"invalid search interval [{lo}, {hi}]")
    path = _probability_path(scenario, direction, R, lo, hi)
    theta_hat = float(_refine(counts[None], path, *_likelihood_grid(path, lo, hi))[0])
    return EstimationResult(
        theta_hat=theta_hat,
        log_likelihood=float(_log_likelihood(counts, path([theta_hat])[0])),
        fisher_predicted_variance=math.nan,
        empirical_variance=math.nan,
        trials=1,
    )


def _likelihood_grid(path, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """GRID_POINTS thetas spanning [lo, hi] and log p at each; flat p is not identifiable."""
    theta = np.linspace(lo, hi, GRID_POINTS)
    probs = path(theta)
    if np.max(np.abs(probs - probs[0])) < 1e-12:
        raise NonIdentifiableError(
            "detection probabilities are constant over the search interval"
        )
    return theta, np.log(np.maximum(probs, LOG_FLOOR))


def _refine(counts: np.ndarray, path, theta: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Grid mode of each row of ``counts``, refined by golden-section search in lockstep.

    ``counts`` is (T, N_C); returns the T estimates.  Each step moves every
    live trial's bracket and evaluates the new points of all of them with
    one call of ``path``.  A trial whose bracket is within REFINE_TOL times
    the grid span is frozen: its bracket, points and values stay fixed, so
    each estimate is what the trial refined alone would give.
    """
    best = np.argmax([(counts * row).sum(axis=-1) for row in log_p], axis=0)
    a = theta[np.maximum(best - 1, 0)]
    b = theta[np.minimum(best + 1, GRID_POINTS - 1)]
    tol = REFINE_TOL * (theta[-1] - theta[0])
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1 = _log_likelihood(counts, path(x1))
    f2 = _log_likelihood(counts, path(x2))
    while (live := np.flatnonzero((b - a) > tol)).size:
        up = f1[live] < f2[live]
        i, j = live[up], live[~up]
        a[i], x1[i], f1[i] = x1[i], x2[i], f2[i]
        b[j], x2[j], f2[j] = x2[j], x1[j], f1[j]
        x2[i] = a[i] + GOLDEN * (b[i] - a[i])
        x1[j] = b[j] - GOLDEN * (b[j] - a[j])
        f = _log_likelihood(counts[live], path(np.where(up, x2[live], x1[live])))
        f2[i], f1[j] = f[up], f[~up]
    return 0.5 * (a + b)


def default_search_interval(
    prior_center: float, n_photons: int, cfi_value: float
) -> tuple[float, float]:
    """prior_center +- SEARCH_SIGMAS predicted standard deviations."""
    if n_photons < 1 or cfi_value <= 0:
        raise ScenarioError("n_photons and the CFI must be positive to size the search interval")
    sigma = math.sqrt(1.0 / (n_photons * cfi_value))
    return prior_center - SEARCH_SIGMAS * sigma, prior_center + SEARCH_SIGMAS * sigma


@dataclass
class TrialRecord:
    trial: int
    seed: int
    theta_hat: float


def crb_sweep(
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    R,
    *,
    theta_true: float,
    n_photons: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[EstimationResult, list[TrialRecord]]:
    """Repeat sample + estimate and compare the spread with 1/(n * CFI).

    ``n_photons`` and ``trials`` (at least two) must be integers.  The CFI
    at the truth comes from the source arrays, without a Scenario; the
    truth and both ends of the search interval are then checked in one
    call, so the paraxial-validity warning is emitted at most once.
    p(theta_true) and the likelihood grid are computed once per sweep.
    Per-trial seeds are spawned deterministically from the master seed;
    every trial is drawn, then all are refined together, one batched
    p(theta) per golden-section step.  Each estimate equals mle_estimate
    of sample_detections(..., seed=record.seed) over
    default_search_interval.  ``threads`` is ignored.  Returns the
    aggregate (crb_ratio = empirical_variance * n * CFI) and per-trial
    records.
    """
    n_photons = _whole_number(n_photons, "n_photons", 1)
    trials = _whole_number(trials, "trials", 2)
    theta_true = finite_number(theta_true, "theta_true")
    R = fisher.as_interferometer(R)
    scale = direction.parameter_scale
    rows = direction_rows(direction, scenario.n_sources)
    at_truth = scenario.source_positions() + rows * (scale * theta_true)
    C, dC = amplitude_arrays(scenario.collector_positions(), at_truth, scenario.weights(),
                             scenario.k, scenario.z0, scenario.mode, direction.a)
    cfi_value = scale**2 * fisher._cfi_value(C, dC, R)
    if not (cfi_value and math.isfinite(cfi_value) and cfi_value > 0):
        raise NonIdentifiableError(
            f"CFI is {cfi_value}; the parameter cannot be estimated with this measurement"
        )
    lo, hi = default_search_interval(theta_true, n_photons, cfi_value)
    path = _probability_path(scenario, direction, R, theta_true, lo, hi)
    theta, log_p = _likelihood_grid(path, lo, hi)
    p_true = path([theta_true])[0]
    trial_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]
    draws = [_draw(p_true, n_photons, s, theta_true).counts for s in trial_seeds]
    estimates = _refine(np.array(draws, dtype=float), path, theta, log_p)
    records = [TrialRecord(i, s, float(t)) for i, (s, t) in enumerate(zip(trial_seeds, estimates))]
    empirical = float(np.var(estimates, ddof=1))
    predicted = 1.0 / (n_photons * cfi_value)
    aggregate = EstimationResult(
        theta_hat=float(estimates.mean()),
        log_likelihood=math.nan,
        fisher_predicted_variance=predicted,
        empirical_variance=empirical,
        trials=trials,
        crb_ratio=empirical * n_photons * cfi_value,
    )
    return aggregate, records


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "theta_hat"])
        for r in records:
            writer.writerow([r.trial, r.seed, repr(r.theta_hat)])
