"""Monte-Carlo photon detection and maximum-likelihood estimation.

Validates that the variance attainable by an actual estimator matches
the Cramer-Rao prediction 1/(n * CFI) for photon counting behind a given
interferometer.  Photon records are i.i.d. multinomial draws (weak
sources: at most one photon per detection window, no losses or dark
counts); the scalar parameter is estimated by a grid scan refined with
golden-section search on the log-likelihood.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fisher
from .geometry import GeneralizedCoordinate, Scenario, ScenarioError, build_amplitude_matrix, displace
from .interferometer import Interferometer

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Probability floor inside log-likelihoods.
LOG_FLOOR = 1e-300
# Grid resolution of the coarse likelihood scan.
GRID_POINTS = 64
# Relative tolerance of the golden-section refinement.
REFINE_TOL = 1e-8


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


def _measurement(R) -> Interferometer:
    """R as an Interferometer, so that a raw matrix is checked unitary once."""
    return R if isinstance(R, Interferometer) else Interferometer(R)


def _probability_path(scenario: Scenario, direction: GeneralizedCoordinate, R):
    """p(theta) where theta is the parameter attached to the direction."""
    R = _measurement(R)
    scale = direction.parameter_scale

    def path(theta: float) -> np.ndarray:
        moved = displace(scenario, direction, scale * theta)
        return fisher.detection_probabilities(build_amplitude_matrix(moved), R)

    return path


def sample_detections(
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    theta_true: float,
    R,
    n_photons: int,
    seed: int,
) -> DetectionRecord:
    """Multinomial draw of n photons from p(. | theta_true); seed-reproducible."""
    if n_photons < 1:
        raise ScenarioError("n_photons must be >= 1")
    p = _probability_path(scenario, direction, R)(theta_true)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_photons, p)
    return DetectionRecord(
        counts=counts, n_photons=n_photons, seed=seed, true_theta=theta_true
    )


def _log_likelihood(counts: np.ndarray, p: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(np.maximum(p[mask], LOG_FLOOR))))


def mle_estimate(
    counts: np.ndarray | DetectionRecord,
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    R,
    search_interval: tuple[float, float],
    *,
    grid_points: int = GRID_POINTS,
    cfi_value: float | None = None,
) -> EstimationResult:
    """Maximize the counting log-likelihood over the search interval.

    A coarse grid locates the mode (and checks identifiability: flat
    detection probabilities raise NonIdentifiableError); golden-section
    search refines it to REFINE_TOL times the interval width.
    """
    if isinstance(counts, DetectionRecord):
        counts = counts.counts
    counts = np.asarray(counts, dtype=float)
    lo, hi = map(float, search_interval)
    if not lo < hi:
        raise ScenarioError(f"invalid search interval [{lo}, {hi}]")
    path = _probability_path(scenario, direction, R)
    grid = np.linspace(lo, hi, grid_points)
    probs = np.array([path(t) for t in grid])
    if np.max(np.abs(probs - probs[0])) < 1e-12:
        raise NonIdentifiableError(
            "detection probabilities are constant over the search interval"
        )
    ll = np.array([_log_likelihood(counts, p) for p in probs])
    best = int(np.argmax(ll))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]

    tol = REFINE_TOL * (hi - lo)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1 = _log_likelihood(counts, path(x1))
    f2 = _log_likelihood(counts, path(x2))
    while (b - a) > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = _log_likelihood(counts, path(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = _log_likelihood(counts, path(x1))
    theta_hat = 0.5 * (a + b)
    n = counts.sum()
    predicted = math.nan
    if cfi_value is not None and cfi_value > 0 and n > 0:
        predicted = 1.0 / (n * cfi_value)
    return EstimationResult(
        theta_hat=float(theta_hat),
        log_likelihood=_log_likelihood(counts, path(theta_hat)),
        fisher_predicted_variance=predicted,
        empirical_variance=math.nan,
        trials=1,
    )


def default_search_interval(
    prior_center: float, n_photons: int, cfi_value: float, n_sigmas: float = 10.0
) -> tuple[float, float]:
    """prior_center +- n_sigmas predicted standard deviations."""
    if cfi_value <= 0:
        raise ScenarioError("CFI must be positive to size the search interval")
    sigma = math.sqrt(1.0 / (n_photons * cfi_value))
    return prior_center - n_sigmas * sigma, prior_center + n_sigmas * sigma


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
    search_interval: tuple[float, float] | None = None,
) -> tuple[EstimationResult, list[TrialRecord]]:
    """Repeat sample + estimate and compare the spread with 1/(n * CFI).

    Per-trial seeds are spawned deterministically from the master seed, so
    results are identical for any thread count.  Returns the aggregate
    (with crb_ratio = empirical_variance * n * CFI) and per-trial records.
    """
    if trials < 2:
        raise ScenarioError("need at least two trials to estimate a variance")
    R = _measurement(R)
    at_truth = displace(scenario, direction, direction.parameter_scale * theta_true)
    cfi_report = fisher.cfi(at_truth, direction, R)
    cfi_value = cfi_report.cfi
    if not (cfi_value and math.isfinite(cfi_value) and cfi_value > 0):
        raise NonIdentifiableError(
            f"CFI is {cfi_value}; the parameter cannot be estimated with this measurement"
        )
    if search_interval is None:
        search_interval = default_search_interval(theta_true, n_photons, cfi_value)
    trial_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]

    def one_trial(i: int) -> TrialRecord:
        record = sample_detections(
            scenario, direction, theta_true, R, n_photons, trial_seeds[i]
        )
        est = mle_estimate(record, scenario, direction, R, search_interval)
        return TrialRecord(trial=i, seed=trial_seeds[i], theta_hat=est.theta_hat)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one_trial, range(trials)))
    else:
        records = [one_trial(i) for i in range(trials)]
    estimates = np.array([r.theta_hat for r in records])
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


def write_aggregate_json(path, aggregate: EstimationResult, *, qfi_value: float | None = None,
                         cfi_value: float | None = None) -> None:
    doc = aggregate.to_dict()
    doc["cfi"] = cfi_value
    doc["qfi"] = qfi_value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
