"""Monte-Carlo photon detection and maximum-likelihood estimation.

Validates that the variance attainable by an actual estimator matches
the Cramer-Rao prediction 1/(n * CFI) for photon counting behind a given
interferometer.  Photon records are i.i.d. multinomial draws (weak
sources: at most one photon per detection window, no losses or dark
counts); the scalar parameter is estimated by a grid scan whose mode is
refined to the root of the score, the derivative of the log-likelihood:
from the vertex of the parabola through the grid scores around the mode,
Fisher scoring, then secant steps, safeguarded by bisection.  Detection
probabilities, and with them their derivatives, are evaluated for a
vector of thetas at once, one apply of the measurement to all their
amplitudes; the trials of a sweep are scanned in blocks of bounded
memory and refined together, one batched evaluation per step, and a
single estimate is the one-trial case of the same code.  A sweep draws
all its trials from one generator in one call, and its aggregate holds
the QFI and CFI at its truth.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import asdict, dataclass, field

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

__all__ = [
    "DetectionRecord", "EstimationResult", "NonIdentifiableError", "crb_sweep",
    "default_search_interval", "mle_estimate", "sample_detections",
]

# Probability floor inside log-likelihoods.
LOG_FLOOR = 1e-300
# Grid resolution of the coarse likelihood scan.
GRID_POINTS = 64
# Most entries of one block's (trials, GRID_POINTS) score array in the grid scan (8 MB).
GRID_BLOCK = 1 << 20
# Refinement stops at a step within this fraction of the grid span.
REFINE_TOL = 1e-8
# Half-width of the default search interval in predicted standard deviations.
SEARCH_SIGMAS = 10.0


class NonIdentifiableError(ValueError):
    """The detection probabilities do not depend on the parameter."""


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """Photon counts per detector for one experiment.

    The counts must be a vector of whole numbers >= 0 that sum to
    ``n_photons``, an integer >= 1; ``seed`` a non-negative integer and
    ``true_theta`` a finite number.  Anything else raises ScenarioError.
    The counts are kept as a read-only int64 vector.
    """

    counts: np.ndarray
    n_photons: int
    seed: int
    true_theta: float

    def __post_init__(self):
        try:
            counts = np.asarray(self.counts)
        except ValueError:
            counts = None
        if counts is None or counts.ndim != 1:
            raise ScenarioError(f"counts must be a vector of detector counts, got {self.counts!r}")
        values = [_whole_number(c, "counts", 0) for c in counts.tolist()]
        n_photons = _whole_number(self.n_photons, "n_photons", 1)
        if sum(values) != n_photons:
            raise ScenarioError("counts do not sum to n_photons")
        counts = np.array(values, dtype=np.int64)
        counts.setflags(write=False)
        for name, value in (("counts", counts), ("n_photons", n_photons),
                            ("seed", _checked_seed(self.seed)),
                            ("true_theta", finite_number(self.true_theta, "true_theta"))):
            object.__setattr__(self, name, value)


@dataclass
class EstimationResult:
    """Point estimate or trial aggregate with the Cramer-Rao prediction.

    A value a result does not have is None, so ``to_dict`` is strict JSON.
    An aggregate has no one likelihood; its ``qfi`` and ``cfi`` are
    fisher.information_report's at the truth its photons are drawn from,
    which a single estimate lacks, as it lacks a predicted and empirical variance.
    """

    qfi: float | None = field(default=None, kw_only=True)
    cfi: float | None = field(default=None, kw_only=True)
    theta_hat: float
    log_likelihood: float | None
    fisher_predicted_variance: float | None
    empirical_variance: float | None
    trials: int
    crb_ratio: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _probability_path(scenario: Scenario, direction: GeneralizedCoordinate, R, *checked: float):
    """p(theta), and p with its slope, for the sources at r + a * parameter_scale * theta.

    Returns two functions of T thetas, built with no Scenario per theta.
    The first gives the (T, N_C) detection probabilities; the second gives
    them with dp/dtheta (T, N_C) and the CFI (T,), dark ports entering
    through their 0/0 limit (fisher._port_information).  Row t depends only
    on theta t.  The source positions at the ``checked`` thetas are
    validated in one check; sources move linearly in theta, so the ends of
    an interval cover all of it.  A measurement R that is not an
    Interferometer is checked once, here.  Each call builds the amplitudes
    of all T thetas in one call and applies R once, in its own form, to the
    stack of them, or of them and their derivatives (fisher._applied): no
    N_C x N_C matrix is formed.
    """
    R = fisher._measurement(R, scenario.n_collectors)
    scale = direction.parameter_scale
    xyz = scenario.source_positions()
    a = direction_rows(direction, scenario.n_sources)
    steps = scale * np.array(checked, dtype=float)
    check_source_positions(xyz + a * steps[:, None, None], scenario.z0, scenario.mode)

    def amplitudes(theta, along):
        moved = xyz + a * (scale * np.asarray(theta, dtype=float))[:, None, None]
        return amplitude_arrays(scenario, moved, along)

    def path(theta) -> np.ndarray:
        return fisher._probabilities(fisher._applied(R, amplitudes(theta, None)[0]))

    def slopes(theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p, dp, terms = fisher._port_information(fisher._applied(R, np.stack(amplitudes(theta, a))))
        return p, scale * dp, scale**2 * terms.sum(axis=-1)

    return path, slopes


# The multinomial draw takes its number of photons as a numpy int64.
_COUNT_LIMIT = 2**63


def _whole_number(value, what: str, least: int) -> int:
    """``value`` as an int in [least, 2**63); ScenarioError otherwise.

    An integer, not a bool, is taken exactly (operator.index); anything
    else, such as 2.0, must be a finite number with an integral value.
    """
    if isinstance(value, bool):
        raise ScenarioError(f"{what} must be an integer >= {least}, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        number = finite_number(value, what)
        if not number.is_integer():
            raise ScenarioError(f"{what} must be an integer >= {least}, got {value!r}") from None
        number = int(number)
    if number < least:
        raise ScenarioError(f"{what} must be an integer >= {least}, got {value!r}")
    if number >= _COUNT_LIMIT:
        raise ScenarioError(f"{what} must be below 2**63, got {value!r}")
    return number


def _checked_seed(seed) -> int:
    """``seed`` as a non-negative int of any size; ScenarioError otherwise.

    Not through finite_number: its float would round seeds above 2**53.
    """
    if isinstance(seed, bool):
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, got {seed}")
    return seed


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


def _normalized(p: np.ndarray) -> np.ndarray:
    """p clipped at 0 and renormalized: the cell probabilities of the multinomial draw."""
    p = np.maximum(p, 0.0)
    return p / p.sum()


def sample_detections(
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    theta_true: float,
    R,
    n_photons: int,
    seed: int,
) -> DetectionRecord:
    """Multinomial draw of n photons from p(. | theta_true) by default_rng(seed).

    ``seed`` must be a non-negative integer.
    """
    seed = _checked_seed(seed)
    n_photons = _whole_number(n_photons, "n_photons", 1)
    path, _ = _probability_path(scenario, direction, R, theta_true)
    counts = np.random.default_rng(seed).multinomial(n_photons, _normalized(path([theta_true])[0]))
    return DetectionRecord(counts=counts, n_photons=n_photons, seed=seed, true_theta=theta_true)


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
    positive total, and the interval must resolve GRID_POINTS grid values
    (_checked_interval).  A coarse grid locates the mode (and checks
    identifiability: flat detection probabilities raise
    NonIdentifiableError); a search for the root of the score, started at
    the vertex of the parabola through the grid scores around the mode and
    kept inside the mode's grid neighbours, refines it until its step is
    within REFINE_TOL times the interval width (_refine).  This is the
    one-trial case of crb_sweep's refinement.
    """
    if isinstance(counts, DetectionRecord):
        counts = counts.counts
    counts = _checked_counts(counts, scenario.n_collectors)
    theta = _checked_interval(*search_interval)
    path, slopes = _probability_path(scenario, direction, R, theta[0], theta[-1])
    theta_hat = float(_refine(counts[None], slopes, theta, _likelihood_grid(path, theta))[0])
    return EstimationResult(
        theta_hat=theta_hat,
        log_likelihood=float(_log_likelihood(counts, path([theta_hat])[0])),
        fisher_predicted_variance=None,
        empirical_variance=None,
        trials=1,
    )


def _likelihood_grid(path, theta: np.ndarray) -> np.ndarray:
    """log p at each grid theta (_checked_interval); flat p is not identifiable."""
    probs = path(theta)
    if np.abs(probs - probs[0]).max() < 1e-12:
        raise NonIdentifiableError(
            "detection probabilities are constant over the search interval"
        )
    return np.log(np.maximum(probs, LOG_FLOOR))


def _grid_modes(counts: np.ndarray, log_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid mode of each row of ``counts`` and its scores around it.

    Returns the index of the grid row of largest log-likelihood, the first
    on ties, and the (T, 3) log-likelihoods at rows c - 1, c, c + 1, where
    c is the mode clipped to [1, GRID_POINTS - 2].  Blocks of trials are
    scored against all rows of ``log_p`` by one einsum 'tq,gq->tg' each,
    into a score array of at most GRID_BLOCK entries (one trial at least),
    8 MB whatever T and N_C.  numpy's own einsum loop (optimize=False, no
    BLAS) sums each score in one order whatever the block and the trial's
    place in it: bit for bit, the one-trial einsum 'q,gq->g' of that trial.
    """
    rows = max(1, GRID_BLOCK // GRID_POINTS)
    modes, around = np.empty(len(counts), dtype=np.intp), np.empty((len(counts), 3))
    for i in range(0, len(counts), rows):
        scores = np.einsum("tq,gq->tg", counts[i:i + rows], log_p)
        best = scores.argmax(axis=1)
        modes[i:i + rows] = best
        c = np.minimum(np.maximum(best, 1), GRID_POINTS - 2)[:, None] + np.arange(-1, 2)
        around[i:i + rows] = scores[np.arange(len(scores))[:, None], c]
    return modes, around


def _refine(counts: np.ndarray, slopes, theta: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Grid mode of each row of ``counts``, refined to a root of the score in lockstep.

    ``counts`` is (T, N_C); returns the T estimates.  Each trial is
    bracketed by its grid mode's neighbours (_grid_modes, scored in blocks
    of bounded memory) and starts at the vertex of the parabola through
    its three grid scores around the mode, x0 = theta_c + h (f0 - f2) /
    (2 (f0 - 2 f1 + f2)) for grid spacing h, clipped to the bracket; where
    that curvature is not negative, as for a flat or convex triple at an
    end of the grid, it starts at the mode.  The sign of
    the score l'(theta) = sum_q n_q dp_q / p_q at each point it reaches
    narrows the bracket to that point.  The first step is Fisher scoring,
    l' / (n CFI(theta)); later steps follow the secant of the last two
    scores where it is concave, and score again where it is not.  A step
    that would leave the bracket, or is longer than half the step before
    last, bisects the bracket instead: between bisections the steps halve
    every two, and each bisection halves the bracket, so the number of
    steps is bounded.  Each step evaluates the scores of all live trials
    with one call of ``slopes``.  The state (point, bracket, previous
    point and score, last two step lengths, counts, n and trial index) is
    held for the live trials only; each step writes its points to the
    output, and a trial whose step is within REFINE_TOL times the grid
    span is frozen at the point that step reaches and dropped from the
    state, so each estimate is what the trial refined alone would give.
    """
    best, around = _grid_modes(counts, log_p)
    f0, f1, f2 = around.T
    a = theta[np.maximum(best - 1, 0)]
    b = theta[np.minimum(best + 1, GRID_POINTS - 1)]
    curvature = f0 - 2.0 * f1 + f2
    h = (theta[-1] - theta[0]) / (GRID_POINTS - 1)
    tol = REFINE_TOL * (theta[-1] - theta[0])
    n = counts.sum(axis=-1)
    index = np.arange(len(best))
    # Each trial's last two step lengths, and from step two on its previous point and score.
    d1, d2 = np.full(len(best), np.inf), np.full(len(best), np.inf)
    x_prev = s_prev = None
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.minimum(np.maximum(best, 1), GRID_POINTS - 2)
        vertex = theta[c] + h * (f0 - f2) / (2.0 * curvature)
        x = np.where(curvature < 0, np.minimum(np.maximum(vertex, a), b), theta[best])
        out = x.copy()
        while x.size:
            p, dp, cfi = slopes(x)
            s = (counts * dp / np.maximum(p, LOG_FLOOR)).sum(axis=-1)
            a = np.where(s >= 0, x, a)
            b = np.where(s <= 0, x, b)
            step = s / (n * cfi)
            if x_prev is not None:
                secant = (s - s_prev) / (x - x_prev)
                step = np.where(secant < 0, -s / secant, step)
            to = x + step
            bisect = ~((to > a) & (to < b)) | (np.abs(step) > 0.5 * d2)
            to = np.where(bisect, 0.5 * (a + b), to)
            length = np.abs(to - x)
            out[index] = to
            x_prev, s_prev, x, d2, d1 = x, s, to, d1, length
            live = length > tol
            if not live.all():
                x, a, b, x_prev, s_prev, d1, d2, counts, n, index = (
                    v[live] for v in (x, a, b, x_prev, s_prev, d1, d2, counts, n, index))
    return out


def default_search_interval(
    prior_center: float, n_photons: int, cfi_value: float
) -> tuple[float, float]:
    """prior_center +- SEARCH_SIGMAS sigmas: the ends of _search_grid."""
    return tuple(_search_grid(prior_center, n_photons, cfi_value)[[0, -1]].tolist())


def _search_grid(prior_center, n_photons, cfi_value) -> np.ndarray:
    """The grid (_checked_interval) of prior_center +- SEARCH_SIGMAS sigmas; n and CFI > 0."""
    prior_center = finite_number(prior_center, "prior_center")
    n_photons = _whole_number(n_photons, "n_photons", 1)
    cfi_value = finite_number(cfi_value, "the CFI")
    if cfi_value <= 0:
        raise ScenarioError("the CFI must be positive to size the search interval")
    sigma = math.sqrt(1.0 / (n_photons * cfi_value))
    return _checked_interval(prior_center - SEARCH_SIGMAS * sigma,
                             prior_center + SEARCH_SIGMAS * sigma)


def _checked_interval(lo, hi) -> np.ndarray:
    """GRID_POINTS thetas from lo to hi; ScenarioError unless finite, distinct doubles."""
    lo, hi = (finite_number(end, "a search interval end") for end in (lo, hi))
    if lo > hi:
        raise ScenarioError(f"invalid search interval [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ScenarioError(f"search interval [{lo}, {hi}] is too wide: its width overflows")
    theta = np.linspace(lo, hi, GRID_POINTS)
    if not (np.diff(theta) > 0).all():
        raise ScenarioError(f"search interval [{lo}, {hi}] has no resolution: its {GRID_POINTS} "
                            "grid points are not distinct doubles")
    return theta


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

    ``n_photons`` and ``trials`` (at least two) must be integers, and
    ``seed`` a non-negative integer of any size.  C and dC at the truth
    are built once, from the source arrays, without a Scenario; they give
    the CFI behind R, the QFI (one support_svd of C) and p(theta_true) (R
    applied to C alone).  A CFI that is not positive raises
    NonIdentifiableError; the truth and both ends of the search interval
    are then checked in one call, so the paraxial-validity warning is
    emitted at most once.  All trials are drawn in one call,
    default_rng(seed).multinomial(n_photons, p(theta_true), size=trials):
    trial i's photons are row i, so (seed, i) identifies them, record.seed
    is the sweep seed, a sweep's trials are the first of any longer sweep
    with its seed, and trial 0's are sample_detections(..., seed).counts.
    All are then scored against the likelihood grid in blocks of at most
    GRID_BLOCK entries, which bounds the scan's memory whatever
    ``trials``, and refined together, one batched evaluation of p(theta)
    and dp/dtheta per step over the live trials only (_refine), each to
    mle_estimate of its row over default_search_interval.  ``threads`` is
    ignored.  Returns the aggregate (qfi and cfi at the truth, crb_ratio =
    empirical_variance * n * CFI) and per-trial records.  crb_ratio tests
    the asymptotic bound: it means little where the likelihood is far from
    quadratic, as at a symmetric point with n * CFI near one, where it can
    fall well below 1.
    """
    seed = _checked_seed(seed)
    n_photons = _whole_number(n_photons, "n_photons", 1)
    trials = _whole_number(trials, "trials", 2)
    theta_true = finite_number(theta_true, "theta_true")
    R = fisher._measurement(R, scenario.n_collectors)
    scale = direction.parameter_scale
    a = direction_rows(direction, scenario.n_sources)
    C, dC = amplitude_arrays(scenario, scenario.source_positions() + a * (scale * theta_true), a)
    cfi_value = scale**2 * fisher._cfi(C, dC, R)[0]
    if not (cfi_value and math.isfinite(cfi_value) and cfi_value > 0):
        raise NonIdentifiableError(
            f"CFI is {cfi_value}; the parameter cannot be estimated with this measurement"
        )
    theta = _search_grid(theta_true, n_photons, cfi_value)
    path, slopes = _probability_path(scenario, direction, R, theta_true, theta[0], theta[-1])
    log_p = _likelihood_grid(path, theta)
    p_true = _normalized(fisher.detection_probabilities(C, R))
    draws = np.random.default_rng(seed).multinomial(n_photons, p_true, size=trials)
    estimates = _refine(draws.astype(float), slopes, theta, log_p)
    records = [TrialRecord(i, seed, t) for i, t in enumerate(estimates.tolist())]
    empirical = float(np.var(estimates, ddof=1))
    (qfi_value,), _ = fisher._qfi_value(C, dC, fisher.support_svd(C))
    return EstimationResult(
        qfi=scale**2 * qfi_value,
        cfi=cfi_value,
        theta_hat=float(estimates.mean()),
        log_likelihood=None,
        fisher_predicted_variance=1.0 / (n_photons * cfi_value),
        empirical_variance=empirical,
        trials=trials,
        crb_ratio=empirical * n_photons * cfi_value,
    ), records


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "theta_hat"])
        for r in records:
            writer.writerow([r.trial, r.seed, repr(r.theta_hat)])
