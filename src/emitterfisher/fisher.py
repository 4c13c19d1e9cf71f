"""Quantum and classical Fisher information for emitter localization.

Both quantities are closed forms in the amplitude matrix C(theta) and its
analytic derivative dC/dtheta, built by geometry.amplitude_arrays from the
scenario, the source positions and the direction(s).  The quantum Fisher
information of rho = C C^dag is the purification form
4 min_K ||dC + C K||^2 over anti-Hermitian gauges K (Braunstein & Caves,
PRL 72, 3439, 1994), evaluated on the thin SVD of C with an explicit rank
rule as the squared norm 4 ||F||^2 of one real-linear map F of dC
(_qfi_rows).  The classical side evaluates photon counting statistics
behind a fixed interferometer through sum_q (dp_q/dtheta)^2 / p_q, with
the 0/0 limit at dark output ports.  These two values are the only Fisher
numbers the package reports: interferometer.verify_saturation evaluates
the same closed forms (_qfi_value, _cfi) for its step-free optimal
measurement, from C, dC and the SVD of C, as information_report does.
qfi_matrix_consistency reports as ``finite_difference`` (a name kept for
compatibility) the QFI matrix along three tangents as the Gram matrix
4 Re F F^dag of their rows, from one amplitude build and one SVD of C.
C, dC and the support SVD of C at a Scenario's own positions are built
once and kept on it (geometry.amplitude_arrays, _scenario_svd), so every
entry point here reads them.  So is the unscaled QFI of the most recent
direction with its d rho (_direction_qfi), which qfi, information_report
and interferometer._design read; each call still applies the
direction's parameter_scale^2 (_report).

The trace-norm and classical fidelities of displaced scenario pairs are
kept as double-precision diagnostics of a finite displacement.

A measurement is an Interferometer, applied to an N_C x m block through
its ``apply`` in one of three forms.  A dense matrix is checked unitary by
its constructor through the full product R^dag R - I, O(N_C^3); anything
else passed as a measurement goes through that constructor first.  The
package's own optimal measurement stays in Householder form: the factors
of a QR plus its support rows, checked from them in O(N_C r^2) with the
same tolerance and the same ``unitarity_residual``, and applied in
O(N_C r m) (_householder_interferometer).  qft_interferometer, applied
by FFT, and identity_interferometer, applied as a copy, are unitary by
construction and not checked.  Every value here and estimation's p(theta)
apply R once, to one block of amplitude matrices side by side ([C | dC]
in _cfi, a stack in _applied), and form no N_C x N_C matrix for the
factored forms; ``matrix`` builds it when read.  Sums over sources add
whole columns (_source_sum), so that each N_C-sized block is read once
per sum rather than once per port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    _PRESET_TANGENTS,
    GeneralizedCoordinate,
    Mode,
    Scenario,
    ScenarioError,
    _direction_key,
    _kept,
    amplitude_and_derivative,
    amplitude_arrays,
    direction_rows,
    finite_real,
    whole_number,
)

__all__ = [
    "ConsistencyReport", "FisherReport", "GeneratorMoments", "Interferometer",
    "NumericalError", "ParaxialTarget", "Provenance", "cfi", "classical_fidelity",
    "detection_probabilities", "generator_moments", "information_report", "overlap_matrix",
    "paraxial_qfi_matrix", "qfi", "qfi_matrix_consistency", "quantum_fidelity",
]

# Unitarity tolerance for measurement matrices (Frobenius norm).
UNITARITY_TOL = 1e-10
_EPS = np.finfo(float).eps
# Output ports with probability at or below this are dark: their Fisher
# term is the 0/0 limit 4 sum_s |(R dC)_{qs}|^2 of (dp_q)^2 / p_q.  The
# dark ports of synthesized measurements sit at 1e-31 or below (rounding
# of R C); dim ports above the threshold keep the direct term, which is
# then accurate to about 1e-3 of itself.
DARK_P = 1e-26


class NumericalError(RuntimeError):
    """A numerical routine failed (SVD breakdown, non-unitary input, ...)."""


class Provenance(str, Enum):
    IDENTITY = "identity"
    BS_PHASE = "bs_phase"
    QFT = "qft"
    SYNTHESIZED = "synthesized"
    USER_SUPPLIED = "user_supplied"


def _full_unitarity_residual(m: np.ndarray) -> float:
    """||R^dag R - I||_F of a square matrix, through the full product, O(N_C^3)."""
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


def _passing(resid: float) -> float:
    """resid if it passes UNITARITY_TOL (NaN fails), else NumericalError."""
    if not resid <= UNITARITY_TOL:
        raise NumericalError(
            f"interferometer is not unitary: ||R^dag R - I||_F = {resid:.3e}"
        )
    return resid


class Interferometer:
    """Unitary mode transformation feeding the photodetectors.

    Row q of ``matrix`` is the detector-q projection: the probability of a
    click at detector q is the squared row norm of ``apply(C)``, which
    equals ``matrix @ C``.  A measurement has one of three forms, and
    ``apply`` acts on an N_C x m block in that form:

    - dense: ``Interferometer(matrix, provenance, alpha)`` checks its
      matrix square and unitary in ``__post_init__``, through the full
      product R^dag R - I, O(N_C^3), and applies it as a matrix product;
    - Householder: the package's optimal measurement, kept as the factors
      of a QR plus its support rows (_householder_interferometer), checked
      from them in O(N_C r^2) and applied in O(N_C r m);
    - unitary by construction: interferometer.qft_interferometer, applied
      as an orthonormal inverse FFT along the modes, and
      interferometer.identity_interferometer, applied as a copy of the
      block.  Only n_modes is checked at construction; the identity's
      ``unitarity_residual`` is 0.0, and the Fourier form's is computed
      from ``matrix``, with the dense form's formula, when first read.

    ``matrix`` is read-only; every form but the dense one builds it
    (``_form``) on first access, the Householder form on every access.
    Equality and hashing are by identity, so comparing two measurements
    never forms or compares a matrix.
    """

    def __init__(self, matrix, provenance=Provenance.USER_SUPPLIED, alpha: float | None = None):
        self._matrix = matrix
        self._provenance = Provenance(provenance)
        self._alpha = alpha
        self.__post_init__()

    def __post_init__(self):
        """The dense form's check: alpha None or a finite number, and a square unitary matrix."""
        if self._alpha is not None:
            finite_real(self._alpha, "interferometer alpha")
        m = np.array(self._matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ScenarioError(f"interferometer matrix must be square, got {m.shape}")
        self._residual = _passing(_full_unitarity_residual(m))
        m.setflags(write=False)
        self._matrix = m
        self._n_modes = m.shape[0]

    def _init_factored(self, n_modes: int, provenance: Provenance) -> None:
        """State of a factored form: no matrix yet and no residual unless its builder sets one.

        ``n_modes`` must be a whole number >= 1 (geometry.whole_number).
        """
        self._matrix = None
        self._provenance = provenance
        self._alpha = None
        self._n_modes = whole_number(n_modes, "n_modes", 1)
        self._residual = None

    @property
    def matrix(self) -> np.ndarray:
        """The N_C x N_C matrix (read-only), built on first access by a factored form."""
        if self._matrix is None:
            m = self._form()
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def provenance(self) -> Provenance:
        return self._provenance

    @property
    def alpha(self) -> float | None:
        return self._alpha

    @property
    def n_modes(self) -> int:
        return self._n_modes

    @property
    def unitarity_residual(self) -> float:
        """||R^dag R - I||_F: of the constructor's or the factored check, else of ``matrix``."""
        if self._residual is None:
            self._residual = _full_unitarity_residual(self.matrix)
        return self._residual

    def apply(self, X: np.ndarray) -> np.ndarray:
        """matrix @ X for an N_C x m block X, in this measurement's form."""
        return self._matrix @ X

    def __repr__(self) -> str:
        return f"Interferometer(n_modes={self.n_modes}, provenance={self.provenance.value!r})"


class _HouseholderInterferometer(Interferometer):
    """Householder form: R = Q^dag = I - V T^dag V^dag with its first r rows replaced by S.

    ``matrix`` is formed on every read and not kept: the package keeps this
    form on a Scenario (interferometer._design), which is charged for its
    O(N_C r) factors (geometry._held_bytes), not for an N_C x N_C matrix.
    """

    def __init__(self, V: np.ndarray, Vh: np.ndarray, Th: np.ndarray, support_rows: np.ndarray):
        self._init_factored(V.shape[0], Provenance.SYNTHESIZED)
        self._V, self._Vh, self._Th, self._S = V, Vh, Th, support_rows

    def apply(self, X: np.ndarray) -> np.ndarray:
        RX = self._V @ (self._Th @ (self._Vh @ X))
        np.subtract(X, RX, out=RX)
        RX[: self._S.shape[0]] = self._S @ X
        return RX

    @property
    def matrix(self) -> np.ndarray:
        m = self._form()
        m.setflags(write=False)
        return m

    def _form(self) -> np.ndarray:
        R = self._V @ (-self._Th @ self._Vh)
        R.flat[:: self._n_modes + 1] += 1.0
        R[: self._S.shape[0]] = self._S
        return R


def _householder_interferometer(
    reflectors: np.ndarray, tau: np.ndarray, support_rows: np.ndarray
) -> Interferometer:
    """Synthesized measurement: Q^dag of a Householder QR, support rows first, in factored form.

    ``reflectors, tau = np.linalg.qr(basis, mode="raw")`` for an N_C x r
    basis; in compact-WY form Q = I - V T V^dag, with V the unit lower
    trapezoidal reflectors and T the r x r upper-triangular factor of the
    LAPACK zlarft recursion.  R = Q^dag is one rank-r update of the
    identity, and its first r rows are replaced by ``support_rows`` (S,
    r x N_C), which must span the first r columns of Q.  So R X is S X on
    the first r rows and X - V (T^dag (V^dag X)) on the others, O(N_C r m)
    for an N_C x m block X; R itself is formed only when ``matrix`` is
    read.  With K the other rows of R, ||R R^dag - I||^2 =
    ||S S^dag - I||^2 + 2 ||K S^dag||^2 + ||V_2 X V_2^dag||^2, where
    X = T^dag (V^dag V) T - T - T^dag gives Q^dag Q - I = V X V^dag and
    V_2 is the rows of V past r.  [S S^dag; K S^dag] is R applied to
    S^dag, and the last term is tr(X G X^dag G) = <G X, X G> with
    G = V_2^dag V_2, so the check costs O(N_C r^2) and equals
    ||R^dag R - I||_F of the full check to rounding.
    """
    r, n = reflectors.shape
    V = reflectors.T.copy()
    for i in range(r):
        V[i, i] = 1.0
        V[i, i + 1 :] = 0.0
    Vh = V.conj().T
    W = Vh @ V
    G = Vh[:, r:] @ V[r:]
    T = np.diag(tau)
    minus_tau = -tau
    for i in range(1, r):
        T[:i, i] = minus_tau[i] * (T[:i, :i] @ W[:i, i])
    Th = T.conj().T
    measurement = _HouseholderInterferometer(V, Vh, Th, support_rows)
    # R S^dag is [S S^dag; K S^dag]; minus the identity on its first rows.
    RS = measurement.apply(support_rows.conj().T)
    KS = RS[r:]
    RS.flat[: r * r : r + 1] -= 1.0
    X = Th @ W @ T - T - Th
    resid2 = (
        np.vdot(RS, RS).real
        + np.vdot(KS, KS).real
        + max(np.vdot(G @ X, X @ G).real, 0.0)
    )
    measurement._residual = _passing(math.sqrt(resid2))
    return measurement


@dataclass(eq=False)
class FisherReport:
    """Result of a Fisher-information evaluation for one coordinate.

    Values are reported for the physical parameter attached to the
    coordinate (see GeneralizedCoordinate.parameter_scale).  Values come
    from closed forms, so ``converged`` is read from them (no CLI document
    holds it: a non-finite value writes none) and ``step_sequence``
    (finite-difference steps) is always empty.
    """

    direction: GeneralizedCoordinate
    qfi: float | None = None
    cfi: float | None = None
    step_sequence = ()

    @property
    def converged(self) -> bool:
        """Whether every reported value (qfi, cfi; None is not reported) is finite."""
        return all(math.isfinite(v) for v in (self.qfi, self.cfi) if v is not None)

    @property
    def saturation_ratio(self) -> float | None:
        if self.qfi is None or self.cfi is None:
            return None
        if self.qfi == 0.0:
            return 1.0 if self.cfi == 0.0 else math.inf
        return self.cfi / self.qfi


# ---------------------------------------------------------------------------
# Fidelities
# ---------------------------------------------------------------------------


def _same_shape(C: np.ndarray, C_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two amplitude matrices as arrays of one shape; ScenarioError otherwise."""
    C, C_prime = np.asarray(C), np.asarray(C_prime)
    if C.shape != C_prime.shape:
        raise ScenarioError(f"amplitude matrix shapes differ: {C.shape} vs {C_prime.shape}")
    return C, C_prime


def overlap_matrix(C: np.ndarray, C_prime: np.ndarray) -> np.ndarray:
    """Source overlap matrix M = C^dag C' of two amplitude matrices."""
    C, C_prime = _same_shape(C, C_prime)
    return C.conj().T @ C_prime


def quantum_fidelity(M: np.ndarray) -> float:
    """Trace norm ||M||_1 = sum of singular values of the overlap matrix."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise NumericalError("overlap matrix contains non-finite entries")
    try:
        return float(np.linalg.svd(M, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed for overlap matrix (shape {M.shape}, "
            f"norm {np.linalg.norm(M):.3e})"
        ) from exc


def _measurement(R, n_collectors: int) -> Interferometer:
    """R, or Interferometer(R) for anything else, which checks it; it must act on n_collectors modes."""
    if not isinstance(R, Interferometer):
        R = Interferometer(R)
    if R.n_modes != n_collectors:
        raise ScenarioError(
            f"interferometer size {R.n_modes} != collector count {n_collectors}"
        )
    return R


def _applied(R, X: np.ndarray) -> np.ndarray:
    """R times every (N_C, m) slice of X (..., N_C, m), by one apply to its slices side by side.

    So a stack [C, dC] is applied as the N_C x 2m block [C | dC].
    """
    R = _measurement(R, X.shape[-2])
    swapped = X.swapaxes(0, -2)
    return R.apply(swapped.reshape(X.shape[-2], -1)).reshape(swapped.shape).swapaxes(0, -2)


def _source_sum(X: np.ndarray) -> np.ndarray:
    """X summed over its last (source) axis, one column at a time, in X's memory order.

    numpy's ``sum(axis=-1)`` runs one reduction of N_S numbers per port;
    this adds whole columns instead.  The total starts as 0.0 plus the
    first column, as numpy's sum starts from 0.0, and keeps the memory
    order of X, so a (T, N_C) result from the strided stacks of _applied
    stays N_C-major for estimation's sums over ports.  Below 8 sources
    numpy's sum is the same sequential one, bit for bit; from 8 on it
    sums pairwise and the last bit may differ.
    """
    total = X[..., 0] + 0.0
    for s in range(1, X.shape[-1]):
        total += X[..., s]
    return total


def _probabilities(RC: np.ndarray) -> np.ndarray:
    """Detection probabilities p_q = sum_s |(R C)_{qs}|^2 from R C or a stack of such products."""
    return _source_sum(np.abs(RC) ** 2)


def detection_probabilities(C: np.ndarray, R) -> np.ndarray:
    """Photon detection probabilities p_q = sum_s |(R C)_{qs}|^2."""
    return _probabilities(_applied(R, np.asarray(C)))


def classical_fidelity(C: np.ndarray, C_prime: np.ndarray, R) -> float:
    """Bhattacharyya overlap sum_q sqrt(p_q p'_q) of the two count distributions.

    C and C' must have one shape; R is applied once, to [C, C'].
    """
    RC, RC_prime = _applied(R, np.stack(_same_shape(C, C_prime)))
    return float(np.sqrt(_probabilities(RC) * _probabilities(RC_prime)).sum())


# ---------------------------------------------------------------------------
# Quantum and classical Fisher information
# ---------------------------------------------------------------------------


def _rounding_tol(C: np.ndarray) -> float:
    """Relative rounding level of quantities computed from C."""
    return max(C.shape) * _EPS


def _drop_rounding(value: float, C: np.ndarray, dC: np.ndarray) -> float:
    """0.0 for an information value at the rounding level of ||dC||^2.

    Projections of dC carry errors of a few tol ||dC|| per entry, so a
    zero-information direction leaves a residue well below the floor.
    """
    floor = 4.0 * (8.0 * _rounding_tol(C)) ** 2 * np.vdot(dC, dC).real
    return 0.0 if value <= floor else value


def _report(direction: GeneralizedCoordinate, **values: float) -> FisherReport:
    """Report for the physical parameter: coordinate values times parameter_scale^2."""
    scale2 = direction.parameter_scale**2
    return FisherReport(direction, **{name: scale2 * value for name, value in values.items()})


def support_svd(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD C = U_r diag(s_r) V_r^dag, keeping s > max(N_C, N_S) eps s_max."""
    try:
        U, s, Vh = np.linalg.svd(C, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed for amplitude matrix of shape {C.shape}") from exc
    r = int(np.count_nonzero(s > _rounding_tol(C) * s[0]))
    return U[:, :r], s[:r], Vh[:r].conj().T


def _scenario_svd(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """support_svd of the scenario's own C, kept on the scenario, read-only (geometry._kept)."""
    return _kept(scenario, "_svd", lambda: support_svd(amplitude_arrays(scenario)[0]))


def _direction_qfi(
    scenario: Scenario, direction: GeneralizedCoordinate
) -> tuple[float, np.ndarray]:
    """_qfi_value's unscaled QFI along ``direction`` and its d rho, kept on the scenario.

    One slot (geometry._kept) for the most recent direction, keyed by its
    rows (geometry._direction_key) as the kept dC is; d rho is read-only.
    """

    def build():
        C, dC = amplitude_and_derivative(scenario, direction)
        (value,), drho = _qfi_value(C, dC, _scenario_svd(scenario))
        return value, drho

    key = _direction_key(direction_rows(direction, scenario.n_sources))
    return _kept(scenario, "_qfi", build, key)


def _qfi_rows(dC: np.ndarray, svd) -> tuple[np.ndarray, np.ndarray]:
    """d rho and the rows F of the real-linear map of dC whose squared norm is the QFI.

    With A = U_r^dag dC V_r, d rho on the support in the eigenbasis of
    rho = C C^dag is drho_ij = s_j A_ij + s_i conj(A_ji), and min_K
    ||dC + C K||^2 over anti-Hermitian K is ||(I - U_r U_r^dag) dC||^2
    + sum_{i,j <= r} |drho_ij|^2 / (2 (s_i^2 + s_j^2)).  Row a of F holds
    both parts of dC_a, flat, so the QFI along dC_a is 4 ||F_a||^2 and the
    QFI matrix is the Gram matrix 4 Re F F^dag.  ``svd`` is support_svd(C);
    dC is one derivative (N_C, N_S) or a stack (..., N_C, N_S) of them.
    """
    Ur, sr, Vr = svd
    UdC = Ur.conj().T @ dC
    kernel = Ur @ UdC
    np.subtract(dC, kernel, out=kernel)
    A = UdC @ Vr
    drho = sr * A + sr[:, None] * A.conj().swapaxes(-1, -2)
    support = drho / np.sqrt(2.0 * np.add.outer(sr**2, sr**2))
    flat = (*dC.shape[:-2], -1)
    return drho, np.concatenate([kernel.reshape(flat), support.reshape(flat)], axis=-1)


def _qfi_value(C: np.ndarray, dC: np.ndarray, svd) -> tuple[list[float], np.ndarray]:
    """4 ||F||^2 (_qfi_rows) of each derivative in dC, as it alone gives, in C order, and d rho.

    ``svd`` is support_svd(C), which the caller may share; d rho serves the
    symmetric logarithmic derivative of the optimal measurement.
    """
    drho, F = _qfi_rows(dC, svd)
    rows = zip(F.reshape(-1, F.shape[-1]), dC.reshape(-1, *dC.shape[-2:]))
    return [_drop_rounding(4.0 * float(np.vdot(f, f).real), C, d) for f, d in rows], drho


def _port_information(RX: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, dp = 2 Re sum_s conj(R C) (R dC) and each port's Fisher term (dp_q)^2 / p_q.

    RX stacks R C and R dC along its first axis, each an (N_C, N_S) product
    or a stack of them, as any view of one applied block; the squared
    moduli of both are taken, and summed over sources, in one pass over
    it.  A dark port (p_q <= DARK_P) has the 0/0 limit
    4 sum_s |(R dC)_{qs}|^2 as its term.
    """
    squared = np.abs(RX)
    p, dark_term = _source_sum(np.square(squared, out=squared))
    dark = p <= DARK_P
    product = RX[0].conj()
    product *= RX[1]
    dp = _source_sum(product.real)
    dp *= 2.0
    terms = 4.0 * dark_term
    np.divide(np.square(dp), p, out=terms, where=~dark)
    return p, dp, terms


def _cfi(C: np.ndarray, dC: np.ndarray, R) -> tuple[float, np.ndarray]:
    """sum_q (dp_q)^2 / p_q behind R (_port_information), and p, from one apply of R to [C | dC].

    The block [C | dC] is one np.concatenate, the layout _applied gives
    a stack [C, dC].  p equals detection_probabilities(C, R) to rounding,
    not bit for bit: R is applied to [C | dC] as one block.
    """
    n_c, n_s = C.shape
    RX = _measurement(R, n_c).apply(np.concatenate([C, dC], axis=-1))
    p, _, terms = _port_information(RX.reshape(n_c, 2, n_s).swapaxes(0, 1))
    return _drop_rounding(float(terms.sum()), C, dC), p


def qfi(scenario: Scenario, direction: GeneralizedCoordinate) -> FisherReport:
    """Quantum Fisher information of the parameter attached to ``direction``.

    Closed form on the SVD of C (see _qfi_value).  At coincident sources
    C loses rank and the value is the continuous limit of the QFI from
    nearby separations (Safranek, PRA 95, 052320, 2017).  A value at the
    rounding level of ||dC||^2 is reported as exactly 0.0.  The unscaled
    value is kept on the scenario for the direction (_direction_qfi).
    """
    return _report(direction, qfi=_direction_qfi(scenario, direction)[0])


def cfi(scenario: Scenario, direction: GeneralizedCoordinate, R) -> FisherReport:
    """Classical Fisher information of photon counting behind interferometer R.

    Closed form in R C and R dC (see _cfi).  A value at the rounding
    level of ||dC||^2 is reported as exactly 0.0.
    """
    C, dC = amplitude_and_derivative(scenario, direction)
    return _report(direction, cfi=_cfi(C, dC, R)[0])


def information_report(
    scenario: Scenario, direction: GeneralizedCoordinate, R
) -> FisherReport:
    """Joint report with both qfi and cfi (and hence the saturation ratio)."""
    C, dC = amplitude_and_derivative(scenario, direction)
    return _report(direction, qfi=_direction_qfi(scenario, direction)[0], cfi=_cfi(C, dC, R)[0])


# ---------------------------------------------------------------------------
# Paraxial generator route
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratorMoments:
    """First and second moments of the displacement generators.

    Generators over the uniform collector state: g_x = k u / z0,
    g_y = k v / z0, g_z = k (u^2 + v^2) / (2 z0^2).  The x/y entries of
    the covariance carry 1/length^2; entries mixing z carry an extra
    1/length per z index (g_z is second order in the aperture).
    """

    mean: np.ndarray
    covariance: np.ndarray


def _collector_array(collectors) -> np.ndarray:
    """The (u, v) of a sequence of Collectors, or an (N_C, 2) float array as given."""
    if isinstance(collectors, np.ndarray):
        return collectors.astype(float, copy=False)
    return np.asarray([[c.u, c.v] for c in collectors], dtype=float)


def generator_moments(collectors, k: float, z0: float) -> GeneratorMoments:
    """Sample moments of (g_x, g_y, g_z) over Collectors or an (N_C, 2) (u, v) array."""
    uv = _collector_array(collectors)
    if uv.shape[0] < 1:
        raise ScenarioError("need at least one collector")
    u, v = uv[:, 0], uv[:, 1]
    g = np.stack([k * u / z0, k * v / z0, k * (u**2 + v**2) / (2.0 * z0**2)])
    mean = g.mean(axis=1)
    centered = g - mean[:, None]
    cov = centered @ centered.T / g.shape[1]
    cov = 0.5 * (cov + cov.T)
    return GeneratorMoments(mean=mean, covariance=cov)


class ParaxialTarget(str, Enum):
    """Closed-form paraxial QFI matrix variants."""

    SINGLE_SOURCE = "single_source"
    TWO_SOURCE_SEPARATION = "two_source_separation"
    TWO_SOURCE_CENTROID = "two_source_centroid"


# Each target's direction presets (their prefix in geometry's preset table)
# and the factor on the generator covariance in its closed form
# (arXiv:1909.09581).
_PARAXIAL_FORMS = {
    ParaxialTarget.SINGLE_SOURCE: ("", 4.0),
    ParaxialTarget.TWO_SOURCE_SEPARATION: ("separation-", 1.0),
    ParaxialTarget.TWO_SOURCE_CENTROID: ("centroid-", 4.0),
}


def _is_inversion_symmetric(uv: np.ndarray, tol: float = 1e-9) -> bool:
    remaining = list(range(len(uv)))
    while remaining:
        i = remaining.pop()
        p = uv[i]
        if np.linalg.norm(p) <= tol:
            continue
        match = None
        for j in remaining:
            if np.linalg.norm(uv[j] + p) <= tol:
                match = j
                break
        if match is None:
            return False
        remaining.remove(match)
    return True


def paraxial_qfi_matrix(collectors, k: float, z0: float, target: ParaxialTarget) -> np.ndarray:
    """Closed-form 3x3 QFI matrix of Collectors or an (N_C, 2) array, from generator moments.

    The target's factor (_PARAXIAL_FORMS) times the generator covariance.
    The two-source centroid form is valid only for inversion-symmetric
    collector sets (validated), where the transverse entries reduce to the
    raw second moments.
    """
    target = ParaxialTarget(target)
    if target is ParaxialTarget.TWO_SOURCE_CENTROID and not _is_inversion_symmetric(
        _collector_array(collectors)
    ):
        raise ScenarioError("centroid closed form requires an inversion-symmetric collector set")
    return _PARAXIAL_FORMS[target][1] * generator_moments(collectors, k, z0).covariance


# ---------------------------------------------------------------------------
# Closed-form vs finite-difference cross check
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConsistencyReport:
    target: ParaxialTarget
    closed_form: np.ndarray
    finite_difference: np.ndarray
    relative_errors: np.ndarray

    @property
    def max_relative_error(self) -> float:
        return float(np.nanmax(self.relative_errors))


def _qfi_matrix(scenario: Scenario, tangents: np.ndarray) -> np.ndarray:
    """The QFI matrix of the parameters that move the sources along ``tangents`` (m, N_S, 3).

    The Gram matrix 4 Re F F^dag of the rows (_qfi_rows) of the m dC along
    the tangents as given, from one amplitude_arrays call and the kept
    support_svd; entry a, a equals qfi(scenario, from_tangent(t_a)) to
    rounding.  An entry at or below 4 (8 tol)^2 ||dC_a|| ||dC_b|| in
    modulus is 0.0, on the diagonal _drop_rounding's floor.
    """
    C, dC = amplitude_arrays(scenario, None, tangents)
    _, F = _qfi_rows(dC, _scenario_svd(scenario))
    H = 4.0 * (F @ F.conj().T).real
    norms = np.linalg.norm(dC.reshape(len(dC), -1), axis=1)
    H[np.abs(H) <= 4.0 * (8.0 * _rounding_tol(C)) ** 2 * np.outer(norms, norms)] = 0.0
    return H


def qfi_matrix_consistency(scenario: Scenario, target: ParaxialTarget) -> ConsistencyReport:
    """Compare the paraxial closed form against the general qfi engine.

    ``finite_difference`` holds _qfi_matrix along the tangents of the
    target's x, y and z direction presets (_PARAXIAL_FORMS, geometry's
    preset table); the key keeps its name for compatibility.  The closed
    form is paraxial: an exact-mode scenario raises ScenarioError.
    """
    target = ParaxialTarget(target)
    if scenario.mode is Mode.EXACT:
        raise ScenarioError(f"the {target.value} closed form is paraxial; "
                            "its cross check needs a paraxial-mode scenario")
    tangents = np.array([_PRESET_TANGENTS[_PARAXIAL_FORMS[target][0] + axis] for axis in "xyz"])
    expected_ns = tangents.shape[1] // 3
    if scenario.n_sources != expected_ns:
        raise ScenarioError(f"{target.value} check requires {expected_ns} source(s), "
                            f"scenario has {scenario.n_sources}")
    closed = paraxial_qfi_matrix(scenario.collector_positions(), scenario.k, scenario.z0, target)
    fd = _qfi_matrix(scenario, tangents.reshape(3, expected_ns, 3))
    # Entries far below the dominant one are held to an absolute standard
    # of 1e-3 * scale so that exact zeros do not produce spurious relative
    # errors from round-off.
    scale = np.max(np.abs(closed))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-3 * scale)
    return ConsistencyReport(target, closed_form=closed, finite_difference=fd, relative_errors=rel)
