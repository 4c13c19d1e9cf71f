"""Interferometer construction: built-ins, optimal measurement, saturation checks.

The optimal measurement (optimal_interferometer) is built from the
amplitude matrix C and its derivative dC alone.  Its first rows are the
eigenbasis of the symmetric logarithmic derivative on the support of the
photon state rho = C C^dag, which reads out both the classical mixture
and the coherence response of rho; its remaining rows span the kernel of
C^dag, dark ports that capture the response leaking out of the support.
It is the one builder of the optimal measurement:
synthesize_optimal_interferometer feeds it the finite difference C' - C
of a pair C(r), C(r'), and returns it with whether the pair's alignment
pivoted.

The paper's finite-pair construction from C(r) and C(r') is kept as the
theorem check, which only verify_saturation runs: the design of a
measurement (the CLI's ``design``) builds no pair, and verify_saturation
applies the measurement to C' on its own, apart from the [C, dC] product
that gives fisher.information_report's values bit for bit.  The check's
result is kept on the scenario for one direction and step, so a repeated
call builds no C' and runs no alignment.  Alignment:
the SVD V^dag M W = D of M = C^dag C' defines biorthogonal frames
A = C V and B = C' W (A^dag B = D); a column-pivoted QR of A yields the
N_S occupied output rows P with P A upper-triangular, which forces P B
lower-triangular and puts D_s = |a'(s,s)| |b'(s,s)| on the diagonals.
The check takes one reduced QR of A, whose triangle the pivot search
reads; the permuted A is factored again only when the search permuted.
The other N_C - N_S output modes carry no light of either frame, so the
check reads P alone.

The Interferometer type and its unitarity checks live in fisher, which
imports nothing from this module; they are re-exported here.  A
measurement is applied to a block of amplitudes in one of three forms.
The optimal measurement keeps the Householder factors of its dark ports
and its support rows, is checked from them in O(N_C N_S^2) and applied
in O(N_C N_S m); qft_interferometer, applied by FFT, and
identity_interferometer, applied as a copy, are unitary by construction
and not checked; bs_phase and every matrix read from outside are dense
and go through the O(N_C^3) constructor check.  The factored forms build
their N_C x N_C matrix only when ``matrix`` is read.

Result records compare and hash by identity, as measurements do.
svd_alignment, SvdAlignment and SynthesisResult are imported from here,
not from the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fisher import (
    UNITARITY_TOL,
    FisherReport,
    Interferometer,
    NumericalError,
    Provenance,
    _cfi,
    _direction_qfi,
    _householder_interferometer,
    _probabilities,
    _qfi_value,
    _report,
    _same_shape,
    _scenario_svd,
    support_svd,
)
from .geometry import (
    GeneralizedCoordinate,
    Scenario,
    ScenarioError,
    _direction_key,
    _kept,
    _kept_measurement_entries,
    amplitude_and_derivative,
    amplitude_arrays,
    check_source_positions,
    direction_rows,
    finite_number,
    finite_real,
)

__all__ = [
    "SaturationReport", "beam_splitter_with_phase", "builtin_interferometer",
    "identity_interferometer", "interferometer_from_json", "interferometer_to_json",
    "natural_displacement_scale", "optimal_interferometer", "qft_interferometer",
    "synthesize_optimal_interferometer", "verify_saturation",
]

# Default displacement of the theorem check's pair, as a fraction of the
# natural scale z0 / (k * max collector offset) over which phases change
# by ~1 radian.
SYNTH_STEP_FRACTION = 1e-4
# Structural tolerances for the aligned frames, one per residual.
LOWER_TRIANGULAR_TOL = 1e-10
UPPER_TRIANGULAR_TOL = 1e-9
DIAGONAL_PRODUCT_TOL = 1e-9


class _IdentityInterferometer(Interferometer):
    """Identity form: applied as a copy of the block, unitary by construction."""

    def __init__(self, n_modes: int):
        self._init_factored(n_modes, Provenance.IDENTITY)
        self._residual = 0.0

    def apply(self, X: np.ndarray) -> np.ndarray:
        return X.astype(complex)

    def _form(self) -> np.ndarray:
        return np.eye(self._n_modes, dtype=complex)


def identity_interferometer(n_modes: int) -> Interferometer:
    """The identity on n_modes modes: ``apply`` returns a complex copy of the block.

    ``n_modes`` must be a whole number >= 1; nothing else is checked, and
    ``unitarity_residual`` is exactly 0.0, the full check's value for
    np.eye; the matrix is built only when read.
    """
    return _IdentityInterferometer(n_modes)


def beam_splitter_with_phase(alpha: float = 0.0) -> Interferometer:
    """Phase alpha on the first input mode followed by a 50:50 beam splitter."""
    phase = np.exp(1j * alpha)
    matrix = np.array([[phase, 1.0], [phase, -1.0]], dtype=complex) / math.sqrt(2.0)
    return Interferometer(matrix, Provenance.BS_PHASE, alpha=alpha)


class _FourierInterferometer(Interferometer):
    """Fourier form: the discrete Fourier transform, applied by FFT."""

    def __init__(self, n_modes: int):
        self._init_factored(n_modes, Provenance.QFT)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return np.fft.ifft(X, axis=0, norm="ortho")

    def _form(self) -> np.ndarray:
        n = self._n_modes
        j, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.exp(2j * np.pi * (j * q % n) / n) / math.sqrt(n)


def qft_interferometer(n_modes: int) -> Interferometer:
    """Discrete-Fourier-transform unitary: entry (j, q) = exp(2 pi i j q / N) / sqrt(N).

    Fourier form: it is applied as np.fft.ifft(X, axis=0, norm="ortho"),
    which is this matrix times X.  The matrix is built only when read,
    from the entry formula with j q reduced mod N in integers, so that
    every phase lies in [0, 2 pi) and the entries are as accurate as the
    FFT's; its ``unitarity_residual`` is then computed from it.
    """
    return _FourierInterferometer(n_modes)


# The kinds builtin_interferometer builds, matched without case or surrounding space.
_BUILTIN_KINDS = ("identity", "bs_phase", "qft")


def builtin_interferometer(
    kind: str, n_modes: int, alpha: float | str | None = None
) -> Interferometer:
    """Dispatcher for the named built-ins (_BUILTIN_KINDS): identity, bs_phase (2 modes), qft.

    Only bs_phase takes an argument, its phase ``alpha`` (default 0); it
    may be given as text, and must be a finite number.
    """
    name = kind.strip().lower()
    if name not in _BUILTIN_KINDS:
        raise ScenarioError(f"unknown interferometer kind {kind!r}")
    if name == "bs_phase":
        if n_modes != 2:
            raise ScenarioError(f"bs_phase requires exactly 2 modes, got {n_modes}")
        return beam_splitter_with_phase(0.0 if alpha is None else finite_number(alpha, "bs_phase alpha"))
    if alpha is not None:
        raise ScenarioError(f"{name} takes no argument, got {alpha!r}")
    return {"identity": identity_interferometer, "qft": qft_interferometer}[name](n_modes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _interferometer_payload(interferometer: Interferometer) -> dict:
    """The serialized document as a dict: row-major [re, im] pairs and a provenance tag."""
    m = interferometer.matrix
    payload = {
        "provenance": interferometer.provenance.value,
        "n_modes": interferometer.n_modes,
        "matrix": np.stack([m.real, m.imag], -1).tolist(),
    }
    if interferometer.alpha is not None:
        payload["alpha"] = interferometer.alpha
    return payload


def interferometer_to_json(interferometer: Interferometer) -> str:
    """Row-major [re, im] pair encoding with a provenance tag, as strict JSON.

    Written by the encoder of the command-line documents, imported here
    because cli imports this module.
    """
    from .cli import _json

    return _json(_interferometer_payload(interferometer))


def interferometer_from_json(text: str) -> Interferometer:
    """Parse a serialized interferometer; the constructor checks alpha and re-checks unitarity.

    ``matrix`` must be n x n [re, im] pairs of JSON numbers: a bool, text,
    null or an integer beyond the float range raises ScenarioError.  The
    pairs are read as one float array and viewed as complex, so signed
    zeros keep their bits.
    """
    try:
        payload = json.loads(text)
        # As objects, so that a bool is not promoted to a number among numbers.
        pairs = np.array(payload["matrix"], dtype=object)
        shape = pairs.shape
        if len(shape) != 3 or shape != (shape[0], shape[0], 2) or not (
                set(map(type, pairs.flat)) <= {int, float}):
            raise ValueError("matrix must be n x n [re, im] pairs of numbers")
        matrix = pairs.astype(float).view(complex)[..., 0]
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"malformed interferometer document: {exc}") from exc
    # json reads NaN, Infinity and out-of-range numbers such as 1e999.
    if not np.isfinite(matrix).all():
        raise ScenarioError("malformed interferometer document: non-finite matrix entry")
    n_modes = payload.get("n_modes", len(matrix))
    if type(n_modes) is not int or n_modes != len(matrix):
        raise ScenarioError(
            f"malformed interferometer document: n_modes is {n_modes!r}, "
            f"the matrix has {len(matrix)} rows"
        )
    return Interferometer(matrix, Provenance.USER_SUPPLIED, alpha=payload.get("alpha"))


# ---------------------------------------------------------------------------
# SVD alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SvdAlignment:
    """Unitaries V, W and nonnegative diagonal D with V^dag M W = diag(D)."""

    V: np.ndarray
    W: np.ndarray
    D: np.ndarray


def svd_alignment(M: np.ndarray) -> SvdAlignment:
    """Singular value decomposition of the overlap matrix, descending order."""
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise NumericalError("overlap matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed for matrix of shape {M.shape}") from exc
    align = SvdAlignment(V=u, W=vh.conj().T, D=s)
    # Frobenius norms of V^dag M W - diag(s) and of M.
    aligned = u.conj().T @ M @ align.W
    aligned.flat[:: s.size + 1] -= s
    resid = math.sqrt(np.vdot(aligned, aligned).real)
    if resid > 1e-10 * max(math.sqrt(np.vdot(M, M).real), 1e-300):
        raise NumericalError(f"SVD reconstruction residual too large: {resid:.3e}")
    return align


# ---------------------------------------------------------------------------
# Optimal synthesis
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SynthesisResult:
    """Outcome of synthesize_optimal_interferometer.

    ``interferometer`` is optimal_interferometer(C, C' - C); ``pivoted``
    says whether the rank-revealing QR of the pair's alignment (module
    docstring) permuted its columns, which it leaves in order for
    well-conditioned frames.
    """

    interferometer: Interferometer
    pivoted: bool


def _sld_eigenbasis(lam: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Eigenvectors (columns) of the symmetric logarithmic derivative L.

    rho = diag(lam) and ``drho`` is d rho in the same basis, so
    rho L + L rho = 2 d rho gives L_ij = 2 drho_ij / (lam_i + lam_j) (zero
    where the denominator vanishes).  The eigenvectors are permuted and
    phased to stay as close to the identity as possible (a no-op
    correction for an already-diagonal L).
    """
    den = lam[:, None] + lam[None, :]
    L = np.divide(2.0 * drho, den, out=np.zeros(drho.shape, complex), where=den > 1e-300)
    _, U = np.linalg.eigh(0.5 * (L + L.conj().T))
    n = U.shape[0]
    # The moduli are hypot, as abs of a Python complex or a numpy scalar
    # gives them; numpy's array abs may differ in the last bit.
    magnitudes = [[abs(z) for z in row] for row in U.tolist()]
    order: list[int] = []
    for row in magnitudes:
        order.append(max((c for c in range(n) if c not in order), key=row.__getitem__))
    U = U[:, order]
    for i in range(n):
        if abs(U[i, i]) > 1e-300:
            U[:, i] *= np.conj(U[i, i]) / abs(U[i, i])
    return U


def optimal_interferometer(C: np.ndarray, dC: np.ndarray) -> Interferometer:
    """The measurement that saturates the QFI of rho = C C^dag along dC.

    This is the small-displacement limit of the pair construction, and it
    depends on (C, dC) alone.  On the thin SVD C = U_r S V_r^dag (the rank
    rule of fisher.qfi), the support rows are the eigenvectors of the
    symmetric logarithmic derivative, L_ij = 2 (U_r^dag d rho U_r)_ij /
    (s_i^2 + s_j^2) (Braunstein & Caves, PRL 72, 3439, 1994).  The kernel
    rows are an orthonormal basis of ker C^dag: those ports are dark, and
    through the 0/0 limit of fisher.cfi they carry the kernel term of the
    QFI in any basis.

    One Householder QR of U_r (the raw reflectors, no square Q) defines
    Q = I - V T V^dag; in R = Q^dag the rows past the first r span ker
    C^dag, and the first r rows are replaced by the support rows.  R is
    returned in that factored form (fisher._householder_interferometer):
    checked unitary from the factors in O(N_C r^2), not by the O(N_C^3)
    product of the Interferometer constructor, and applied to a block
    without forming the N_C x N_C matrix.
    """
    C = np.asarray(C, dtype=complex)
    if C.shape != np.shape(dC):
        raise ScenarioError(f"amplitude and derivative shapes differ: {C.shape} vs {np.shape(dC)}")
    svd = support_svd(C)
    return _optimal_interferometer(_qfi_value(C, np.asarray(dC), svd)[1], svd)


def _optimal_interferometer(drho: np.ndarray, svd) -> Interferometer:
    """optimal_interferometer from U_r^dag d rho U_r (fisher._qfi_value) and support_svd(C)."""
    Ur, s, _ = svd
    G = _sld_eigenbasis(s**2, drho)
    reflectors, tau = np.linalg.qr(Ur, mode="raw")
    return _householder_interferometer(reflectors, tau, G.conj().T @ Ur.conj().T)


def _residual_norms(B: np.ndarray) -> np.ndarray:
    """N[i, j] = ||B[i:, j]||, each sum of squares taken from the bottom row up."""
    return np.sqrt(np.cumsum((np.abs(B) ** 2)[::-1], axis=0)[::-1])


def _pivot_order(B: np.ndarray) -> np.ndarray:
    """Column order of the rank-revealing QR of A (Businger & Golub, as in LAPACK geqp3).

    B is the N_S x N_S triangular factor of one unpivoted QR of A, whose
    columns have the residual norms of A's.  Each step i takes the
    remaining column with the largest residual norm, the first in the
    current order on ties, and swaps it with column i.  At step i the
    residual norm of column j >= i is ||B[i:, j]||, summed from the bottom
    row up (no downdate, so no cancellation) and compared after the square
    root, as geqp3 compares norms; one cumulative sum gives them for every
    step until a swap.  A swap breaks the triangle below row i, so
    B[i:, i:] is factored again, in a copy, unless no step is left to
    read it.  The last column has no rival.
    """
    n = B.shape[1]
    piv = np.arange(n)
    norms = _residual_norms(B)
    for i in range(n - 1):
        j = i + int(np.argmax(norms[i, i:]))
        if j != i:
            piv[[i, j]] = piv[[j, i]]
            if i < n - 2:
                B = B.copy()
                B[:, [i, j]] = B[:, [j, i]]
                B[i:, i:] = np.linalg.qr(B[i:, i:], mode="r")
                norms = _residual_norms(B)
    return piv


def _pivoted(piv: np.ndarray) -> bool:
    """Whether the QR column order ``piv`` differs from the identity order."""
    return piv.tolist() != list(range(piv.size))


def _align(C: np.ndarray, C_prime: np.ndarray):
    """Alignment stage of the pair construction (module docstring): (P, A, B, D, pivots).

    P holds the N_S occupied output rows (orthonormal, N_S x N_C).  The
    columns of A, B and D are in the pivot order of a rank-revealing QR
    of A: at each step the remaining column of largest residual norm
    (_pivot_order).  The diagonal of P A is real and nonnegative.
    """
    C, C_prime = (np.asarray(M, dtype=complex) for M in _same_shape(C, C_prime))
    nc, ns = C.shape
    if nc < ns:
        raise ScenarioError("the pair alignment needs at least as many collectors as sources "
                            f"({nc} < {ns})")
    align = svd_alignment(C.conj().T @ C_prime)
    A = C @ align.V
    B = C_prime @ align.W
    # For a well-conditioned A the pivot order is the identity because the
    # aligned columns already come norm-sorted, and the QR of A is the
    # pivoted one; only a permuted order is factored again.
    Q, T = np.linalg.qr(A)
    piv = _pivot_order(T)
    if _pivoted(piv):
        A, B = A[:, piv], B[:, piv]
        Q, T = np.linalg.qr(A)
    # Row phases that make the diagonal of P A = T real and nonnegative.
    d = T.diagonal()
    modulus = np.abs(d)
    phases = np.where(modulus > 1e-300, d.conj() / np.maximum(modulus, 1e-300), 1.0)
    return phases[:, None] * Q.conj().T, A, B, align.D[piv], piv


def synthesize_optimal_interferometer(C: np.ndarray, C_prime: np.ndarray) -> SynthesisResult:
    """The optimal measurement for the pair (C, C'), and whether its alignment pivoted.

    The measurement is optimal_interferometer fed the finite difference
    C' - C; the symmetric logarithmic derivative is linear in dC, so the
    step size does not rescale it.  The alignment of the pair (module
    docstring) gives the pivot order, and requires at least as many
    collectors as sources.  Rank-deficient aligned frames (coincident
    sources) are handled by the column pivoting of the QR factorization.
    """
    piv = _align(C, C_prime)[4]
    return SynthesisResult(
        interferometer=optimal_interferometer(C, np.asarray(C_prime) - np.asarray(C)),
        pivoted=_pivoted(piv),
    )


# ---------------------------------------------------------------------------
# Saturation verification
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SaturationReport:
    """The optimal measurement for one direction and the theorem check.

    ``interferometer`` is optimal_interferometer of (C, dC) at the base
    point, independent of ``delta_theta``.  ``qfi_estimate``,
    ``cfi_estimate`` and ``saturation_ratio`` are the closed-form values
    of fisher.information_report for it, bit for bit, as are those of
    ``cfi`` of ``interferometer``, and ``unitarity_residual`` is its
    unitarity check, made from its Householder factors.  The theorem check
    runs the alignment stage of the pair construction on
    (r, r + a delta_theta): the triangularity, diagonal-product and
    scalar-product residuals and the QR pivots refer to it.  The quantum
    fidelity of the pair (the trace norm of C^dag C', the sum of the
    alignment's singular values) and its classical fidelity behind
    ``interferometer`` are double-precision diagnostics.
    ``probabilities`` are the detection probabilities behind
    ``interferometer`` at the base point; both may be kept on the scenario
    (_design), the probabilities then read-only.  ``pivots`` is the
    theorem check's, kept on the scenario: read-only, and shared by every
    later report along the direction at the same step.  ``to_dict`` holds
    every field but ``pivots``, ``interferometer`` and ``probabilities``,
    in field order.
    """

    delta_theta: float
    quantum_fidelity: float
    classical_fidelity: float
    qfi_estimate: float
    cfi_estimate: float
    saturation_ratio: float
    unitarity_residual: float
    lower_triangular_residual: float
    upper_triangular_residual: float
    diagonal_product_residual: float
    scalar_product_residual: float
    pivoted: bool
    pivots: np.ndarray
    interferometer: Interferometer
    probabilities: np.ndarray
    structure_ok: bool = field(init=False)

    def __post_init__(self):
        self.structure_ok = (
            self.unitarity_residual < UNITARITY_TOL
            and self.lower_triangular_residual < LOWER_TRIANGULAR_TOL
            and self.upper_triangular_residual < UPPER_TRIANGULAR_TOL
            and self.diagonal_product_residual < DIAGONAL_PRODUCT_TOL
        )

    def to_dict(self) -> dict:
        unreported = ("pivots", "interferometer", "probabilities")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in unreported}


def natural_displacement_scale(scenario: Scenario) -> float:
    """Displacement over which collector phases change by about one radian."""
    uv = scenario.collector_positions()
    u_char = float(np.abs(uv).max())
    if u_char <= 0.0:
        u_char = 1.0
    return scenario.z0 / (scenario.k * u_char)


def _design(
    scenario: Scenario, direction: GeneralizedCoordinate
) -> tuple[Interferometer, FisherReport, np.ndarray]:
    """optimal_interferometer for ``direction``, its FisherReport and its detection probabilities.

    C, dC, the one support_svd of C that serves the measurement and the
    QFI, and the QFI with its d rho are the scenario's own, kept on it
    (amplitude_and_derivative, fisher._scenario_svd, fisher._direction_qfi);
    the measurement's symmetric logarithmic derivative is taken from that
    d rho.  The CFI and probabilities are fisher._cfi's, so the report
    equals information_report(scenario, direction, R) bit for bit, and the
    probabilities detection_probabilities(C, R) to rounding.  No pair is
    built.  The measurement (in Householder form, checked once from its
    factors), its unscaled QFI and CFI and the read-only probabilities are
    kept on the scenario for the most recent direction, keyed as the kept
    dC is (geometry._direction_key), when the measurement is small enough
    (geometry._kept_measurement_entries); every call applies the
    direction's parameter_scale^2 (fisher._report).
    """

    def build():
        C, dC = amplitude_and_derivative(scenario, direction)
        qfi_value, drho = _direction_qfi(scenario, direction)
        R = _optimal_interferometer(drho, _scenario_svd(scenario))
        return (R, qfi_value, *_cfi(C, dC, R))

    if _kept_measurement_entries(scenario.n_collectors, scenario.n_sources):
        key = _direction_key(direction_rows(direction, scenario.n_sources))
        R, qfi_value, cfi_value, p = _kept(scenario, "_design", build, key)
    else:
        R, qfi_value, cfi_value, p = build()
    return R, _report(direction, qfi=qfi_value, cfi=cfi_value), p


def verify_saturation(
    scenario: Scenario,
    direction: GeneralizedCoordinate,
    delta_theta: float | None = None,
) -> SaturationReport:
    """The optimal measurement for ``direction`` and its checks, reported, not asserted.

    The report holds the closed-form QFI and the CFI of
    optimal_interferometer, with their ratio (fisher.information_report's
    values bit for bit, 0/0 defined as 1), which nothing here judges.  It
    also holds the residuals of the theorem check at the requested step:
    R1 A upper-triangular, R1 B lower-triangular, D_s = |a'(s,s)| |b'(s,s)|
    and scalar products preserved.  ``structure_ok`` compares the
    unitarity, triangular and diagonal-product residuals with their
    tolerances (SaturationReport).  ``delta_theta`` goes through
    geometry.finite_real: a bool, text or a non-finite value raises
    ScenarioError, as does zero, which gives an identical pair and so
    defines no alignment.  The measurement, its Fisher values and its
    probabilities are _design's, kept on the scenario for the direction
    (read-only), so a second call along it builds no measurement and takes
    no QFI.  The theorem check runs once per direction and step: C' is
    built at the displaced positions, with no derivative, aligned with the
    kept C, and the measurement is applied to it on its own for the
    classical fidelity.  Its fidelities, residuals and pivots are kept on
    the scenario (geometry._kept), keyed by the direction's unit vector
    (geometry._direction_key) and ``delta_theta``, so a second call at the
    same key returns the same values and builds no C'.  The step's checks
    and the paraxial warning of the displaced positions run on every call.
    """
    if delta_theta is None:
        delta_theta = SYNTH_STEP_FRACTION * natural_displacement_scale(scenario)
    delta_theta = finite_real(delta_theta, "synthesis displacement")
    if delta_theta == 0.0:
        raise ScenarioError(f"synthesis displacement must be finite and nonzero, got {delta_theta}")
    a = direction_rows(direction, scenario.n_sources)
    moved = scenario.source_positions() + a * delta_theta
    check_source_positions(moved, scenario.z0, scenario.mode)
    R, info, p = _design(scenario, direction)

    def theorem_check():
        C_prime, _ = amplitude_arrays(scenario, moved)
        P, A, B, D, piv = _align(amplitude_arrays(scenario)[0], C_prime)
        PA, PB = P @ A, P @ B
        index = np.arange(D.size)
        below = index[:, None] > index
        AB = A.conj().T @ B
        AB[index, index] -= D
        return (
            float(D.sum()),
            float(np.sqrt(p * _probabilities(R.apply(C_prime))).sum()),
            # The largest modulus below and above the diagonal; 0.0 for one source.
            float(np.abs(PA[below]).max(initial=0.0)),
            float(np.abs(PB[below.T]).max(initial=0.0)),
            float(np.abs(np.abs(PA.diagonal() * PB.diagonal()) - D).max()),
            float(np.abs(AB).max()),
            piv,
        )

    quantum, classical, lower_resid, upper_resid, diag_resid, scalar_resid, piv = _kept(
        scenario, "_theorem", theorem_check, key=(_direction_key(a), delta_theta))
    return SaturationReport(
        delta_theta=delta_theta,
        quantum_fidelity=quantum,
        classical_fidelity=classical,
        qfi_estimate=info.qfi,
        cfi_estimate=info.cfi,
        saturation_ratio=info.saturation_ratio,
        unitarity_residual=R.unitarity_residual,
        lower_triangular_residual=lower_resid,
        upper_triangular_residual=upper_resid,
        diagonal_product_residual=diag_resid,
        scalar_product_residual=scalar_resid,
        pivoted=_pivoted(piv),
        pivots=piv,
        interferometer=R,
        probabilities=p,
    )
