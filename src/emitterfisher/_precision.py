"""Extended-precision fidelities: the test oracle for the closed forms.

The Fisher information is the curvature of a fidelity:
I = lim 8 (1 - f(h)) / h^2 for the pair (r, r + a h).  Near h = 0 the
fidelity sits within 1e-10 of 1, so these helpers rebuild the amplitude
matrices and evaluate the trace-norm and classical fidelities in mpmath,
where the subtraction is exact to the working precision.  The tests
compare the closed-form qfi and cfi of the fisher module with that limit.
The package itself does not import this module, so mpmath is a test
dependency only.
"""

from __future__ import annotations

from contextlib import contextmanager

import mpmath
import numpy as np
from mpmath import mp

from .geometry import DegenerateGeometryError, Mode, Scenario

DEFAULT_DPS = 30


@contextmanager
def _dps(dps: int):
    saved = mp.dps
    mp.dps = dps
    try:
        yield
    finally:
        mp.dps = saved


def amplitude_matrix_mp(scenario: Scenario) -> mpmath.matrix:
    """mpmath twin of geometry.build_amplitude_matrix.

    The source weights are re-normalized in extended precision: the
    double-precision weight sum is one only to machine epsilon, which
    would otherwise dominate 1 - fidelity for nearly identical states.
    """
    nc, ns = scenario.n_collectors, scenario.n_sources
    k = mp.mpf(scenario.k)
    z0 = mp.mpf(scenario.z0)
    C = mp.matrix(nc, ns)
    weights_raw = [mp.mpf(w) for w in scenario.weights()]
    wsum = mp.fsum(weights_raw)
    weights = [w / wsum for w in weights_raw]
    for s, src in enumerate(scenario.sources):
        x, y, z = mp.mpf(src.x), mp.mpf(src.y), mp.mpf(src.z)
        col = []
        for c in scenario.collectors:
            u, v = mp.mpf(c.u), mp.mpf(c.v)
            if scenario.mode is Mode.PARAXIAL:
                phi = -k * (u * x + v * y) / z0 - k * z * (u * u + v * v) / (2 * z0 * z0)
                col.append(mp.mpc(mp.cos(phi), mp.sin(phi)))
            else:
                dist = mp.sqrt((x - u) ** 2 + (y - v) ** 2 + (z0 + z) ** 2)
                if dist <= 0:
                    raise DegenerateGeometryError(
                        f"source {src} coincides with collector {c}"
                    )
                ph = k * dist
                col.append(mp.mpc(mp.cos(ph), mp.sin(ph)) / dist)
        norm = mp.sqrt(mp.fsum([abs(e) ** 2 for e in col]))
        w = mp.sqrt(weights[s])
        for j in range(nc):
            C[j, s] = w * col[j] / norm
    return C


def one_minus_trace_norm_fidelity(
    scenario_a: Scenario, scenario_b: Scenario, dps: int = DEFAULT_DPS
) -> float:
    """1 - ||C_a^dag C_b||_1 evaluated in extended precision."""
    with _dps(dps):
        Ca = amplitude_matrix_mp(scenario_a)
        Cb = amplitude_matrix_mp(scenario_b)
        M = Ca.T.conjugate() * Cb
        f = mp.fsum(mpmath.svd_c(M, compute_uv=False))
        return float(1 - f)


def _hellinger_half_sum(p, q) -> mpmath.mpf:
    """(1/2) sum (p - q)^2 / (sqrt p + sqrt q)^2 == 1 - sum sqrt(p q).

    The identity holds for normalized distributions, so both inputs are
    normalized exactly first; the round-off inherited from a measurement
    matrix that is unitary only to double precision then enters the
    result relatively (through the p - q differences) rather than as an
    absolute offset of order machine epsilon.
    """
    sp = mp.fsum(p)
    sq = mp.fsum(q)
    total = mp.mpf(0)
    for pi, qi in zip(p, q):
        pi, qi = pi / sp, qi / sq
        denom = mp.sqrt(pi) + mp.sqrt(qi)
        if denom > 0:
            total += (pi - qi) ** 2 / denom**2
    return total / 2


def _unitarize_mp(R: np.ndarray) -> mpmath.matrix:
    """Lift a numerically unitary matrix to an exactly unitary mp matrix.

    QR-orthonormalizes the rows; evaluating the classical fidelity with
    the exactified measurement keeps the Cauchy-Schwarz bound satisfied
    to the working precision rather than to double precision.
    """
    n = R.shape[0]
    Rm = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            Rm[i, j] = mp.mpc(R[i, j])
    Q, _ = mpmath.qr(Rm.T.conjugate())
    return Q.T.conjugate()


def one_minus_classical_fidelity(
    scenario_a: Scenario,
    scenario_b: Scenario,
    R: np.ndarray,
    dps: int = DEFAULT_DPS,
) -> float:
    """1 - sum_q sqrt(p_q(a) p_q(b)) for measurement R (Hellinger form).

    Runs in extended precision with an exactly unitarized measurement.
    """
    R = np.asarray(R, dtype=complex)
    nc = R.shape[0]
    with _dps(dps):
        Ca = amplitude_matrix_mp(scenario_a)
        Cb = amplitude_matrix_mp(scenario_b)
        Rm = _unitarize_mp(R)
        RCa, RCb = Rm * Ca, Rm * Cb
        ns = RCa.cols
        p = [mp.fsum([abs(RCa[v, s]) ** 2 for s in range(ns)]) for v in range(nc)]
        q = [mp.fsum([abs(RCb[v, s]) ** 2 for s in range(ns)]) for v in range(nc)]
        return float(_hellinger_half_sum(p, q))
