"""Source/collector geometry and single-photon amplitude model.

A scenario consists of weak incoherent point emitters at positions
(x, y, z0 + z) and an array of light collectors at (u, v, 0).  Each
emitter illuminates the collectors with a complex single-photon
amplitude; stacking the per-source amplitude columns gives the
amplitude matrix that everything downstream (fidelities, Fisher
information, interferometer synthesis) is computed from.

Two amplitude models are supported:

* ``exact``    -- phase k * (optical path length), modulus 1/distance,
                  renormalized per source.
* ``paraxial`` -- phase linear in the source coordinates,
                  phi = -k (u x + v y)/z0 - k z (u^2 + v^2)/(2 z0^2),
                  modulus exactly 1/sqrt(N_C), so no norm is taken.

Phase convention: the phase is +k times the optical path length.  Only
phase differences between collectors affect any derived quantity.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import os
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np
import yaml

__all__ = [
    "Collector", "DegenerateGeometryError", "GeneralizedCoordinate", "Mode", "Scenario",
    "ScenarioError", "SourcePoint", "amplitude_and_derivative", "build_amplitude_matrix",
    "disc_collector_grid", "displace", "load_scenario", "named_direction", "save_scenario",
    "scenario_digest",
]

# Geometry ratios above this trigger a paraxial-validity warning.
PARAXIAL_SCALE_WARN = 0.1
# Scenario files go through libyaml when PyYAML was built with it.  The C
# classes share the pure-Python SafeConstructor, resolver and representer,
# so they read the same data and write the same text, only faster.
SCENARIO_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
SCENARIO_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
# File names of the package's own code: its modules, the code it has the
# standard library generate (a dataclass __init__ is from "<string>"), and
# the dataclasses module, whose replace() runs that __init__ for a caller.
_INSIDE = (os.path.dirname(__file__) + os.sep, "<string>", replace.__code__.co_filename)


class ScenarioError(ValueError):
    """Invalid scenario data (bad fields, unknown keys, broken invariants)."""


class DegenerateGeometryError(ScenarioError):
    """Geometry produces ill-defined amplitudes (e.g. source on a collector)."""


class Mode(str, Enum):
    """Amplitude model selector."""

    EXACT = "exact"
    PARAXIAL = "paraxial"


def finite_number(value, what: str) -> float:
    """``value`` as a finite float; ScenarioError naming ``what`` otherwise, and for a bool."""
    if isinstance(value, (bool, np.bool_)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioError(f"{what} must be finite, got {value!r}") from None
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return number


def finite_real(value, what: str) -> float:
    """finite_number of a real number: ScenarioError for text, which float() would take."""
    if not isinstance(value, numbers.Real):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return finite_number(value, what)


def check_source_positions(positions, z0: float, mode: Mode) -> None:
    """Require finite source coordinates; in paraxial mode, warn once if too large.

    ``positions`` is one (N_S, 3) set of source coordinates or a stack of
    such sets.  The paraxial-validity warning names the largest offset of
    the first set that exceeds PARAXIAL_SCALE_WARN * z0, and is attributed
    to the first frame outside the package (_INSIDE).
    """
    # The largest offset of each set; NaN and inf propagate through max.
    scales = np.abs(np.asarray(positions, dtype=float)).max(axis=(-2, -1)).reshape(-1).tolist()
    if not all(map(math.isfinite, scales)):
        raise ScenarioError("source coordinates must be finite")
    over = [scale for scale in scales if scale / z0 > PARAXIAL_SCALE_WARN]
    if mode is Mode.PARAXIAL and over:
        warnings.warn(
            f"paraxial mode with source offsets {over[0]:g} exceeding "
            f"{PARAXIAL_SCALE_WARN:g} * z0; results may be inaccurate",
            stacklevel=_outside_stacklevel(),
        )


def _outside_stacklevel() -> int:
    """The warnings.warn stacklevel, for the caller, of the first frame outside _INSIDE."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_INSIDE):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class SourcePoint:
    """Point emitter at (x, y, z0 + z) with relative emission weight."""

    x: float
    y: float
    z: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        for name in ("x", "y", "z", "weight"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"source {name}"))
        if self.weight <= 0:
            raise ScenarioError(f"source weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class Collector:
    """Light collector (pinhole, fibre tip, telescope) at (u, v) in the z = 0 plane."""

    u: float
    v: float = 0.0

    def __post_init__(self):
        for name in ("u", "v"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"collector {name}"))


@dataclass(frozen=True)
class Scenario:
    """Full problem instance: sources, collectors, wavenumber, reference distance.

    Source weights are normalized to sum to one on construction; weights
    that already sum to one within rounding are kept as they are, so a
    saved and reloaded scenario is equal to the original.  In
    paraxial mode a warning is emitted when the geometry is too large
    relative to z0 for the approximation to be trustworthy.
    """

    sources: tuple[SourcePoint, ...]
    collectors: tuple[Collector, ...]
    k: float
    z0: float
    mode: Mode = Mode.PARAXIAL

    def __post_init__(self):
        sources = tuple(self.sources)
        collectors = tuple(self.collectors)
        if len(sources) < 1:
            raise ScenarioError("scenario needs at least one source")
        if len(collectors) < 1:
            raise ScenarioError("scenario needs at least one collector")
        for name, what in (("k", "wavenumber k"), ("z0", "reference distance z0")):
            value = finite_number(getattr(self, name), what)
            if value <= 0:
                raise ScenarioError(f"{what} must be positive, got {value}")
            object.__setattr__(self, name, value)
        try:
            mode = Mode(self.mode)
        except ValueError:
            raise ScenarioError(f"mode must be 'exact' or 'paraxial', got {self.mode!r}") from None
        total = math.fsum(s.weight for s in sources)
        if abs(total - 1.0) > len(sources) * np.finfo(float).eps:
            sources = tuple(replace(s, weight=s.weight / total) for s in sources)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "collectors", collectors)
        object.__setattr__(self, "mode", mode)
        # Built once and read-only; plain attributes, not fields, so equality,
        # hashing and repr see only the records above.
        for name, rows in (
            ("_source_positions", [[s.x, s.y, s.z] for s in sources]),
            ("_weights", [s.weight for s in sources]),
            ("_collector_positions", [[c.u, c.v] for c in collectors]),
        ):
            array = np.array(rows, dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        check_source_positions(self._source_positions, self.z0, mode)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_collectors(self) -> int:
        return len(self.collectors)

    def source_positions(self) -> np.ndarray:
        """Read-only (N_S, 3) array of source coordinates relative to the reference plane."""
        return self._source_positions

    def weights(self) -> np.ndarray:
        """Read-only (N_S,) array of the normalized source weights."""
        return self._weights

    def collector_positions(self) -> np.ndarray:
        """Read-only (N_C, 2) array of collector coordinates."""
        return self._collector_positions


@dataclass(frozen=True, eq=False)
class GeneralizedCoordinate:
    """A scalar coordinate theta = a . r of the collective source coordinates.

    ``a`` is a unit vector of length 3 N_S; one (a_x, a_y, a_z) triple per
    source.  ``parameter_scale`` relates the coordinate to the physical
    parameter the caller wants Fisher information for: if the parameter
    displaces the sources along tangent t = d r / d(param), then
    a = t / |t| and parameter_scale = |t|, so that information values
    transform as I_param = parameter_scale**2 * I_theta.
    """

    a: np.ndarray
    parameter_scale: float = 1.0
    name: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).copy()
        if a.ndim != 1 or a.size % 3 != 0:
            raise ScenarioError(f"direction must be a flat 3*N_S vector, got shape {a.shape}")
        norm = np.linalg.norm(a)
        if not np.isfinite(norm) or norm == 0:
            raise ScenarioError("direction vector must be nonzero and finite")
        if abs(norm - 1.0) > 1e-9:
            raise ScenarioError(f"direction vector must have unit norm, got {norm}")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if not (np.isfinite(self.parameter_scale) and self.parameter_scale > 0):
            raise ScenarioError("parameter_scale must be positive")

    @classmethod
    def from_tangent(cls, tangent: Sequence[float], name: str = "") -> "GeneralizedCoordinate":
        """Build from the displacement tangent d r / d(param) (any nonzero length)."""
        t = np.asarray(tangent, dtype=float)
        norm = np.linalg.norm(t)
        if norm == 0 or not np.isfinite(norm):
            raise ScenarioError("tangent must be nonzero and finite")
        return cls(a=t / norm, parameter_scale=float(norm), name=name)


# Tangents d r / d(param) of the direction presets, one (x, y, z) triple per
# source: single-source axes, the signed separation (source 1 minus source
# 2) and the centroid (both sources together) of a pair.
_PRESET_TANGENTS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
    "separation-x": (0.5, 0.0, 0.0, -0.5, 0.0, 0.0),
    "separation-y": (0.0, 0.5, 0.0, 0.0, -0.5, 0.0),
    "separation-z": (0.0, 0.0, 0.5, 0.0, 0.0, -0.5),
    "centroid-x": (1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
    "centroid-y": (0.0, 1.0, 0.0, 0.0, 1.0, 0.0),
    "centroid-z": (0.0, 0.0, 1.0, 0.0, 0.0, 1.0),
}


def named_direction(name: str, n_sources: int) -> GeneralizedCoordinate:
    """Resolve a direction preset.

    Presets: ``x``/``y``/``z`` (single source), ``separation-x/y/z`` and
    ``centroid-x/y/z`` (two sources).  Separation presets parametrize the
    signed separation (source 1 minus source 2); centroid presets move
    both sources together.
    """
    name = name.strip().lower()
    if name not in _PRESET_TANGENTS:
        raise ScenarioError(f"unknown direction preset {name!r}")
    tangent = _PRESET_TANGENTS[name]
    if n_sources != len(tangent) // 3:
        raise ScenarioError(f"direction {name!r} requires exactly {len(tangent) // 3} source(s)")
    return GeneralizedCoordinate.from_tangent(tangent, name=name)


def direction_rows(direction: GeneralizedCoordinate | np.ndarray, n_sources: int) -> np.ndarray:
    """The flat 3 N_S direction as (N_S, 3) rows, one per source."""
    a = direction.a if isinstance(direction, GeneralizedCoordinate) else np.asarray(direction, float)
    if a.size != 3 * n_sources:
        raise ScenarioError(f"direction length {a.size} != 3 * {n_sources} sources")
    return a.reshape(n_sources, 3)


def displace(
    scenario: Scenario, direction: GeneralizedCoordinate | np.ndarray, delta_theta: float
) -> Scenario:
    """Translate each source s by direction[3s:3s+3] * delta_theta.

    ``direction`` is the unit vector of a generalized coordinate; the step
    is in coordinate units.  Weights, collectors, k, z0 and mode are
    unchanged.
    """
    a = direction_rows(direction, scenario.n_sources)
    if delta_theta == 0.0:
        return scenario
    positions = scenario.source_positions() + a * delta_theta
    sources = tuple(SourcePoint(*p, weight=s.weight) for p, s in zip(positions, scenario.sources))
    return Scenario(sources, scenario.collectors, scenario.k, scenario.z0, scenario.mode)


def _kept(scenario: Scenario, name: str, build, key=None):
    """The value of ``build()`` kept on ``scenario`` as attribute ``name``, built on first use.

    Every value derived from a Scenario alone (its digest, amplitude
    matrix, support SVD and phase rows), or from it and one direction, is
    kept this way: one slot per name, holding ``key`` with the value, so a
    call with another key builds again and replaces it.  Arrays in the
    value are made read-only, since every later reader shares them.  The
    slot is a plain attribute, not a field, so equality, hashing and repr
    see only the records, and it is freed with the scenario; a build that
    raises keeps nothing.
    """
    held = scenario.__dict__.get(name)
    if held is not None and held[0] == key:
        return held[1]
    value = build()
    for array in value if isinstance(value, tuple) else (value,):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    object.__setattr__(scenario, name, (key, value))
    return value


def _phase_rows(uv: np.ndarray) -> np.ndarray:
    """The N_C x 3 collector rows [u, v, u^2 + v^2] of (N_C, 2) collector coordinates."""
    return np.column_stack([uv, (uv**2).sum(axis=1)])


def _raw_amplitudes(
    rows: np.ndarray, xyz: np.ndarray, k: float, z0: float, mode: Mode, weights: np.ndarray,
    a: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """C (..., N_C, N_S), column s sqrt(w_s) gamma_s / ||gamma_s||, and dC along ``a``.

    ``rows`` holds the collector rows [u, v, u^2 + v^2] (_phase_rows) and
    ``xyz`` one (N_S, 3) set of source coordinates or a stack (..., N_S, 3)
    of such sets.  ``a`` is None (no derivative), one 3 N_S direction (flat
    or one row per source), shared by every set, or, with one set, a stack
    (m, N_S, 3) of directions, giving dC of shape (m, N_C, N_S) whose slice
    i is, bit for bit, what direction i alone gives.  Both are closed
    forms.  Paraxial gamma is exp(i phi), the phase one matrix product of
    the rows with the scaled source coordinates (-k x / z0, -k y / z0,
    -k z / (2 z0^2)): ||gamma_s||^2 = N_C and dC = i dphi C.  Exact gamma
    is exp(i k d) / d: ||gamma_s||^2 = sum_q d_q^-2, and the radial term
    Re(n_s^dag dgamma_s) / ||gamma_s|| = -sum_q dd_q / d_q^3 / ||gamma_s||^2
    is a real sum, so dC = C (i k dd - dd / d - that term).
    """
    if a is not None:
        a = a.reshape(-1, 3) if a.ndim < 3 else a
    if mode is Mode.PARAXIAL:
        scale = np.array([-k / z0, -k / z0, -k / (2.0 * z0**2)])
        phase = rows @ (xyz * scale).swapaxes(-1, -2)
        if not np.isfinite(phase).all():
            raise _column_error(phase, len(rows))
        C = np.exp(1j * phase) * np.sqrt(weights / len(rows))
        if a is None:
            return C, None
        return C, 1j * (rows @ (a * scale).swapaxes(-1, -2)) * C
    u, v = rows[:, :1], rows[:, 1:2]
    x, y, z = (xyz[..., None, :, i] for i in range(3))
    ex, ey, ez = x - u, y - v, z0 + z
    d = np.sqrt(ex**2 + ey**2 + ez**2)
    if not (d > 0.0).all():
        *stack, q, s = np.argwhere(~(d > 0.0))[0]
        raise DegenerateGeometryError(
            f"source {tuple(xyz[(*stack, s)])} coincides with collector {tuple(rows[q, :2])}"
        )
    inv = 1.0 / d
    inv2 = inv * inv
    norm2 = inv2.sum(axis=-2)
    w_norm = np.sqrt(weights / norm2)
    C = np.exp(1j * k * d) * (inv * w_norm[..., None, :])
    # C is finite unless a phase is not or ||gamma_s||^2 is 0; w_norm is 0 where it overflows.
    if not (w_norm.all() and np.isfinite(C).all()):
        raise _column_error(k * d, norm2)
    if a is None:
        return C, None
    ax, ay, az = (a[..., None, :, i] for i in range(3))
    dd = (ex * ax + ey * ay + ez * az) * inv
    ddi = dd * inv
    radial = (ddi * inv2).sum(axis=-2) / norm2
    return C, C * ((radial[..., None, :] - ddi) + 1j * k * dd)


def _column_error(phase: np.ndarray, norm2) -> DegenerateGeometryError:
    """The error for the first source with a phase that is not finite, or a bad ||gamma_s||^2."""
    bad = ~(np.isfinite(phase).all(axis=-2) & np.isfinite(norm2) & (norm2 > 0.0))
    return DegenerateGeometryError(f"zero-norm amplitude column for source {bad.nonzero()[-1][0]}")


def amplitude_arrays(
    scenario: Scenario, positions: np.ndarray | None = None, a: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Amplitude matrix C and its closed-form derivative dC/dtheta along ``a``.

    The one routine that builds amplitudes from a Scenario: its collectors,
    weights, k, z0 and mode, with the sources at ``positions`` (default:
    the scenario's own).  Column s of C is sqrt(w_s) n_s with
    n_s = gamma_s / ||gamma_s||, and dC its closed-form derivative (both
    _raw_amplitudes), sqrt(w_s) (dgamma_s - n_s Re(n_s^dag dgamma_s)) /
    ||gamma_s||, i dphi * C in paraxial mode; with ``a`` None only C is
    computed.

    ``positions`` is one (N_S, 3) set of source positions, giving (N_C, N_S)
    arrays, or a stack (T, N_S, 3), giving (T, N_C, N_S) arrays whose slice
    t is, bit for bit, what set t alone gives.  The positions are not
    checked (check_source_positions); geometry errors are raised once for
    the whole stack.  ``a`` is one 3 N_S direction, flat or one row per
    source, or, with one set, a stack (m, N_S, 3) of directions: C is built
    once and dC has shape (m, N_C, N_S), slice i equal bit for bit to what
    direction i alone gives.

    At the scenario's own positions the arrays are kept on it (_kept),
    read-only: C, and dC for the most recent direction or direction stack,
    matched by the shape and bytes of ``a``, so a call along a new
    direction builds dC (and C with it, the same bits) once more and
    replaces the old dC.  The collector rows of the phase are kept too.
    """
    rows = _kept(scenario, "_phase_rows", lambda: _phase_rows(scenario.collector_positions()))
    fixed = (scenario.k, scenario.z0, scenario.mode, scenario.weights())

    def built(xyz, a):
        return _raw_amplitudes(rows, xyz, *fixed, a)

    if positions is not None:
        return built(positions, a)
    xyz = scenario.source_positions()
    if a is None:
        return _kept(scenario, "_amplitudes", lambda: built(xyz, None)[0]), None
    a = np.asarray(a, dtype=float)

    def with_derivative():
        C, dC = built(xyz, a)
        return _kept(scenario, "_amplitudes", lambda: C), dC

    return _kept(scenario, "_derivative", with_derivative, key=(a.shape, a.tobytes()))


def amplitude_and_derivative(
    scenario: Scenario, direction: GeneralizedCoordinate | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """amplitude_arrays of the scenario's sources along ``direction`` (None: C alone), read-only."""
    a = None if direction is None else direction_rows(direction, scenario.n_sources)
    return amplitude_arrays(scenario, None, a)


def build_amplitude_matrix(scenario: Scenario) -> np.ndarray:
    """Read-only (N_C, N_S) complex matrix with column s = sqrt(p_s) * normalized gamma(., s)."""
    return amplitude_arrays(scenario)[0]


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"mode", "k", "z0", "sources", "collectors"}
_SOURCE_KEYS = {"x", "y", "z", "weight"}
_COLLECTOR_KEYS = {"u", "v"}


def _check_keys(mapping: dict, allowed: set, required: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    missing = required - set(mapping)
    if missing:
        raise ScenarioError(f"missing key {sorted(missing)[0]!r} in {context}")


def _records(data: dict, key: str, cls, allowed: set, required: set) -> tuple:
    """``cls(**item)`` for each mapping in the non-empty list ``data[key]``, keys checked."""
    items, label = data[key], key[:-1]
    if not isinstance(items, list) or not items:
        raise ScenarioError(f"{key!r} must be a non-empty list")
    records = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ScenarioError(f"{label} #{i} must be a mapping")
        _check_keys(item, allowed, required, f"{label} #{i}")
        records.append(cls(**item))
    return tuple(records)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed file data, rejecting unknown keys.

    Values are passed through as parsed, a string mode in lower case; the
    constructors decide whether each is valid.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    _check_keys(data, _TOP_KEYS, _TOP_KEYS - {"mode"}, "scenario")
    sources = _records(data, "sources", SourcePoint, _SOURCE_KEYS, {"x", "y", "z"})
    collectors = _records(data, "collectors", Collector, _COLLECTOR_KEYS, _COLLECTOR_KEYS)
    mode = data.get("mode", "paraxial")
    mode = mode.lower() if isinstance(mode, str) else mode
    return Scenario(sources, collectors, data["k"], data["z0"], mode)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "mode": scenario.mode.value,
        "k": scenario.k,
        "z0": scenario.z0,
        "sources": [
            {"x": s.x, "y": s.y, "z": s.z, "weight": s.weight} for s in scenario.sources
        ],
        "collectors": [{"u": c.u, "v": c.v} for c in scenario.collectors],
    }


_SOURCE_BYTES, _COLLECTOR_BYTES, _ENTRY_BYTES = 384, 256, 8192


def _held_bytes(content: bytes, scenario: Scenario) -> int:
    """Upper bound of the bytes a memo entry holds once its Scenario is used.

    The key; _ENTRY_BYTES for the Scenario, its slots, array headers and
    digest; per source and per collector, its record, floats, array rows
    and singular value or phase row (Python 3.11 takes 248 and 185); and
    the complex arrays kept on it (_kept): C, the support SVD's U_r and V_r
    (r <= N_S), and one dC, or qfi_matrix_consistency's six for N_S <= 2.
    """
    n_c, n_s = scenario.n_collectors, scenario.n_sources
    complex_entries = n_c * n_s * (2 + (6 if n_s <= 2 else 1)) + n_s * n_s
    records = _SOURCE_BYTES * n_s + _COLLECTOR_BYTES * n_c
    return len(content) + _ENTRY_BYTES + records + 16 * complex_entries


class _LoadedScenarios:
    """Least-recently-used map from scenario file bytes to the Scenario they build.

    Keyed on content, so an edited file is parsed again whatever its path or
    mtime.  Each entry is charged up front with what it holds once its
    Scenario is used (_held_bytes), and the charges are bounded by
    ``max_bytes``.  An entry charged more than the bound is not held, and
    evicts nothing.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict[bytes, Scenario] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, content: bytes) -> Scenario | None:
        with self._lock:
            scenario = self._entries.get(content)
            if scenario is not None:
                self._entries.move_to_end(content)
            return scenario

    def put(self, content: bytes, scenario: Scenario) -> None:
        charge = _held_bytes(content, scenario)
        with self._lock:
            if content in self._entries or charge > self.max_bytes:
                return
            self._entries[content] = scenario
            self._bytes += charge
            while self._bytes > self.max_bytes:
                self._bytes -= _held_bytes(*self._entries.popitem(last=False))


# 16 MiB once used: 23 scenarios the size of the bundled disc (N_C = 1257),
# over 1000 small arrays, or three files of 100 sources on 1000 collectors.
_loaded = _LoadedScenarios(max_bytes=16 << 20)


def load_scenario(path) -> Scenario:
    """Load a scenario from a YAML key-value file (.scn).

    Loads are memoized by file content within the process: a file whose
    bytes were loaded before gives back the same (immutable) Scenario
    without parsing, and warns as the first load did.  A file that fails to
    load is not remembered.
    """
    try:
        with open(path, "rb") as fh:
            name, content = fh.name, fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot load scenario file {path}: {exc}") from exc
    scenario = _loaded.get(content)
    if scenario is not None:
        check_source_positions(scenario.source_positions(), scenario.z0, scenario.mode)
        return scenario
    # The text stream open(path, "r", encoding="utf-8") gives, over the bytes
    # read, so that YAML errors name the file.  PyYAML's constructors raise
    # plain ValueError, LookupError or AttributeError for a tagged scalar they
    # cannot read (``k: !!float``); bytes that are not UTF-8 raise
    # UnicodeDecodeError, a ValueError.
    buffer = io.BytesIO(content)
    buffer.name = name
    try:
        data = yaml.load(io.TextIOWrapper(buffer, encoding="utf-8"), Loader=SCENARIO_LOADER)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        raise ScenarioError(f"cannot load scenario file {path}: {exc}") from exc
    scenario = scenario_from_dict(data)
    _loaded.put(content, scenario)
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(scenario_to_dict(scenario), fh, Dumper=SCENARIO_DUMPER, sort_keys=False)


def scenario_digest(scenario: Scenario) -> str:
    """Stable hex digest of the scenario contents (for result documents), kept on it (_kept)."""

    def digest():
        canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    return _kept(scenario, "_digest", digest)


def disc_collector_grid(spacing: float, radius: float = 1.0) -> tuple[Collector, ...]:
    """Square-grid discretization of a circular aperture.

    Grid nodes at integer multiples of ``spacing`` (the origin included)
    are kept when they fall inside the disc.  The node-centered layout is
    inversion symmetric and its second moment converges to radius**2/4
    from above as the spacing shrinks.
    """
    spacing, radius = finite_number(spacing, "spacing"), finite_number(radius, "radius")
    if spacing <= 0 or radius <= 0:
        raise ScenarioError("spacing and radius must be positive")
    n = int(np.ceil(radius / spacing)) + 1
    pts = []
    r2 = radius * radius * (1 + 1e-12)
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            u, v = i * spacing, j * spacing
            if u * u + v * v <= r2:
                pts.append(Collector(u=u, v=v))
    return tuple(pts)
