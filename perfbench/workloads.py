"""The benchmark's three workloads: seeded inputs, the op list and its checks.

Each workload is a closed loop with one caller: the next op starts when
the previous one returns.  ``build`` does the whole set-up (input
generation, scenario and interferometer files, interferometer
construction, one untimed warm-up op) and returns the ops of one cycle.
The seed changes values (positions, weights, directions), never the
shapes or the op list, so that runs on different seeds do the same work.

Every op result is checked against the paper's claims with the
acceptance-suite tolerances.  No op is left out because it fails.  An op
whose failed checks are all explained by one of the program's known
defects (``KNOWN_DEFECTS``) on inputs where that defect is known to show
is counted under the defect's name; any other failed check counts the op
as failed.  Check failures are counted by check name either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import emitterfisher as ef
from emitterfisher import cli

K, Z0 = 1.0, 100.0
RATIO_LO, RATIO_HI = 1 - 1e-5, 1 + 1e-6
QFI_RTOL = 1e-4
CFI_SLACK = 1e-6
QFIMATRIX_TOL = 1e-3
# Chance that a correct program fails the crb_ratio check in one sweep.  A
# run makes about 40 sweeps, so a set of runs makes about a thousand.
CRB_FAIL_PROB = 1e-6
N_PHOTONS = 100_000
THETA_TRUE = 2.0
# The package's default synthesis step, as a fraction of the natural scale.
SYNTH_STEP_FRACTION = 1e-4

# An amplitude matrix whose smallest singular value is below this share of
# its largest is numerically rank-deficient.
RANK_DROP_RTOL = 1e-8
# Below this QFI the step-halving Richardson extrapolation may not converge.
LOW_INFORMATION_QFI = 1e-6

# The program's known defects, each with the ROADMAP item that covers it.
KNOWN_DEFECTS = {
    "synthesized_cfi_shortfall": "cfi() behind the synthesized R falls short of the QFI: it drops the "
                                 "0/0 limit of (dp)^2/p at dark ports, and smaller gaps remain "
                                 "(ROADMAP item 2 lists both)",
    "rank_drop_structure": "verify_saturation reports structure_ok false, with its ratio in band, "
                           "when the amplitude matrix is numerically rank-deficient (ROADMAP aim 3)",
    "low_information_richardson": "step-halving Richardson does not converge when the QFI is below "
                                  f"{LOW_INFORMATION_QFI:g} (ROADMAP item 3: an absolute floor is needed)",
}

CHECKS = (
    "no_exception",
    "converged",
    "qfi_closed_form",
    "cfi_le_qfi",
    "saturation",
    "cfi_synth",
    "qfimatrix",
    "crb_ratio",
)


@dataclass
class Op:
    """One call into the program; ``call`` is the timed part."""

    kind: str  # latency family: qfi, cfi, design, qfimatrix or sweep
    case: str  # input case; checks may read earlier results of the same case
    call: Callable[[int], object]  # cycle number -> raw output
    # (raw output, results of this case so far) -> (values, check outcomes)
    check: Callable[[object, dict], tuple[tuple, dict[str, bool]]]
    trials: int = 0
    same_each_cycle: bool = True
    # (values, names of the failed checks) -> the known defect that explains
    # every failed check, or None
    known_defect: Callable[[tuple, frozenset], str | None] | None = None


def _explained(failed: frozenset, causes: dict[str, str | None]) -> str | None:
    """The known defect behind the failed checks, if every one has one.

    ``causes`` maps a check name to the known defect that explains its
    failure on this op's inputs and values, or to None.
    """
    names = [causes.get(check) for check in sorted(failed)]
    return names[0] if names and all(names) else None


def _rank_deficient(scenario: ef.Scenario) -> bool:
    s = np.linalg.svd(ef.build_amplitude_matrix(scenario), compute_uv=False)
    return bool(s[-1] < RANK_DROP_RTOL * s[0])


def _low_information(qfi_value) -> str | None:
    ok = qfi_value is not None and qfi_value < LOW_INFORMATION_QFI
    return "low_information_richardson" if ok else None


def _shortfall(qfi_value, cfi_value) -> str | None:
    short = bool(qfi_value) and cfi_value is not None and cfi_value < RATIO_LO * qfi_value
    return "synthesized_cfi_shortfall" if short else None


def _rank_drop(rank_deficient: bool, ratio, structure_ok) -> str | None:
    return "rank_drop_structure" if rank_deficient and _in_band(ratio) and structure_ok is False else None


def _in_band(ratio) -> bool:
    return ratio is not None and RATIO_LO <= ratio <= RATIO_HI


def _cfi_le_qfi(cfi_value, qfi_value) -> bool:
    return qfi_value is not None and cfi_value <= qfi_value * (1 + CFI_SLACK)


def _closed_form(value, expected) -> bool:
    return abs(value - expected) <= QFI_RTOL * abs(expected)


def _tangent(rng, n_sources: int) -> np.ndarray:
    return rng.normal(size=3 * n_sources)


# ---------------------------------------------------------------------------
# small-arrays: in-process CLI commands on bundled and random small arrays
# ---------------------------------------------------------------------------

# (N_S, N_C) of the random scenarios, each in paraxial and exact mode.
SMALL_SHAPES = {
    "full": ((1, 2), (1, 4), (1, 8), (2, 2), (2, 3), (2, 6), (3, 3), (3, 5), (3, 8), (4, 4), (4, 6), (4, 8)),
    "tiny": ((1, 3), (2, 2), (3, 4)),
}


@dataclass
class _Case:
    name: str
    path: Path
    direction: str
    scenario: ef.Scenario
    expected_qfi: float | None
    rank_deficient: bool


def _random_small(rng, n_sources: int, n_collectors: int, mode: ef.Mode) -> ef.Scenario:
    scale = (0.1, 5.0, 20.0)[int(rng.integers(3))]
    # Two-source scenarios keep equal weights, where the separation closed
    # form holds; others draw weights.
    weights = np.ones(2) if n_sources == 2 else rng.uniform(0.5, 1.5, n_sources)
    return ef.Scenario(
        sources=tuple(ef.SourcePoint(*rng.normal(0, scale, 3), weight=w) for w in weights),
        collectors=tuple(ef.Collector(*rng.normal(0, 5, 2)) for _ in range(n_collectors)),
        k=K,
        z0=Z0,
        mode=mode,
    )


def _expected_qfi(scenario: ef.Scenario, direction: str, tangent) -> float | None:
    """Paraxial closed form of the reported QFI, where one applies."""
    if scenario.mode is not ef.Mode.PARAXIAL or scenario.n_sources > 2:
        return None
    if scenario.n_sources == 1:
        F = ef.paraxial_qfi_matrix(scenario.collectors, scenario.k, scenario.z0, ef.ParaxialTarget.SINGLE_SOURCE)
        return float(tangent @ F @ tangent)
    F = ef.paraxial_qfi_matrix(
        scenario.collectors, scenario.k, scenario.z0, ef.ParaxialTarget.TWO_SOURCE_SEPARATION
    )
    axis = "xyz".index(direction[-1])
    return float(F[axis, axis])


def _small_cases(rng, size: str, workdir: Path) -> list[_Case]:
    cases = []
    two = ef.bundled_scenario_path("two_collector.scn")
    four = ef.bundled_scenario_path("four_collector.scn")
    for path, direction in ((two, "separation-x"), (four, "separation-x"), (four, "separation-z")):
        scenario = ef.load_scenario(path)
        cases.append(_Case(f"{path.stem}/{direction}", path, direction, scenario,
                           _expected_qfi(scenario, direction, None), _rank_deficient(scenario)))
    for n_sources, n_collectors in SMALL_SHAPES[size]:
        for mode in (ef.Mode.PARAXIAL, ef.Mode.EXACT):
            scenario = _random_small(rng, n_sources, n_collectors, mode)
            path = workdir / f"random_{n_sources}x{n_collectors}_{mode.value}.scn"
            ef.save_scenario(scenario, path)
            if n_sources == 2:
                direction, tangent = f"separation-{'xyz'[int(rng.integers(3))]}", None
            else:
                tangent = _tangent(rng, n_sources)
                direction = ",".join(repr(float(t)) for t in tangent)
            cases.append(_Case(path.stem, path, direction, scenario,
                               _expected_qfi(scenario, direction, tangent), _rank_deficient(scenario)))
    return cases


def _cli_call(argv: list[str], out: Path) -> Callable[[int], object]:
    argv = [*argv, "--out", str(out)]
    return lambda cycle: cli.main(argv)


def _read_doc(out: Path) -> dict | None:
    if not out.exists():
        return None
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return doc


def _cli_check(out: Path, keys: tuple[str, ...], judge) -> Callable:
    """Check of one CLI op: exit code, document values and ``judge``'s verdicts."""

    def check(code, results):
        doc = _read_doc(out)
        if doc is None:
            return (code,), {"converged": False}
        values = (code, *(doc.get(k) for k in keys))
        return values, {"converged": code == cli.EXIT_OK, **judge(doc)}

    return check


def _document_values(values: tuple) -> tuple:
    """The first two document values of a CLI op's values, None where missing.

    A CLI op's values are (exit code, *document values); a missing
    document leaves only the exit code.
    """
    return (*values[1:], None, None)[:2]


def _cli_fisher_defects(values, failed) -> str | None:
    qfi_value, cfi_value = _document_values(values)
    return _explained(failed, {"converged": _low_information(qfi_value),
                               "cfi_synth": _shortfall(qfi_value, cfi_value)})


def build_small_arrays(seed: int, size: str, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    cases = _small_cases(rng, size, workdir)
    ops: list[Op] = []
    for index in rng.permutation(len(cases)):
        case = cases[int(index)]
        # The `=` form keeps a tangent that starts with a minus sign a value.
        base = ["--scenario", str(case.path), f"--direction={case.direction}"]

        # The design document's interferometer, fed back through `cfi`.  If
        # design fails here, that `cfi` op fails on the missing file.
        design_out = workdir / f"design_{index}.json"
        cli.main(["design", *base, "--out", str(design_out)])
        design_doc = _read_doc(design_out)
        synthesized = workdir / f"R_{index}.json"
        if design_doc is not None:
            synthesized.write_text(json.dumps(design_doc["interferometer"]), encoding="utf-8")

        def op(kind, command, extra, keys, judge, known_defect=None):
            out = workdir / f"out_{len(ops)}.json"
            ops.append(Op(kind, case.name, _cli_call([command, *base, *extra], out),
                          _cli_check(out, keys, judge), known_defect=known_defect))

        def saturate_defects(values, failed, rank_deficient=case.rank_deficient):
            ratio, structure_ok = _document_values(values)
            cause = _rank_drop(rank_deficient, ratio, structure_ok)
            return _explained(failed, {"converged": cause, "saturation": cause})

        expected = case.expected_qfi
        op("qfi", "qfi", [], ("qfi",),
           lambda d, e=expected: {} if e is None else {"qfi_closed_form": _closed_form(d["qfi"], e)},
           _cli_fisher_defects)
        measurements = ["identity", "qft"] + (["bs_phase:0"] if case.scenario.n_collectors == 2 else [])
        for measurement in measurements:
            op("cfi", "cfi", ["--interferometer", measurement], ("qfi", "cfi"),
               lambda d: {"cfi_le_qfi": _cfi_le_qfi(d["cfi"], d["qfi"])}, _cli_fisher_defects)
        op("design", "design", [], ("saturation_ratio",),
           lambda d: {"saturation": _in_band(d["saturation_ratio"])})
        op("cfi", "cfi", ["--interferometer", str(synthesized)], ("qfi", "cfi"),
           lambda d: {"cfi_le_qfi": _cfi_le_qfi(d["cfi"], d["qfi"]),
                      "cfi_synth": _in_band(d["saturation_ratio"])}, _cli_fisher_defects)
        op("design", "saturate", [], ("saturation_ratio", "structure_ok"),
           lambda d: {"saturation": _in_band(d["saturation_ratio"]) and d["structure_ok"]},
           saturate_defects)
        if case.scenario.mode is ef.Mode.PARAXIAL and case.scenario.n_sources <= 2:
            op("qfimatrix", "qfimatrix", [], ("max_relative_error",),
               lambda d: {"qfimatrix": d["max_relative_error"] < QFIMATRIX_TOL})

    warm = workdir / "warmup.json"
    cli.main(["qfi", "--scenario", str(cases[0].path), f"--direction={cases[0].direction}",
              "--out", str(warm)])
    warm.unlink()
    return ops


# ---------------------------------------------------------------------------
# wide-aperture: library calls on disc_collector_grid apertures
# ---------------------------------------------------------------------------

WIDE_SIZES = {
    # spacing of the source-pair aperture, spacing of the many-source and
    # consistency aperture, number of seeded sources
    "full": (0.05, 0.1, 8),
    "tiny": (0.5, 0.4, 3),
}


def _synthesized(scenario: ef.Scenario, direction) -> ef.Interferometer:
    """The optimal measurement at the package's default synthesis step."""
    step = SYNTH_STEP_FRACTION * ef.natural_displacement_scale(scenario)
    C = ef.build_amplitude_matrix(scenario)
    C_moved = ef.build_amplitude_matrix(ef.displace(scenario, direction, step))
    return ef.synthesize_optimal_interferometer(C, C_moved).interferometer


def _qfi_op(case, scenario, direction, expected=None) -> Op:
    def check(report, results):
        results["qfi"] = report.qfi
        outcome = {"converged": report.converged}
        if expected is not None:
            outcome["qfi_closed_form"] = _closed_form(report.qfi, expected)
        return (report.qfi,), outcome

    def known_defect(values, failed):
        return _explained(failed, {"converged": _low_information(values[0])})

    return Op("qfi", case, lambda cycle: ef.qfi(scenario, direction), check, known_defect=known_defect)


def _cfi_op(case, scenario, direction, measurement, synthesized: bool) -> Op:
    def check(report, results):
        qfi_value = results.get("qfi")
        outcome = {"converged": report.converged, "cfi_le_qfi": _cfi_le_qfi(report.cfi, qfi_value)}
        if synthesized:
            outcome["cfi_synth"] = bool(qfi_value) and _in_band(report.cfi / qfi_value)
        return (report.cfi, qfi_value), outcome

    def known_defect(values, failed):
        cfi_value, qfi_value = values
        return _explained(failed, {"converged": _low_information(qfi_value),
                                   "cfi_synth": _shortfall(qfi_value, cfi_value)})

    return Op("cfi", case, lambda cycle: ef.cfi(scenario, direction, measurement), check,
              known_defect=known_defect)


def _saturation_op(case, scenario, direction) -> Op:
    rank_deficient = _rank_deficient(scenario)

    def check(report, results):
        ok = _in_band(report.saturation_ratio) and report.structure_ok
        return (report.saturation_ratio, report.delta_theta, report.structure_ok), {"saturation": ok}

    def known_defect(values, failed):
        ratio, _, structure_ok = values
        return _explained(failed, {"saturation": _rank_drop(rank_deficient, ratio, structure_ok)})

    return Op("design", case, lambda cycle: ef.verify_saturation(scenario, direction), check,
              known_defect=known_defect)


def build_wide_aperture(seed: int, size: str, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    spacing, spacing_many, n_many = WIDE_SIZES[size]
    pair = ef.load_scenario(ef.bundled_scenario_path("two_collector.scn"))
    separation = ef.named_direction("separation-x", 2)
    target = ef.ParaxialTarget.TWO_SOURCE_SEPARATION

    def aperture(spacing, sources):
        return ef.Scenario(sources, ef.disc_collector_grid(spacing), pair.k, pair.z0, pair.mode)

    wide_pair = aperture(spacing, pair.sources)
    many = aperture(spacing_many, tuple(
        ef.SourcePoint(*rng.normal(0, 0.2, 3), weight=w) for w in rng.uniform(0.5, 1.5, n_many)
    ))
    many_direction = ef.GeneralizedCoordinate.from_tangent(_tangent(rng, n_many))
    narrow_pair = aperture(spacing_many, pair.sources)

    qft_pair = ef.qft_interferometer(wide_pair.n_collectors)
    qft_many = ef.qft_interferometer(many.n_collectors)
    synthesized_pair = _synthesized(wide_pair, separation)
    synthesized_many = _synthesized(many, many_direction)
    expected_pair = ef.paraxial_qfi_matrix(wide_pair.collectors, pair.k, pair.z0, target)[0, 0]

    def consistency_check(report, results):
        err = report.max_relative_error
        return (err,), {"qfimatrix": err < QFIMATRIX_TOL}

    a = f"pair/N_C={wide_pair.n_collectors}"
    b = f"{n_many}-source/N_C={many.n_collectors}"
    c = f"pair/N_C={narrow_pair.n_collectors}"
    ops = [
        _qfi_op(a, wide_pair, separation, expected_pair),
        _cfi_op(a, wide_pair, separation, qft_pair, synthesized=False),
        _cfi_op(a, wide_pair, separation, synthesized_pair, synthesized=True),
        _saturation_op(a, wide_pair, separation),
        _qfi_op(b, many, many_direction),
        _cfi_op(b, many, many_direction, qft_many, synthesized=False),
        _cfi_op(b, many, many_direction, synthesized_many, synthesized=True),
        _saturation_op(b, many, many_direction),
        Op("qfimatrix", c, lambda cycle: ef.qfi_matrix_consistency(narrow_pair, target), consistency_check),
    ]

    small = aperture(0.25, pair.sources)
    ef.information_report(small, separation, ef.qft_interferometer(small.n_collectors))
    return ops


# ---------------------------------------------------------------------------
# crb-montecarlo: Monte-Carlo MLE sweeps against 1/(n CFI)
# ---------------------------------------------------------------------------

CRB_TRIALS = {"full": 50, "tiny": 8}


def _crb_band(trials: int) -> tuple[float, float]:
    """crb_ratio range a correct program leaves with probability CRB_FAIL_PROB.

    For an efficient estimator, crb_ratio * (T - 1) follows chi-square
    with T - 1 degrees of freedom.
    """
    dof = trials - 1
    lo = stats.chi2.ppf(CRB_FAIL_PROB / 2, dof) / dof
    hi = stats.chi2.ppf(1 - CRB_FAIL_PROB / 2, dof) / dof
    return float(lo), float(hi)


def build_crb_montecarlo(seed: int, size: str, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    trials = CRB_TRIALS[size]
    separation = ef.named_direction("separation-x", 2)
    two = ef.load_scenario(ef.bundled_scenario_path("two_collector.scn"))
    four = ef.load_scenario(ef.bundled_scenario_path("four_collector.scn"))
    # The four_collector geometry in exact mode, jittered by the seed.  Its
    # mirror likelihood mode (sources swapped) stays tens of predicted
    # standard deviations from the truth, so the MLE is in its asymptotic
    # regime; random wide arrays put that mode inside the search interval.
    exact = ef.Scenario(
        tuple(ef.SourcePoint(x + rng.normal(0, 0.02), *rng.normal(0, 0.02, 2)) for x in (0.1, -0.1)),
        tuple(ef.Collector(u + rng.normal(0, 0.1), rng.normal(0, 0.1)) for u in (3.0, 1.0, -1.0, -3.0)),
        K, Z0, ef.Mode.EXACT,
    )
    cases = (
        ("two_collector/bs_phase", two, ef.beam_splitter_with_phase(0.0)),
        ("four_collector/qft", four, ef.qft_interferometer(4)),
        ("exact_four_collector/qft", exact, ef.qft_interferometer(4)),
    )
    lo, hi = _crb_band(trials)

    def check(result, results):
        aggregate, _ = result
        ratio = aggregate.crb_ratio
        return (aggregate.theta_hat, ratio), {"crb_ratio": lo <= ratio <= hi}

    def sweep(index, scenario, measurement):
        def call(cycle):
            sweep_seed = int(np.random.SeedSequence([seed, cycle, index]).generate_state(1)[0])
            return ef.crb_sweep(scenario, separation, measurement, theta_true=THETA_TRUE,
                                n_photons=N_PHOTONS, trials=trials, seed=sweep_seed, threads=1)

        return call

    ops = [
        Op("sweep", name, sweep(i, scenario, measurement), check, trials=trials, same_each_cycle=False)
        for i, (name, scenario, measurement) in enumerate(cases)
    ]
    ef.crb_sweep(two, separation, cases[0][2], theta_true=THETA_TRUE, n_photons=N_PHOTONS,
                 trials=2, seed=seed, threads=1)
    return ops


WORKLOADS = {
    "small-arrays": (build_small_arrays, set(CHECKS) - {"crb_ratio"}),
    "wide-aperture": (build_wide_aperture, set(CHECKS) - {"crb_ratio"}),
    "crb-montecarlo": (build_crb_montecarlo, {"no_exception", "crb_ratio"}),
}
