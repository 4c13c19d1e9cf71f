"""Command-line front end.

Commands operate on a scenario file and write a JSON result document;
`simulate` additionally writes a per-trial CSV next to the JSON output.
Exit status: 0 success, 2 validation error (bad file, bad flags), 3
numerical failure (non-finite result, failed decomposition, saturation or
cross check out of tolerance, non-identifiable parameter).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import estimation, fisher, interferometer as itf
from .geometry import (
    GeneralizedCoordinate,
    Scenario,
    ScenarioError,
    build_amplitude_matrix,
    load_scenario,
    named_direction,
    scenario_digest,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _parse_direction(spec: str, scenario: Scenario) -> GeneralizedCoordinate:
    spec = spec.strip()
    if "," in spec:
        try:
            tangent = np.array([float(x) for x in spec.split(",")], dtype=float)
        except ValueError as exc:
            raise ScenarioError(f"cannot parse direction components: {exc}") from exc
        if tangent.size != 3 * scenario.n_sources:
            raise ScenarioError(
                f"direction needs {3 * scenario.n_sources} components, got {tangent.size}"
            )
        return GeneralizedCoordinate.from_tangent(tangent, name="custom")
    return named_direction(spec, scenario.n_sources)


def _parse_interferometer(spec: str, scenario: Scenario) -> itf.Interferometer:
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    name = name.lower()
    if name in ("identity", "qft", "bs_phase"):
        alpha = float(arg) if arg else None
        return itf.builtin_interferometer(name, scenario.n_collectors, alpha)
    path = Path(spec)
    if not path.exists():
        raise ScenarioError(f"interferometer {spec!r} is neither a built-in nor a file")
    loaded = itf.interferometer_from_json(path.read_text(encoding="utf-8"))
    if loaded.n_modes != scenario.n_collectors:
        raise ScenarioError(
            f"interferometer has {loaded.n_modes} modes, scenario has "
            f"{scenario.n_collectors} collectors"
        )
    return loaded


def _angular_factor(args, scenario: Scenario) -> float:
    # Angular-separation reporting rescales information by z0^2.
    return scenario.z0**2 if args.angular else 1.0


def _emit(args, document: dict) -> None:
    text = json.dumps(document, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_gnuplot(args, columns: list[tuple], header: str) -> None:
    if not args.gnuplot_dat:
        return
    lines = [f"# {header}"]
    for row in columns:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(args.gnuplot_dat).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _convergence_block(report: fisher.FisherReport) -> dict:
    return {"converged": report.converged}


def cmd_qfi(args) -> int:
    scenario = load_scenario(args.scenario)
    direction = _parse_direction(args.direction, scenario)
    report = fisher.qfi(scenario, direction)
    factor = _angular_factor(args, scenario)
    _emit(
        args,
        {
            "command": "qfi",
            "scenario_digest": scenario_digest(scenario),
            "direction": direction.name or list(direction.a),
            "qfi": report.qfi * factor,
            "convergence": _convergence_block(report),
        },
    )
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_cfi(args) -> int:
    scenario = load_scenario(args.scenario)
    direction = _parse_direction(args.direction, scenario)
    measurement = _parse_interferometer(args.interferometer, scenario)
    report = fisher.information_report(scenario, direction, measurement)
    factor = _angular_factor(args, scenario)
    _emit(
        args,
        {
            "command": "cfi",
            "scenario_digest": scenario_digest(scenario),
            "direction": direction.name or list(direction.a),
            "interferometer": measurement.provenance.value,
            "qfi": report.qfi * factor,
            "cfi": report.cfi * factor,
            "saturation_ratio": report.saturation_ratio,
            "convergence": _convergence_block(report),
        },
    )
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_design(args) -> int:
    scenario = load_scenario(args.scenario)
    direction = _parse_direction(args.direction, scenario)
    saturation = itf.verify_saturation(scenario, direction)
    designed = saturation.synthesis.interferometer
    probabilities = fisher.detection_probabilities(
        build_amplitude_matrix(scenario), designed
    )
    _emit(
        args,
        {
            "command": "design",
            "scenario_digest": scenario_digest(scenario),
            "direction": direction.name or list(direction.a),
            "interferometer": json.loads(itf.interferometer_to_json(designed)),
            "probabilities": probabilities.tolist(),
            "saturation_ratio": saturation.saturation_ratio,
        },
    )
    return EXIT_OK


def cmd_saturate(args) -> int:
    scenario = load_scenario(args.scenario)
    direction = _parse_direction(args.direction, scenario)
    report = itf.verify_saturation(scenario, direction)
    factor = _angular_factor(args, scenario)
    doc = report.to_dict()
    doc["qfi_estimate"] *= factor
    doc["cfi_estimate"] *= factor
    _emit(
        args,
        {
            "command": "saturate",
            "scenario_digest": scenario_digest(scenario),
            "direction": direction.name or list(direction.a),
            **doc,
        },
    )
    return EXIT_OK if report.structure_ok else EXIT_NUMERICAL


def cmd_qfimatrix(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.n_sources == 1:
        target = fisher.ParaxialTarget.SINGLE_SOURCE
    elif scenario.n_sources == 2:
        target = fisher.ParaxialTarget.TWO_SOURCE_SEPARATION
    else:
        raise ScenarioError("qfimatrix supports one- or two-source scenarios")
    report = fisher.qfi_matrix_consistency(scenario, target)
    factor = _angular_factor(args, scenario)
    _emit(
        args,
        {
            "command": "qfimatrix",
            "scenario_digest": scenario_digest(scenario),
            "target": target.value,
            "qfi_matrix": (report.closed_form * factor).tolist(),
            "finite_difference": (report.finite_difference * factor).tolist(),
            "max_relative_error": report.max_relative_error,
        },
    )
    return EXIT_OK if report.max_relative_error < 1e-3 else EXIT_NUMERICAL


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    direction = _parse_direction(args.direction, scenario)
    measurement = _parse_interferometer(args.interferometer, scenario)
    qfi_report = fisher.qfi(scenario, direction)
    try:
        aggregate, records = estimation.crb_sweep(
            scenario,
            direction,
            measurement,
            theta_true=args.theta_true,
            n_photons=args.photons,
            trials=args.trials,
            seed=args.seed,
        )
    except estimation.NonIdentifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    cfi_value = 1.0 / (aggregate.fisher_predicted_variance * args.photons)
    doc = {
        "command": "simulate",
        "scenario_digest": scenario_digest(scenario),
        "direction": direction.name or list(direction.a),
        "interferometer": measurement.provenance.value,
        "qfi": qfi_report.qfi,
        "cfi": cfi_value,
        **aggregate.to_dict(),
    }
    _emit(args, doc)
    if args.out:
        csv_path = Path(args.out).with_suffix(".csv")
        estimation.write_trials_csv(csv_path, records)
    _emit_gnuplot(
        args,
        [(r.trial, r.theta_hat) for r in records],
        "trial theta_hat",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emitterfisher",
        description=(
            "Fisher information and optimal interferometry for localizing weak "
            "incoherent point emitters with a collector array."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, interferometer=False, simulate=False):
        p.add_argument("--scenario", required=True, help="scenario file (.scn)")
        p.add_argument(
            "--direction",
            required=True,
            help="preset (x, separation-x, centroid-x, ...) or comma-separated tangent",
        )
        if interferometer:
            p.add_argument(
                "--interferometer",
                required=True,
                help="identity | bs_phase[:alpha] | qft | path to JSON file",
            )
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.add_argument("--angular", action="store_true",
                       help="report angular-separation information (multiply by z0^2)")
        if simulate:
            p.add_argument("--gnuplot-dat",
                           help="also write plain columnar data (trial theta_hat) to this path")
            p.add_argument("--photons", type=int, default=100000)
            p.add_argument("--trials", type=int, default=500)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--theta-true", type=float, default=0.0,
                           help="true parameter value used to generate photons")

    common(sub.add_parser("qfi", help="quantum Fisher information of a direction"))
    common(sub.add_parser("cfi", help="classical Fisher information behind an interferometer"),
           interferometer=True)
    common(sub.add_parser("design", help="synthesize the optimal interferometer"))
    common(sub.add_parser("saturate", help="synthesize and verify bound saturation"))
    common(sub.add_parser("qfimatrix", help="closed-form QFI matrix with cross check"))
    common(sub.add_parser("simulate", help="Monte-Carlo Cramer-Rao attainment"),
           interferometer=True, simulate=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "qfi": cmd_qfi,
        "cfi": cmd_cfi,
        "design": cmd_design,
        "saturate": cmd_saturate,
        "qfimatrix": cmd_qfimatrix,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except fisher.NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
