"""Command-line front end.

Commands operate on a scenario file and write a JSON result document;
`simulate` also writes its per-trial CSV next to the JSON output, and any
`--gnuplot-dat` columns, from `crb_sweep`'s estimates: `estimation` writes no files.
`main` runs one pipeline for every command: parse the arguments, load the
scenario, parse the direction, compute the command's body, apply
`--angular`, emit.  A command's arguments are parsed once, by its own
subparser (`_parse_args`), with the same usage, help and error text as
`build_parser().parse_args`.  Each document is encoded in one pass by
`_json`, which returns `json.dumps(document, indent=2, allow_nan=False)`
byte for byte; `interferometer.interferometer_to_json` uses it too.
Exit status: 0 success, 2 validation error (bad file, bad flags, an output
path that cannot be written), 3 numerical failure (non-finite result,
which writes no document, failed decomposition, saturation or cross check
out of tolerance, non-identifiable parameter).  Documents are strict JSON:
no NaN or Infinity.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimation, fisher, interferometer as itf
from .geometry import (
    GeneralizedCoordinate,
    Scenario,
    ScenarioError,
    load_scenario,
    named_direction,
    scenario_digest,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Document keys that hold Fisher information; `--angular` multiplies them by z0^2.
INFORMATION_KEYS = ("qfi", "cfi", "qfi_estimate", "cfi_estimate", "qfi_matrix", "finite_difference")


def _parse_direction(spec: str, scenario: Scenario) -> tuple[GeneralizedCoordinate, str | list]:
    """The direction and what the document records: a preset's name, or the tangent as parsed."""
    spec = spec.strip()
    if "," in spec:
        try:
            tangent = [float(x) for x in spec.split(",")]
        except ValueError as exc:
            raise ScenarioError(f"cannot parse direction components: {exc}") from exc
        if len(tangent) != 3 * scenario.n_sources:
            raise ScenarioError(f"direction needs {3 * scenario.n_sources} components, "
                                f"got {len(tangent)}")
        return GeneralizedCoordinate.from_tangent(tangent), tangent
    direction = named_direction(spec, scenario.n_sources)
    return direction, direction.name


def _parse_interferometer(spec: str, scenario: Scenario) -> fisher.Interferometer:
    """A built-in sized for the scenario, else a serialized file; fisher checks its size on use."""
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    try:
        return itf.builtin_interferometer(name, scenario.n_collectors, arg or None)
    except ScenarioError:
        if not Path(spec).is_file():
            raise
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot load interferometer file {spec}: {exc}") from exc
    return itf.interferometer_from_json(text)


@contextlib.contextmanager
def _writing(path):
    """A failed write of ``path`` (no such directory, no permission) as a validation error."""
    try:
        yield
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


# A non-finite value exits 3 in main with no document, so qfi and cfi need no check.
def cmd_qfi(args, scenario, direction):
    return {"qfi": fisher.qfi(scenario, direction).qfi}, True


def cmd_cfi(args, scenario, direction):
    measurement = _parse_interferometer(args.interferometer, scenario)
    report = fisher.information_report(scenario, direction, measurement)
    return {
        "interferometer": measurement.provenance.value,
        "qfi": report.qfi,
        "cfi": report.cfi,
        "saturation_ratio": report.saturation_ratio,
    }, True


def cmd_design(args, scenario, direction):
    measurement, report, probabilities = itf._design(scenario, direction)
    return {
        "interferometer": itf._interferometer_payload(measurement),
        "probabilities": probabilities.tolist(),
        "saturation_ratio": report.saturation_ratio,
    }, True


def cmd_saturate(args, scenario, direction):
    report = itf.verify_saturation(scenario, direction)
    return report.to_dict(), report.structure_ok


def cmd_qfimatrix(args, scenario, direction):
    if scenario.n_sources > 2:
        raise ScenarioError("qfimatrix supports one- or two-source scenarios")
    target = (fisher.ParaxialTarget.SINGLE_SOURCE,
              fisher.ParaxialTarget.TWO_SOURCE_SEPARATION)[scenario.n_sources - 1]
    report = fisher.qfi_matrix_consistency(scenario, target)
    return {
        "target": target.value,
        "qfi_matrix": report.closed_form.tolist(),
        "finite_difference": report.finite_difference.tolist(),
        "max_relative_error": report.max_relative_error,
    }, report.max_relative_error < 1e-3


def cmd_simulate(args, scenario, direction):
    measurement = _parse_interferometer(args.interferometer, scenario)
    # The output paths are checked before the sweep, so a bad path costs no trials.
    csv_path = Path(args.out).with_suffix(".csv") if args.out else None
    outputs = [Path(path) for path in (csv_path, args.gnuplot_dat, args.out) if path]
    for path in outputs:
        if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
            raise ScenarioError(f"cannot write {path}: {path.parent} is not a writable directory")
    if len({path.resolve() for path in outputs}) < len(outputs):
        raise ScenarioError("simulate's document, trial CSV and gnuplot paths must differ, got "
                            + ", ".join(map(str, outputs)))
    aggregate, estimates = estimation.crb_sweep(
        scenario,
        direction,
        measurement,
        theta_true=args.theta_true,
        n_photons=args.photons,
        trials=args.trials,
        seed=args.seed,
    )
    if csv_path:
        # csv.writer's dialect: \r\n line ends; every row holds the sweep seed.
        rows = ["trial,seed,theta_hat\r\n"] + [
            f"{i},{args.seed},{theta!r}\r\n" for i, theta in enumerate(estimates.tolist())]
        with _writing(csv_path):
            csv_path.write_text("".join(rows), encoding="utf-8", newline="")
    if args.gnuplot_dat:
        rows = [f"{float(i)!r} {theta!r}" for i, theta in enumerate(estimates.tolist())]
        with _writing(args.gnuplot_dat):
            Path(args.gnuplot_dat).write_text(
                "\n".join(["# trial theta_hat", *rows]) + "\n", encoding="utf-8"
            )
    return {"interferometer": measurement.provenance.value, **aggregate.to_dict()}, True


class Command(NamedTuple):
    """One subcommand: its help line, its compute function and its extra options.

    ``compute(args, scenario, direction)`` returns the document body and
    whether the result passed its own check (exit 3 if not).  A command
    that does not read ``--direction`` gets None for it.
    """

    help: str
    compute: Callable
    reads_direction: bool = True
    interferometer: bool = False
    options: tuple = ()


SIMULATE_OPTIONS = (
    (("--gnuplot-dat",),
     {"help": "also write plain columnar data (trial theta_hat) to this path"}),
    (("--photons",), {"type": int, "default": 100000}),
    (("--trials",), {"type": int, "default": 500}),
    (("--seed",), {"type": int, "default": 0}),
    (("--theta-true",), {"type": float, "default": 0.0,
                         "help": "true parameter value used to generate photons"}),
)

COMMANDS = {
    "qfi": Command("quantum Fisher information of a direction", cmd_qfi),
    "cfi": Command("classical Fisher information behind an interferometer", cmd_cfi,
                   interferometer=True),
    "design": Command("synthesize the optimal interferometer", cmd_design),
    "saturate": Command("synthesize and verify bound saturation", cmd_saturate),
    "qfimatrix": Command("closed-form QFI matrix with cross check", cmd_qfimatrix,
                         reads_direction=False),
    "simulate": Command("Monte-Carlo Cramer-Rao attainment", cmd_simulate,
                        interferometer=True, options=SIMULATE_OPTIONS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="emitterfisher",
        description=(
            "Fisher information and optimal interferometry for localizing weak "
            "incoherent point emitters with a collector array."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--scenario", required=True, help="scenario file (.scn)")
        p.add_argument(
            "--direction",
            required=command.reads_direction,
            help="preset (x, separation-x, centroid-x, ...) or comma-separated tangent",
        )
        if command.interferometer:
            p.add_argument(
                "--interferometer",
                required=True,
                help="identity | bs_phase[:alpha] | qft | path to JSON file",
            )
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.add_argument("--angular", action="store_true",
                       help="report angular-separation information (multiply by z0^2)")
        for flags, options in command.options:
            p.add_argument(*flags, **options)
    # The subparser of each command, by name, for _parse_args.
    parser.commands = sub.choices
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a command's arguments parsed once.

    The top-level parser would hand everything after the command name to
    that command's subparser; _parse_args calls the subparser directly, and
    reports leftovers through the top-level parser as parse_args does.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in parser.commands:
        return parser.parse_args(argv)
    namespace = argparse.Namespace(command=argv[0])
    args, extras = parser.commands[argv[0]].parse_known_args(argv[1:], namespace)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, built in one pass.

    json's indented encoder is a pure-Python generator; this builds the same
    text by recursion and str.join, with json's type order, string escaping
    and int/float reprs, and its ValueError (non-finite float) and TypeError.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # A finite float, most entries of a document, skips the type checks
        # and the call (x - x is 0.0 exactly when x is finite).
        items = [float.__repr__(item) if type(item) is float and item - item == 0.0
                 else _json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_key(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as json writes it: str, float, bool, None and int keys become strings."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (float, int)):
        return _encode_str(_json(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _document(args) -> tuple[dict, bool]:
    """The command's result document, with head and --angular applied, and its check."""
    command = COMMANDS[args.command]
    scenario = load_scenario(args.scenario)
    document = {"command": args.command, "scenario_digest": scenario_digest(scenario)}
    direction = None
    if command.reads_direction:
        direction, document["direction"] = _parse_direction(args.direction, scenario)
    body, ok = command.compute(args, scenario, direction)
    document.update(body)
    if args.angular:
        for key in INFORMATION_KEYS:
            if key in document:
                document[key] = (np.asarray(document[key]) * scenario.z0**2).tolist()
    return document, ok


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        document, ok = _document(args)
        try:
            text = _json(document)
        except ValueError as exc:
            raise fisher.NumericalError("the result document holds a non-finite value") from exc
        if args.out:
            with _writing(args.out):
                Path(args.out).write_text(text + "\n", encoding="utf-8")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except estimation.NonIdentifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except fisher.NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.out:
        print(text)
    return EXIT_OK if ok else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
