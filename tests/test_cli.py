"""Command-line interface tests: commands, exit codes, result documents."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emitterfisher
from conftest import crb_ratio_interval, spy_refine, sweep_draws
from emitterfisher import bundled_scenario_path, bundled_scenarios, identity_interferometer
from emitterfisher import interferometer_to_json
from emitterfisher.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, main
from emitterfisher.cli import _json, _parse_args


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def two_collector():
    return str(bundled_scenario_path("two_collector.scn"))


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def read_json(path):
    """A document, parsed as strict JSON: NaN and Infinity are rejected."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_bundled_scenarios_present():
    names = set(bundled_scenarios())
    assert names == {"two_collector.scn", "four_collector.scn", "disc_aperture_r1.scn"}
    for path in bundled_scenarios().values():
        assert path.exists()


def test_qfi_command(two_collector, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["command"] == "qfi"
    assert doc["qfi"] == pytest.approx(0.0025, rel=1e-6)
    assert doc["convergence"] == {"converged": True}


def test_qfi_angular_flag(two_collector, tmp_path):
    out = tmp_path / "r.json"
    run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x",
            "--angular", "--out", str(out))
    doc = read_json(out)
    assert doc["qfi"] == pytest.approx(0.0025 * 100.0**2, rel=1e-6)


def test_qfi_stdout_and_determinism(two_collector, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x", "--out", str(a))
    run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_cfi_command(two_collector, tmp_path):
    out = tmp_path / "result.json"
    code = run_cli("cfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", "bs_phase:0.0", "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["cfi"] == pytest.approx(0.0025, rel=1e-5)
    assert doc["saturation_ratio"] == pytest.approx(1.0, abs=1e-5)


def test_design_command_balanced_splitter(two_collector, tmp_path):
    out = tmp_path / "design.json"
    code = run_cli("design", "--scenario", two_collector, "--direction", "separation-x",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    matrix = np.array([[complex(re, im) for re, im in row]
                       for row in doc["interferometer"]["matrix"]])
    np.testing.assert_allclose(np.abs(matrix), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-9)
    assert doc["interferometer"]["provenance"] == "synthesized"


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_saturate_command_all_bundled(name, tmp_path):
    out = tmp_path / "sat.json"
    code = run_cli("saturate", "--scenario", str(bundled_scenario_path(name)),
                   "--direction", "separation-x", "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    assert 1 - 1e-5 <= doc["saturation_ratio"] <= 1 + 1e-6
    assert doc["structure_ok"] is True


def test_qfimatrix_command(two_collector, tmp_path):
    out = tmp_path / "m.json"
    code = run_cli("qfimatrix", "--scenario", two_collector, "--direction", "separation-x",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["qfi_matrix"][0][0] == pytest.approx(0.0025, rel=1e-9)
    assert doc["max_relative_error"] < 1e-3


def test_qfimatrix_does_not_need_direction(two_collector, capsys):
    # qfimatrix reads no direction: the flag may be left out, and a given
    # one changes nothing.
    assert run_cli("qfimatrix", "--scenario", two_collector) == EXIT_OK
    without = capsys.readouterr().out
    assert run_cli("qfimatrix", "--scenario", two_collector, "--direction", "separation-x") == EXIT_OK
    assert capsys.readouterr().out == without


def test_simulate_command(two_collector, tmp_path):
    trials = 640
    lo, hi = crb_ratio_interval(trials)
    assert 0.7 <= lo and hi <= 1.3
    out = tmp_path / "sim.json"
    code = run_cli("simulate", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", "bs_phase:0.0", "--photons", "5000",
                   "--trials", str(trials), "--seed", "3", "--theta-true", "2.0",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = read_json(out)
    assert 0.7 <= doc["crb_ratio"] <= 1.3
    csv_lines = (tmp_path / "sim.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "trial,seed,theta_hat" and len(csv_lines) == trials + 1
    assert all(line.split(",")[:2] == [str(i), "3"] for i, line in enumerate(csv_lines[1:]))


def test_simulate_reports_information_at_the_truth(tmp_path):
    # qfi and cfi come from the amplitudes at --theta-true, where the photons
    # are drawn: on four_collector in exact mode at theta_true = 2 they are
    # information_report of the sources moved there, not of the base.
    four = emitterfisher.load_scenario(bundled_scenario_path("four_collector.scn"))
    s = emitterfisher.Scenario(four.sources, four.collectors, four.k, four.z0, "exact")
    path = tmp_path / "four_exact.scn"
    emitterfisher.save_scenario(s, path)
    out = tmp_path / "sim.json"
    assert run_cli("simulate", "--scenario", str(path), "--direction", "separation-x",
                   "--interferometer", "qft", "--photons", "5000", "--trials", "20",
                   "--seed", "3", "--theta-true", "2.0", "--out", str(out)) == EXIT_OK
    doc = read_json(out)
    d = emitterfisher.named_direction("separation-x", 2)
    moved = emitterfisher.displace(s, d, 2.0 * d.parameter_scale)
    truth = emitterfisher.information_report(moved, d, emitterfisher.qft_interferometer(4))
    assert (doc["qfi"], doc["cfi"]) == (truth.qfi, truth.cfi)
    assert doc["qfi"] == pytest.approx(4.99300e-4, rel=1e-5)
    assert emitterfisher.qfi(s, d).qfi == pytest.approx(4.99479e-4, rel=1e-5)
    assert doc["cfi"] == pytest.approx(1 / (doc["fisher_predicted_variance"] * 5000), rel=1e-12)


def test_simulate_warns_once_outside_the_paraxial_regime(two_collector, tmp_path):
    # The truth (offsets 12.5 > 0.1 z0) and the search interval are checked
    # once, by the sweep; the values at the truth check nothing again.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("simulate", "--scenario", two_collector, "--direction", "separation-x",
                       "--interferometer", "bs_phase:0.0", "--photons", "2000", "--trials", "5",
                       "--seed", "1", "--theta-true", "25.0",
                       "--out", str(tmp_path / "sim.json")) == EXIT_OK
    assert len([w for w in caught if "paraxial mode" in str(w.message)]) == 1


SIMULATE_ARGS = ("--interferometer", "bs_phase:0.0", "--photons", "3000", "--trials", "6",
                 "--seed", "5", "--theta-true", "1.0")

HEAD = ["command", "scenario_digest", "direction"]
DOCUMENT_KEYS = {
    "qfi": HEAD + ["qfi", "convergence"],
    "cfi": HEAD + ["interferometer", "qfi", "cfi", "saturation_ratio", "convergence"],
    "design": HEAD + ["interferometer", "probabilities", "saturation_ratio"],
    "saturate": HEAD + [
        "delta_theta", "quantum_fidelity", "classical_fidelity", "qfi_estimate",
        "cfi_estimate", "saturation_ratio", "unitarity_residual",
        "lower_triangular_residual", "upper_triangular_residual",
        "diagonal_product_residual", "scalar_product_residual", "pivoted", "structure_ok",
    ],
    "qfimatrix": ["command", "scenario_digest", "target", "qfi_matrix", "finite_difference",
                  "max_relative_error"],
    "simulate": HEAD + [
        "interferometer", "qfi", "cfi", "theta_hat", "log_likelihood",
        "fisher_predicted_variance", "empirical_variance", "trials", "crb_ratio",
    ],
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_KEYS))
def test_document_key_order(command, tmp_path):
    scenario = "four_collector.scn" if command == "saturate" else "two_collector.scn"
    extra = {"cfi": SIMULATE_ARGS[:2], "simulate": SIMULATE_ARGS}.get(command, ())
    out = tmp_path / "doc.json"
    code = run_cli(command, "--scenario", str(bundled_scenario_path(scenario)),
                   "--direction", "separation-x", *extra, "--out", str(out))
    assert code == EXIT_OK
    assert list(read_json(out)) == DOCUMENT_KEYS[command]


def test_simulate_angular_scales_information_only(two_collector, tmp_path):
    plain, angular = tmp_path / "plain.json", tmp_path / "angular.json"
    base = ("simulate", "--scenario", two_collector, "--direction", "separation-x",
            *SIMULATE_ARGS)
    assert run_cli(*base, "--out", str(plain)) == EXIT_OK
    assert run_cli(*base, "--angular", "--out", str(angular)) == EXIT_OK
    a, b = read_json(plain), read_json(angular)
    z0_squared = 100.0**2
    assert b["qfi"] == a["qfi"] * z0_squared
    assert b["cfi"] == a["cfi"] * z0_squared
    for key in ("theta_hat", "fisher_predicted_variance", "empirical_variance", "crb_ratio"):
        assert b[key] == a[key]
    assert (tmp_path / "plain.csv").read_text() == (tmp_path / "angular.csv").read_text()


def test_unknown_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "mode: paraxial\nk: 1.0\nz0: 100.0\naperture: 7\n"
        "sources:\n  - {x: 0, y: 0, z: 0}\ncollectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n"
    )
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    assert "aperture" in capsys.readouterr().err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = run_cli("qfi", "--scenario", str(tmp_path / "nope.scn"), "--direction", "separation-x")
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.scn" in err


def test_yaml_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("mode: paraxial\nk: [1.0\n")
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot load scenario file {bad}")


@pytest.mark.parametrize("value", ["!!float", "!!int abc", "!!bool", "!!timestamp x"])
def test_unreadable_tagged_value_exits_2(value, tmp_path, capsys):
    # PyYAML's constructor raises IndexError, ValueError, KeyError or
    # AttributeError for these, not a YAMLError.
    bad = tmp_path / "tagged.scn"
    bad.write_text(
        f"mode: paraxial\nk: {value}\nz0: 100.0\n"
        "sources:\n  - {x: 0, y: 0, z: 0}\ncollectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n"
    )
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot load scenario file {bad}")


@pytest.mark.parametrize("source, k", [
    ("{x: 0, y: 0, z: 0}", "abc"),
    ("{x: null, y: 0, z: 0}", "1.0"),
    ("{x: 0, y: 0, z: 0}", "[1, 2]"),
    # An integer too large for a float.
    pytest.param("{x: 0, y: 0, z: 0}", "1" + "0" * 400, id="huge-int"),
])
def test_non_numeric_value_exits_2(source, k, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        f"mode: paraxial\nk: {k}\nz0: 100.0\n"
        f"sources:\n  - {source}\ncollectors:\n  - {{u: 1, v: 0}}\n  - {{u: -1, v: 0}}\n"
    )
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("source, k", [
    ("{x: yes, y: 0, z: 0}", "1.0"),
    ("{x: 0, y: 0, z: 0, weight: true}", "1.0"),
    ("{x: 0, y: 0, z: 0}", "on"),
], ids=["x-yes", "weight-true", "k-on"])
def test_boolean_value_exits_2(source, k, tmp_path, capsys):
    # YAML reads yes, true and on as booleans, which are not numbers.
    bad = tmp_path / "bad.scn"
    bad.write_text(
        f"mode: paraxial\nk: {k}\nz0: 100.0\n"
        f"sources:\n  - {source}\ncollectors:\n  - {{u: 1, v: 0}}\n  - {{u: -1, v: 0}}\n"
    )
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "must be a number" in err


@pytest.mark.parametrize("mode", ["fresnel", "3", "[exact]", "null"])
def test_bad_mode_exits_2(mode, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        f"mode: {mode}\nk: 1.0\nz0: 100.0\n"
        "sources:\n  - {x: 0, y: 0, z: 0}\ncollectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n"
    )
    code = run_cli("qfi", "--scenario", str(bad), "--direction", "x")
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: mode must be 'exact' or 'paraxial'")


def test_design_document_embeds_the_serialized_interferometer(tmp_path):
    path = bundled_scenario_path("four_collector.scn")
    out = tmp_path / "design.json"
    assert run_cli("design", "--scenario", str(path), "--direction", "separation-z",
                   "--out", str(out)) == EXIT_OK
    scenario = emitterfisher.load_scenario(path)
    R = emitterfisher.verify_saturation(
        scenario, emitterfisher.named_direction("separation-z", 2)).interferometer
    assert read_json(out)["interferometer"] == json.loads(interferometer_to_json(R))


def test_simulate_takes_photon_counts_exactly(two_collector, tmp_path, capsys, monkeypatch):
    # --photons 2**53 + 1 draws that many photons, not 2**53 (the two draws
    # differ by one photon); 2**63, more than the multinomial draw takes, is
    # a validation error.
    n = 2**53 + 1
    args = ("simulate", "--scenario", two_collector, "--direction", "separation-x",
            "--interferometer", "bs_phase:0", "--trials", "3", "--seed", "1", "--theta-true", "2.0")
    out = tmp_path / "sim.json"
    refined = spy_refine(monkeypatch)
    assert run_cli(*args, "--photons", str(n), "--out", str(out)) == EXIT_OK
    scenario = emitterfisher.load_scenario(two_collector)
    d = emitterfisher.named_direction("separation-x", 2)
    bs = emitterfisher.beam_splitter_with_phase(0.0)
    exact, rounded = (sweep_draws(scenario, d, bs, 2.0, m, 3, seed=1) for m in (n, n - 1))
    assert (exact != rounded).any()
    np.testing.assert_array_equal(refined[0], exact)
    aggregate, _ = emitterfisher.crb_sweep(scenario, d, bs, theta_true=2.0, n_photons=n, trials=3,
                                           seed=1)
    assert read_json(out)["theta_hat"] == aggregate.theta_hat
    capsys.readouterr()
    assert run_cli(*args, "--photons", str(2**63), "--out", str(out)) == EXIT_VALIDATION
    assert "n_photons must be below 2**63" in capsys.readouterr().err


def test_design_builds_base_amplitudes_once(monkeypatch, tmp_path, cold_loads):
    # design reports the measurement and its Fisher values, which need no
    # pair: on a cold scenario C and dC are built once, at the base
    # positions, and no C' is built; C, dC and the support SVD stay on the
    # loaded scenario, so a second design builds nothing and takes no SVD.
    import emitterfisher.fisher as fisher_mod
    import emitterfisher.geometry as geometry_mod

    path = bundled_scenario_path("four_collector.scn")
    base = emitterfisher.load_scenario(path).source_positions()
    builds, svds = [], []
    raw, svd = geometry_mod._raw_amplitudes, fisher_mod.support_svd

    def counted(rows, xyz, *args):
        builds.append((xyz, args[-1] is not None))
        return raw(rows, xyz, *args)

    def counted_svd(C):
        svds.append(C.shape)
        return svd(C)

    monkeypatch.setattr(geometry_mod, "_raw_amplitudes", counted)
    monkeypatch.setattr(fisher_mod, "support_svd", counted_svd)
    argv = ("design", "--scenario", str(path), "--direction", "separation-x",
            "--out", str(tmp_path / "design.json"))
    assert run_cli(*argv) == EXIT_OK
    assert [derivative for _, derivative in builds] == [True]
    np.testing.assert_array_equal(builds[0][0], base)
    assert svds == [(4, 2)]
    builds.clear()
    svds.clear()
    assert run_cli(*argv) == EXIT_OK
    assert builds == [] and svds == []


# Not the bundled disc: its design document alone takes about 10 s to write.
@pytest.mark.parametrize("name", ["two_collector.scn", "four_collector.scn"])
@pytest.mark.parametrize("direction", ["separation-x", "separation-z"])
def test_design_and_saturate_report_one_ratio(name, direction, tmp_path):
    # design and saturate report information_report's ratio of the
    # measurement bit for bit, and design the probabilities saturate holds.
    base = ("--scenario", str(bundled_scenario_path(name)), "--direction", direction)
    docs = {}
    for command in ("design", "saturate"):
        out = tmp_path / f"{command}.json"
        assert run_cli(command, *base, "--out", str(out)) == EXIT_OK
        docs[command] = read_json(out)
    assert docs["design"]["saturation_ratio"] == docs["saturate"]["saturation_ratio"]
    scenario = emitterfisher.load_scenario(bundled_scenario_path(name))
    d = emitterfisher.named_direction(direction, scenario.n_sources)
    report = emitterfisher.verify_saturation(scenario, d)
    info = emitterfisher.information_report(scenario, d, report.interferometer)
    assert docs["saturate"]["saturation_ratio"] == info.saturation_ratio
    assert docs["design"]["probabilities"] == report.probabilities.tolist()


def test_simulate_builds_the_truth_once(monkeypatch, tmp_path):
    # The sweep builds C and dC at --theta-true once, and takes its CFI,
    # its QFI (the one support SVD) and the draw probabilities from that
    # build; the likelihood grid and three refinement steps, the first at
    # the vertex of each trial's grid parabola, build the rest.
    # The CLI only formats the sweep's result.
    import emitterfisher.fisher as fisher_mod
    import emitterfisher.geometry as geometry_mod

    four = emitterfisher.load_scenario(bundled_scenario_path("four_collector.scn"))
    d = emitterfisher.named_direction("separation-x", 2)
    truth = four.source_positions() + d.a.reshape(2, 3) * (d.parameter_scale * 0.5)
    builds, svd_callers = [], []
    raw, svd = geometry_mod._raw_amplitudes, fisher_mod.support_svd

    def counted(rows, xyz, *args):
        builds.append((xyz, args[-1] is not None))
        return raw(rows, xyz, *args)

    def counted_svd(C):
        svd_callers.append(sys._getframe(1).f_globals["__name__"])
        return svd(C)

    monkeypatch.setattr(geometry_mod, "_raw_amplitudes", counted)
    monkeypatch.setattr(fisher_mod, "support_svd", counted_svd)
    assert run_cli("simulate", "--scenario", str(bundled_scenario_path("four_collector.scn")),
                   "--direction", "separation-x", "--interferometer", "qft", "--trials", "20",
                   "--theta-true", "0.5", "--out", str(tmp_path / "sim.json")) == EXIT_OK
    assert len(builds) == 5
    at_truth = [derivative for xyz, derivative in builds
                if xyz.shape == truth.shape and np.array_equal(xyz, truth)]
    assert at_truth == [True]
    assert svd_callers == ["emitterfisher.estimation"]


def test_parser_built_once_per_process(two_collector, monkeypatch, tmp_path):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        for name in ("a.json", "b.json"):
            assert run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x",
                           "--out", str(tmp_path / name)) == EXIT_OK
        # One top-level parser (plus one per subcommand), for both calls.
        assert constructed.count("emitterfisher") == 1
    finally:
        build_parser.cache_clear()


def run_fresh_interpreter(*argv):
    """`python -m emitterfisher.cli ARGV` in a new process, on this checkout's package."""
    src = str(Path(emitterfisher.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "emitterfisher.cli", *argv], env=env,
                          capture_output=True, text=True)


def test_subprocess_document_matches_in_process(two_collector, capsys):
    # `python -m emitterfisher.cli` goes through a fresh interpreter's
    # imports, which in-process calls never see; its document is the same.
    argv = ["qfi", "--scenario", two_collector, "--direction", "separation-x"]
    child = run_fresh_interpreter(*argv)
    assert child.returncode == EXIT_OK, child.stderr
    assert run_cli(*argv) == EXIT_OK
    in_process = capsys.readouterr().out
    assert child.stdout == in_process
    assert json.loads(child.stdout)["scenario_digest"] == json.loads(in_process)["scenario_digest"]


DOCUMENT_ARGV = {
    "qfi": ["--direction", "separation-z"],
    "cfi": ["--direction", "separation-z", "--interferometer", "qft"],
    "design": ["--direction", "separation-z"],
    "saturate": ["--direction", "separation-x"],
    "qfimatrix": [],
}


def test_documents_identical_on_reload_and_in_a_fresh_interpreter(tmp_path):
    # A copy of four_collector no earlier load has seen: the first call in
    # this process parses it, the second is served from memory, and a fresh
    # interpreter parses it again; all three write the same bytes.
    scenario = tmp_path / "four.scn"
    scenario.write_bytes(bundled_scenario_path("four_collector.scn").read_bytes()
                         + f"# {tmp_path}\n".encode())
    for command, extra in DOCUMENT_ARGV.items():
        argv = [command, "--scenario", str(scenario), *extra]
        documents = []
        for run in ("miss", "hit", "fresh"):
            out = tmp_path / f"{command}-{run}.json"
            if run == "fresh":
                child = run_fresh_interpreter(*argv, "--out", str(out))
                assert child.returncode == EXIT_OK, child.stderr
            else:
                assert run_cli(*argv, "--out", str(out)) == EXIT_OK
            documents.append(out.read_bytes())
        assert documents[0] == documents[1] == documents[2], command


def test_bad_direction_exits_2(two_collector, capsys):
    code = run_cli("qfi", "--scenario", two_collector, "--direction", "diagonal-q")
    assert code == EXIT_VALIDATION


def test_negative_seed_exits_2_without_a_traceback(two_collector):
    child = run_fresh_interpreter("simulate", "--scenario", two_collector, "--direction",
                                  "separation-x", *SIMULATE_ARGS, "--seed", "-1")
    assert child.returncode == EXIT_VALIDATION
    assert child.stderr.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in child.stderr
    assert child.stdout == ""


def test_truth_beyond_the_interval_resolution_exits_2(two_collector, tmp_path, capsys):
    # At 1e17 the search interval (+- 0.6) rounds to one double: a validation
    # error naming the lost resolution, not a non-identifiable parameter.
    code = run_cli("simulate", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", "bs_phase:0", "--photons", "100000", "--trials", "3",
                   "--seed", "1", "--theta-true", "1e17", "--out", str(tmp_path / "sim.json"))
    assert code == EXIT_VALIDATION
    assert "has no resolution" in capsys.readouterr().err
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("spec", ["bs_phase:abc", "bs_phase:nan", "qft:3", "identity:x"])
def test_bad_interferometer_argument_exits_2(spec, two_collector, capsys):
    code = run_cli("cfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", spec)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


def test_interferometer_file_round_trip(two_collector, tmp_path):
    doc = interferometer_to_json(identity_interferometer(2))
    path = tmp_path / "ident.json"
    path.write_text(doc)
    out = tmp_path / "out.json"
    code = run_cli("cfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", str(path), "--out", str(out))
    # identity measurement carries no information here: cfi 0, ratio 0
    assert code == EXIT_OK
    assert read_json(out)["cfi"] == pytest.approx(0.0, abs=1e-10)


def test_wrong_size_interferometer_exits_2(two_collector, tmp_path, capsys):
    path = tmp_path / "ident3.json"
    path.write_text(interferometer_to_json(identity_interferometer(3)))
    code = run_cli("cfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", str(path))
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("content", [
    b"\xff\xfe",
    b'{"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    b'{"matrix": [[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]}',
    b'{"matrix": [[[1e999, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    b'{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "alpha": NaN}',
    b'{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "n_modes": 5}',
], ids=["not-utf8", "nan", "infinity", "overflow", "nan-alpha", "n-modes"])
def test_unreadable_interferometer_file_exits_2(content, two_collector, tmp_path, capsys):
    # Bytes that are not UTF-8, entries json reads as non-finite, a
    # non-finite alpha and an n_modes that is not the matrix size are a
    # malformed document, not a numerical failure.
    path = tmp_path / "R.json"
    path.write_bytes(content)
    code = run_cli("cfi", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", str(path))
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv, unwritable", [
    (["qfi", "--out", "{missing}/doc.json"], "{missing}/doc.json"),
    (["simulate", *SIMULATE_ARGS, "--out", "{missing}/doc.json"], "{missing}/doc.csv"),
    (["simulate", *SIMULATE_ARGS, "--gnuplot-dat", "{missing}/trials.dat"],
     "{missing}/trials.dat"),
], ids=["out", "simulate-csv", "gnuplot-dat"])
def test_unwritable_output_path_exits_2(argv, unwritable, two_collector, tmp_path, capsys):
    missing = tmp_path / "no-such-directory"
    argv = [a.format(missing=missing) for a in argv]
    code = run_cli(argv[0], "--scenario", two_collector, "--direction", "separation-x", *argv[1:])
    assert code == EXIT_VALIDATION
    expected = f"error: cannot write {unwritable.format(missing=missing)}"
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("argv, unwritable", [
    (["--out", "{missing}/doc.json"], "{missing}/doc.csv"),
    (["--gnuplot-dat", "{missing}/trials.dat"], "{missing}/trials.dat"),
], ids=["simulate-csv", "gnuplot-dat"])
def test_simulate_checks_output_paths_before_the_sweep(argv, unwritable, two_collector,
                                                       monkeypatch, tmp_path, capsys):
    import emitterfisher.cli as cli_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("crb_sweep ran before the output paths were checked")

    monkeypatch.setattr(cli_mod.estimation, "crb_sweep", no_sweep)
    missing = tmp_path / "no-such-directory"
    code = run_cli("simulate", "--scenario", two_collector, "--direction", "separation-x",
                   *SIMULATE_ARGS, *[a.format(missing=missing) for a in argv])
    assert code == EXIT_VALIDATION
    expected = f"error: cannot write {unwritable.format(missing=missing)}"
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_value_exits_3_without_a_document(value, two_collector, monkeypatch, capsys):
    import emitterfisher.cli as cli_mod
    from emitterfisher.fisher import FisherReport

    monkeypatch.setattr(cli_mod.fisher, "qfi", lambda scenario, direction: FisherReport(
        direction=direction, qfi=value))
    code = run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x")
    assert code == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert "NaN" not in out + err and "Infinity" not in out + err
    assert out == "" and err.startswith("numerical error: ")


def test_gnuplot_dat_output(two_collector, tmp_path):
    dat = tmp_path / "trials.dat"
    code = run_cli("simulate", "--scenario", two_collector, "--direction", "separation-x",
                   "--interferometer", "bs_phase:0.0", "--photons", "2000", "--trials", "4",
                   "--theta-true", "2.0", "--out", str(tmp_path / "r.json"),
                   "--gnuplot-dat", str(dat))
    assert code == EXIT_OK
    lines = dat.read_text().strip().splitlines()
    assert lines[0] == "# trial theta_hat"
    assert len(lines) == 5
    floats = [float(x) for x in lines[1].split()]
    assert len(floats) == 2
    # Only simulate writes columnar data; the other commands reject the flag.
    with pytest.raises(SystemExit):
        run_cli("qfi", "--scenario", two_collector, "--direction", "separation-x",
                "--gnuplot-dat", str(dat))


def test_design_interferometer_round_trip_dark_ports(tmp_path):
    # The designed measurement leaves two of four ports dark; fed back to
    # `cfi` it must reach the QFI through the dark-port limit.
    four = str(bundled_scenario_path("four_collector.scn"))
    design = tmp_path / "design.json"
    assert run_cli("design", "--scenario", four, "--direction", "separation-z",
                   "--out", str(design)) == EXIT_OK
    doc = read_json(design)
    assert sum(p < 1e-26 for p in doc["probabilities"]) == 2
    matrix = tmp_path / "R.json"
    matrix.write_text(json.dumps(doc["interferometer"]))
    out = tmp_path / "cfi.json"
    code = run_cli("cfi", "--scenario", four, "--direction", "separation-z",
                   "--interferometer", str(matrix), "--out", str(out))
    assert code == EXIT_OK
    result = read_json(out)
    assert result["qfi"] == pytest.approx(4e-8, rel=1e-3)
    assert 1 - 1e-5 <= result["saturation_ratio"] <= 1 + 1e-6


def stdlib_json(value):
    return json.dumps(value, indent=2, allow_nan=False)


_json_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1])
_json_strings = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f\n\t\"\\/", "é ünïcødé \u2028 \U0001f642", "\ud800"])
_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
                | _json_floats | _json_strings)
_json_keys = _json_strings | st.integers() | _json_floats | st.booleans() | st.none()
_json_values = st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_json_keys, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(value=_json_values)
def test_document_encoder_matches_json_dumps(value):
    assert _json(value) == stdlib_json(value)


def test_document_encoder_writes_numpy_floats_as_json_does():
    value = {"a": np.float64(0.1), "b": [np.float64(-0.0), np.float64(5e-324), 1e16],
             np.float64(2.5): (np.float64(1e-7), [np.float64(1e300)])}
    assert _json(value) == stdlib_json(value)


@pytest.mark.parametrize("value, error", [
    (math.nan, ValueError),
    (math.inf, ValueError),
    ([1.0, -math.inf], ValueError),
    ({"a": [np.float64(math.nan)]}, ValueError),
    ({math.nan: 1}, ValueError),
    (np.int64(3), TypeError),
    ([1, np.int64(3)], TypeError),
    ({(1, 2): 3}, TypeError),
    ({"a": {1, 2}}, TypeError),
], ids=["nan", "inf", "-inf-in-list", "np-nan", "nan-key", "np.int64", "np.int64-in-list",
        "tuple-key", "set"])
def test_document_encoder_raises_as_json_dumps_does(value, error):
    with pytest.raises(error) as expected:
        stdlib_json(value)
    with pytest.raises(error) as raised:
        _json(value)
    assert str(raised.value) == str(expected.value)


def parse_outcome(parse, argv, capsys):
    """What parsing argv does: the parsed arguments or the exit code, and the text written."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["frobnicate", "--scenario", "s.scn"],
    ["qfi"],
    ["qfi", "--direction", "x"],
    ["qfi", "--scenario", "s.scn", "--direction", "x", "--bogus"],
    ["qfi", "extra", "--scenario", "s.scn", "--bogus", "-q"],
    ["simulate", "--scenario", "s.scn", "--direction", "x", "--interferometer", "qft",
     "--trials", "abc"],
    ["qfi", "-h"],
    ["simulate", "--scenario", "s.scn", "--help"],
    ["qfi", "--scen", "s.scn", "--dir", "separation-x"],
    ["cfi", "--scen=s.scn", "--dir", "x", "--inter", "qft", "--ang", "--o", "doc.json"],
    ["qfimatrix", "--scenario", "s.scn", "--", "x"],
    ["--scenario", "s.scn", "qfi"],
], ids=["no-arguments", "help", "unknown-command", "qfi-without-scenario",
        "qfi-without-scenario-with-direction", "unrecognized-option", "unrecognized-several",
        "trials-abc", "qfi-help", "simulate-help", "prefix-options", "prefix-options-equals",
        "double-dash", "option-before-command"])
def test_command_parsed_as_the_top_level_parser_parses_it(argv, capsys):
    expected = parse_outcome(build_parser().parse_args, argv, capsys)
    assert parse_outcome(_parse_args, argv, capsys) == expected


@pytest.mark.parametrize("angular", [False, True], ids=["linear", "angular"])
@pytest.mark.parametrize("name", ["two_collector.scn", "four_collector.scn"])
def test_every_document_is_json_dumps_of_itself(name, angular, tmp_path):
    # Each document is the stdlib's indented text of its own content.
    scenario = str(bundled_scenario_path(name))
    design = tmp_path / "design.json"
    assert run_cli("design", "--scenario", scenario, "--direction", "separation-z",
                   "--out", str(design)) == EXIT_OK
    matrix = tmp_path / "R.json"
    matrix.write_text(json.dumps(read_json(design)["interferometer"]))
    runs = {
        "qfi": ["qfi", "--direction", "separation-x"],
        "cfi-qft": ["cfi", "--direction", "separation-z", "--interferometer", "qft"],
        "cfi-identity": ["cfi", "--direction", "separation-x", "--interferometer", "identity"],
        "cfi-design": ["cfi", "--direction", "separation-z", "--interferometer", str(matrix)],
        "design": ["design", "--direction", "separation-z"],
        "saturate": ["saturate", "--direction", "separation-x"],
        "qfimatrix": ["qfimatrix"],
        "simulate": ["simulate", "--direction", "separation-x", "--interferometer", "qft",
                     "--photons", "3000", "--trials", "6", "--theta-true", "0.5"],
    }
    for run, argv in runs.items():
        out = tmp_path / f"{run}.json"
        code = run_cli(*argv, "--scenario", scenario, *(["--angular"] if angular else []),
                       "--out", str(out))
        assert code == EXIT_OK, run
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", run
