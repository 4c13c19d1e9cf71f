"""The package namespace and its ``__all__``, what its import loads, the source's
grammar floor, and how result records compare."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import emitterfisher
from emitterfisher import estimation, fisher, geometry, interferometer, scenarios
from emitterfisher import (
    ParaxialTarget,
    build_amplitude_matrix,
    bundled_scenario_path,
    displace,
    generator_moments,
    load_scenario,
    named_direction,
    qfi,
    qfi_matrix_consistency,
    qft_interferometer,
    sample_detections,
    synthesize_optimal_interferometer,
    verify_saturation,
)
from emitterfisher.interferometer import svd_alignment


PACKAGE = Path(emitterfisher.__file__).parent
MODULES = (estimation, fisher, geometry, interferometer, scenarios)


def test_public_names_match_all():
    # Every listed name resolves, and every public non-module name bound in
    # the package is listed.
    listed = emitterfisher.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(emitterfisher, name)] == []
    bound = {
        name for name, value in vars(emitterfisher).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(listed)) == []


def test_each_public_name_is_defined_by_one_module():
    # The package's __all__ is the union of its modules' lists, each name in
    # exactly one of them, and the package binds the module's own object.
    assert sorted(emitterfisher.__all__) == sorted(n for m in MODULES for n in m.__all__)
    for name in emitterfisher.__all__:
        (module,) = [m for m in MODULES if name in m.__all__]
        assert getattr(emitterfisher, name) is getattr(module, name)


def test_package_init_lists_no_name():
    # __init__.py re-exports by star import and builds __all__ from the
    # modules' lists, so no public name is written in it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            assert [alias.name for alias in node.names] == ["*"]
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings & set(emitterfisher.__all__) == set()


def test_source_parses_at_the_oldest_supported_python():
    # requires-python is read with a pattern, not tomllib, which is 3.11+.
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M)
    version = (int(floor[1]), int(floor[2]))
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_import_does_not_load_numpy_random():
    # numpy.random is loaded when a sweep or a draw first runs, not by the import:
    # perfbench times the import as setup_s.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    code = "import sys, emitterfisher; assert 'numpy.random' not in sys.modules, 'loaded'"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


def _pair():
    return load_scenario(bundled_scenario_path("four_collector.scn"))


def _synthesis():
    s, d = _pair(), named_direction("separation-x", 2)
    return synthesize_optimal_interferometer(build_amplitude_matrix(s),
                                             build_amplitude_matrix(displace(s, d, 1e-4)))


@pytest.mark.parametrize("build", [
    lambda: named_direction("separation-x", 2),
    lambda: qfi(_pair(), named_direction("separation-x", 2)),
    lambda: verify_saturation(_pair(), named_direction("separation-x", 2)),
    _synthesis,
    lambda: qfi_matrix_consistency(_pair(), ParaxialTarget.TWO_SOURCE_SEPARATION),
    lambda: sample_detections(_pair(), named_direction("separation-x", 2), 0.0,
                              qft_interferometer(4), 100, seed=1),
    lambda: generator_moments(_pair().collectors, 1.0, 100.0),
    lambda: svd_alignment(np.eye(2)),
], ids=["GeneralizedCoordinate", "FisherReport", "SaturationReport", "SynthesisResult",
        "ConsistencyReport", "DetectionRecord", "GeneratorMoments", "SvdAlignment"])
def test_result_records_compare_and_hash_by_identity(build):
    # Records that hold arrays compare as objects: two equal builds are two
    # records, and neither comparing nor hashing reads an array.
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second}) == 2
