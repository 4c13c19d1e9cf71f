"""The package namespace and its ``__all__``, and how result records compare."""

import types

import numpy as np
import pytest

import emitterfisher
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


def test_public_names_match_all():
    # A name retired from the imports but not from __all__ (or the reverse)
    # fails here: every listed name resolves, and every public non-module
    # name bound in the package is listed.
    listed = emitterfisher.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(emitterfisher, name)] == []
    bound = {
        name for name, value in vars(emitterfisher).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(listed)) == []


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
