"""Helpers shared by the test modules."""

import numpy as np
import pytest

import emitterfisher.geometry as geometry
from emitterfisher import estimation

# A scenario file with one key given twice, at the top level or in a
# source, also next to a merge key (<<) that brings the key in once more:
# the file, the repeat, which the file is valid without, and the key.
REPEATED_KEY_FILES = {
    "merge-key": ("k: 1.0\nz0: 100.0\nsources:\n  - {<<: {x: 0.2, y: 0, z: 0}, x: 0.1, x: 9.0}\n"
                  "collectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n", ", x: 9.0", "x"),
    "top-level": ("k: 1.0\nz0: 100.0\nz0: 5.0\nsources:\n  - {x: 0.1, y: 0, z: 0}\n"
                  "collectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n", "z0: 5.0\n", "z0"),
    "source": ("k: 1.0\nz0: 100.0\nsources:\n  - {x: 0.1, y: 0, z: 0, x: 9.0}\n"
               "collectors:\n  - {u: 1, v: 0}\n  - {u: -1, v: 0}\n", ", x: 9.0", "x"),
}


@pytest.fixture
def cold_loads(monkeypatch):
    """Scenario loads in the test start from an empty memo.

    load_scenario hands every load of the same bytes one shared Scenario,
    which earlier tests may have warmed (amplitudes, SVD and digest kept on
    it).  With an empty memo the test's first load of a file builds a new
    Scenario with nothing kept, and its later loads, in-process CLI runs
    included, share that one.
    """
    monkeypatch.setattr(geometry, "_loaded", geometry._LoadedScenarios(geometry._loaded.max_bytes))


def crb_ratio_interval(trials, false_failure=1e-6):
    """Interval that an efficient sweep's crb_ratio leaves with probability ``false_failure``.

    For ``trials`` independent normal estimates of variance 1/(n CFI),
    crb_ratio = sample variance * n * CFI is distributed as
    chi2(trials - 1) / (trials - 1).  A test's fixed band must contain this
    interval at its trial count, or a correct program fails it too often.
    """
    from scipy.stats import chi2

    dof = trials - 1
    return chi2.ppf(false_failure / 2, dof) / dof, chi2.isf(false_failure / 2, dof) / dof


def sweep_draws(scenario, direction, R, theta_true, n_photons, trials, seed):
    """The photons of crb_sweep's trials: default_rng(seed)'s one draw of ``trials`` rows."""
    path, _ = estimation._probability_path(scenario, direction, R, theta_true)
    p_true = estimation._normalized(path([theta_true])[0])
    return np.random.default_rng(seed).multinomial(n_photons, p_true, size=trials)


def spy_refine(monkeypatch):
    """A list of the counts that each later call of estimation._refine refines, in call order."""
    refined, real_refine = [], estimation._refine

    def spy(counts, *args):
        refined.append(counts)
        return real_refine(counts, *args)

    monkeypatch.setattr(estimation, "_refine", spy)
    return refined
