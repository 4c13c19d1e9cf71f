"""Bundled reference scenarios used by the CLI, tests and documentation."""

from importlib import resources
from pathlib import Path

__all__ = ["bundled_scenario_path", "bundled_scenarios"]

_NAMES = ("two_collector.scn", "four_collector.scn", "disc_aperture_r1.scn")


def bundled_scenarios() -> dict[str, Path]:
    """Mapping of bundled scenario names to their on-disk paths."""
    base = resources.files(__package__)
    return {name: Path(str(base / name)) for name in _NAMES}


def bundled_scenario_path(name: str) -> Path:
    paths = bundled_scenarios()
    try:
        return paths[name]
    except KeyError:
        raise FileNotFoundError(
            f"no bundled scenario {name!r}; available: {sorted(paths)}"
        ) from None
