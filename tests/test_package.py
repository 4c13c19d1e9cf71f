"""The package namespace and its ``__all__`` list the same public names."""

import types

import emitterfisher


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
