"""The package's name lists: ``__all__`` against what ``__init__`` imports."""

from __future__ import annotations

import types

import rlpower


def test_all_lists_exactly_the_public_imports():
    names = rlpower.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(rlpower, name) for name in names)
    public = {name for name, obj in vars(rlpower).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert set(names) == public
