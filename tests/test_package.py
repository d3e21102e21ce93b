"""The package's name lists: ``__all__`` against what ``__init__`` imports."""

from __future__ import annotations

import inspect
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


def test_integral_and_derivative_entries_take_the_same_parameters():
    # the derivative is the integral at order -alpha, so every rlfi_X entry
    # has an rlfd_X twin called with the same parameters
    rlfi = sorted(n for n in rlpower.__all__ if n.startswith("rlfi_"))
    rlfd = sorted(n for n in rlpower.__all__ if n.startswith("rlfd_"))
    twins = {n: "rlfd_" + n[len("rlfi_"):].removesuffix("_displaced")
             for n in rlfi}
    assert sorted(twins.values()) == rlfd

    def params(name):
        return list(inspect.signature(getattr(rlpower, name)).parameters.values())

    differ = [d for i, d in twins.items() if params(i) != params(d)]
    assert differ == []
