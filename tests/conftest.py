"""Shared fixtures: the cross-route evaluation grid and comparison helpers."""

from __future__ import annotations

import math
from typing import NamedTuple

import pytest

import rlpower as rl


def rel_err(x: float, ref: float) -> float:
    """|x - ref| scaled by max(1, |ref|); the agreement metric used throughout."""
    return abs(x - ref) / max(1.0, abs(ref))


class GridCase(NamedTuple):
    pf: rl.PowerFunction
    win: rl.EvalWindow
    a: float
    alpha: float
    t: float
    frac: float   # position inside the window, 0 < frac < 1


_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
_FRACS = (0.35, 0.75, 0.9)

# (beta, allowed below the shift)
_BETAS = (
    (rl.beta_int(-3), True),
    (rl.beta_int(-2), True),
    (rl.beta_int(-1), True),
    (rl.beta_int(0), True),
    (rl.beta_int(2), True),
    (rl.beta_int(3), True),
    (rl.beta_rational(1, 2), False),
    (rl.beta_rational(3, 2), False),
    (rl.beta_rational(-1, 2), False),
    (rl.beta_rational(2, 3), True),
    (rl.beta_rational(-5, 3), False),
    (rl.beta_real(math.sqrt(2.0)), False),
    (rl.beta_real(-1.5), False),
    (rl.beta_real(math.pi), False),
    (rl.beta_real(-0.8), False),
)

# (d, a) placements: two above the shift, one below
_ABOVE = ((0.0, 1.0), (0.5, 2.5))
_BELOW = ((2.0, 1.0),)


def build_grid() -> list[GridCase]:
    cases = []
    for beta, below_ok in _BETAS:
        placements = list(_ABOVE) + (list(_BELOW) if below_ok else [])
        for d, a in placements:
            pf = rl.power_function(d, beta)
            win = rl.make_window(a, pf)
            width = win.t_sup - win.t_min
            for alpha in _ALPHAS:
                for frac in _FRACS:
                    t = a + frac * width
                    cases.append(GridCase(pf, win, a, alpha, t, frac))
    return cases


@pytest.fixture(scope="session")
def grid() -> list[GridCase]:
    cases = build_grid()
    assert len(cases) >= 500
    return cases


@pytest.fixture(scope="session")
def oracle_values(grid) -> list[float]:
    """Definition-level integral value for every grid tuple, computed once."""
    return [rl.quad_rlfi(c.pf, c.a, c.alpha, c.t).value for c in grid]


def nonterminating(case: GridCase) -> bool:
    """True when the integral series of this tuple is genuinely infinite."""
    beta = case.pf.beta
    return not (isinstance(beta, rl.IntegerExp) and beta.m >= 0)


@pytest.fixture(scope="session")
def deep_window_idx(grid) -> list[int]:
    """Indices of non-terminating tuples at the deepest grid position
    (frac 0.9), where the tail bound stays far above oracle noise out to
    p = 50; terminating polynomials have a zero tail and nothing to bound."""
    picked = [i for i, c in enumerate(grid)
              if c.frac == 0.9 and nonterminating(c)]
    assert len(picked) >= 100
    return picked[:100]
