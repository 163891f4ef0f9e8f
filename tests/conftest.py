from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mpshrink import spectrum as spectrum_mod
from mpshrink import stieltjes as stieltjes_mod

SOLUTION_POINTS = 2400


@pytest.fixture(scope="session")
def spec_d1():
    return spectrum_mod.point_mass(1.0)


@pytest.fixture(scope="session")
def spec_204040():
    return spectrum_mod.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])


@pytest.fixture(scope="session")
def spec_unif56():
    return spectrum_mod.uniform(5.0, 6.0)


@pytest.fixture(scope="session")
def solutions(spec_d1, spec_204040, spec_unif56):
    """Session-wide cache of StieltjesSolution objects keyed (name, gamma);
    "uhard" is U[0.01, 10], whose lower edge is hard at large gamma."""
    specs = {"d1": spec_d1, "204040": spec_204040, "unif56": spec_unif56,
             "uhard": spectrum_mod.uniform(0.01, 10.0)}
    cache: dict[tuple[str, float], stieltjes_mod.StieltjesSolution] = {}

    def get(name: str, gamma: float) -> stieltjes_mod.StieltjesSolution:
        key = (name, float(gamma))
        if key not in cache:
            cache[key] = stieltjes_mod.solve_density(specs[name], gamma,
                                                     num_points=SOLUTION_POINTS)
        return cache[key]

    def put(name: str, gamma: float,
            sol: stieltjes_mod.StieltjesSolution) -> None:
        cache[(name, float(gamma))] = sol

    get.specs = specs
    get.put = put
    return get


def interior_points(solution, n: int, margin_frac: float = 0.02) -> np.ndarray:
    """n points spread over the support intervals, margins trimmed."""
    pieces = []
    total = sum(hi - lo for lo, hi in solution.support)
    for lo, hi in solution.support:
        width = hi - lo
        m = margin_frac * width
        k = max(3, int(round(n * width / total)))
        pieces.append(np.linspace(lo + m, hi - m, k))
    return np.concatenate(pieces)[:n] if pieces else np.array([])
