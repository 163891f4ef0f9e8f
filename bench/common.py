"""Shared pieces of the workloads: spectra, operations, seeds, checks."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# The ROADMAP case matrix: three population spectra, each as plain lists so
# that the independent references never see a package object.
SPECTRA = {
    "d1": {"atoms": [[1.0, 1.0]], "segments": []},
    "204040": {"atoms": [[0.2, 1.0], [0.4, 3.0], [0.4, 10.0]], "segments": []},
    "unif56": {"atoms": [], "segments": [[1.0, 5.0, 6.0]]},
}
GAMMAS = (0.5, 2.0, 10.0, 100.0)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: ``run`` calls the program (timed), ``check``
    verifies its result (untimed) and returns accuracy figures."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass
class Context:
    root: str
    seed: int
    workdir: str
    tracer: Any = None
    extra: dict = field(default_factory=dict)

    def seed_for(self, *keys: int) -> int:
        """A seed derived from the workload seed and integer keys."""
        ss = np.random.SeedSequence([self.seed, *keys])
        return int(ss.generate_state(1, dtype=np.uint32)[0])

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def spectrum_of(mod, name: str):
    """The package's PopulationSpectrum for one of SPECTRA."""
    doc = SPECTRA[name]
    return mod.validate(atoms=doc["atoms"], segments=doc["segments"])


def support_mask(grid: np.ndarray, edges) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    for lo, hi in edges:
        mask |= (grid >= lo) & (grid <= hi)
    return mask
