"""Solve 3000 random population spectra; exit 1 naming each draw that fails.

The draws copy the mixtures() family of test_stieltjes.py in numpy: up to
three atoms and two uniform segments, weights from [0.05, 1] normalised,
locations in [0.2, 10], widths in [0.05, 5], gamma in [0.1, 0.9] or
[1.1, 200], from default_rng(2).  60% of the locations and widths snap to the
nearest positive multiple of 1/4, so that atoms and segment ends coincide as
they do in hypothesis's shrunk examples.  Each draw is solved by
solve_density at num_points=1500 with RuntimeWarning as an error; a draw
fails if the solve raises or warns.  Not collected by pytest (about 20 s on
two cores); run it as

    PYTHONPATH=src python tests/sweep_spectra.py
"""

from __future__ import annotations

import sys
import time
import warnings

import numpy as np

from mpshrink import spectrum, stieltjes

DRAWS, SEED = 3000, 2


def draw(rng):
    """(atoms, segments, gamma) of one mixture."""
    def snap(x):
        return max(round(4.0 * x), 1) / 4.0 if rng.random() < 0.6 else x
    n_atoms = int(rng.integers(0, 4))
    n_segs = int(rng.integers(0 if n_atoms else 1, 3))
    raw = rng.uniform(0.05, 1.0, n_atoms + n_segs)
    w = [r / sum(raw) for r in raw]
    w[-1] = 1.0 - sum(w[:-1])
    atoms = [(float(w[i]), snap(rng.uniform(0.2, 10.0))) for i in range(n_atoms)]
    segments = []
    for j in range(n_segs):
        lo = snap(rng.uniform(0.2, 10.0))
        segments.append((float(w[n_atoms + j]), lo, lo + snap(rng.uniform(0.05, 5.0))))
    gamma = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 200.0)
    return atoms, segments, float(gamma)


def main() -> int:
    rng, failed, start = np.random.default_rng(SEED), 0, time.perf_counter()
    for k in range(DRAWS):
        atoms, segments, gamma = draw(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                stieltjes.solve_density(spectrum.validate(atoms, segments), gamma,
                                        num_points=1500)
        except Exception as err:
            failed += 1
            print(f"draw {k}: atoms={atoms} segments={segments} gamma={gamma!r}: "
                  f"{type(err).__name__}: {err}")
    print(f"{failed} of {DRAWS} draws failed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
