"""Population spectral distribution: weighted atoms plus uniform segments.

The distribution H is the limit of the empirical spectral distribution of the
population covariance matrix.  It is represented exactly as a finite mixture
of point masses and uniform densities.  Every integral against H of a rational
function of tau is algebra on one closed form, S(s) = integral of dH(t)/(t - s)
(_stieltjes_h) or, for the moments, its own closed form.  There is no
general integral against H: only functionals.theta_g, for flat() and a
weight without a closed form, sums over the Gauss-Legendre nodes of
quadrature_nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, MassNotOne, NonPositiveSupport

MASS_TOL = 1e-12
GAUSS_ORDER = 64  # pinned for bit-reproducibility


@dataclass(frozen=True)
class PopulationSpectrum:
    """Mixture representation of the limiting population spectral law H.

    atoms: tuple of (weight, location) point masses, sorted by location.
    segments: tuple of (weight, lo, hi) uniform pieces, density weight/(hi-lo).
    h1, h2: infimum and supremum of the support (h1 > 0); derived, as is
    columns: (n, 1) atom weights, locations, segment weights, lo, hi, densities.
    """

    atoms: tuple[tuple[float, float], ...]
    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        aw, at = np.reshape(np.array(self.atoms, float), (-1, 2)).T[:, :, None]
        sw, lo, hi = np.reshape(np.array(self.segments, float), (-1, 3)).T[:, :, None]
        self.__dict__.update(columns=(aw, at, sw, lo, hi, sw / (hi - lo)),
                             h1=float(np.concatenate([at, lo]).min()),
                             h2=float(np.concatenate([at, hi]).max()),
                             _hash=hash((self.atoms, self.segments)))

    def __hash__(self) -> int:
        return self._hash

    def to_json(self) -> str:
        return json.dumps({
            "atoms": [[w, t] for w, t in self.atoms],
            "segments": [[w, lo, hi] for w, lo, hi in self.segments],
        }, sort_keys=True)


def validate(atoms: Sequence[Sequence[float]] = (),
             segments: Sequence[Sequence[float]] = ()) -> PopulationSpectrum:
    """Build a normalized PopulationSpectrum from raw atom/segment lists.

    Zero-weight entries are dropped and components are sorted by location.

    Raises NonPositiveSupport if any mass sits at tau <= 0, ValueError at a
    location that is not finite, MassNotOne if a weight is negative or not
    finite, none is positive or they do not sum to 1 within 1e-12.
    """
    clean_atoms = []
    for w, t in atoms:
        w, t = float(w), float(t)
        if w < 0:
            raise MassNotOne(f"negative atom weight {w}")
        if w == 0.0:
            continue
        if t <= 0:
            raise NonPositiveSupport(f"atom at tau={t} <= 0")
        if not t < math.inf:
            raise ValueError(f"atom at tau={t} is not finite")
        clean_atoms.append((w, t))
    clean_segments = []
    for w, lo, hi in segments:
        w, lo, hi = float(w), float(lo), float(hi)
        if w < 0:
            raise MassNotOne(f"negative segment weight {w}")
        if w == 0.0:
            continue
        if lo <= 0 or hi <= 0:
            raise NonPositiveSupport(f"segment [{lo},{hi}] touches tau <= 0")
        if not lo < hi < math.inf:
            raise ValueError(f"segment [{lo},{hi}] needs finite ends, hi > lo")
        clean_segments.append((w, lo, hi))

    if not clean_atoms and not clean_segments:
        raise MassNotOne("empty spectrum")
    total = sum(w for w, _ in clean_atoms) + sum(w for w, _, _ in clean_segments)
    if not abs(total - 1.0) <= MASS_TOL:  # a NaN weight too
        raise MassNotOne(f"weights sum to {total!r}, expected 1 within {MASS_TOL}")

    # merge duplicate atoms, then sort everything by location
    merged: dict[float, float] = {}
    for w, t in clean_atoms:
        merged[t] = merged.get(t, 0.0) + w
    atoms_t = tuple(sorted(((w, t) for t, w in merged.items()), key=lambda a: a[1]))
    segs_t = tuple(sorted(clean_segments, key=lambda s: (s[1], s[2])))
    return PopulationSpectrum(atoms=atoms_t, segments=segs_t)


def point_mass(location: float) -> PopulationSpectrum:
    """H = delta_location."""
    return validate(atoms=[(1.0, location)])


def uniform(lo: float, hi: float) -> PopulationSpectrum:
    """H uniform on [lo, hi]."""
    return validate(segments=[(1.0, lo, hi)])


def from_json(doc) -> PopulationSpectrum:
    """The spectrum of a decoded {"atoms": [[w, tau], ...], "segments":
    [[w, lo, hi], ...]} object; TypeError if doc is not an object, holds a
    key but these two or an entry holds anything but numbers (a string or a
    boolean)."""
    if not isinstance(doc, dict) or not doc.keys() <= {"atoms", "segments"}:
        raise TypeError(f"expected an object of atoms and segments, got {doc!r}")
    atoms, segments = doc.get("atoms", ()), doc.get("segments", ())
    for entry in [*atoms, *segments]:
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in entry):
            raise TypeError(f"expected a list of numbers, got {entry!r}")
    return validate(atoms=atoms, segments=segments)


@lru_cache(maxsize=128)
def quadrature_nodes(spec: PopulationSpectrum,
                     split_points: tuple[float, ...] = ()
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Return (locations, weights) so that integral f dH ~= sum w_i f(x_i).

    Atoms contribute exactly; each segment contributes GAUSS_ORDER
    Gauss-Legendre nodes per panel, panels split at the given points; built
    here so that importing the package does not import numpy.polynomial.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    locs: list[float] = []
    wts: list[float] = []
    for w, t in spec.atoms:
        locs.append(t)
        wts.append(w)
    for w, lo, hi in spec.segments:
        cuts = [lo] + sorted(p for p in split_points if lo < p < hi) + [hi]
        dens = w / (hi - lo)
        for a, b in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            locs.extend(mid + half * gl_x)
            wts.extend(dens * half * gl_w)
    return np.asarray(locs, dtype=float), np.asarray(wts, dtype=float)


def _stieltjes_h(spec: PopulationSpectrum, s, upto: float = np.inf,
                 order: int = 2) -> list:
    """[S(s), S'(s), ...] up to the order-th derivative of S(s) = integral of
    dH(t) / (t - s), for an array of s off supp H, real for real s; upto
    restricts H to t <= upto, atoms at upto included.  To the j-th derivative
    an atom w at t adds j! w / (t - s)^(j+1), a segment [lo, hi] of density c
    (j-1)! c ((lo - s)^-j - (hi - s)^-j), and c log((hi - s) / (lo - s)) at
    j = 0, the principal log since the path t - s, t in [lo, hi], misses 0."""
    aw, at, _, lo, hi, c = spec.columns
    if upto < spec.h2:
        a, g = at[:, 0] <= upto, lo[:, 0] < upto
        aw, at, c, lo, hi = aw[a], at[a], c[g], lo[g], np.minimum(hi[g], upto)
    r = 1.0 / (at - s)
    wr = aw * r
    out = [wr.sum(0)]
    for j in range(1, order + 1):
        wr = wr * r * j
        out.append(wr.sum(0))
    if len(c):
        out[0] = out[0] + (c * np.log((hi - s) / (lo - s))).sum(0)
        r_lo, r_hi = 1.0 / (lo - s), 1.0 / (hi - s)
        for j in range(1, order + 1):
            out[j] += math.factorial(j - 1) * (c * (r_lo ** j - r_hi ** j)).sum(0)
    return out


@lru_cache(maxsize=512)
def moment(spec: PopulationSpectrum, k: int) -> float:
    """k-th moment of H in closed form, k < 0 allowed as 0 is off supp H; k = -1
    is S(0) (_stieltjes_h).  Else a segment [lo, hi] of weight c adds c (hi^(k+1)
    - lo^(k+1)) / ((k + 1)(hi - lo)), in expm1/log1p form: no cancellation."""
    if k == -1:
        return float(_stieltjes_h(spec, np.zeros(1), order=0)[0][0])
    aw, at, sw, lo, hi, _ = spec.columns
    r = np.log1p((lo - hi) / hi)  # log(lo / hi)
    return float(np.sum(aw * at ** k) + np.sum(
        sw * hi ** k * np.expm1((k + 1) * r) / ((k + 1) * np.expm1(r))))


def cdf(spec: PopulationSpectrum, x):
    """H(x) with the right-continuous convention (atoms at x included); x may
    be an array.  DomainError at NaN."""
    w, t, sw, lo, hi, _ = (col[:, 0] for col in spec.columns)
    x = np.asarray(x, dtype=float)[..., None]
    if np.isnan(x).any():
        raise DomainError("cdf of NaN")
    h = np.sum(w * (t <= x), axis=-1) \
        + np.sum(sw * np.clip((x - lo) / (hi - lo), 0.0, 1.0), axis=-1)
    return h if h.ndim else float(h)


def quantile(spec: PopulationSpectrum, q):
    """Smallest x with H(x) >= q, exact on the mixture representation; q may
    be an array.  H is inverted along its graph, which at each breakpoint
    rises from H just left of it to H at it, then runs linearly to the next."""
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError(f"quantile needs q in (0,1), got {q}")
    w, t, _, lo, hi, _ = (col[:, 0] for col in spec.columns)
    pts = np.unique(np.concatenate([t, lo, hi]))
    xs, right = np.repeat(pts, 2), cdf(spec, pts)
    hs = np.column_stack([right - np.sum(w * (t == pts[:, None]), axis=1),
                          right]).ravel()
    # the first vertex with H >= q, or the last one where the weights sum
    # to just under 1
    k = np.minimum(np.searchsorted(hs, q), len(hs) - 1)
    x0, h0, x1, h1 = xs[k - 1], hs[k - 1], xs[k], hs[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where((h1 <= q) | (x1 == x0), x1,
                     x0 + (q - h0) / ((h1 - h0) / (x1 - x0)))
    return x if x.ndim else float(x)


def population_eigenvalues(spec: PopulationSpectrum, N: int) -> np.ndarray:
    """Deterministic size-N discretization: quantiles at (j - 1/2)/N, ascending."""
    if N < 1:
        raise ValueError("N >= 1 required")
    return quantile(spec, (np.arange(N) + 0.5) / N)
