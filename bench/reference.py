"""Independent references for the benchmark's correctness checks.

Nothing here calls into mpshrink.  A population spectrum is given as plain
lists, ``atoms = [(w, tau), ...]`` and ``segments = [(w, lo, hi), ...]``.

* ``d1_*``: closed forms for H = delta_c, from the quadratic that the
  self-consistency equation becomes for a point mass.
* ``support_edges``: support of the sample law from the explicit inverse of
  the companion transform (Silverstein & Choi 1995, J. Multivariate Anal. 54),
      x(mu) = -1/mu + (1/gamma) * integral tau / (1 + tau*mu) dH(tau).
  Real mu where x is increasing map onto the complement of the support, so
  the edges are the values of x at the critical points of x.  Atoms are
  summed exactly and segments use closed-form log antiderivatives.
* ``resolvent_trace``: the Monte-Carlo weighted resolvent trace
  (1/N) sum_ij g(sigma_j) |U_ji|^2 / (lambda_i - z) of one eigensystem.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


# --- H = delta_c ------------------------------------------------------------

def d1_edges(gamma: float, c: float = 1.0) -> tuple[float, float]:
    """Edges of the positive part of the support: c * (1 -+ 1/sqrt(gamma))^2."""
    r = 1.0 / math.sqrt(gamma)
    return c * (1.0 - r) ** 2, c * (1.0 + r) ** 2


def d1_m(z, gamma: float, c: float = 1.0):
    """m(z) for Im z > 0: the root of
    (c*z/gamma) m^2 - (c*(1 - 1/gamma) - z) m + 1 = 0 with Im m > 0."""
    z = np.asarray(z, dtype=complex)
    a = c * z / gamma
    b = z - c * (1.0 - 1.0 / gamma)
    root = np.sqrt(b * b - 4.0 * a)
    r1 = (-b + root) / (2.0 * a)
    r2 = (-b - root) / (2.0 * a)
    return np.where(r1.imag >= r2.imag, r1, r2)


def d1_density(lam, gamma: float, c: float = 1.0):
    """sqrt((b - x)(x - a)) / (2 pi (c/gamma) x) on (a, b), zero elsewhere."""
    lam = np.asarray(lam, dtype=float)
    a, b = d1_edges(gamma, c)
    inside = (lam > a) & (lam < b)
    x = np.where(inside, lam, 1.0)
    return np.where(inside,
                    np.sqrt(np.abs((b - x) * (x - a))) / (2.0 * np.pi * (c / gamma) * x),
                    0.0)


def d1_theta(z, g_at_c: float, gamma: float, c: float = 1.0):
    """Weighted functional for H = delta_c: g(c) / (c*k - z),
    k = 1 - 1/gamma - z*m(z)/gamma."""
    z = np.asarray(z, dtype=complex)
    k = 1.0 - 1.0 / gamma - z * d1_m(z, gamma, c) / gamma
    return g_at_c / (c * k - z)


def d1_companion_zero(gamma: float, c: float = 1.0) -> float:
    """mu0 = gamma / ((1 - gamma) c), the root of c*mu/(1 + c*mu) = gamma."""
    return gamma / ((1.0 - gamma) * c)


# --- explicit inverse map ---------------------------------------------------

def _segment_J(mu: float, lo: float, hi: float) -> tuple[float, float]:
    """(1/(hi-lo)) * integral over [lo, hi] of tau/(1+tau*mu) and of
    tau^2/(1+tau*mu)^2, from antiderivatives in s = 1 + tau*mu."""
    s_lo, s_hi = 1.0 + lo * mu, 1.0 + hi * mu
    log_ratio = math.log(abs(s_hi / s_lo))
    first = ((hi - lo) / mu - log_ratio / mu ** 2) / (hi - lo)
    second = ((s_hi - s_lo) - 2.0 * log_ratio - (1.0 / s_hi - 1.0 / s_lo)) \
        / (mu ** 3 * (hi - lo))
    return first, second


def inverse_map(mu: float, atoms, segments, gamma: float) -> tuple[float, float]:
    """x(mu) and x'(mu) for real mu off the poles."""
    J = 0.0
    dJ = 0.0
    for w, t in atoms:
        s = 1.0 + t * mu
        J += w * t / s
        dJ -= w * t * t / (s * s)
    for w, lo, hi in segments:
        first, second = _segment_J(mu, lo, hi)
        J += w * first
        dJ -= w * second
    return -1.0 / mu + J / gamma, 1.0 / (mu * mu) + dJ / gamma


def _free_intervals(atoms, segments) -> list[tuple[float, float]]:
    """Open u-intervals (u = -1/mu) on which x is defined: the real line
    minus 0, the atoms and the segments."""
    blocked = sorted([(t, t) for _, t in atoms]
                     + [(lo, hi) for _, lo, hi in segments])
    merged: list[list[float]] = []
    for lo, hi in blocked:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    bounds = [(-math.inf, 0.0)]
    left = 0.0
    for lo, hi in merged:
        bounds.append((left, lo))
        left = hi
    bounds.append((left, math.inf))
    return bounds


def _samples(lo: float, hi: float, scale: float, n: int = 3000) -> np.ndarray:
    """Interior sample points of (lo, hi), clustered towards finite ends."""
    if math.isinf(lo):
        return -np.logspace(math.log10(scale) + 5, math.log10(scale) - 7, n) + hi
    if math.isinf(hi):
        return lo + np.logspace(math.log10(scale) - 12, math.log10(scale) + 5, n)
    v = np.concatenate([0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)[1:-1])),
                        np.logspace(-13, -2, n // 4),
                        1.0 - np.logspace(-13, -2, n // 4)])
    pts = lo + (hi - lo) * np.unique(v)
    return pts[(pts > lo) & (pts < hi)]


def support_edges(atoms, segments, gamma: float) -> list[tuple[float, float]]:
    """Support intervals of the positive part of the sample law.

    Each increasing run of x(mu) on a free interval maps onto an open
    interval of the complement; the support is what those runs leave of
    (0, inf).  Run ends are critical points of x (found by bisection on x')
    or the ends of the free interval, where x tends to 0 (at u = 0) or to
    -inf / +inf.
    """
    scale = max([t for _, t in atoms] + [hi for _, _, hi in segments])

    def slope(u: float) -> float:
        return inverse_map(-1.0 / u, atoms, segments, gamma)[1]

    covered: list[tuple[float, float]] = []
    for lo, hi in _free_intervals(atoms, segments):
        us = _samples(lo, hi, scale)
        signs = np.array([slope(u) > 0.0 for u in us])
        # each increasing run: (start, end) with a flag for whether the end
        # is a critical point (True) or the end of the free interval
        start = (lo, False) if signs[0] else None
        for i in range(1, len(us)):
            if signs[i] == signs[i - 1]:
                continue
            crit = brentq(slope, us[i - 1], us[i], xtol=1e-15 * scale,
                          rtol=1e-15, maxiter=500)
            if signs[i]:
                start = (crit, True)
            else:
                covered.append(_run_image(start, (crit, True), atoms, segments,
                                          gamma))
                start = None
        if start is not None:
            covered.append(_run_image(start, (hi, False), atoms, segments, gamma))

    support = []
    reach = -math.inf
    for left, right in sorted(covered):
        if left > reach and reach >= 0.0 and left - reach > 1e-12 * scale:
            support.append((reach, left))
        reach = max(reach, right)
    return support


def _run_image(start, end, atoms, segments, gamma) -> tuple[float, float]:
    """x-image of one increasing run of x between two u positions."""
    (u0, crit0), (u1, crit1) = start, end
    if crit0:
        left = inverse_map(-1.0 / u0, atoms, segments, gamma)[0]
    else:
        left = 0.0 if u0 == 0.0 else -math.inf
    if crit1:
        right = inverse_map(-1.0 / u1, atoms, segments, gamma)[0]
    else:
        right = 0.0 if u1 == 0.0 else math.inf
    return left, right


def companion_equation_gap(mu: float, atoms, segments, gamma: float) -> float:
    """integral tau*mu/(1+tau*mu) dH - gamma, exact for atoms and segments."""
    J = sum(w * t / (1.0 + t * mu) for w, t in atoms)
    J += sum(w * _segment_J(mu, lo, hi)[0] for w, lo, hi in segments)
    return mu * J - gamma


# --- Monte-Carlo resolvent trace --------------------------------------------

def resolvent_trace(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
                    g_values: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(1/N) sum_ij g_k(sigma_j) |U_ji|^2 / (lambda_i - z) for diagonal Sigma.

    g_values has shape (K, N) (weight k at the population eigenvalues), zs
    shape (Z,); returns shape (K, Z).
    """
    weights = np.asarray(g_values, dtype=float) @ (np.abs(eigenvectors) ** 2)
    inv = 1.0 / (np.asarray(eigenvalues, dtype=float)[:, None] - zs[None, :])
    return weights @ inv / len(eigenvalues)
