"""Self-consistent Stieltjes transform of the limiting sample spectral law.

Solves, for z in the upper half plane,

    m(z) = integral of 1 / (tau * [1 - 1/gamma - z*m(z)/gamma] - z) dH(tau)

and extracts boundary values m_breve(lambda), the density F' = Im[m_breve]/pi,
the support intervals, and the companion transform value at zero (gamma < 1).
Everything runs in u = -1/mu, where mu is the companion variable,
1 + z*m = gamma + gamma*z*mu, through one evaluator of the explicit inverse
(Silverstein & Choi 1995)

    x(u) = u * (1 - 1/gamma) - u^2 * S(u) / gamma,

with S(s) = integral of dH(t) / (t - s) in closed form (spectrum._stieltjes_h).

On the real axis the support edges are x at its real critical points.
Inside the support the roots with Im u > 0 form the curve Im x(u) = 0 over
the falling branch of x, one monotone equation in Im u per Re u; Chebyshev
samples of it seed one Newton solve on x(u) = lambda.
Where it passes close to a singular point of u(lambda) (a near split of the
support, the end of a segment of H), the density changes over a tiny
length, and solve_density cuts its grid there.
Off it u is the real root on a rising branch of x.  One bracketed Newton
finder, started from Taylor models, solves every real root.  For Im z > 0
(solve_mF) Newton on x(u) = z starts from the real-axis root at Re z, moved
by the root of the quadratic Taylor model of x in Im z.  Each value is checked
on the equation in m, H exact, with k = z/u = -z*mu from the root, by one
acceptance rule: TOL plus the rounding floor of x(u) (_at_root).  A solve
returns only roots that pass it, or raises NoConvergence (_accept).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, GammaOne, NoConvergence
from .spectrum import PopulationSpectrum, _stieltjes_h, cdf, moment

TOL = 1e-12
NEWTON_STEPS = 50
PATH_POINTS = 129
MASS_TOL = 1e-7
MAX_DOUBLINGS = 4
STENCIL = 6
BLOCK = 2 ** 13  # a dense lambda lookup's working set: its output and one block


def check_gamma(gamma: float) -> float:
    """gamma, if in the real-axis domain: finite and > 0 (else DomainError)
    and not 1 (else GammaOne: the density can be unbounded at 0)."""
    if not 0 < gamma < np.inf:
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    if gamma == 1:
        raise GammaOne("gamma = 1 excluded: the density can be unbounded at 0")
    return gamma


def k_factor(z, m, gamma: float):
    """k = 1 - 1/gamma - z*m/gamma: m = integral of dH(tau) / (tau*k - z)."""
    return 1.0 - 1.0 / gamma - z * m / gamma


def _at_root(z, u, spec: PopulationSpectrum, gamma: float, S=None):
    """(m, residual, accepted) at a root u = -1/mu of x(u) = z, from S =
    [S(u), ...] (one S(u) if not given).  With k = z/u = -z*mu from the root,
    the equation in m reads m = (gamma - 1)/z - gamma/u = u S(u)/z, and its
    residual is the gap of the two forms, gamma |x(u) - z| / (|z| |u|).  For
    gamma < 1 m takes the first, which keeps the pole of F's atom at zero
    apart from the regular mu; for gamma > 1 its terms cancel to
    |m| << gamma/|z|, and m takes the second.  The root is accepted at a
    residual within TOL * max(1, |m|) plus the rounding floor of x(u) as a
    residual, 4 eps (gamma + |u S(u)|) / |z| (Higham 2002, 3.3), which is
    above TOL where gamma / |z| is large, as next to a hard edge."""
    S = _stieltjes_h(spec, u, order=0) if S is None else S
    us = u * S[0]
    pole = (gamma - 1.0) / z - gamma / u
    # + 0.0 turns the -0.0 imaginary parts of real m to +0.0
    m = pole if gamma < 1 else us / z + 0.0
    resid = np.abs(pole - us / z)
    floor = 4.0 * np.finfo(float).eps * (gamma + np.abs(us)) / np.abs(z)
    return m, resid, resid <= TOL * np.maximum(1.0, np.abs(m)) + floor


def _accept(z, u, spec: PopulationSpectrum, gamma: float, real=False):
    """m at the roots u of x(u) = z where _at_root accepts each and, at each
    root not marked real, Im u > 0 and Im m > 0; else NoConvergence naming
    the first point missed and its residual."""
    m, resid, ok = _at_root(z, u, spec, gamma)
    ok &= real | (u.imag > 0) & (m.imag > 0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NoConvergence(f"root at {z[i]} missed its residual {resid[i]:.3e} "
                            f"or sign check", residual=float(resid[i]))
    return m


def solve_mF(z, spec: PopulationSpectrum, gamma: float):
    """Solve the self-consistency equation at a finite z with Im z > 0.

    Accepts a scalar or an array of z values; returns the matching shape.
    Newton on x(u) = z starts from u0 + d, where u0 is the physical root at
    lambda = Re z on the real axis (_real_roots) and d is the root of
    x'(u0) d + x''(u0) d^2 / 2 = i Im z with Im(u0 + d) > 0 and the smaller
    |d|: i Im z / x'(u0) inside the support, the square-root step at an edge.
    Each root passes _accept (the equation in m, H integrated exactly, within
    _at_root's rule; Im m > 0, Im mu > 0), else NoConvergence.  gamma = 1 is
    in the domain.
    """
    if gamma != 1:  # off the real axis gamma = 1 is in the domain
        check_gamma(gamma)
    z_arr = np.asarray(z, dtype=complex).ravel()
    if not np.all((z_arr.imag > 0) & np.isfinite(z_arr)):
        raise DomainError("solve_mF requires a finite z with Im(z) > 0")
    u0 = _real_roots(spec, gamma, z_arr.real)[0]
    _, x1, x2 = _in_u(u0, spec, gamma)
    root = np.sqrt(x1 * x1 + 2j * z_arr.imag * x2)
    # the two roots as 2 i Im z / (x' +- root): finite where x'' is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        d1, d2 = 2j * z_arr.imag / (x1 + root), 2j * z_arr.imag / (x1 - root)
    up1, up2 = (u0 + d1).imag > 0, (u0 + d2).imag > 0
    d = np.where(up1 & ~(up2 & (np.abs(d2) < np.abs(d1))), d1, d2)
    m = _accept(z_arr, _newton(spec, gamma, z_arr, u0 + d), spec, gamma)
    return m.reshape(np.shape(z)) if np.ndim(z) else complex(m[0])


def _in_u(u, spec: PopulationSpectrum, gamma: float, order: int = 2, S=None):
    """[x(u), x'(u), ...] up to the order-th derivative (order <= 3) for an
    array of u = -1/mu off supp H, real for real u, from S = [S(u), S'(u),
    ...] if given.  Unlike mu, u stays finite at the lower edge as gamma -> 1."""
    S = _stieltjes_h(spec, u, order=order) if S is None else S
    out = [u * (1.0 - 1.0 / gamma) - u * u * S[0] / gamma]
    if order > 0:
        out.append((1.0 - 1.0 / gamma) - (2.0 * u * S[0] + u * u * S[1]) / gamma)
    if order > 1:
        out.append(-(2.0 * S[0] + 4.0 * u * S[1] + u * u * S[2]) / gamma)
    if order > 2:
        out.append(-(6.0 * S[1] + 6.0 * u * S[2] + u * u * S[3]) / gamma)
    return out


def _bracketed_newton(f, neg, pos, start=np.nan) -> np.ndarray:
    """Roots of f between neg (f < 0) and pos (f > 0); f(x, i) gives (f, f') at
    x for the points i.  From start if strictly inside its bracket, else from its
    midpoint, a point takes its Newton step if that lands strictly inside, else
    the midpoint, so no end is evaluated; after bisection's step count, only
    midpoints (at most twice bisection's cost).  It stops when its Newton step is
    below one ulp, f is 0 or its bracket (a nan one at once) no longer splits."""
    neg, pos = np.broadcast_arrays(neg, pos)
    lo, hi = np.minimum(neg, pos), np.maximum(neg, pos)
    x = np.where((lo < start) & (start < hi), start, 0.5 * (neg + pos))
    i = np.flatnonzero((lo < x) & (x < hi))
    xa, neg, pos = x[i], neg[i], pos[i]
    budget = np.log2(np.abs(pos - neg) / np.spacing(np.maximum(np.abs(neg), np.abs(pos))))
    while len(i):
        fx, dfx = f(xa, i)
        neg, pos = np.where(fx < 0, xa, neg), np.where(fx < 0, pos, xa)
        step = np.divide(fx, dfx, out=np.full(fx.shape, np.inf), where=dfx != 0)
        lo, hi, new = np.minimum(neg, pos), np.maximum(neg, pos), xa - step
        new = np.where((budget > 0) & (lo < new) & (new < hi), new, 0.5 * (lo + hi))
        go = ~(np.abs(step) < np.spacing(np.abs(xa))) & (fx != 0) & (lo < new) \
            & (new < hi)
        x[i[~go]] = xa[~go]
        xa, neg, pos, budget, i = new[go], neg[go], pos[go], budget[go] - 1, i[go]
    return x


@lru_cache(maxsize=128)
def _critical_points(spec: PopulationSpectrum, gamma: float):
    """Real critical points u* = -1/mu* of x, ascending, and the values x(u*),
    for a finite gamma > 0.  At gamma = 1, which solve_mF accepts, the lower
    critical point is u* = 0, bracketed by 0 alone; the support starts at 0.

    In u = -1/mu, dx/du = 1 - (1/gamma) int tau^2/(u - tau)^2 dH is strictly
    concave between consecutive pieces of supp H and falls to -inf at them;
    it is 1 - 1/gamma at u = 0 and tends to 1 at -inf and +inf.  So one
    critical point lies left of supp H, one right of it, and a pair in each
    gap of supp H where the peak of dx/du is positive.  The pairs
    (u*[2i], u*[2i+1]) bound the support intervals [x(u*[2i]), x(u*[2i+1])].
    The first and last are always kept, so every solution has a support.
    """
    lo, hi = np.array(sorted([(t, t) for _, t in spec.atoms]
                             + [(a, b) for _, a, b in spec.segments])).T
    hi = np.maximum.accumulate(hi)
    gap = lo[1:] > np.nextafter(hi[:-1], np.inf)  # with a float to probe
    p, q = hi[:-1][gap], lo[1:][gap]          # the gaps (p, q) of supp H
    peak = _bracketed_newton(lambda u, i: _in_u(u, spec, gamma, order=3)[2:], q, p)
    rising = _in_u(peak, spec, gamma, order=1)[1] > 0
    root = spec.h2 / np.sqrt(gamma)
    neg = [spec.h1 if gamma > 1 else 0.0, spec.h2, *p[rising], *q[rising]]
    pos = [0.0 if gamma >= 1 else -2.0 * root, spec.h2 + 2.0 * root] + 2 * [*peak[rising]]
    # the outer two start from those of one atom at h1 and at h2
    x0 = [spec.h1 - spec.h1 / np.sqrt(gamma), spec.h2 + root] + [np.nan] * (len(neg) - 2)
    crit = np.sort(_bracketed_newton(lambda u, i: _in_u(u, spec, gamma)[1:], neg, pos, x0))
    values = _in_u(crit, spec, gamma, order=0)[0]
    # a gap where x barely rises can come out empty in floating point
    keep = np.concatenate([[True], np.repeat(np.diff(values)[1::2] > 0, 2),
                           [True]])
    return crit[keep], values[keep]


def _newton(spec: PopulationSpectrum, gamma: float, z, u):
    """Newton on x(u) = z from 1-D seeds u; returns u, for _accept.  A point
    has converged when _at_root accepts it; it then takes one more step, to
    rounding level, only if |step| < Im u (one that could cross the real axis
    is noise), and stops, so its bits do not depend on the rest of the batch.
    Before that, a step from Im u > 0 that would end at Im u <= 0 is scaled
    to end at Im u / 2: the physical root is the only one above the axis,
    and its conjugate, below it, passes the residual test too."""
    u, i = np.array(u, dtype=complex), np.arange(len(u))
    for _ in range(NEWTON_STEPS + 1):
        ui = u[i]
        S = _stieltjes_h(spec, ui, order=1)
        x, x1 = _in_u(ui, spec, gamma, order=1, S=S)
        ok = _at_root(z[i], ui, spec, gamma, S)[2]
        step = (x - z[i]) / x1
        cross = ~ok & (ui.imag > 0) & (step.imag >= ui.imag)
        step[cross] *= ui.imag[cross] / (2.0 * step.imag[cross])
        step[ok & ~(np.abs(step) < ui.imag)] = 0.0
        u[i], i = ui - step, i[~ok]  # u at the old i
        if not len(i):
            break
    return u


def _angle(lam, a: float, b: float):
    """Chebyshev angle theta of lambda = a + (b - a) * (1 - cos theta) / 2 in
    [a, b], as a half angle: exact at both ends, 0 only at a, pi only at b."""
    return 2.0 * np.arctan2(np.sqrt(lam - a), np.sqrt(b - lam))


def _curve(spec: PopulationSpectrum, gamma: float, v: np.ndarray):
    """u = v + i*w with x(u) real and w > 0, for real v strictly inside a
    critical pair of x.  Im x = (w/gamma)(gamma - g), where
    g = int t^2 / ((t - v)^2 + w^2) dH falls strictly in w from
    gamma (1 - x'(v)) > gamma at w = 0+ to below M2/w^2: w is the one root
    of Im x in (0, sqrt(M2/gamma)], where d(Im x)/dw = Re x'(v + iw), from
    w0^2 = 6 x'(v)/x'''(v), Newton's first step in w^2 on Im x/w (else from the
    midpoint: v in supp H).  |Im x| <= TOL |x| is 0: samples only seed Newton."""
    def f(w, i):
        x, x1 = _in_u(v[i] + 1j * w, spec, gamma, order=1)
        return np.where(np.abs(x.imag) <= TOL * np.abs(x), 0.0, x.imag), x1.real
    with np.errstate(divide="ignore", invalid="ignore"):
        w0 = np.sqrt(6.0 * np.divide(*_in_u(v, spec, gamma, order=3)[1::2]))
    return v + 1j * _bracketed_newton(f, 0.0 * v, np.sqrt(moment(spec, 2) / gamma), w0)


@lru_cache(maxsize=128)
def _curve_samples(spec: PopulationSpectrum, gamma: float, a: float, b: float,
                   u_a: float, u_b: float):
    """The curve (_curve) of the critical pair (u_a, u_b) of the support
    interval [a, b] at PATH_POINTS Chebyshev points of [u_a, u_b], ascending,
    and the Chebyshev angles of x along it, 0 at u_a and pi at u_b; read-only."""
    v = u_a + 0.5 * (u_b - u_a) * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                                            PATH_POINTS)))[1:-1]
    path = np.concatenate([[u_a], _curve(spec, gamma, v), [u_b]])
    x = _in_u(path[1:-1], spec, gamma, order=0)[0].real
    path_t = np.concatenate([[0.0], _angle(x, a, b), [np.pi]])
    path.flags.writeable = path_t.flags.writeable = False
    return path, path_t


def _near_splits(spec: PopulationSpectrum, gamma: float) -> np.ndarray:
    """lambda = x(u) where the curve u = v + iw of a support interval (_curve)
    passes close to a singular point of u(lambda), so that the density changes
    over a length that shrinks with w there: at the local minima of w (near
    splits of the support), where Im x'(u) falls through 0 as
    dw/dv = -Im x'/Re x', bracketed by the curve samples; and over each end
    of a segment of H but the lowest and highest point of supp H in the
    interval's critical pair, next to which the curve meets the real axis."""
    crit, values = _critical_points(spec, gamma)
    ends = np.unique([(lo, hi) for _, lo, hi in spec.segments])
    points = np.concatenate([ends, [t for _, t in spec.atoms]])
    neg, pos, at = [], [], []
    for a, b, u_a, u_b in zip(values[::2], values[1::2], crit[::2], crit[1::2]):
        u = _curve_samples(spec, gamma, a, b, u_a, u_b)[0][1:-1]
        s = _in_u(u, spec, gamma, order=1)[1].imag
        k = np.flatnonzero((s[:-1] > 0) & (s[1:] <= 0))
        neg.append(u.real[k + 1])
        pos.append(u.real[k])
        inner = points[(u_a < points) & (points < u_b), None]
        at.append(ends[(inner < ends).any(0) & (ends < inner).any(0)])
    def f(v, i):
        _, x1, x2 = _in_u(_curve(spec, gamma, v), spec, gamma)
        return x1.imag, (x2 * (1.0 - 1j * x1.imag / x1.real)).imag
    at.append(_bracketed_newton(f, np.concatenate(neg), np.concatenate(pos)))
    return _in_u(_curve(spec, gamma, np.concatenate(at)), spec, gamma, order=0)[0].real


def _rising_root(spec: PopulationSpectrum, gamma: float, lam: np.ndarray,
                 crit: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Real u = -1/mu with x(u) = lam on the rising branch of x that covers
    lam, for lam off the support and its edges; from the quadratic model of x
    at the critical point below the branch (above the lowest) and a cubic step."""
    k = np.searchsorted(values[1::2], lam)
    last = len(crit) - 1
    # below the support x(u) < u + m1/gamma, above it x(u) > u
    left = np.minimum(crit[0], lam - moment(spec, 1) / gamma) - spec.h2
    j = np.maximum(2 * k - 1, 0)
    neg = np.where(k == 0, left, crit[j])
    pos = np.where(2 * k > last, lam, crit[np.minimum(2 * k, last)])
    _, _, x2, x3 = (a[j] for a in _in_u(crit, spec, gamma, order=3))
    with np.errstate(invalid="ignore"):
        d = (2 * (j % 2) - 1) * np.sqrt(2.0 * (lam - values[j]) / x2)
        d -= (x2 * d * d / 2 + x3 * d ** 3 / 6 - (lam - values[j])) \
            / (x2 * d + x3 * d * d / 2)
    def f(u, i):
        x, x1 = _in_u(u, spec, gamma, order=1)
        return x - lam[i], x1
    return _bracketed_newton(f, neg, pos, crit[j] + d)


def _real_roots(spec: PopulationSpectrum, gamma: float, lam: np.ndarray):
    """(u, real): the physical root u = -1/mu of x(u) = lam for real lam, and
    where it is real.  Off the support u is _rising_root's, and at an edge
    the edge's critical point.  Strictly inside a support interval [a, b],
    Newton starts from the curve of physical roots (_curve_samples), along
    which lambda rises from a to b, interpolated in the Chebyshev angle of
    lambda, in which u is smooth up to both edges.  The physical root is the
    only root with Im u > 0 (Silverstein & Choi 1995), which _accept checks."""
    crit, values = _critical_points(spec, gamma)
    u, off = np.zeros(lam.shape, dtype=complex), np.ones(lam.shape, dtype=bool)
    for a, b, u_a, u_b in zip(values[::2], values[1::2], crit[::2], crit[1::2]):
        inside = (lam >= a) & (lam <= b)
        u[inside] = np.where(lam[inside] == a, u_a, u_b)  # the edges' roots
        off &= ~inside
        i = np.flatnonzero((lam > a) & (lam < b))
        if len(i):
            path, path_t = _curve_samples(spec, gamma, a, b, u_a, u_b)
            u[i] = _newton(spec, gamma, lam[i],
                           np.interp(_angle(lam[i], a, b), path_t, path))
    if off.any():
        u[off] = _rising_root(spec, gamma, lam[off], crit, values)
    return u, off | np.isin(lam, values)


def _divided(th, v):
    """Divided differences of values v at ascending knots th to order
    STENCIL - 1 (or len(th) - 1): rows[i][j] = v[th[j], ..., th[j + i]], the
    Newton coefficients of the polynomial through the knots from th[j] on."""
    rows = [v]
    for i in range(1, min(STENCIL, len(th))):
        v = (v[1:] - v[:-1]) / (th[i:] - th[:-i])
        rows.append(v)
    return rows


def _in_blocks(f, lam, dtype):
    """f of the flattened lam, BLOCK points at a time, into one output of
    lam's shape (a dtype scalar if 0-d); one block returns f's own result.
    DomainError at NaN."""
    x = np.asarray(lam, dtype=float).ravel()
    if np.isnan(np.min(x, initial=np.inf)):  # min takes no copy, keeps NaN
        raise DomainError("lookup of lambda = NaN")
    if x.size <= BLOCK:
        out = f(x)
    else:
        out = np.empty(x.size, dtype)
        for s in range(0, x.size, BLOCK):
            out[s:s + BLOCK] = f(x[s:s + BLOCK])
    return out.reshape(np.shape(lam)) if np.ndim(lam) else dtype(out[0])


@dataclass
class StieltjesSolution:
    """Boundary values of the limiting law on a lambda grid.

    spec and gamma are the population spectrum H and the aspect ratio; cuts
    are grid nodes inside the support where the trapezoid rule of f_integral
    restarts (solve_density); support, density, mass_at_zero and
    m_under_zero follow from the fields.  boundary_values raises where it
    rejects a root, so every grid point holds an accepted m_breve and valid
    is all True.  gamma must pass check_gamma.
    """

    gamma: float
    spec: PopulationSpectrum
    grid: np.ndarray
    m_breve: np.ndarray
    cuts: tuple[float, ...] = ()

    def __post_init__(self):
        check_gamma(self.gamma)

    @property
    def support(self) -> list[tuple[float, float]]:
        """The closed intervals where the density is positive, ascending:
        x at the critical pairs of x (_critical_points); never empty."""
        return [(float(a), float(b))
                for a, b in _critical_points(self.spec, self.gamma)[1].reshape(-1, 2)]

    @property
    def valid(self) -> np.ndarray:
        """All True, kept for its readers: every grid point holds an accepted root."""
        return np.ones(len(self.grid), dtype=bool)

    def _check(self, spec: PopulationSpectrum, gamma: float | None = None):
        """DomainError unless spec (and gamma, if given) are the solution's."""
        if spec != self.spec or gamma not in (None, self.gamma):
            raise DomainError(f"not the solution's spectrum or gamma {self.gamma}")

    @cached_property
    def density(self) -> np.ndarray:
        """F' = Im[m_breve]/pi at the grid points."""
        return self.m_breve.imag / np.pi

    @property
    def mass_at_zero(self) -> float:
        """Weight of the atom of F at zero: 1 - gamma for gamma < 1, else 0."""
        return max(0.0, 1.0 - self.gamma)

    @cached_property
    def m_under_zero(self) -> float | None:
        """The companion transform at 0, companion_zero(spec, gamma); None if gamma > 1."""
        return companion_zero(self.spec, self.gamma) if self.gamma < 1 else None

    @cached_property
    def _pieces(self):
        """The grid's knots in each support interval [a, b]: the slice of its
        points strictly inside it, where Im m_breve > 0 (boundary_values).
        Returns their ranges ([a, a] if none), ravelled, and per interval a,
        b, the knots' theta and the _divided table of v = Re m_breve +
        i log(Im m_breve / sin theta), smooth in theta up to a and b."""
        bounds, pieces = [], []
        for a, b in self.support:
            s = slice(self.grid.searchsorted(a, "right"), self.grid.searchsorted(b))
            lam, m, th = self.grid[s], self.m_breve[s], _angle(self.grid[s], a, b)
            bounds += [lam[0], lam[-1]] if len(lam) else [a, a]
            v = m.real + 1j * np.log(m.imag / np.sin(th))
            pieces.append((a, b, th, _divided(th, v)))
        return np.array(bounds), pieces

    @cached_property
    def _angle_weights(self):
        """Left and right weights of each grid step in the trapezoid rule in
        the Chebyshev angle theta of each piece [a, b] of the support between
        its edges and cuts, where dlambda/dtheta = sqrt((lambda - a)(b - lambda)):
        zero off the support and at its edges.  A piece weights the slice of
        steps that meet it, clipped to [a, b] (a no-op where its ends are nodes,
        as on solve_density's grids).  At a cut, where the density does not
        vanish, it adds its Euler-Maclaurin end term h^2 (b - a)/24 for its step h."""
        lo, hi = self.grid[:-1], self.grid[1:]
        left, right = np.zeros(lo.shape), np.zeros(lo.shape)
        ends = np.sort(np.concatenate([np.ravel(self.support), self.cuts, self.cuts]))
        for a, b in ends.reshape(-1, 2):
            s = slice(hi.searchsorted(a, "right"), lo.searchsorted(b))
            cl, ch = np.clip(lo[s], a, b), np.clip(hi[s], a, b)
            half = 0.5 * (_angle(ch, a, b) - _angle(cl, a, b))
            left[s] += half * np.sqrt((cl - a) * (b - cl))
            right[s] += half * np.sqrt((ch - a) * (b - ch))
            if a in self.cuts:
                left[s.start] += (2 * half[0]) ** 2 * (b - a) / 24
            if b in self.cuts:
                right[s.stop - 1] += (2 * half[-1]) ** 2 * (b - a) / 24
        return left, right

    def m_at(self, lam):
        """m_breve in blocks: read at grid points, the degree-5 stencil of the
        nearest knots strictly inside a knot range (_pieces; Im >= 0), else as
        boundary_values solves it (_exact): DomainError at NaN, +-inf and
        lambda <= 0, NoConvergence where boundary_values rejects the root."""
        return _in_blocks(self._m_block, lam, complex)

    def _m_block(self, x):
        """m_at of a flat block x."""
        bounds, pieces = self._pieces
        k = np.minimum(self.grid.searchsorted(x), len(self.grid) - 1)
        out = self.m_breve[k]
        i = (self.grid[k] != x).nonzero()[0]  # the points off the nodes
        q = bounds.searchsorted(x[i])  # odd: inside the knot range q // 2
        held = np.bincount(q).nonzero()[0].tolist()
        for p in held:
            at = i if len(held) == 1 else i[q == p]
            if p % 2 == 0:  # off every knot range
                out[at] = self._exact(x[at])
                continue
            a, b, th, rows = pieces[p // 2]
            t = _angle(x[at], a, b)
            n, s = len(th), len(rows)
            # the first of the s knots nearest the knot interval holding t
            first = th[(s + 1) // 2:n - s // 2].searchsorted(t, side="right")
            val = rows[-1][first]
            for r in range(s - 2, -1, -1):
                val = val * (t - th[r:][first]) + rows[r][first]
            val.imag = np.sin(t) * np.exp(val.imag)
            out[at] = val
        return out

    def _exact(self, x):
        """m_breve at x as boundary_values solves it: each point's root and
        its test do not depend on the rest of the batch."""
        if not np.all((x > 0) & (x < np.inf)):
            raise DomainError("m_breve off the grid needs a finite lambda > 0")
        u, real = _real_roots(self.spec, self.gamma, x)
        return _accept(x, u, self.spec, self.gamma, real)

    def f_integral(self, lam, values=1.0, at_zero: float = 1.0):
        """Integral of f against dF over [0, lam], from values = f at every
        grid point or one scalar (default f = 1) and at_zero = f(0) for the
        atom at zero.  The trapezoid rule in theta (_angle_weights), cumulated
        along the grid and linear in lambda in between: dF is sin(theta) times
        a smooth even periodic function of theta, so on the Chebyshev nodes of
        solve_density the rule converges exponentially over a whole piece, but
        only to second order up to a lambda inside one.  DomainError at NaN."""
        left, right = self._angle_weights
        fd = self.density * values
        cum = np.concatenate([[0.0], np.cumsum(left * fd[:-1] + right * fd[1:])])
        return _in_blocks(lambda x: np.interp(x, self.grid, cum)
                          + self.mass_at_zero * at_zero * (x >= 0), lam, float)

    def cdf(self, lam):
        """F(lambda), the atom at zero included (see f_integral)."""
        return self.f_integral(lam)

    def total_mass(self) -> float:
        """F at the top of the grid: 1 up to the quadrature error."""
        return self.f_integral(self.grid[-1])

    def clip_to_support(self, lam):
        """Nearest in-support value (an edge is inside; the lower edge at a
        tie) and a flag where it moved; (float, bool) for a scalar lam."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        edges = np.ravel(self.support)
        i = np.searchsorted(edges, lam_arr)
        lo, hi = edges[np.maximum(i - 1, 0)], edges[np.minimum(i, len(edges) - 1)]
        nearest = np.where(hi - lam_arr < lam_arr - lo, hi, lo)
        inside = (i % 2 == 1) | (nearest == lam_arr)
        out = np.where(inside, lam_arr, nearest)
        return (out, ~inside) if np.ndim(lam) else (float(out[0]),
                                                    bool(~inside[0]))


@lru_cache(maxsize=128)
def companion_zero(spec: PopulationSpectrum, gamma: float) -> float:
    """Companion transform value at zero, for gamma < 1: the positive root of
    x(-1/mu) = 0, i.e. of integral of tau*mu/(1+tau*mu) dH(tau) = gamma;
    cached, as boundary_values has solved it for its solution already."""
    if not 0 < gamma < 1:
        raise DomainError(f"companion_zero requires 0 < gamma < 1, got {gamma}")
    u = _rising_root(spec, gamma, np.zeros(1), *_critical_points(spec, gamma))
    return float(-1.0 / u[0])


def boundary_values(spec: PopulationSpectrum, gamma: float,
                    grid: Sequence[float],
                    refine_edges: bool = True) -> StieltjesSolution:
    """Boundary values and density on an ascending, positive, finite grid.

    The support edges are the exact critical values of x(u) whatever the
    grid, so refine_edges has no effect; it is accepted for callers that pass
    it.  Inside the support, Newton is seeded from Chebyshev samples of the
    curve Im x(u) = 0 (_real_roots); off it u is the real root on a rising
    branch of x.  Every root passes solve_mF's test (_accept): _at_root's
    residual, and strictly inside the support Im u > 0 and Im m_breve > 0;
    else NoConvergence names the first lambda missed and its residual.  So
    valid, kept for its readers, is all True.
    """
    check_gamma(gamma)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be a strictly ascending positive finite 1-D array")
    u, real = _real_roots(spec, gamma, grid)
    solution = StieltjesSolution(gamma=float(gamma), spec=spec, grid=grid,
                                 m_breve=_accept(grid, u, spec, gamma, real))
    solution.m_under_zero  # solved here, so companion_zero's cache holds it
    return solution


def support_edges(solution: StieltjesSolution) -> list[tuple[float, float]]:
    """Support intervals, ascending; never empty."""
    return solution.support


def solve_density(spec: PopulationSpectrum, gamma: float,
                  num_points: int = 3000) -> StieltjesSolution:
    """Boundary values on a grid built from the exact support edges: a
    Chebyshev grid on each support interval with both edges as nodes, plus
    sparse tails off the support.  A piece of the grid misses when
    f_integral's mass on it moves by more than MASS_TOL on a copy of the
    solution without every other node of each piece; once none does, a
    support interval misses when f_integral's mass on it is more than
    MASS_TOL from its exact value, H's mass between the interval's critical
    points of x less the atom at zero on the lowest (exact separation).  At
    most MAX_DOUBLINGS times, a piece that misses, or lies in an interval
    that does, is cut at the _near_splits inside it, where the density can
    change over a length far below the node spacing, into pieces with a
    Chebyshev grid each (dense at the cut), or else its node count doubles.
    Raises NoConvergence where boundary_values does; warns (RuntimeWarning)
    if a piece still misses after the last refinement."""
    crit, values = _critical_points(spec, check_gamma(gamma))
    lows, highs = values.reshape(-1, 2).T
    exact = np.diff(cdf(spec, crit).reshape(-1, 2)).ravel()
    exact[0] -= max(0.0, 1.0 - gamma)
    total = float(np.sum(highs - lows))
    fixed = [np.linspace(0.6 * lows[0], lows[0], 24)[:-1],
             np.linspace(highs[-1], 1.05 * highs[-1], 24)[1:]]
    for b, a in zip(highs[:-1], lows[1:]):
        fixed.append(np.linspace(b, a, 24)[1:-1])
    # odd node counts, so that every other node is again a Chebyshev grid
    pieces = [(a, b, 2 * max(150, int(num_points * (b - a) / total) // 2) + 1)
              for a, b in zip(lows, highs)]
    cuts, near = [], None
    for _ in range(MAX_DOUBLINGS + 1):
        nodes = [a + 0.5 * (b - a) * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))
                 for a, b, n in pieces]
        for x, (_, b, _) in zip(nodes, pieces):
            x[-1] = b
        solution = replace(boundary_values(spec, gamma, np.unique(np.concatenate(
            fixed + nodes))), cuts=tuple(sorted(cuts)))
        keep = np.ones(len(solution.grid), dtype=bool)
        keep[solution.grid.searchsorted(np.concatenate([x[1:-1:2] for x in nodes]))] = False
        coarse = replace(solution, grid=solution.grid[keep], m_breve=solution.m_breve[keep])
        ends = np.array(pieces)[:, :2]
        gaps = np.abs(np.diff(solution.f_integral(ends) - coarse.f_integral(ends)).ravel())
        what = "halving gap"
        if gaps.max() <= MASS_TOL:
            mass = np.diff(solution.f_integral(values).reshape(-1, 2)).ravel()
            gaps = np.abs(mass - exact)[lows.searchsorted(ends[:, 0], side="right") - 1]
            what = "interval mass gap"
            if gaps.max() <= MASS_TOL:
                return solution
        near = _near_splits(spec, gamma) if near is None else near
        refined = []
        for (a, b, n), g in zip(pieces, gaps):
            cut = sorted(near[(a < near) & (near < b)]) if g > MASS_TOL else []
            cuts += map(float, cut)
            n = n if g <= MASS_TOL or cut else 2 * n - 1
            refined += [(c, d, n) for c, d in zip([a, *cut], [*cut, b])]
        pieces = refined
    i = int(np.argmax(gaps))
    warnings.warn(f"support piece [{nodes[i][0]}, {nodes[i][-1]}]: {what} "
                  f"{gaps[i]:.3e} after {MAX_DOUBLINGS} refinements, total mass "
                  f"gap {abs(solution.total_mass() - 1.0):.3e}", RuntimeWarning)
    return solution
