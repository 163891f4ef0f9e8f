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
samples of it, refined where a point misses, seed Newton on x(u) = lambda.
Off it u is the real root on a rising branch of x.  One bracketed Newton
finder solves every real root.  For Im z > 0 (solve_mF) Newton on x(u) = z
starts from the real-axis root at Re z, moved by the root of the quadratic
Taylor model of x in Im z.  Every value is verified on the equation in m, H
integrated exactly, with k = z/u = -z*mu taken from the root (_residual).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, EmptySupport, GammaOne, NoConvergence
from .spectrum import PopulationSpectrum, _stieltjes_h, moment

TOL = 1e-12
NEWTON_STEPS = 50
PATH_POINTS = 129
MASS_TOL = 1e-7
MAX_DOUBLINGS = 4
STENCIL = 6


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


def _residual(x, z, u, gamma: float):
    """gamma |x(u) - z| / (|z| |u|) = |(gamma - 1)/z - gamma/u - u S(u)/z|,
    the residual of the equation in m with k = z/u = -z*mu taken from the root
    u: the integral of dH(tau) / (tau*k - z) is u S(u) / z."""
    return gamma * np.abs(x - z) / (np.abs(z) * np.abs(u))


def _at_root(z, u, spec: PopulationSpectrum, gamma: float):
    """(m, _residual) at a root u = -1/mu of x(u) = z, from one S(u).  For
    gamma < 1, F has an atom at zero and m = (gamma - 1)/z - gamma/u keeps its
    pole apart from the regular mu.  For gamma > 1 the two terms cancel to
    |m| << gamma/|z|, and m = u * S(u) / z."""
    S = _stieltjes_h(spec, u, order=0)
    # + 0.0 turns the -0.0 imaginary parts of real m to +0.0
    m = (gamma - 1.0) / z - gamma / u if gamma < 1 else u * S[0] / z + 0.0
    return m, _residual(_in_u(u, spec, gamma, order=0, S=S)[0], z, u, gamma)


def solve_mF(z, spec: PopulationSpectrum, gamma: float):
    """Solve the self-consistency equation at z (Im z > 0).

    Accepts a scalar or an array of z values; returns the matching shape.
    Newton on x(u) = z starts from u0 + d, where u0 is the physical root at
    lambda = Re z on the real axis (_real_roots) and d is the root of
    x'(u0) d + x''(u0) d^2 / 2 = i Im z with Im(u0 + d) > 0 and the smaller
    |d|: i Im z / x'(u0) inside the support, the square-root step at an edge.
    The returned m has Im m > 0, Im mu > 0 and solves the equation in m, H
    integrated exactly, within 10 * TOL * max(1, |m|).  Raises NoConvergence
    otherwise.  gamma = 1 is in the domain.
    """
    if gamma != 1:  # off the real axis gamma = 1 is in the domain
        check_gamma(gamma)
    z_arr = np.asarray(z, dtype=complex).ravel()
    if np.any(z_arr.imag <= 0):
        raise DomainError("solve_mF requires Im(z) > 0")
    u0 = _real_roots(spec, gamma, z_arr.real)[0]
    _, x1, x2 = _in_u(u0, spec, gamma)
    root = np.sqrt(x1 * x1 + 2j * z_arr.imag * x2)
    # the two roots as 2 i Im z / (x' +- root): finite where x'' is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        d1, d2 = 2j * z_arr.imag / (x1 + root), 2j * z_arr.imag / (x1 - root)
    up1, up2 = (u0 + d1).imag > 0, (u0 + d2).imag > 0
    d = np.where(up1 & ~(up2 & (np.abs(d2) < np.abs(d1))), d1, d2)
    u, _ = _newton(spec, gamma, z_arr, u0 + d)
    m, resid = _at_root(z_arr, u, spec, gamma)
    ok = (resid <= 10 * TOL * np.maximum(1.0, np.abs(m))) & (m.imag > 0) \
        & (u.imag > 0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NoConvergence(f"no converged solution at z={z_arr[i]}",
                            residual=float(resid[i]))
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


def _bracketed_newton(f, neg, pos) -> np.ndarray:
    """Roots of f between neg (f < 0) and pos (f > 0), vectorized; f(x, i)
    gives (f, f') at x for the points i.  From its midpoint a point takes its
    Newton step if that lands strictly inside its bracket, else the midpoint,
    so no end is evaluated; after bisection's step count, only midpoints (at
    most twice bisection's cost).  A point stops when its Newton step is below
    one ulp, f is 0 or its bracket no longer splits (a nan bracket at once)."""
    neg, pos = np.broadcast_arrays(neg, pos)
    x = 0.5 * (neg + pos)
    i = np.flatnonzero((np.minimum(neg, pos) < x) & (x < np.maximum(neg, pos)))
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
    critical point is u* = 0 and the support starts at x(0) = 0.

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
    neg = [spec.h1 if gamma > 1 else 0.0, spec.h2] + list(p[rising]) \
        + list(q[rising])
    pos = [0.0 if gamma > 1 else -2.0 * root, spec.h2 + 2.0 * root] \
        + 2 * list(peak[rising])
    crit = np.sort(_bracketed_newton(lambda u, i: _in_u(u, spec, gamma)[1:], neg, pos))
    values = _in_u(crit, spec, gamma, order=0)[0]
    # a gap where x barely rises can come out empty in floating point
    keep = np.concatenate([[True], np.repeat(np.diff(values)[1::2] > 0, 2),
                           [True]])
    return crit[keep], values[keep]


def _newton(spec: PopulationSpectrum, gamma: float, z, u):
    """Newton on x(u) = z from seeds u; returns (u, converged).

    A point has converged when _residual, that of the equation in m, is
    within TOL * max(1, |m|).  Each evaluation is followed by its step, so a
    converged point takes one more quadratic step, which brings it to
    rounding level at no extra cost."""
    u = np.array(u, dtype=complex)
    for _ in range(NEWTON_STEPS + 1):
        x, x1 = _in_u(u, spec, gamma, order=1)
        # |m| only scales the tolerance, so the cancellation of this form at
        # gamma >> 1 (see _at_root) does not matter, and it is cheaper
        m = (gamma - 1.0) / z - gamma / u
        done = _residual(x, z, u, gamma) <= TOL * np.maximum(1.0, np.abs(m))
        u = u - (x - z) / x1
        if done.all():
            break
    return u, done


def _angle(lam, a: float, b: float):
    """Chebyshev angle theta of lambda = a + (b - a) * (1 - cos theta) / 2."""
    return np.arccos(np.minimum(1.0, np.maximum(-1.0, 1.0 - 2.0 * (lam - a)
                                                / (b - a))))


def _curve(spec: PopulationSpectrum, gamma: float, v: np.ndarray):
    """u = v + i*w with x(u) real and w > 0, for real v strictly inside a
    critical pair of x.  Im x = (w/gamma)(gamma - g), where
    g = int t^2 / ((t - v)^2 + w^2) dH falls strictly in w from
    gamma (1 - x'(v)) > gamma at w = 0+ to below M2/w^2: w is the one root
    of Im x in (0, sqrt(M2/gamma)], where d(Im x)/dw = Re x'(v + iw)."""
    def f(w, i):
        x, x1 = _in_u(v[i] + 1j * w, spec, gamma, order=1)
        return x.imag, x1.real
    return v + 1j * _bracketed_newton(f, 0.0 * v, np.sqrt(moment(spec, 2) / gamma))


@lru_cache(maxsize=128)
def _curve_samples(spec: PopulationSpectrum, gamma: float, a: float, b: float,
                   u_a: float, u_b: float):
    """The curve (_curve) of the critical pair (u_a, u_b) of the support
    interval [a, b] at PATH_POINTS Chebyshev points of (u_a, u_b), its ends
    included, ascending, and the Chebyshev angles of x along it; read-only."""
    v = u_a + 0.5 * (u_b - u_a) * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                                            PATH_POINTS)))[1:-1]
    path = np.sort(np.concatenate([[u_a, u_b], _curve(spec, gamma, v)]))
    path_t = _angle(_in_u(path, spec, gamma, order=0)[0].real, a, b)
    path.flags.writeable = path_t.flags.writeable = False
    return path, path_t


def _interior(spec: PopulationSpectrum, gamma: float, lam: np.ndarray,
              a: float, b: float, u_a: float, u_b: float):
    """(u, converged) at points of the support interval [a, b] with edges
    x(u_a), x(u_b); where the angle theta below is 0 or pi, u is u_a or u_b.

    Newton starts from the curve of physical roots (_curve_samples), along
    which lambda rises from a to b, interpolated in the Chebyshev angle theta
    of lambda, in which u is smooth up to both edges.  Its root counts only
    within Im(seed)/2 of the seed, a disk in the upper half plane, where the
    physical root is the only one.  Points that miss are solved again once
    the v-midpoints of the sample pairs around their theta join a copy of
    the samples, until all pass or no such pair splits in floating point."""
    path, path_t = _curve_samples(spec, gamma, a, b, u_a, u_b)
    t = _angle(lam, a, b)
    u, ok = np.where(t == 0, u_a, u_b).astype(complex), (t == 0) | (t == np.pi)
    while True:
        todo = np.flatnonzero(~ok)
        seed = np.interp(t[todo], path_t, path)
        u[todo], done = _newton(spec, gamma, lam[todo], seed)
        ok[todo] = done & (np.abs(u[todo] - seed) <= 0.5 * seed.imag)
        k = np.unique(np.clip(np.searchsorted(path_t, t[~ok]), 1, len(path) - 1))
        v = 0.5 * (path.real[k - 1] + path.real[k])
        v = v[(path.real[k - 1] < v) & (v < path.real[k])]
        if not len(v):
            return u, ok
        path = np.sort(np.concatenate([path, _curve(spec, gamma, v)]))
        path_t = _angle(_in_u(path, spec, gamma, order=0)[0].real, a, b)


def _rising_root(spec: PopulationSpectrum, gamma: float, lam: np.ndarray,
                 crit: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Real u = -1/mu with x(u) = lam on the rising branch of x that covers
    lam, for lam off the support and its edges."""
    k = np.searchsorted(values[1::2], lam)
    last = len(crit) - 1
    # below the support x(u) < u + m1/gamma, above it x(u) > u
    left = np.minimum(crit[0], lam - moment(spec, 1) / gamma) - spec.h2
    neg = np.where(k == 0, left, crit[np.maximum(2 * k - 1, 0)])
    pos = np.where(2 * k > last, lam, crit[np.minimum(2 * k, last)])
    def f(u, i):
        x, x1 = _in_u(u, spec, gamma, order=1)
        return x - lam[i], x1
    return _bracketed_newton(f, neg, pos)


def _real_roots(spec: PopulationSpectrum, gamma: float, lam: np.ndarray):
    """(u, converged): the physical root u = -1/mu of x(u) = lam for real
    lam, by _interior on each support interval and _rising_root off it."""
    crit, values = _critical_points(spec, gamma)
    u = np.zeros(lam.shape, dtype=complex)
    ok, off = np.ones(lam.shape, dtype=bool), np.ones(lam.shape, dtype=bool)
    for a, b, u_a, u_b in zip(values[::2], values[1::2], crit[::2], crit[1::2]):
        inside = (lam >= a) & (lam <= b)
        if inside.any():
            u[inside], ok[inside] = _interior(spec, gamma, lam[inside],
                                              a, b, u_a, u_b)
        off &= ~inside
    u[off] = _rising_root(spec, gamma, lam[off], crit, values)
    return u, ok


def _stencils(th, v):
    """Newton form of the polynomial through the STENCIL nearest knots (all
    if fewer) of each interval between ascending knots th with values v:
    (cuts, nodes, dd): the inner knots and, one column per interval, all but
    the last knot of its stencil and its divided differences by order."""
    n, k = len(th), min(STENCIL, len(th))
    first = np.clip(np.arange(max(n - 1, 1)) - (k - 1) // 2, 0, n - k)
    near = first + np.arange(k)[:, None]
    nodes, dd = th[near], v[near]
    for i in range(1, k):
        dd[i:] = (dd[i:] - dd[i - 1:-1]) / (nodes[i:] - nodes[:-i])
    return th[1:-1], nodes[:-1], dd


def _newton_form(th, cuts, nodes, dd):
    """The polynomials of _stencils at th; th outside the knots takes the
    polynomial of the nearest interval."""
    j = cuts.searchsorted(th, side="right")
    v = dd[-1, j]
    for node, c in zip(nodes[::-1], dd[-2::-1]):
        v = v * (th - node[j]) + c[j]
    return v


@dataclass
class StieltjesSolution:
    """Boundary values of the limiting law on a lambda grid.

    density is Im[m_breve]/pi (zero at invalid points); support holds the
    closed intervals where the density is positive; m_under_zero is the
    companion transform at 0 (present iff gamma < 1); mass_at_zero is the
    weight of the atom of F at zero.  gamma must pass check_gamma, and the
    support is never empty.
    """

    gamma: float
    grid: np.ndarray
    m_breve: np.ndarray
    density: np.ndarray
    support: list[tuple[float, float]]
    m_under_zero: float | None
    mass_at_zero: float
    valid: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_gamma(self.gamma)
        if not self.support:
            raise EmptySupport("a solution needs at least one support interval")

    @cached_property
    def _pieces(self):
        """The support edges clipped to the grid range, which split it into
        pieces (tails, support intervals, gaps), and per piece the ends of
        its Chebyshev angle theta and the _stencils of its valid grid points
        (None if none): of v = Re m_breve + i log(Im m_breve / sin theta) at
        0 < theta < pi in the support, of the real m_breve off it, both
        smooth in theta up to both ends of the piece."""
        ends = np.clip(np.ravel(self.support), self.grid[0], self.grid[-1])
        bounds = np.concatenate([[self.grid[0]], ends, [self.grid[-1]]])
        pieces = []
        for q, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            a, b = self.support[q // 2] if q % 2 else (lo, hi)
            # a tail or gap that the grid range cuts to a point has no knots
            sel = self.valid & (self.grid >= lo) & (self.grid <= hi) & (b > a)
            th, m = _angle(self.grid[sel], a, b), self.m_breve[sel]
            keep = (q % 2 == 0) | ((th > 0) & (th < np.pi) & (m.imag > 0))
            th, m = th[keep], m[keep]
            v = m.real + 1j * np.log(m.imag / np.sin(th)) if q % 2 else m.real
            pieces.append((a, b, _stencils(th, v)) if len(th) else None)
        return ends, pieces

    @cached_property
    def _angle_weights(self):
        """Left and right weights of each grid step in the trapezoid rule in
        the Chebyshev angle theta of each support interval [a, b], where
        dlambda/dtheta = sqrt((lambda - a)(b - lambda)), lambda clipped to
        [a, b]: zero off the support and at its edges."""
        lo, hi = self.grid[:-1], self.grid[1:]
        left, right = np.zeros(lo.shape), np.zeros(lo.shape)
        for a, b in self.support:
            cl, ch = np.clip(lo, a, b), np.clip(hi, a, b)
            half = 0.5 * (_angle(ch, a, b) - _angle(cl, a, b))
            left += half * np.sqrt((cl - a) * (b - cl))
            right += half * np.sqrt((ch - a) * (b - ch))
        return left, right

    def m_at(self, lam):
        """m_breve at valid grid points, else the polynomial of the piece of
        the grid range holding lambda, clamped to the range (_pieces): Im >= 0
        in the support, 0 off it.  DomainError in a piece without knots."""
        ends, pieces = self._pieces
        x = np.minimum(self.grid[-1], np.maximum(
            self.grid[0], np.asarray(lam, dtype=float).ravel()))
        k = np.searchsorted(self.grid, x)
        node = (self.grid[k] == x) & self.valid[k] & (self.m_breve.imag[k] >= 0)
        out = self.m_breve[k]
        # the piece of each point; valid nodes go to one past the last piece
        k = np.where(node, len(pieces), np.searchsorted(ends, x))
        for q in np.flatnonzero(np.bincount(k)[:len(pieces)]):
            i = k == q
            if pieces[q] is None:
                raise DomainError(f"no valid grid point near lambda={x[i][0]}")
            a, b, stencil = pieces[q]
            th = _angle(x[i], a, b)
            v = _newton_form(th, *stencil)
            if q % 2:
                v.imag = np.sin(th) * np.exp(v.imag)
            out[i] = v
        return out.reshape(np.shape(lam)) if np.ndim(lam) else complex(out[0])

    def f_integral(self, lam, values=1.0, at_zero: float = 1.0):
        """Integral of f against dF over [0, lam], from values = f at the first
        grid points (up to one at or above lam; default f = 1) and at_zero =
        f(0) for the atom at zero.  The trapezoid rule in the Chebyshev angle
        theta, cumulated along the grid and linear in lambda in between: dF is
        sin(theta) times a smooth even periodic function of theta, so on the
        Chebyshev nodes of solve_density the rule converges exponentially."""
        n = np.size(values) if np.ndim(values) else len(self.grid)
        left, right = self._angle_weights
        fd = self.density[:n] * values
        cum = np.concatenate([[0.0], np.cumsum(left[:n - 1] * fd[:-1]
                                               + right[:n - 1] * fd[1:])])
        lam_arr = np.asarray(lam, dtype=float)
        out = np.interp(lam_arr, self.grid[:n], cum) \
            + self.mass_at_zero * at_zero * (lam_arr >= 0)
        return out if np.ndim(lam) else float(out)

    def cdf(self, lam):
        """F(lambda), the atom at zero included (see f_integral)."""
        return self.f_integral(lam)

    def total_mass(self) -> float:
        """F at the top of the grid: 1 up to the quadrature error."""
        return self.f_integral(self.grid[-1])

    def clip_to_support(self, lam):
        """Nearest in-support value; flags entries that had to move."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        edges = np.ravel(self.support)
        nearest = edges[np.argmin(np.abs(edges[:, None] - lam_arr), axis=0)]
        inside = (np.searchsorted(edges, lam_arr) % 2 == 1) | (nearest == lam_arr)
        out = np.where(inside, lam_arr, nearest)
        return (out, ~inside) if np.ndim(lam) else (float(out[0]),
                                                    bool(~inside[0]))


def companion_zero(spec: PopulationSpectrum, gamma: float) -> float:
    """Companion transform value at zero, for gamma < 1: the positive root of
    x(-1/mu) = 0, i.e. of integral of tau*mu/(1+tau*mu) dH(tau) = gamma."""
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
    curve Im x(u) = 0, refined where a point misses (_interior); off it u is
    the real root on a rising branch of x.  A point that misses the residual,
    of the Newton solve or of the original equation in m, is marked invalid
    (density 0) instead of aborting.
    """
    check_gamma(gamma)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be a strictly ascending positive finite 1-D array")
    u, ok = _real_roots(spec, gamma, grid)
    m_breve, resid = _at_root(grid, u, spec, gamma)
    valid = ok & (resid <= 10 * TOL * np.maximum(1.0, np.abs(m_breve)))
    return StieltjesSolution(
        gamma=float(gamma), grid=grid, m_breve=m_breve,
        density=np.where(valid, m_breve.imag / np.pi, 0.0),
        support=[(float(a), float(b))
                 for a, b in _critical_points(spec, gamma)[1].reshape(-1, 2)],
        m_under_zero=companion_zero(spec, gamma) if gamma < 1 else None,
        mass_at_zero=(1.0 - gamma) if gamma < 1 else 0.0, valid=valid)


def support_edges(solution: StieltjesSolution) -> list[tuple[float, float]]:
    """Support intervals, ascending; never empty."""
    return list(solution.support)


def solve_density(spec: PopulationSpectrum, gamma: float,
                  num_points: int = 3000) -> StieltjesSolution:
    """Boundary values on a grid built from the exact support edges: a
    Chebyshev grid on each support interval with both edges as nodes, plus
    sparse tails off the support.  An interval's node count doubles, at most
    MAX_DOUBLINGS times, until the trapezoid rule in theta for its mass moves
    by at most MASS_TOL when every other node is dropped; a narrow feature of
    the density (a near split of the support at large gamma) needs more nodes
    than its share of num_points.  Raises NoConvergence if any grid point is
    invalid; warns (RuntimeWarning) if a halving gap is still above MASS_TOL
    after the last doubling."""
    lows, highs = _critical_points(spec, check_gamma(gamma))[1].reshape(-1, 2).T
    total = float(np.sum(highs - lows))
    fixed = [np.linspace(0.6 * lows[0], lows[0], 24)[:-1],
             np.linspace(highs[-1], 1.05 * highs[-1], 24)[1:]]
    for b, a in zip(highs[:-1], lows[1:]):
        fixed.append(np.linspace(b, a, 24)[1:-1])
    # odd node counts, so that every other node is again a Chebyshev grid
    counts = [2 * max(150, int(num_points * (b - a) / total) // 2) + 1
              for a, b in zip(lows, highs)]
    for _ in range(MAX_DOUBLINGS + 1):
        nodes = [a + 0.5 * (b - a) * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))
                 for a, b, n in zip(lows, highs, counts)]
        for x, b in zip(nodes, highs):
            x[-1] = b
        solution = boundary_values(spec, gamma,
                                   np.unique(np.concatenate(fixed + nodes)))
        if not solution.valid.all():
            i = int(np.argmin(solution.valid))
            raise NoConvergence(f"boundary value at lambda={solution.grid[i]} "
                                f"missed its residual")
        gaps = [_halving_gap(solution, x) for x in nodes]
        if max(gaps) <= MASS_TOL:
            return solution
        counts = [2 * n - 1 if g > MASS_TOL else n for n, g in zip(counts, gaps)]
    i = int(np.argmax(gaps))
    warnings.warn(f"support interval [{lows[i]}, {highs[i]}]: halving gap "
                  f"{gaps[i]:.3e} after {MAX_DOUBLINGS} doublings, total mass "
                  f"gap {abs(solution.total_mass() - 1.0):.3e}", RuntimeWarning)
    return solution


def _halving_gap(solution: StieltjesSolution, nodes: np.ndarray) -> float:
    """Change of the trapezoid rule in theta for the mass on the Chebyshev
    nodes of one support interval when every other node is dropped."""
    n = len(nodes)
    a, b = nodes[0], nodes[-1]
    w = solution.density[np.searchsorted(solution.grid, nodes)] \
        * np.sin(np.linspace(0.0, np.pi, n))
    return 0.5 * (b - a) * np.pi / (n - 1) * abs(np.sum(w[1::2]) - np.sum(w[::2]))
