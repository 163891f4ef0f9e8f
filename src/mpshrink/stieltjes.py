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

For Im z > 0 (solve_mF) the damped fixed point mu <- 1/(x(-1/mu) + 1/mu - z)
maps the upper half plane strictly into itself, so it cannot cross to a
non-physical root; Newton on x(u) = z finishes it.  On the real axis the
support edges are x at its real critical points, inside the support u
solves x(u) = lambda with Im u > 0, and off it u is the real root on a
rising branch of x.  Every value is verified on the equation in m, with H
integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, EmptySupport, GammaOne, NoConvergence
from .spectrum import PopulationSpectrum, _stieltjes_h, moment

TOL = 1e-12
MAX_ITER = 10_000
DAMPING = 0.5
_NEWTON_GATE = 1e-5
BISECT_STEPS = 100
NEWTON_STEPS = 50
PATH_POINTS = 65
MASS_TOL = 1e-7
MAX_DOUBLINGS = 4
STENCIL = 6


def _u_to_m(z, u, spec: PopulationSpectrum, gamma: float):
    """m from u = -1/mu at z, where x(u) = z.

    For gamma < 1, F has an atom at zero and m = (gamma - 1)/z + gamma*mu
    keeps its pole apart from the regular mu.  For gamma > 1 the companion
    law has the atom instead, and the two terms cancel to |m| << gamma/|z|;
    there m = u * S(u) / z."""
    if gamma < 1:
        return (gamma - 1.0) / z - gamma / u
    # + 0.0 turns the -0.0 imaginary parts of real m to +0.0
    return u * _stieltjes_h(spec, u, order=0)[0] / z + 0.0


def solve_mF(z, spec: PopulationSpectrum, gamma: float):
    """Solve the self-consistency equation at z (Im z > 0).

    Accepts a scalar or an array of z values; returns the matching shape.
    The damped fixed point mu <- 1/(x(-1/mu) + 1/mu - z) runs from -1/z until
    its step is below _NEWTON_GATE * max(1, |mu|); Newton on x(u) = z in
    u = -1/mu then finishes.  The returned m has Im m > 0, Im mu > 0 and
    solves the equation in m, H integrated exactly, within
    10 * TOL * max(1, |m|).  Raises NoConvergence otherwise.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z_arr.imag <= 0):
        raise DomainError("solve_mF requires Im(z) > 0")
    mu = -1.0 / z_arr
    iters = np.zeros(z_arr.shape, dtype=int)
    active = np.arange(z_arr.size)
    for _ in range(MAX_ITER):
        if not len(active):
            break
        mua = mu[active]
        u = -1.0 / mua
        # x(u) + 1/mu = x(u) - u, the integral term of x alone
        step = 1.0 / (-u * (1.0 + u * _stieltjes_h(spec, u, order=0)[0])
                      / gamma - z_arr[active]) - mua
        mu[active] = mua + DAMPING * step
        iters[active] += 1
        active = active[np.abs(step) >= _NEWTON_GATE * np.maximum(
            1.0, np.abs(mua))]
    u, _ = _newton(spec, gamma, z_arr, -1.0 / mu)
    m = _u_to_m(z_arr, u, spec, gamma)
    resid = _exact_gap(z_arr, m, spec, gamma)
    ok = (resid <= 10 * TOL * np.maximum(1.0, np.abs(m))) & (m.imag > 0) \
        & (u.imag > 0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NoConvergence(
            f"no converged solution at z={z_arr[i]}",
            residual=float(resid[i]), iterations=int(iters[i]))
    return m if np.ndim(z) else complex(m[0])


def _in_u(u, spec: PopulationSpectrum, gamma: float):
    """x(u), x'(u) and x''(u) for an array of u = -1/mu off supp H, real for
    real u.  Unlike mu, u stays finite at the lower edge as gamma -> 1."""
    S, S1, S2 = _stieltjes_h(spec, u)
    return (u * (1.0 - 1.0 / gamma) - u * u * S / gamma,
            (1.0 - 1.0 / gamma) - (2.0 * u * S + u * u * S1) / gamma,
            -(2.0 * S + 4.0 * u * S1 + u * u * S2) / gamma)


def _exact_gap(z, m, spec: PopulationSpectrum, gamma: float):
    """|m - integral of dH(tau) / (tau*k - z)|, k = 1 - 1/gamma - z*m/gamma,
    the residual of the equation in m with H integrated exactly: the
    integral is S(z/k) / k."""
    k = 1.0 - 1.0 / gamma - z * m / gamma
    return np.abs(_stieltjes_h(spec, z / k, order=0)[0] / k - m)


def _bisect(f, neg, pos) -> np.ndarray:
    """Roots of f between neg (where f < 0) and pos (where f > 0), vectorized;
    the bracket ends themselves are never evaluated."""
    neg, pos = np.array(neg, dtype=float), np.array(pos, dtype=float)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (neg + pos)
        below = f(mid) < 0
        neg, pos = np.where(below, mid, neg), np.where(below, pos, mid)
    return 0.5 * (neg + pos)


@lru_cache(maxsize=128)
def _critical_points(spec: PopulationSpectrum, gamma: float):
    """Real critical points u* = -1/mu* of x, ascending, and the values x(u*).
    Raises GammaOne at gamma = 1, where the lower edge reaches zero.

    In u = -1/mu, dx/du = 1 - (1/gamma) int tau^2/(u - tau)^2 dH is strictly
    concave between consecutive pieces of supp H and falls to -inf at them;
    it is 1 - 1/gamma at u = 0 and tends to 1 at -inf and +inf.  So one
    critical point lies left of supp H, one right of it, and a pair in each
    gap of supp H where the peak of dx/du is positive.  The pairs
    (u*[2i], u*[2i+1]) bound the support intervals [x(u*[2i]), x(u*[2i+1])].
    """
    if gamma == 1:
        raise GammaOne("gamma = 1 excluded: the density can be unbounded at 0")

    lo, hi = np.array(sorted([(t, t) for _, t in spec.atoms]
                             + [(a, b) for _, a, b in spec.segments])).T
    hi = np.maximum.accumulate(hi)
    gap = lo[1:] > hi[:-1]
    p, q = hi[:-1][gap], lo[1:][gap]          # the gaps (p, q) of supp H
    peak = _bisect(lambda u: _in_u(u, spec, gamma)[2], q, p)
    rising = _in_u(peak, spec, gamma)[1] > 0
    root = spec.h2 / np.sqrt(gamma)
    neg = [spec.h1 if gamma > 1 else 0.0, spec.h2] + list(p[rising]) \
        + list(q[rising])
    pos = [0.0 if gamma > 1 else -2.0 * root, spec.h2 + 2.0 * root] \
        + 2 * list(peak[rising])
    crit = np.sort(_bisect(lambda u: _in_u(u, spec, gamma)[1], neg, pos))
    values = _in_u(crit, spec, gamma)[0]
    # a gap where x barely rises can come out empty in floating point
    keep = np.concatenate([[True], np.repeat(np.diff(values)[1::2] > 0, 2),
                           [True]])
    return crit[keep], values[keep]


def _newton(spec: PopulationSpectrum, gamma: float, z, u):
    """Newton on x(u) = z from seeds u; returns (u, converged).

    A point has converged when gamma*mu*(x - z)/z, the residual of the
    equation in m, is within TOL * max(1, |m|).  Each evaluation is followed
    by its step, so a converged point takes one more quadratic step, which
    brings it to rounding level at no extra cost."""
    u = np.array(u, dtype=complex)
    for _ in range(NEWTON_STEPS + 1):
        x, x1 = _in_u(u, spec, gamma)[:2]
        # |m| only scales the tolerance, so the cancellation of this form at
        # gamma >> 1 (see _u_to_m) does not matter, and it is cheaper
        m = (gamma - 1.0) / z - gamma / u
        done = gamma * np.abs(x - z) <= TOL * np.abs(z) * np.abs(u) \
            * np.maximum(1.0, np.abs(m))
        u = u - (x - z) / x1
        if done.all():
            break
    return u, done


def _angle(lam, a: float, b: float):
    """Chebyshev angle theta of lambda = a + (b - a) * (1 - cos theta) / 2."""
    return np.arccos(np.minimum(1.0, np.maximum(-1.0, 1.0 - 2.0 * (lam - a)
                                                / (b - a))))


def _interior(spec: PopulationSpectrum, gamma: float, lam: np.ndarray,
              a: float, b: float, u_a: float, u_b: float):
    """(u, converged) at points inside the support interval (a, b) with
    edges x(u_a), x(u_b).

    Newton continuation walks from the lower edge in steps of the Chebyshev
    angle theta, in which u is smooth up to both edges, seeded first from the
    square-root expansion x(u) ~ a + x''(u_a) (u - u_a)^2 / 2, then by
    linear extrapolation; a step whose solve fails is halved.  The points are
    solved from seeds interpolated along that path; where the path lost the
    root they miss the residual.  A Newton root counts only within Im(seed)/2
    of its seed: that disk lies in the upper half plane, where the physical
    root is the only one, so a real root of a falling branch of x is never
    taken."""
    def solve(lam, seed):
        seed = np.asarray(seed, dtype=complex)
        u, done = _newton(spec, gamma, lam, seed)
        return u, done & (np.abs(u - seed) <= 0.5 * seed.imag)

    curv = _in_u(np.array([u_a]), spec, gamma)[2][0]
    path_t, path_u = [0.0], [complex(u_a)]
    ends = np.pi / (PATH_POINTS - 1) * 0.5 ** np.arange(1, 13)
    targets = sorted(np.concatenate([ends, np.linspace(0.0, np.pi, PATH_POINTS)
                                     [1:-1], np.pi - ends]), reverse=True)
    while targets:
        t = targets[-1]
        lam_t = a + 0.5 * (b - a) * (1.0 - np.cos(t))
        seed = u_a + 1j * np.sqrt(2.0 * (lam_t - a) / abs(curv)) \
            if len(path_u) == 1 else path_u[-1] + (path_u[-1] - path_u[-2]) \
            * (t - path_t[-1]) / (path_t[-1] - path_t[-2])
        u, ok = solve(lam_t, [seed])
        if ok[0]:
            path_t.append(targets.pop())
            path_u.append(u[0])
        elif t - path_t[-1] > 1e-9:
            targets.append(0.5 * (t + path_t[-1]))
        else:
            break
    path_t, path_u = np.array(path_t + [np.pi]), np.array(path_u + [u_b])
    t = _angle(lam, a, b)
    return solve(lam, np.interp(t, path_t, path_u.real)
                 + 1j * np.interp(t, path_t, path_u.imag))


def _rising_root(spec: PopulationSpectrum, gamma: float, lam: np.ndarray,
                 crit: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Real u = -1/mu with x(u) = lam on the rising branch of x that covers
    lam, for lam off the support."""
    k = np.searchsorted(values[1::2], lam)
    last = len(crit) - 1
    # below the support x(u) < u + m1/gamma, above it x(u) > u
    left = np.minimum(crit[0], lam - moment(spec, 1) / gamma) - spec.h2
    neg = np.where(k == 0, left, crit[np.maximum(2 * k - 1, 0)])
    pos = np.where(2 * k > last, lam, crit[np.minimum(2 * k, last)])
    return _bisect(lambda u: _in_u(u, spec, gamma)[0] - lam, neg, pos)


def _horner(th, left, h, coef):
    """Local polynomials of StieltjesSolution._pieces at angles th, by
    Horner's rule; coef[i] holds the t**i coefficient of each knot interval,
    and th outside the knots takes the polynomial of the nearest interval."""
    j = np.searchsorted(left[1:], th, side="right")
    t = (th - left[j]) / h[j]
    v = coef[-1, j]
    for c in coef[-2::-1]:
        v *= t
        v += c[j]
    return v


def _monomial(t, v):
    """Coefficients (row i: t**i) of the polynomials through the points
    (t[j], v[j]) of each row j, by Newton's divided differences, vectorized
    over the rows and expanded to the monomial basis of _horner."""
    dd = np.array(v, dtype=complex)
    k = dd.shape[1]
    for i in range(1, k):
        dd[:, i:] = (dd[:, i:] - dd[:, i - 1:-1]) / (t[:, i:] - t[:, :-i])
    coef = np.zeros((k, len(dd)), dtype=complex)
    coef[0] = dd[:, -1]
    for i in range(k - 2, -1, -1):
        # multiply by (t - t_i) and add the i-th divided difference
        coef[1:] = coef[:-1] - t[:, i] * coef[1:]
        coef[0] = dd[:, i] - t[:, i] * coef[0]
    return coef


@dataclass
class StieltjesSolution:
    """Boundary values of the limiting law on a lambda grid.

    density is Im[m_breve]/pi (zero at invalid points); support holds the
    closed intervals where the density is positive; m_under_zero is the
    companion transform at 0 (present iff gamma < 1); mass_at_zero is the
    weight of the atom of F at zero.
    """

    gamma: float
    grid: np.ndarray
    m_breve: np.ndarray
    density: np.ndarray
    support: list[tuple[float, float]]
    m_under_zero: float | None
    mass_at_zero: float
    valid: np.ndarray = field(repr=False)

    @cached_property
    def _pieces(self):
        """Interpolation data of m_at from the valid grid points.  Per support
        interval, its knots 0 < theta < pi in the Chebyshev angle (m_breve is
        smooth in theta up to both edges) carry v = Re m_breve + i log(Im
        m_breve / sin theta); each knot interval gets the polynomial of v
        through the STENCIL nearest knots (all of them if fewer), in t =
        (theta - left knot) / knot spacing.  Off the support, the real values
        plus the polynomials' edge values."""
        pieces, knots, off = [], [], self.valid.copy()
        for a, b in self.support:
            inside = (self.grid >= a) & (self.grid <= b)
            off &= ~inside
            inside &= self.valid
            th, m = _angle(self.grid[inside], a, b), self.m_breve[inside]
            pos = (th > 0) & (th < np.pi) & (m.imag > 0)
            if pos.any():
                th, m = th[pos], m[pos]
                n, k = len(th), min(STENCIL, len(th))
                left, h = (th[:-1], np.diff(th)) if n > 1 else (th, np.ones(1))
                first = np.clip(np.arange(len(left)) - (k - 1) // 2, 0, n - k)
                near = first[:, None] + np.arange(k)
                t = (th[near] - left[:, None]) / h[:, None]
                v = m.real + 1j * np.log(m.imag / np.sin(th))
                coef = _monomial(t, v[near])
                pieces.append((a, b, left, h, coef))
                edge = _horner(np.array([0.0, np.pi]), left, h, coef).real
                knots += [(a, edge[0]), (b, edge[1])]
        knots = sorted(knots + list(zip(self.grid[off], self.m_breve[off].real)))
        return pieces, np.array(knots).reshape(-1, 2).T

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
        """m_breve interpolated from the grid (clamped to the grid range),
        never across a support edge; Im m_at >= 0 by construction."""
        pieces, (xs, ys) = self._pieces
        x = np.minimum(self.grid[-1], np.maximum(
            self.grid[0], np.atleast_1d(np.asarray(lam, dtype=float))))
        out = np.interp(x, xs, ys).astype(complex)
        for a, b, *poly in pieces:
            sel = (x >= a) & (x <= b)
            th = _angle(x[sel], a, b)
            v = _horner(th, *poly)
            v.imag = np.sin(th) * np.exp(v.imag)
            out[sel] = v
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
        if not self.support:
            raise EmptySupport("solution has no detected support")
        inside = np.zeros(lam_arr.shape, dtype=bool)
        for lo, hi in self.support:
            inside |= (lam_arr >= lo) & (lam_arr <= hi)
        edges = np.ravel(self.support)
        nearest = edges[np.argmin(np.abs(edges[:, None] - lam_arr), axis=0)]
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
    """Boundary values and density on an ascending positive grid.

    The support edges are the exact critical values of x(u) whatever the
    grid, so refine_edges has no effect; it is accepted for callers that pass
    it.  Grid points inside the support come from Newton continuation, points
    off it from the real root on a rising branch of x.  A point that misses
    the residual, of the Newton solve or of the original equation in m, is
    marked invalid (density 0) instead of aborting.
    """
    crit, values = _critical_points(spec, gamma)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0) \
            or grid[0] <= 0:
        raise ValueError("grid must be a strictly ascending positive 1-D array")
    u = np.zeros(grid.shape, dtype=complex)
    ok, off = np.ones(grid.shape, dtype=bool), np.ones(grid.shape, dtype=bool)
    for a, b, u_a, u_b in zip(values[::2], values[1::2], crit[::2], crit[1::2]):
        inside = (grid > a) & (grid < b)
        if inside.any():
            u[inside], ok[inside] = _interior(spec, gamma, grid[inside],
                                              a, b, u_a, u_b)
        off &= ~inside
    u[off] = _rising_root(spec, gamma, grid[off], crit, values)
    for edge, u_edge in zip(values, crit):
        u[grid == edge] = u_edge

    m_breve = _u_to_m(grid, u, spec, gamma)
    resid = _exact_gap(grid.astype(complex), m_breve, spec, gamma)
    valid = ok & (resid <= 10 * TOL * np.maximum(1.0, np.abs(m_breve)))
    return StieltjesSolution(
        gamma=float(gamma), grid=grid, m_breve=m_breve,
        density=np.where(valid, m_breve.imag / np.pi, 0.0),
        support=[(float(a), float(b)) for a, b in zip(values[::2], values[1::2])],
        m_under_zero=companion_zero(spec, gamma) if gamma < 1 else None,
        mass_at_zero=(1.0 - gamma) if gamma < 1 else 0.0, valid=valid)


def support_edges(solution: StieltjesSolution) -> list[tuple[float, float]]:
    """Support intervals; raises EmptySupport when the solution has none."""
    if not solution.support:
        raise EmptySupport("solution has no support intervals")
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
    invalid."""
    lows, highs = _critical_points(spec, gamma)[1].reshape(-1, 2).T
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
        coarse = [_halving_gap(solution, x) > MASS_TOL for x in nodes]
        if not any(coarse):
            break
        counts = [2 * n - 1 if c else n for n, c in zip(counts, coarse)]
    return solution


def _halving_gap(solution: StieltjesSolution, nodes: np.ndarray) -> float:
    """Change of the trapezoid rule in theta for the mass on the Chebyshev
    nodes of one support interval when every other node is dropped."""
    n = len(nodes)
    a, b = nodes[0], nodes[-1]
    w = solution.density[np.searchsorted(solution.grid, nodes)] \
        * np.sin(np.linspace(0.0, np.pi, n))
    return 0.5 * (b - a) * np.pi / (n - 1) * abs(np.sum(w[1::2]) - np.sum(w[::2]))
