"""Small numeric kernels shared by the geometry modules.

Quadrature (composite and running Simpson-type rules), a fourth-order grid
derivative, and the one monotone inversion: the exact inverse of a PCHIP
interpolant (:func:`invert_pchip`), polished by Newton steps against the
re-integrated forward map (:func:`invert_running_integral`).  Everything
here operates on plain uniform grids and is deterministic, which keeps the
higher-level outputs byte-reproducible.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InputError, NumericalError

GAUSS5_NODES, GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even panel count.

    ``values`` holds samples at ``n + 1`` nodes with spacing ``h``; ``n``
    must be even.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0] - 1
    if n < 2 or n % 2:
        raise InputError(f"Simpson rule needs an even number of panels, got {n}")
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * weights @ values)


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniformly sampled values, starting at zero.

    Each panel integrates the cubic through the four nearest samples, so
    every increment carries the same fifth-order local error: the node
    values have no even/odd parity imbalance that finite differencing of
    downstream quantities would otherwise amplify.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[0] - 1
    if n < 3:
        raise InputError(f"cumulative rule needs at least three panels, got {n}")
    inc = np.empty(n)
    inc[0] = h / 24.0 * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    inc[1:-1] = h / 24.0 * (-f[:-3] + 13.0 * (f[1:-2] + f[2:-1]) - f[3:])
    inc[-1] = h / 24.0 * (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1])
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def derivative_on_grid(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative of uniformly spaced samples.

    Centered five-point stencils in the interior, one-sided five-point
    stencils at the two nodes on each end.  ``values`` may be 1-D or 2-D
    (derivative taken down axis 0).
    """
    f = np.asarray(values, dtype=float)
    if f.shape[0] < 5:
        raise InputError("need at least five samples for the derivative stencil")
    d = np.empty_like(f)
    d[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return d


def invert_pchip(grid: np.ndarray, values: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Points ``u`` with ``P(u) = targets``, ``P`` the PCHIP interpolant of
    the increasing table ``values`` on ``grid``.

    One ``searchsorted`` over the table finds each target's interval; that
    interval's cubic is then solved for its local abscissa by Newton steps
    from the linear interpolant, kept inside a shrinking bracket (a step
    that leaves it is replaced by the bracket midpoint), until the largest
    step is at roundoff.  Targets at or beyond the table's ends map to the
    grid's ends exactly.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = grid.shape[0] - 1
    j = np.clip(np.searchsorted(values, targets, side="right") - 1, 0, n - 1)
    c0, c1, c2, c3 = PchipInterpolator(grid, values).c[:, j]
    goal = targets - c3
    width = grid[j + 1] - grid[j]
    rise = values[j + 1] - values[j]
    lo = np.zeros_like(goal)
    hi = width.copy()
    t = np.clip(np.divide(goal * width, rise, out=np.zeros_like(goal),
                          where=rise > 0.0), lo, hi)
    tol = 4.0 * np.finfo(float).eps * max(abs(grid[0]), abs(grid[-1]))
    for _ in range(64):  # midpoint steps alone exhaust a double by then
        miss = ((c0 * t + c1) * t + c2) * t - goal
        below = miss < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        slope = (3.0 * c0 * t + 2.0 * c1) * t + c2
        step = np.divide(-miss, slope, out=np.full_like(t, np.inf),
                         where=slope > 0.0)
        nxt = t + step
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        moved = np.max(np.abs(nxt - t), initial=0.0)
        t = nxt
        if moved <= tol:
            break
    u = grid[j] + t
    u[targets <= values[0]] = grid[0]
    u[targets >= values[-1]] = grid[-1]
    return u


def invert_running_integral(integrand, grid: np.ndarray,
                            accum: np.ndarray) -> np.ndarray:
    """Nodes ``u`` with ``F(u_i) = F(1) * grid_i``, ``F`` a running integral.

    ``grid`` is uniform over ``[0, 1]``, ``accum`` holds ``F`` at its nodes
    and ``integrand`` evaluates ``F'`` (positive) on a 1-d array.  The exact
    inverse of the PCHIP interpolant of the normalised table
    (:func:`invert_pchip`) gives a first guess; its between-node error
    oscillates at the grid scale, and differentiating anything downstream
    would amplify it by a grid factor.
    Two Newton steps against the locally re-integrated forward map (``F`` at
    the nearest node plus a Gauss panel to the query point) leave only the
    smooth quadrature error of the table itself.
    """
    n = grid.shape[0] - 1
    normalised = accum / accum[-1]
    normalised[0], normalised[-1] = 0.0, 1.0
    u = invert_pchip(grid, normalised, grid)
    goal = accum[-1] * grid
    for _ in range(2):
        idx = np.clip(np.searchsorted(grid, u[1:-1], side="right") - 1, 0, n - 1)
        left = grid[idx]
        halfw = 0.5 * (u[1:-1] - left)
        sigma = (0.5 * (u[1:-1] + left))[:, None] + halfw[:, None] * GAUSS5_NODES
        panel = halfw * (integrand(sigma.ravel()).reshape(sigma.shape) @ GAUSS5_WEIGHTS)
        step = -(accum[idx] + panel - goal[1:-1]) / integrand(u[1:-1])
        # Near a pole of the integrand the interpolant can be off by more
        # than a node spacing; cap each move at just under half the gap to
        # either neighbour so the polished nodes stay strictly ordered.
        gaps = np.diff(u)
        u[1:-1] += np.clip(step, -0.45 * gaps[:-1], 0.45 * gaps[1:])
    u[0], u[-1] = 0.0, 1.0
    if not np.all(np.diff(u) > 0.0):
        raise NumericalError("inverse of a running integral lost monotonicity")
    return u
