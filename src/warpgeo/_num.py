"""Small numeric kernels shared by the geometry modules.

Quadrature (one running rule, whose last node is the total), a
fourth-order grid derivative, and the one monotone inversion: the inverse of
a table's linear interpolant, moved by one Newton step on the table's cubic
Hermite interpolant and polished by Newton steps against the re-integrated
forward map (:func:`invert_running_integral`).  Everything here operates on
plain uniform grids and is deterministic, which keeps the higher-level
outputs byte-reproducible.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import InputError, NumericalError

GAUSS5_NODES, GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
# The bracket width ``BRENT_XTOL + BRENT_RTOL |r|`` at which a solve for
# ``r`` on a dial that reports no resolution stops (scipy's brentq defaults).
BRENT_XTOL, BRENT_RTOL = 1e-12, 4.0 * sys.float_info.epsilon


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


def invert_running_integral(integrand, grid: np.ndarray, accum: np.ndarray,
                            slopes: np.ndarray) -> np.ndarray:
    """Nodes ``u`` with ``F(u_i) = F(1) * grid_i``, ``F`` a running integral.

    ``grid`` is uniform over ``[0, 1]``, ``accum`` holds ``F`` at its nodes,
    ``slopes`` holds ``F'`` there and ``integrand`` evaluates ``F'``
    (positive) on a 1-d array.  The inverse of the table's linear
    interpolant, moved by one Newton step on the table's cubic Hermite
    interpolant (values ``accum``, derivatives ``slopes``), gives a first
    guess; Newton steps against the locally re-integrated forward map
    (``F`` at the nearest node plus a Gauss panel to the query point) then
    leave only the smooth quadrature error of the table itself.  Each polish
    step evaluates the integrand once, at the panel nodes and the current
    nodes together.  The polish stops after a step that moves no node by
    more than ``sqrt(eps)``, since quadratic convergence puts the next move
    below roundoff, and after four steps at most: a fourth step that still
    moves a node by more than ``1e-6`` of the grid step has not converged
    (the polish cycles next to a pole of the integrand) and raises
    :class:`NumericalError`.  Every move, the Hermite step's too, is capped
    at just under half the gap to either neighbour.
    """
    n = grid.shape[0] - 1
    h = grid[1] - grid[0]
    normalised = accum / accum[-1]
    normalised[0], normalised[-1] = 0.0, 1.0
    u = np.interp(grid, normalised, grid)
    goal = accum[-1] * grid

    def advance(step):
        # Near a pole of the integrand the interpolant can be off by more
        # than a node spacing; cap each move at just under half the gap to
        # either neighbour so the nodes stay strictly ordered.
        gaps = np.diff(u)
        move = np.clip(step, -0.45 * gaps[:-1], 0.45 * gaps[1:])
        u[1:-1] += move
        return np.max(np.abs(move), initial=0.0)

    def panel_of(inner):
        return np.clip(np.searchsorted(grid, inner, side="right") - 1, 0, n - 1)

    idx = panel_of(u[1:-1])
    s = (u[1:-1] - grid[idx]) / h
    f0, f1 = accum[idx], accum[idx + 1]
    d0, d1 = h * slopes[idx], h * slopes[idx + 1]
    c2 = 3.0 * (f1 - f0) - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * (f1 - f0)
    hermite = f0 + s * (d0 + s * (c2 + s * c3))
    rate = (d0 + s * (2.0 * c2 + 3.0 * s * c3)) / h
    advance(np.divide(goal[1:-1] - hermite, rate,
                      out=np.zeros_like(rate), where=rate > 0.0))
    for _ in range(4):
        inner = u[1:-1]
        idx = panel_of(inner)
        left = grid[idx]
        halfw = 0.5 * (inner - left)
        sigma = (0.5 * (inner + left))[:, None] + halfw[:, None] * GAUSS5_NODES
        f = integrand(np.concatenate((sigma.ravel(), inner)))
        panel = halfw * (f[:sigma.size].reshape(sigma.shape) @ GAUSS5_WEIGHTS)
        largest = advance(-(accum[idx] + panel - goal[1:-1]) / f[sigma.size:])
        if largest <= SQRT_EPS:
            break
    else:
        if largest > 1e-6 * h:
            raise NumericalError(
                f"inverse of a running integral did not converge: the last "
                f"Newton step still moved a node by {largest:.3g}")
    u[0], u[-1] = 0.0, 1.0
    if not np.all(np.diff(u) > 0.0):
        raise NumericalError("inverse of a running integral lost monotonicity")
    return u
