"""Small numeric kernels shared by the geometry modules.

Quadrature (one running rule, whose last node is the total), a
fourth-order grid derivative, and the one monotone inversion: the inverse
of a running integral known only at the nodes of a table, found by Newton
steps on the table's quintic Hermite interpolant and refused where the
table does not resolve it (:func:`invert_running_integral`).  Nothing here
calls back into a function: every kernel reads plain arrays on uniform
grids and is deterministic, which keeps the higher-level outputs
byte-reproducible.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import InputError, NumericalError

SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
# The bracket width ``BRENT_XTOL + BRENT_RTOL |r|`` at which a solve for
# ``r`` on a dial that reports no resolution stops (scipy's brentq defaults).
BRENT_XTOL, BRENT_RTOL = 1e-12, 4.0 * sys.float_info.epsilon
# The largest error estimate a node of :func:`invert_running_integral` may
# carry, as a fraction of the grid step.  The estimate of a rebuilt leg
# stays below 3e-7 of a step over the test suite and the benchmark's
# problems (seeds 101-103).  On the README instance at 64 steps it reads
# 5e-3 at 1e-3 above the lowest admissible ``r`` and 6e-2 at 1e-4 above
# it; there the table's own quadrature error, which the estimate does not
# see, measured 3 to 6 times the estimate.
INVERSE_TOL = 1e-3


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


def invert_running_integral(grid: np.ndarray, accum: np.ndarray,
                            slopes: np.ndarray) -> tuple[np.ndarray, float]:
    """Nodes ``u`` with ``F(u_i) = F(1) * grid_i``, ``F`` a running integral
    known only at the nodes, and the largest error estimate of a node.

    ``grid`` is uniform over ``[0, 1]`` with step ``h``, ``accum`` holds
    ``F`` at its nodes (``F(0) = 0``) and ``slopes`` holds ``F'``
    (positive) there.  ``F`` is read as the table's piecewise quintic
    Hermite interpolant (de Boor, *A Practical Guide to Splines*, 1978):
    values ``accum``, first derivatives ``slopes`` and second derivatives
    ``slopes`` differenced on the grid (:func:`derivative_on_grid`), so
    nothing but the table is read and nothing is called back.  Newton
    steps on it start from the inverse of the table's linear interpolant
    and stop after a step that moves no node by more than ``sqrt(eps) h``,
    since quadratic convergence puts the next move below roundoff, or after
    eight steps.  Every move is capped at just under half the gap to
    either neighbour, which keeps the nodes strictly ordered next to a pole
    of ``F'``, where the linear first guess can be off by more than a node
    spacing.

    A node's error estimate is the miss of the table's cubic Hermite
    interpolant (values and slopes only) at the node, divided by the slope:
    how far the cubic's inverse lies from the quintic's.  On a table that
    resolves ``F`` the cubic errs at fourth order in ``h`` and the quintic
    at sixth, so the estimate bounds the quintic's interpolation error
    with a wide margin.  It adds the quintic's own miss, which convergence
    leaves at roundoff, so Newton steps that stopped short show in it too.
    It says nothing of the error of the table's values themselves (a
    quadrature's), which the inverse inherits.  A node whose estimate
    exceeds ``INVERSE_TOL * h``, or is not a number, raises
    :class:`NumericalError`: there the two interpolants of one table
    disagree by a visible fraction of a node spacing, so ``F'`` changes on
    the scale of the grid and the table does not resolve the inverse.
    """
    h = grid[1] - grid[0]
    rise = np.diff(accum)
    d0, d1 = h * slopes[:-1], h * slopes[1:]
    bend = 0.5 * h * h * derivative_on_grid(slopes, h)
    b0, db = bend[:-1], np.diff(bend)
    # every piece in powers of the fraction of its step: the cubic matches
    # value and slope at both its nodes, the quintic the bend too
    p, q = rise - d0 - b0, d1 - d0 - 2.0 * b0
    quintic = np.stack([accum[:-1], d0, b0, 10.0 * p - 4.0 * q + db,
                        -15.0 * p + 7.0 * q - 2.0 * db, 6.0 * p - 3.0 * q + db])
    cubic = np.stack([accum[:-1], d0, 3.0 * rise - 2.0 * d0 - d1, d0 + d1 - 2.0 * rise])
    u = np.interp(grid, accum / accum[-1], grid)
    goal = accum[-1] * grid[1:-1]

    def at_nodes(pieces):
        # the value and the slope (per step) of the piece each interior
        # node lies on
        i = np.searchsorted(grid[1:-1], u[1:-1], side="right")
        s, c = (u[1:-1] - grid[i]) / h, pieces[:, i]
        return polyval(s, c, tensor=False), polyval(s, polyder(c), tensor=False)

    for _ in range(8):
        value, slope = at_nodes(quintic)
        gaps = np.diff(u)
        move = np.clip(np.divide(h * (goal - value), slope, out=np.zeros_like(slope),
                                 where=slope > 0.0),
                       -0.45 * gaps[:-1], 0.45 * gaps[1:])
        u[1:-1] += move
        if np.max(np.abs(move), initial=0.0) <= SQRT_EPS * h:
            break
    value, slope = at_nodes(quintic)
    miss = h * (np.abs(at_nodes(cubic)[0] - goal) + np.abs(value - goal))
    estimate = np.max(np.divide(miss, slope, out=np.where(miss == 0.0, 0.0, np.inf),
                                where=slope > 0.0), initial=0.0)
    if not estimate <= INVERSE_TOL * h:
        raise NumericalError(
            f"inverse of a running integral not resolved by its table: a "
            f"node's estimated error {estimate:.3g} exceeds {INVERSE_TOL:g} "
            f"of the grid step {h:.3g}")
    return u, estimate
