"""Small numeric kernels shared by the geometry modules.

Quadrature (one running rule, whose last node is the total, and the
same rule's total as one weight per node, both read from one table of
panel coefficients), a fourth-order grid derivative, whose two end rows
on each side are one small stencil matrix applied to the first or last
five samples, and the one monotone inversion: the inverse of a running
integral known only at the nodes of a table, found by Newton steps on the
table's quintic Hermite interpolant and refused where the table does not
resolve it (:func:`invert_running_integral`).  The inversion finds each
node's piece once, from the table's values, gathers that piece's quintic
in powers of the fraction of a step, and runs Newton on the fraction,
evaluating the quintic and its derivative by Horner's rule.  Nothing here
calls back into a function: every kernel reads plain arrays on uniform
grids and is deterministic, which keeps the higher-level outputs
byte-reproducible.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import InputError, NumericalError

EPS = sys.float_info.epsilon
SQRT_EPS = float(np.sqrt(EPS))
# The bracket width ``BRENT_XTOL + BRENT_RTOL |r|`` at which a solve for
# ``r`` on a dial that reports no resolution stops.  The refinement is the
# Anderson-Bjorck secant; the values, and so the names, are the defaults of
# scipy's ``brentq``.
BRENT_XTOL, BRENT_RTOL = 1e-12, 4.0 * EPS
# The largest error estimate a node of :func:`invert_running_integral` may
# carry, as a fraction of the grid step.  The estimate of a rebuilt leg
# stays below 3e-7 of a step over the test suite and the benchmark's
# problems (seeds 101-103).  On the README instance at 64 steps it reads
# 5e-3 at 1e-3 above the lowest admissible ``r`` and 6e-2 at 1e-4 above
# it; there the table's own quadrature error, which the estimate does not
# see, measured 3 to 6 times the estimate.
INVERSE_TOL = 1e-3
# The one-sided five-point stencils of the first two nodes of a grid, on
# its first five samples (times ``12 h``); the last two nodes take their
# mirror image, on the last five samples in reverse.
_END_STENCILS = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1]], dtype=float)
# The panel coefficients of :func:`cumulative_simpson`, times ``24 / h``:
# the first panel's, on the first four samples (the last panel takes their
# mirror image, on the last four), and an interior panel's, on the sample
# each side of it (outer) and the two it spans (inner).
_END_PANEL = (9.0, 19.0, -5.0, 1.0)
_INNER_PANEL = (-1.0, 13.0)


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
    (e0, e1, e2, e3), (outer, inner) = _END_PANEL, _INNER_PANEL
    inc = np.empty(n)
    inc[0] = h / 24.0 * (e0 * f[0] + e1 * f[1] + e2 * f[2] + e3 * f[3])
    inc[1:-1] = h / 24.0 * (outer * f[:-3] + inner * (f[1:-2] + f[2:-1]) + outer * f[3:])
    inc[-1] = h / 24.0 * (e3 * f[-4] + e2 * f[-3] + e1 * f[-2] + e0 * f[-1])
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def total_weights(steps: int) -> np.ndarray:
    """The total of :func:`cumulative_simpson` over ``[0, 1]`` as one
    weight per node: ``total_weights(n) @ f`` is ``cumulative_simpson(f,
    1/n)[-1]`` up to roundoff.

    Each node's weight sums the panel coefficients that read it, over
    ``24 n``: ``8, 31, 20, 25, 24, ..., 24, 25, 20, 31, 8`` from eight
    steps on, and ``9, 27, 27, 9`` (the three-eighths rule) at three,
    ``8, 32, 16, 32, 8`` at four and so on up to seven.  Every weight is
    positive, so a total of positive values rounds as a sum of positive
    terms.
    """
    if steps < 3:
        raise InputError(f"cumulative rule needs at least three panels, got {steps}")
    (outer, inner), end = _INNER_PANEL, np.array(_END_PANEL)
    # the interior panels 1 .. steps - 2, panel i on samples i - 1 .. i + 2
    weights = np.convolve(np.ones(steps - 2), (outer, inner, inner, outer))
    weights[:4] += end
    weights[-4:] += end[::-1]
    return weights / (24.0 * steps)


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
    d[2:-2] = -f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]
    # both ends' rows as one product of the stencils with the samples, its
    # five terms summed in order: a column's derivative does not depend on
    # the columns beside it, as it would through a BLAS product's rounding
    stencils = _END_STENCILS if f.ndim == 1 else _END_STENCILS[:, :, None]
    ends = (stencils * np.stack((f[:5], f[:-6:-1]))[:, None]).sum(axis=2)
    d[:2], d[-2:] = ends[0], -ends[1, ::-1]
    return np.divide(d, 12.0 * h, out=d)


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
    nothing but the table is read and nothing is called back.  The
    interpolant takes the table's values at the nodes, so the piece ``i``
    with ``accum[i] <= F(1) * grid_j < accum[i + 1]`` holds a root for node
    ``j``; it is found once, by one search of ``accum``.  Newton steps on
    the fraction of the step start from the inverse of the table's linear
    interpolant on that piece, are kept within it, and stop after a step
    that moves no node by more than ``sqrt(eps)`` of a step, since
    quadratic convergence puts the next move below roundoff, or after
    eight steps.  So no node leaves the piece of its goal, even next to a
    pole of ``F'``.

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
    # the piece i of each interior node, accum[i] <= goal < accum[i + 1],
    # and the quintic on it in powers of the fraction of its step, which
    # matches value, slope and bend at both its nodes, with its derivative
    goal = accum[-1] * grid[1:-1]
    i = np.searchsorted(accum[1:-1], goal, side="right")
    p, q = rise - d0 - b0, d1 - d0 - 2.0 * b0
    quintic = np.array((accum[:-1], d0, b0, 10.0 * p - 4.0 * q + db,
                        -15.0 * p + 7.0 * q - 2.0 * db, 6.0 * p - 3.0 * q + db))[:, i]
    derivative = np.arange(1.0, 6.0)[:, None] * quintic[1:]
    rise, d0, d1 = rise[i], d0[i], d1[i]
    s = (goal - quintic[0]) / rise
    move = np.inf
    for moves in range(9):
        # the quintic's value and slope (per step) at s, by Horner's rule
        value, slope = quintic[5], derivative[4]
        for row in quintic[4::-1]:
            value = value * s + row
        for row in derivative[3::-1]:
            slope = slope * s + row
        if moves == 8 or np.max(np.abs(move), initial=0.0) <= SQRT_EPS:
            break
        step = np.clip(s + np.divide(goal - value, slope, out=np.zeros_like(slope),
                                     where=slope > 0.0), 0.0, 1.0)
        move, s = step - s, step
    # the cubic, which matches value and slope at both nodes of the piece
    cubic = quintic[0] + s * (d0 + s * (3.0 * rise - 2.0 * d0 - d1
                                        + s * (d0 + d1 - 2.0 * rise)))
    u = grid.copy()
    u[1:-1] = grid[i] + h * s
    miss = h * (np.abs(cubic - goal) + np.abs(value - goal))
    estimate = np.max(np.divide(miss, slope, out=np.where(miss == 0.0, 0.0, np.inf),
                                where=slope > 0.0), initial=0.0)
    if not estimate <= INVERSE_TOL * h:
        raise NumericalError(
            f"inverse of a running integral not resolved by its table: a "
            f"node's estimated error {estimate:.3g} exceeds {INVERSE_TOL:g} "
            f"of the grid step {h:.3g}")
    return u, estimate
