"""Exception hierarchy shared across the package.

Two families matter to callers: :class:`InputError` for anything wrong with
the data handed to us (bad shapes, out-of-range parameters, malformed
expressions) and :class:`NumericalError` for failures that occur while
computing (singular metrics, curves leaving a chart, solvers not
converging).  The command-line driver maps the first family to exit code 2
and the second to exit code 3.
"""

from __future__ import annotations


class WarpGeoError(Exception):
    """Base class for every error raised by this package."""

    def payload(self) -> dict:
        """Serializable description of the failure, for reports."""
        return {"error": type(self).__name__, "message": str(self)}


class InputError(WarpGeoError, ValueError):
    """Invalid argument, configuration value, or precondition violation."""


class ParameterError(InputError):
    """Conformal parameter outside the admissible range."""

    def __init__(self, r: float, lower: float, name: str = "r"):
        super().__init__(f"parameter {name}={r!r} must be strictly greater than {lower!r}")
        self.r = r
        self.lower = lower

    def payload(self) -> dict:
        return {**super().payload(), "r": self.r, "lower": self.lower}


class NumericalError(WarpGeoError):
    """Runtime numerical failure."""


class ChartDomainError(NumericalError):
    """A curve left the chart's coordinate domain during integration."""

    def __init__(self, chart_name: str, t_exit: float, point):
        super().__init__(
            f"curve left the domain of chart {chart_name!r} at parameter {t_exit:.6g}"
        )
        self.chart_name = chart_name
        self.t_exit = t_exit
        self.point = point

    def payload(self) -> dict:
        return {
            **super().payload(),
            "chart": self.chart_name,
            "t_exit": self.t_exit,
            "point": list(map(float, self.point)),
        }


class CompatibilityError(NumericalError):
    """Initial tangents fail the coupling identity between the two factors."""

    def __init__(self, defect: float, tolerance: float):
        super().__init__(
            f"incompatible initial tangents: defect {defect:.3e} exceeds "
            f"tolerance {tolerance:.3e}"
        )
        self.defect = defect
        self.tolerance = tolerance

    def payload(self) -> dict:
        return {**super().payload(), "defect": self.defect, "tolerance": self.tolerance}


class ShootingError(NumericalError):
    """Boundary-value shooting failed to reach the target point."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def payload(self) -> dict:
        return {
            **super().payload(),
            "residual": self.residual,
            "iterations": self.iterations,
        }


class BracketingError(NumericalError):
    """No sign change found while scanning for a root."""


class DslError(InputError):
    """Base class for expression-language failures."""


class DslSyntaxError(DslError):
    """Malformed expression text.

    ``offset`` is the byte position at which the offending (or missing)
    token starts; ``expected`` lists what would have been legal there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        loc = f" at offset {offset}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(message + loc + exp)
        self.offset = offset
        self.expected = tuple(expected)

    def payload(self) -> dict:
        return {
            **super().payload(),
            "offset": self.offset,
            "expected": list(self.expected),
        }


class DslNameError(DslSyntaxError):
    """Unknown identifier in an expression."""


class DslEvaluationError(DslError):
    """Domain violation while evaluating an expression (log/sqrt/division)."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in {subexpression!r}")
        self.subexpression = subexpression
