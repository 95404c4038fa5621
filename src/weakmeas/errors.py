"""Exception hierarchy shared across the package.

Every exception carries a short machine-readable ``code`` so front-ends can
map failures to exit statuses and JSON error payloads without parsing
messages.
"""

from __future__ import annotations

__all__ = [
    "WeakMeasurementError",
    "NonHermitian",
    "ZeroOperator",
    "DimensionMismatch",
    "NonPositiveWidth",
    "WidthOutOfRange",
    "UnsupportedOrder",
    "EmptyGrid",
    "OrthogonalPPS",
    "NotOrthogonal",
    "HigherOrderOrthogonality",
    "OrderTooLarge",
    "NonPositiveDenominator",
    "DegenerateDenominator",
    "LambdaOutOfRange",
    "ZeroPostSelectionProbability",
    "GridTooSmall",
    "SeriesDiverging",
    "NotApplicable",
    "InvalidBracket",
    "NotUnimodal",
    "ParseError",
    "ConstructionFailure",
    "ValidityWarning",
]


class WeakMeasurementError(Exception):
    """Base class for validation and regime errors raised by this package."""

    code = "error"


class NonHermitian(WeakMeasurementError):
    """Operator input deviates from Hermiticity beyond tolerance."""

    code = "non-hermitian"


class ZeroOperator(WeakMeasurementError):
    """Operator or state input is identically zero."""

    code = "zero-operator"


class DimensionMismatch(WeakMeasurementError):
    """Objects combined in one expression act on different dimensions."""

    code = "dimension-mismatch"


class NonPositiveWidth(WeakMeasurementError):
    """Gaussian pointer width must be a positive real."""

    code = "non-positive-width"


class WidthOutOfRange(WeakMeasurementError):
    """Gaussian pointer width is so small or so large that a pointer moment
    the package reads is not a finite float."""

    code = "width-out-of-range"


class UnsupportedOrder(WeakMeasurementError):
    """Requested moment order exceeds the grid accuracy guard."""

    code = "unsupported-order"


class EmptyGrid(WeakMeasurementError):
    """A parameter or sample grid has no points."""

    code = "empty-grid"


class OrthogonalPPS(WeakMeasurementError):
    """Pre/post-selection overlap is (numerically) zero where a
    non-orthogonal formula was requested."""

    code = "orthogonal-pps"


class NotOrthogonal(WeakMeasurementError):
    """Orthogonal-regime quantity requested for non-orthogonal selections."""

    code = "not-orthogonal"


class HigherOrderOrthogonality(WeakMeasurementError):
    """The first-order coupling term vanishes as well, so the orthogonal
    weak value is undefined."""

    code = "higher-order-orthogonality"


class OrderTooLarge(WeakMeasurementError):
    """Weak-value order exceeds the supported range."""

    code = "order-too-large"


class NonPositiveDenominator(WeakMeasurementError):
    """Second-order normalization factor is non-positive; the perturbative
    prediction is meaningless there."""

    code = "non-positive-denominator"


class DegenerateDenominator(WeakMeasurementError):
    """Closed-form expression hit a vanishing denominator."""

    code = "degenerate-denominator"


class LambdaOutOfRange(WeakMeasurementError):
    """Relative coupling lambda must lie in (0, 1)."""

    code = "lambda-out-of-range"


class ZeroPostSelectionProbability(WeakMeasurementError):
    """Post-selection succeeds with probability below the configured floor."""

    code = "zero-postselection"


class GridTooSmall(WeakMeasurementError):
    """Grid does not cover the state (or its shifted branches) adequately."""

    code = "grid-too-small"


class SeriesDiverging(WeakMeasurementError):
    """Truncated-series terms stopped decreasing; the expansion is outside
    its convergence regime."""

    code = "series-diverging"


class NotApplicable(WeakMeasurementError):
    """Requested expansion does not apply to this scenario."""

    code = "not-applicable"


class InvalidBracket(WeakMeasurementError):
    """Search bracket is empty or reversed."""

    code = "invalid-bracket"


class NotUnimodal(WeakMeasurementError):
    """Objective is not unimodal on the bracket: an endpoint dominates the
    interior optimum."""

    code = "not-unimodal"


class ParseError(WeakMeasurementError):
    """Scenario file is malformed; the message names the offending key."""

    code = "parse-error"


class ConstructionFailure(WeakMeasurementError):
    """Could not synthesize a scenario realizing the requested weak value."""

    code = "construction-failure"


class ValidityWarning(UserWarning):
    """Emitted when an evaluation is outside its trusted weakness regime."""
