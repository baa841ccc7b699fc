"""Exception types raised across the package.

Every error raised on purpose derives from :class:`UqaggError`, so callers can
catch one base class. Each class carries the exit code the CLI returns for it
in ``exit_code``: 3 for :class:`MissingFile`, a file that is not there, and 4
for every other class, malformed files (bad NPY magic, a truncated payload,
unparsable text) as much as invalid data.
"""


class UqaggError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


# ---------------------------------------------------------------------------
# grids, maps, stacks


class EmptyGrid(UqaggError):
    """Grid has zero rows or zero columns."""


class NonTwoDimensional(UqaggError):
    """Grid is not two-dimensional."""


class NonFinite(UqaggError):
    """Grid contains NaN or infinity."""


class OutOfRange(UqaggError):
    """Values fall outside the required interval."""


class InvalidStack(UqaggError):
    """Probability stack is malformed (shape, range, or row sums)."""


class ShapeMismatch(UqaggError):
    """Two grids that must share a shape do not."""


# ---------------------------------------------------------------------------
# aggregation parameters


class PatchTooLarge(UqaggError):
    """Requested patch exceeds the map extent."""


class NoForeground(UqaggError):
    """Mask contains only background pixels."""


class InvalidParam(UqaggError):
    """Parameter value outside its documented domain."""


class MaskRequired(UqaggError):
    """Strategy needs a segmentation mask but none was supplied."""


class UnknownStrategy(UqaggError):
    """Strategy identifier does not name a known aggregator."""


class DuplicateStrategy(UqaggError):
    """Strategy list contains the same canonical identifier twice."""


# ---------------------------------------------------------------------------
# mixture-model meta-aggregation


class TooFewSamples(UqaggError):
    """Not enough rows to fit the requested model."""


class SingularCovariance(UqaggError):
    """A covariance matrix is not positive definite."""


class FeatureMismatch(UqaggError):
    """Feature names or dimensionality do not match the model."""


# ---------------------------------------------------------------------------
# evaluation


class SingleClass(UqaggError):
    """Both labels are required but only one is present."""


class LengthMismatch(UqaggError):
    """Paired sequences differ in length."""


class EmptyInput(UqaggError):
    """Sequence is empty where at least one element is required."""


class AllZeroDifferences(UqaggError):
    """Every paired difference is zero; the test is undefined."""


class StrategySetMismatch(UqaggError):
    """Per-dataset tables do not share one strategy set."""


# ---------------------------------------------------------------------------
# synthetic data


class InvalidSpec(UqaggError):
    """Synthetic pattern description is malformed."""


# ---------------------------------------------------------------------------
# file formats


class BadMagic(UqaggError):
    """File does not start with the expected magic bytes."""


class UnsupportedDtype(UqaggError):
    """Array dtype outside the supported set."""


class FortranOrderUnsupported(UqaggError):
    """Column-major payloads are not supported."""


class TruncatedPayload(UqaggError):
    """Payload length disagrees with the header shape."""


class ParseError(UqaggError):
    """Malformed text where a structured value was expected."""


class MissingColumn(UqaggError):
    """Required CSV column, or a row or cell it must hold, absent."""


class DuplicateId(UqaggError):
    """The same sample id appears twice."""


class DuplicateColumn(UqaggError):
    """A CSV header names the same column twice."""


class MissingFile(UqaggError):
    """A referenced file does not exist."""

    exit_code = 3
