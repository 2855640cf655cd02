"""Exception types shared across the toolkit.

Every failure a pipeline stage can signal deliberately derives from
ToolkitError, so callers (and the command-line layer) can map any
domain failure to a machine-readable code: the class name minus its
"Error" suffix.
"""


class ToolkitError(Exception):
    """Base class for all deliberate toolkit errors."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class InvalidArgumentError(ToolkitError, ValueError):
    """An argument outside its documented domain (also a ValueError)."""


# graph construction and editing

class SelfLoopError(ToolkitError):
    pass


class DuplicateEdgeError(ToolkitError):
    pass


class NonpositiveWeightError(ToolkitError):
    pass


class IndexOutOfRangeError(ToolkitError):
    pass


class EmptySubsetError(ToolkitError):
    pass


class PartitionMismatchError(ToolkitError):
    pass


class InvalidProbabilityError(ToolkitError):
    pass


# eigen-analysis

class NotSymmetricError(ToolkitError):
    pass


class ConvergenceFailureError(ToolkitError):
    pass


class ZeroVectorError(ToolkitError):
    pass


class TooFewNodesError(ToolkitError):
    pass


class DisconnectedGraphError(ToolkitError):
    pass


class DimensionOutOfRangeError(ToolkitError):
    pass


# partitioning

class ConstantVectorError(ToolkitError):
    pass


class KOutOfRangeError(ToolkitError):
    pass


class NotEnoughSplittableClustersError(ToolkitError):
    pass


class TooFewDistinctPointsError(ToolkitError):
    pass


class InvalidFractionalExponentError(ToolkitError):
    pass


# nonlinear operators

class ExponentOutOfRangeError(ToolkitError):
    pass


class DimensionMismatchError(ToolkitError):
    pass


# hierarchies

class SpecMonotonicityViolationError(ToolkitError):
    pass


class LevelOutOfRangeError(ToolkitError):
    pass


# structure-to-function model

class DegenerateVarianceError(ToolkitError):
    pass


# file handling

class ParseError(ToolkitError):
    pass


class AsymmetricMatrixError(ToolkitError):
    pass
