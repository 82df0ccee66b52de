"""Exception hierarchy shared across the package. Each class carries the exit
code and label the command line reports it with (1 usage, 2 data, 3 numerical)."""


class EbicGlmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 3, "numerical failure"


class UnsupportedPair(EbicGlmError):
    """Requested family/link combination has no coded composite function."""

    exit_code, label = 1, "usage error"


class DomainError(EbicGlmError):
    """Argument outside the admissible range of a link or family."""

    exit_code, label = 1, "usage error"


class DataError(EbicGlmError):
    """Input data violates a structural requirement (shape, finiteness, coding)."""

    exit_code, label = 2, "data error"


class RankDeficient(EbicGlmError):
    """Design matrix of the candidate model is not of full column rank."""


class InvalidArgs(EbicGlmError):
    """Arguments violate a documented precondition."""

    exit_code, label = 1, "usage error"


class EmptyCandidates(EbicGlmError):
    """Forward selection was started with no candidate features."""

    exit_code, label = 1, "usage error"


class PathEmpty(EbicGlmError):
    """No candidate produced a usable fit at the first forward-selection step."""


class InvalidRho(EbicGlmError):
    """Equicorrelation parameter outside [0, 1)."""

    exit_code, label = 1, "usage error"


class InvalidDesign(EbicGlmError):
    """Simulation design parameters are internally inconsistent."""

    exit_code, label = 1, "usage error"


class FoldTooSmall(EbicGlmError):
    """Cross-validation folds are too small to fit any model."""

    exit_code, label = 1, "usage error"
