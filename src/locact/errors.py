"""Exception hierarchy shared by all locact modules."""


class LocactError(Exception):
    """Base class for all errors raised by this package."""


# -- construction / validation -------------------------------------------

class DimensionMismatch(LocactError):
    pass


class NotAProjection(LocactError):
    pass


class NonFiniteEntry(LocactError):
    pass


# -- linear algebra -------------------------------------------------------

class ConvergenceFailure(LocactError):
    pass


class OverflowRisk(LocactError):
    pass


# -- signals ---------------------------------------------------------------

class SignalDomainError(LocactError):
    pass


class SmoothingTooWide(LocactError):
    pass


# -- energy / witness construction ----------------------------------------

class EigpairMismatch(LocactError):
    pass


class EigvecNotInImP(LocactError):
    pass


class NonPositiveEigenvalue(LocactError):
    pass


class NoPositiveSlopeFound(LocactError):
    pass


class NotInGenericSet(LocactError):
    pass


class NoUnstableEigenvalue(LocactError):
    pass


class ScanExhausted(LocactError):
    """Two-pulse horizon scan ran out of budget."""


class ZeroProjection(LocactError):
    pass


# -- nonlinear analysis ------------------------------------------------------

class EquilibriumNotFound(LocactError):
    pass


class NonFiniteEvaluation(LocactError):
    pass


class NoConvergence(LocactError):
    """Newton iteration did not reach tolerance.

    Carries ``best_x`` and ``best_residual`` for diagnostic use.
    """

    def __init__(self, message, best_x=None, best_residual=None):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual


class NoSignChange(LocactError):
    pass


class BranchLost(LocactError):
    pass


class StageError(LocactError):
    """Failure inside a multi-stage pipeline, labelled with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
