"""Exception hierarchy shared by all modules."""


class DioTransError(Exception):
    """Base class for all library errors."""


class DependentInput(DioTransError):
    """Input vectors were expected to be linearly independent."""


class NotSaturated(DioTransError):
    """Operation requires a saturated lattice."""


class BudgetExceeded(DioTransError):
    """A box search has more outer candidates than its budget allows."""


class HypothesisViolated(DioTransError):
    """A transference lemma hypothesis failed on the given data."""


class NonCollinearRequired(DioTransError):
    """The pair of input points is collinear."""


class Only3D(DioTransError):
    """Operation is only defined for d = 3."""


class OnlyDimAtLeast3(DioTransError):
    """Operation is only defined for d >= 3."""


class NoWitnesses(DioTransError):
    """Could not supply the required witness points from the data."""


class PrecisionExhausted(DioTransError):
    """Enclosure refinement exceeded its budget (implementation bug)."""


class DomainError(DioTransError):
    """A side condition of an inequality or classifier fails."""


class UsageError(DioTransError):
    """Bad command line arguments."""
