"""Exception types shared across the package."""


class RhamcheckError(Exception):
    """Base class for all package errors."""


class ParseError(RhamcheckError):
    """Malformed polynomial, form, or scenario text."""


class ValidationError(RhamcheckError):
    """A scenario or fixture references something undefined or inconsistent."""


class ResourceBudgetExceeded(RhamcheckError):
    """A computation grew past its configured desk-scale budget."""


class CompositionNonzero(RhamcheckError):
    """The two maps handed to a cohomology computation do not compose to zero."""


class NotACocycle(RhamcheckError):
    """Class membership was requested for a vector that is not a cocycle."""


class AlgebraMismatch(RhamcheckError):
    """Two forms (or a form and a simplex) live over different algebras."""


class ComplexMismatch(RhamcheckError):
    """Two cochains live on different simplicial sets."""


class DegreeMismatch(RhamcheckError):
    """Cochain/chain degrees do not line up for pairing."""


class DimensionMismatch(RhamcheckError):
    """Two simplex forms live on simplices of different dimension."""


class NotTopDegree(RhamcheckError):
    """Exact integration was requested for a form that is not top-degree."""


class NonPolynomialCoefficient(RhamcheckError):
    """An exact-lane operation received a genuinely rational coefficient."""


class DenominatorVanishes(RhamcheckError):
    """A rational coefficient has no positivity certificate on the simplex."""


class InvalidSimplex(RhamcheckError):
    """A parametrized simplex does not land on the target variety."""


class NotACycle(RhamcheckError):
    """A chain with nonzero boundary was used where a cycle is required."""


class NotClosedForm(RhamcheckError):
    """A form with nonzero differential was used where a cocycle is required."""


class IncompatibleFamily(RhamcheckError):
    """A boundary family violates face compatibility."""
