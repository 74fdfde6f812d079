"""Exception taxonomy.

Every error raised by this package derives from FqxError.  Precondition
violations map to CLI exit code 2, budget overruns to exit code 3.
"""


class FqxError(Exception):
    """Base class for all package errors."""


class PreconditionError(FqxError):
    """An operation was called outside its stated preconditions."""


class CompositeModulus(PreconditionError):
    """Field modulus is not prime."""


class EvenCharacteristic(PreconditionError):
    """Operation requires odd q (quadratic character, Pellet, Chowla...)."""


class ZeroPolynomial(PreconditionError):
    """The zero polynomial is not a valid argument here."""


class ConstantPolynomial(PreconditionError):
    """A polynomial of positive degree is required."""


class DivisionByZeroPoly(PreconditionError):
    """Division by the zero polynomial."""


class BothZero(PreconditionError):
    """gcd(0, 0) is undefined."""


class FieldMismatch(PreconditionError):
    """Operands live over different fields."""


class BudgetExceeded(FqxError):
    """An enumeration would exceed the configured budget."""


class DegreeExceedsN(PreconditionError):
    """reversal(f, n) needs deg f <= n."""


class DegreeMismatch(PreconditionError):
    """Interval/AP bijection parameters are inconsistent."""


class DegreeOutOfRange(PreconditionError):
    """A degree parameter is outside the allowed range."""


class UnsupportedModulusShape(PreconditionError):
    """Unit groups are built only for Q = x^m or squarefree Q."""


class TrivialCharacter(PreconditionError):
    """L-functions are attached to nontrivial characters only."""


class NotEvenPrimitive(PreconditionError):
    """Operation requires an even primitive character."""


class RootFindingDidNotConverge(FqxError):
    """Companion-matrix and Durand-Kerner roots disagree beyond tolerance."""


class NotCoprime(PreconditionError):
    """Residue class is not coprime to the modulus."""


class NotSquarefree(PreconditionError):
    """A squarefree modulus is required."""


class ZeroShift(PreconditionError):
    """A nonzero shift polynomial is required."""


class DuplicateShifts(PreconditionError):
    """Shift tuples must be pairwise distinct."""


class InvalidShiftTuple(PreconditionError):
    """Shift tuple violates its invariants (degrees, exponents)."""


class InvalidPartition(PreconditionError):
    """lambda is not a partition of n in counts form."""


class ClosedFormNotAvailable(FqxError):
    """No closed form covers these matrix-integral parameters; use Monte Carlo."""
