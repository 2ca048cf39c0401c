"""Exception hierarchy shared by every module in the package."""


class JacobiForgeError(Exception):
    """Base class for all library errors."""


class SingularMatrix(JacobiForgeError):
    """Exact elimination found no pivot for some column."""


class NotPrime(JacobiForgeError):
    """Field characteristic must be prime."""


class TooLarge(JacobiForgeError):
    """An enumeration or construction exceeds its size guard."""


class DivisionByZero(JacobiForgeError):
    """Multiplicative inverse of the zero field element."""


class DegreeMismatch(JacobiForgeError):
    """Bihomogeneous polynomials of different bidegrees were combined."""


class DegreeUnderflow(JacobiForgeError):
    """Degree-lowering operator applied at degree zero."""


class ParseError(JacobiForgeError):
    """Malformed matrix file or parameter text."""


class FieldMismatch(JacobiForgeError):
    """Matrix entry is not a valid element encoding for the declared field."""


class NonIntegerResult(JacobiForgeError):
    """A quantity that must be an integer came out fractional; signals a bug."""


class DesignHypothesisFails(JacobiForgeError):
    """Polarization shortcut invoked although some support shell is not a design."""


class PochhammerZeroDenominator(JacobiForgeError):
    """A Pochhammer factor in a hypergeometric denominator vanished."""
