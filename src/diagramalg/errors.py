"""Exception types shared across the package.

Input of the wrong form, to a function or to a method, raises ValueError:
blocks that are not a set partition (or not mirror-symmetric, or not in a
partition shape), a non-partition or non-permutation (images or a tableau
filling not 1..m), a tableau that is not a tuple of row tuples, a value that
must be iterable and is not, an inexact number or no number at all (a float,
bool or None coefficient, exponent, power, degree or n), a count argument or
a shift that is not an int, Laurent terms that are not a mapping or pairs
(or, as JSON, not a list of exp/num/den terms), an argument or Element key
that is not a Diagram, coefficients that are not a mapping, a row that names
no column, a determinant of a table that is not a square matrix of ints, an
unknown family, generator or basis.
Other bad input raises a DiagramAlgebraError, below: two strand counts that
differ (RankMismatch) and a k whose algebra has more diagrams than the size
cap, DIAGRAMALG_CAP (CapExceeded), among them.  The CLI prints both on stderr as "error: <message>", exit code 1.
The one exception is a binary operator: Element(...) * 3 or
Element(...) + None keeps Python's rule and may raise TypeError.
"""


class DiagramAlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class MissingVertex(DiagramAlgebraError):
    """A diagram description omits one or more required vertices."""


class DuplicateVertex(DiagramAlgebraError):
    """A diagram description mentions some vertex more than once."""


class IndexOutOfRange(DiagramAlgebraError):
    """A vertex or generator index lies outside 1..k."""


class DiagramSyntaxError(DiagramAlgebraError):
    """Diagram text does not match the block grammar."""


class RankMismatch(DiagramAlgebraError):
    """Two objects that must share the same k do not."""


class CapExceeded(DiagramAlgebraError):
    """The algebra at the requested k has more diagrams than the size cap."""


class InvalidCap(DiagramAlgebraError):
    """The DIAGRAMALG_CAP environment variable (a number of diagrams) is not
    an integer."""


class AlgebraMismatch(DiagramAlgebraError):
    """Elements or diagrams belong to different algebras (k or family)."""


class ZeroSubstitutionWithNegativeExponent(DiagramAlgebraError):
    """Evaluation at n = 0 attempted on a Laurent polynomial with n^-e terms."""


class DegreeMismatch(DiagramAlgebraError):
    """A permutation's degree disagrees with the object it should act on."""


class SizeMismatch(DiagramAlgebraError):
    """Two integer partitions that must have equal size do not."""


class InvalidRank(DiagramAlgebraError):
    """Requested propagating number m is not admissible for the family."""


class ShapeMismatch(DiagramAlgebraError):
    """A tableau's shape disagrees with the requested partition."""


class LabelNotInFamily(DiagramAlgebraError):
    """The partition label does not index an irreducible of this family."""


class InvalidClassLabel(DiagramAlgebraError):
    """The cycle type kappa is not a valid conjugacy class label here."""


class FamilyUnsupported(DiagramAlgebraError):
    """The requested operation is not defined for this family."""
