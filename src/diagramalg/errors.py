"""Exception types shared across the package.

Input of the wrong form raises ValueError: blocks that are not a set
partition (or not mirror-symmetric, or not in a partition shape), a
non-partition, a non-permutation (images or a tableau filling not 1..m), an
inexact number (a float or bool coefficient, exponent, power or n), an
Element key that is not a Diagram, an unknown family, generator or basis.
Other bad input raises a DiagramAlgebraError, below.  The CLI prints both
on stderr as "error: <message>", exit code 1.
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
    """An enumeration was requested beyond the configured size cap."""


class InvalidCap(DiagramAlgebraError):
    """The DIAGRAMALG_CAP environment variable is not an integer."""


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
    """The (kappa, s) pair is not a valid conjugacy class label here."""


class FamilyUnsupported(DiagramAlgebraError):
    """The requested operation is not defined for this family."""
