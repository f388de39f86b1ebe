"""Exception hierarchy for the uob package."""


class InputError(ValueError):
    """A file that json cannot read into a document: bad input, not a domain error."""


class UobError(Exception):
    """Base class for all domain errors raised by uob."""


class AlgebraMismatch(UobError):
    """Operands belong to different multi-matrix algebras."""


class DimensionMismatch(UobError):
    """Inclusion or basis data of the wrong shape, sign or type, or a stated
    super_dims other than A @ sub_dims."""


class EmptyColumn(UobError):
    """A column of the inclusion matrix is zero: the inclusion is not unital."""


class DisconnectedDiagram(UobError):
    """Bratteli diagram is disconnected; the Markov trace is not unique."""


class SpectralConditionFailed(UobError):
    """A^t n != d m for any integer d; no unitary orthonormal basis exists."""


class NotAbelian(UobError):
    """Construction requires an abelian subalgebra (all sub blocks of size 1)."""


class ShapeMismatch(UobError):
    """Generalized Weyl construction needs equal super blocks and constant column sums."""


class NonStandardTrace(UobError):
    """Mixed-unitary form is only available for the standard (equal-weight) trace."""


class MiddleAlgebraMismatch(UobError):
    """Concatenation requires the inner sub-algebra to equal the outer super-algebra."""


class CardinalityMismatch(UobError):
    """Direct sums of bases require equal cardinalities."""


class PartitionOfUnityFailed(UobError):
    """Sum of U e1 U* deviates from the identity; input was not a genuine basis."""


class NoKnownConstruction(UobError):
    """No construction implemented here applies to the given inclusion."""


class InvariantViolated(UobError):
    """A numerical identity that the mathematics guarantees failed its tolerance."""


class TooLarge(UobError):
    """Over the memory budget (``uob.algebra.MAX_ENTRIES``) or a float's range; nothing was allocated."""

    @staticmethod
    def count(n: int) -> str:
        """n in full up to 2^64, else the power of two below it: str() refuses over 4300 digits."""
        return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


class NoExpectation(UobError):
    """Nothing to certify against: a basis without an inclusion spec (no Markov
    E, trace conditions or cardinality for ``verify_basis``), or an E without a
    compiled slot table (a plain callable), which no verify check reads."""
