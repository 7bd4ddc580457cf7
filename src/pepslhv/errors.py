"""Exception types shared across the package."""


class UsageError(ValueError):
    """Bad arguments: dimension mismatch, out-of-range index, malformed input."""


class ConstraintError(UsageError):
    """The lattice/physical-dimension constraint d >= 2^v is violated."""


class StrictInteriorError(ValueError):
    """The chosen pure state is not strictly inside the measurement dual."""


class DegenerateNormError(ValueError):
    """The assembled state has (numerically) zero norm."""


class NotFactorizableError(ValueError):
    """Site trace tensors do not factorize; per-edge sampling unsupported."""


class PositivityViolationError(ValueError):
    """A site output operator failed the certificate's scan during sampling.

    Its trace was not positive or below 1e-10 times the largest of its
    family, or it left the dual of its POVM; ``witness`` is the scan's
    PositivityWitness.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConstructionError(RuntimeError):
    """A randomized construction failed to reach full rank within retries."""
