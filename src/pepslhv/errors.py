"""Exception types shared across the package, and the entry budgets of size guards and scan blocks."""

MAX_ENTRIES = 2**24  # complex entries (16 bytes each) that one array may hold: 256 MiB
# entries one block of a scan holds: a block of overlaps, or of the Born oracle's work arrays
SCAN_BLOCK_ENTRIES = 2**17


class UsageError(ValueError):
    """Bad arguments or an instance that cannot be built; the CLI exits 2 on it."""


def check_entries(array: str, entries: int, bound: int = MAX_ENTRIES) -> None:
    """Refuse an array of more than bound entries (or work of that many) before it is built."""
    if entries > bound:
        count = int(entries) if entries < 2**64 else "2^64 or more"  # it may have too many digits
        raise UsageError(f"{array}: {count} entries, more than {bound}")


class ConstraintError(UsageError):
    """The lattice/physical-dimension constraint d >= 2^v is violated."""


class StrictInteriorError(UsageError):
    """The chosen pure state is not strictly inside the measurement dual."""


class DegenerateNormError(UsageError):
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


class ConstructionError(UsageError):
    """A randomized construction failed to reach full rank within retries."""
