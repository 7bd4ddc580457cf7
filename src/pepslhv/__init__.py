"""Pure entangled PEPS with local hidden variable models for restricted measurements.

The package builds lattice PEPS whose virtual bonds are separable with
respect to generalized local state spaces (orthogonal Hermitian operator
bases), certifies positivity against a restricted measurement set, and
samples measurement outcomes classically through a per-edge product
distribution over hidden edge indices.
"""

from pepslhv.errors import NotFactorizableError, PositivityViolationError, UsageError

# one exception type per exit code of the CLI, in the order 2, 3, 4
__all__ = ["UsageError", "PositivityViolationError", "NotFactorizableError"]

__version__ = "0.1.0"
