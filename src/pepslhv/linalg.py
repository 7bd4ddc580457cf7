"""Dense complex-matrix substrate: overlaps, Kronecker vectors, JSON literals.

Everything downstream manipulates plain ``numpy`` arrays; the functions here
validate at the boundaries (hermiticity, normalization, finiteness) instead
of wrapping arrays in classes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from pepslhv.errors import UsageError

HERMITIAN_ATOL = 1e-10
STATE_NORM_ATOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite dense complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise UsageError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise UsageError("matrix has non-finite entries")
    return arr


def hermitian_stack(m, what: str) -> np.ndarray:
    """A copy of m as a finite (n, k, k) complex stack of Hermitian matrices.

    Refused, not symmetrized, past a defect of HERMITIAN_ATOL; every message
    starts with what.
    """
    try:
        stack = np.array(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what}: not equal-shape matrices: {exc}") from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
        raise UsageError(f"{what}: not a stack of square matrices, shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise UsageError(f"{what}: non-finite entries")
    defect = float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))))
    if defect > HERMITIAN_ATOL:
        raise UsageError(f"{what}: not hermitian (defect {defect:.3e} > {HERMITIAN_ATOL:.1e})")
    return stack


def as_state(v) -> np.ndarray:
    """Coerce to a normalized pure-state vector."""
    vec = np.asarray(v, dtype=complex).ravel()
    if vec.size < 1 or not np.all(np.isfinite(vec.real)) or not np.all(np.isfinite(vec.imag)):
        raise UsageError("state vector must be finite and non-empty")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > STATE_NORM_ATOL:
        raise UsageError(f"state vector is not normalized (|norm-1| = {abs(norm - 1.0):.3e})")
    return vec


def projector(state) -> np.ndarray:
    vec = as_state(state)
    return np.outer(vec, vec.conj())


def overlaps(A, B) -> np.ndarray:
    """tr(A_i B_j) for every pair from two stacks, shape (len(A), len(B)).

    One real matrix product over the (re, im) views gives Re tr(A B^dag),
    which is Re tr(A B) whenever either side is Hermitian.  Every caller
    passes Hermitian operators: site output families, projectors, and
    validated POVM and basis elements.
    """
    a = np.ascontiguousarray(A, dtype=complex)
    b = np.ascontiguousarray(B, dtype=complex)
    return a.reshape(len(a), -1).view(float) @ b.reshape(len(b), -1).view(float).T


def kron_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


# ---------------------------------------------------------------------------
# JSON matrix/state literals shared by every file format.

def matrix_to_json(m) -> dict:
    arr = as_matrix(m)
    payload = {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    if arr.shape[0] == arr.shape[1]:
        payload = {"dim": arr.shape[0], **payload}
    else:
        payload = {"rows": arr.shape[0], "cols": arr.shape[1], **payload}
    return payload


def _from_literal(obj: dict, what: str) -> np.ndarray:
    """re + 1j im of a literal, whose parts are lists as parsed or float arrays."""
    try:
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    # OverflowError: an integer past the float range, which JSON admits
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed {what} literal: {exc}") from exc


def matrix_from_json(obj: dict) -> np.ndarray:
    arr = as_matrix(_from_literal(obj, "matrix"))
    if "dim" in obj and arr.shape != (obj["dim"], obj["dim"]):
        raise UsageError(f"matrix literal shape {arr.shape} disagrees with dim {obj['dim']}")
    return arr


def state_to_json(v) -> dict:
    vec = as_state(v)
    return {"dim": vec.size, "re": vec.real.tolist(), "im": vec.imag.tolist()}


def state_from_json(obj: dict) -> np.ndarray:
    vec = as_state(_from_literal(obj, "state"))
    if "dim" in obj and vec.size != obj["dim"]:
        raise UsageError(f"state literal length {vec.size} disagrees with dim {obj['dim']}")
    return vec
