"""Dense complex-matrix substrate: overlaps, Kronecker vectors, entropy, JSON literals.

Everything downstream manipulates plain ``numpy`` arrays; the functions here
validate at the boundaries (hermiticity, normalization, finiteness) instead
of wrapping arrays in classes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance between m and its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))


def check_hermitian(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate hermiticity; reject rather than symmetrize."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise UsageError(f"hermitian operator must be square, got {arr.shape}")
    defect = hermiticity_defect(arr)
    if defect > atol:
        raise UsageError(f"matrix is not hermitian (defect {defect:.3e} > {atol:.1e})")
    return arr


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
    if not vecs:
        raise UsageError("kron_vectors requires at least one factor")
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def schmidt_probabilities(state, dims: Sequence[int], cut: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients across the given bipartition."""
    vec = as_state(state)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != vec.size:
        raise UsageError(f"dims {dims} do not match state dimension {vec.size}")
    cut = sorted(set(int(c) for c in cut))
    if not cut or any(c < 0 or c >= len(dims) for c in cut):
        raise UsageError(f"cut {cut} invalid for {len(dims)} subsystems")
    rest = [i for i in range(len(dims)) if i not in cut]
    tensor = vec.reshape(dims).transpose(cut + rest)
    da = int(np.prod([dims[i] for i in cut]))
    sv = np.linalg.svd(tensor.reshape(da, -1), compute_uv=False)
    return sv**2


def entanglement_entropy(state, dims: Sequence[int], cut: Iterable[int]) -> float:
    """Von Neumann entropy (bits) of the reduced state across the cut."""
    probs = schmidt_probabilities(state, dims, cut)
    probs = probs[probs > 1e-18]
    return float(-np.sum(probs * np.log2(probs)))


def trace_distance(a, b) -> float:
    """(1/2)||a - b||_1 for hermitian a, b."""
    diff = check_hermitian(as_matrix(a) - as_matrix(b), atol=1e-8)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


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


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        arr = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed matrix literal: {exc}") from exc
    arr = as_matrix(arr)
    if "dim" in obj and arr.shape != (obj["dim"], obj["dim"]):
        raise UsageError(f"matrix literal shape {arr.shape} disagrees with dim {obj['dim']}")
    return arr


def state_to_json(v) -> dict:
    vec = as_state(v)
    return {"dim": vec.size, "re": vec.real.tolist(), "im": vec.imag.tolist()}


def state_from_json(obj: dict) -> np.ndarray:
    try:
        vec = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed state literal: {exc}") from exc
    vec = as_state(vec)
    if "dim" in obj and vec.size != obj["dim"]:
        raise UsageError(f"state literal length {vec.size} disagrees with dim {obj['dim']}")
    return vec
