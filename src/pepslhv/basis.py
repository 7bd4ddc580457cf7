"""Orthogonal Hermitian operator bases realizing the separable bond decomposition.

A basis is a set of D^2 Hermitian operators with tr(C_k C_l) = D delta_kl,
which reconstructs the maximally entangled bond state as
(1/D^2) sum_k C_k (x) C_k^T.  Anchored bases additionally have strictly
positive overlap with a chosen pure state, which is what makes the rank-1
site maps strictly positive.  Transposition is always taken in the
computational basis.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.errors import UsageError

GRAM_ATOL = 1e-10
DECOMPOSITION_ATOL = 1e-10
ANCHOR_STRICT_FLOOR = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class OperatorBasis:
    """D^2 Hermitian operators normalized to tr(C_k C_l) = D delta_kl.

    Any sequence of D^2 equal-shape matrices is accepted; ``elements`` is
    stored as a validated, read-only (D^2, D, D) copy.
    """

    D: int
    elements: np.ndarray
    anchor: Optional[np.ndarray] = None
    construction: str = "custom"

    def __post_init__(self):
        D = self.D
        if D < 2:
            raise UsageError(f"bond dimension must be >= 2, got {D}")
        stack = linalg.hermitian_stack(self.elements, "basis elements")
        if len(stack) != D**2:
            raise UsageError(f"expected {D**2} elements, got {len(stack)}")
        if stack.shape[1:] != (D, D):
            raise UsageError(f"element shape {stack.shape[1:]} != ({D}, {D})")
        gram_defect = float(np.max(np.abs(linalg.overlaps(stack, stack) - D * np.eye(D**2))))
        if gram_defect > GRAM_ATOL:
            raise UsageError(f"basis Gram matrix deviates from D*I by {gram_defect:.3e}")
        stack.flags.writeable = False
        object.__setattr__(self, "elements", stack)
        if self.anchor is not None:
            anchor = linalg.as_state(self.anchor)
            if anchor.size != D:
                raise UsageError(f"anchor dimension {anchor.size} != D = {D}")
            overlaps = self.anchor_overlaps_of(anchor)
            if overlaps.min() < ANCHOR_STRICT_FLOOR:
                raise UsageError(
                    f"anchor overlap {overlaps.min():.3e} below strictness floor"
                )
            object.__setattr__(self, "anchor", anchor)

    def anchor_overlaps_of(self, state) -> np.ndarray:
        return linalg.overlaps(self.elements, linalg.projector(state)[None])[:, 0]

    def anchor_overlaps(self) -> np.ndarray:
        return self.anchor_overlaps_of(self.anchor)


def basis_products(op_basis: OperatorBasis, flags: Sequence[bool]) -> np.ndarray:
    """C~_{k_1} (x) ... (x) C~_{k_v} per index tuple, ((D^2)^v, D^v, D^v); C~ is C^T where flagged.

    Index tuples in C-order.  The oracle's complex site families
    (decomposition.site_operator_family) and measurements.admissible_povm
    read these products; the pipeline builds none.
    """
    v = len(flags)
    C = op_basis.elements
    k, i, j = (string.ascii_letters[p * v:(p + 1) * v] for p in range(3))
    spec = ",".join(k[p] + i[p] + j[p] for p in range(v)) + "->" + k + i + j
    # C order, so the reshape is a view: a transposed factor would otherwise
    # leave the einsum's output strided, and the reshape a copy of the stack
    prod = np.einsum(spec, *(C.transpose(0, 2, 1) if t else C for t in flags), order="C")
    return prod.reshape(len(C) ** v, op_basis.D**v, op_basis.D**v)


def max_ent_state(D: int) -> np.ndarray:
    """(1/sqrt(D)) sum_j |jj> on two D-level systems."""
    vec = np.zeros(D * D, dtype=complex)
    vec[np.arange(D) * D + np.arange(D)] = 1.0 / np.sqrt(D)
    return vec


def hermitian_spanning_set(D: int) -> np.ndarray:
    """Canonical orthonormal Hermitian basis under tr(AB), as one (D^2, D, D) stack.

    Order: |j><j| for j = 0..D-1, then symmetric pairs (|j><k|+|k><j|)/sqrt(2),
    then antisymmetric i(|j><k|-|k><j|)/sqrt(2), both in lexicographic (j, k).
    """
    out = np.zeros((D * D, D, D), dtype=complex)
    diag = np.arange(D)
    out[diag, diag, diag] = 1.0
    j, k = np.triu_indices(D, 1)
    sym = np.arange(D, D + len(j))
    antisym = sym + len(j)
    out[sym, j, k] = out[sym, k, j] = 1.0 / np.sqrt(2)
    out[antisym, j, k] = 1j / np.sqrt(2)
    out[antisym, k, j] = -1j / np.sqrt(2)
    return out


def _orthonormal_hermitian_completion(first: np.ndarray, D: int) -> list[np.ndarray]:
    """Gram-Schmidt the canonical spanning set against ``first``."""
    basis = [first]
    for cand in hermitian_spanning_set(D):
        m = cand.copy()
        for g in basis:
            m = m - np.real(np.trace(g @ m)) * g
        norm = np.sqrt(abs(np.real(np.trace(m @ m))))
        if norm > 1e-8:
            basis.append(m / norm)
        if len(basis) == D**2:
            break
    if len(basis) != D**2:
        raise UsageError("failed to complete the Hermitian basis")
    return basis


def _householder_to_uniform(n: int) -> np.ndarray:
    """Orthogonal reflection mapping e_1 to the uniform unit vector."""
    u = np.full(n, 1.0 / np.sqrt(n))
    v = np.zeros(n)
    v[0] = 1.0
    v = v - u
    return np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)


def build_aligned_basis(D: int, anchor) -> OperatorBasis:
    """Anchored basis with all overlaps <phi|C_k|phi> equal to 1/sqrt(D).

    Takes G_1 = |phi><phi|, completes to an orthonormal Hermitian basis, and
    mixes with the Householder reflection sending e_1 to the uniform unit
    vector, so every C_k picks up the same 1/D weight on G_1.
    """
    phi = linalg.as_state(anchor)
    R = _householder_to_uniform(D**2)
    # C_k = sqrt(D) sum_l R[k, l] G_l, summed over l in order for every k at
    # once; the G_l are released before the basis is validated
    c = np.zeros((D**2, D, D), dtype=complex)
    for l, g in enumerate(_orthonormal_hermitian_completion(linalg.projector(phi), D)):
        c += R[:, l, None, None] * g
    c *= np.sqrt(D)
    return OperatorBasis(D=D, elements=c, anchor=phi, construction="aligned")


def phase_point_basis() -> OperatorBasis:
    """The four unit-trace qubit phase point operators, anchored on (1,1,1)/sqrt(3)."""
    # A_ab = (I + (-1)^a X + (-1)^(a+b) Y + (-1)^b Z) / 2, (a, b) in C-order
    a, b = np.divmod(np.arange(4), 2)
    x, y, z = ((-1) ** e[:, None, None] for e in (a, a + b, b))
    elements = 0.5 * (np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    return OperatorBasis(D=2, elements=elements, anchor=bloch_diag_state(), construction="phase_point")


def bloch_diag_state() -> np.ndarray:
    """+1 eigenstate of (X+Y+Z)/sqrt(3), phase-fixed to a real first amplitude."""
    direction = (PAULI_X + PAULI_Y + PAULI_Z) / np.sqrt(3)
    w, v = np.linalg.eigh(direction)
    vec = v[:, int(np.argmax(w))]
    pivot = vec[np.argmax(np.abs(vec))]
    vec = vec * (np.conj(pivot) / abs(pivot))
    if np.real(vec[0]) < 0:
        vec = -vec
    return linalg.as_state(vec)


def verify_decomposition(basis_or_elements) -> float:
    """Max-norm error of (1/D^2) sum_k C_k (x) C_k^T against |phi_D><phi_D|, D read from C_0."""
    if isinstance(basis_or_elements, OperatorBasis):
        basis_or_elements = basis_or_elements.elements
    elements = np.asarray(basis_or_elements, dtype=complex)
    D = elements.shape[1]
    # kron(C, C^T)[(a, b), (e, f)] = C[a, e] C[f, b], summed over the elements
    acc = np.einsum("kae,kfb->abef", elements, elements).reshape(D * D, D * D)
    target = linalg.projector(max_ent_state(D))
    return float(np.max(np.abs(acc / D**2 - target)))


# ---------------------------------------------------------------------------
# File format

def basis_to_json(basis: OperatorBasis) -> dict:
    obj = {
        "D": basis.D,
        "construction": basis.construction,
        "elements": [linalg.matrix_to_json(c) for c in basis.elements],
    }
    if basis.anchor is not None:
        obj["anchor"] = linalg.state_to_json(basis.anchor)
    return obj


def basis_from_json(obj: dict) -> OperatorBasis:
    try:
        D = obj["D"]
        if type(D) is not int:  # a float or a string is refused, not truncated
            raise UsageError(f"D must be an integer, got {D!r}")
        elements = [linalg.matrix_from_json(m) for m in obj["elements"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed basis file: {exc}") from exc
    anchor = linalg.state_from_json(obj["anchor"]) if "anchor" in obj else None
    return OperatorBasis(
        D=D,
        elements=elements,
        anchor=anchor,
        construction=str(obj.get("construction", "custom")),
    )
