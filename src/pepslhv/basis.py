"""Orthogonal Hermitian operator bases realizing the separable bond decomposition.

A basis is a set of D^2 Hermitian operators with tr(C_k C_l) = D delta_kl,
which reconstructs the maximally entangled bond state as
(1/D^2) sum_k C_k (x) C_k^T.  Anchored bases additionally have strictly
positive overlap with a chosen pure state, which is what makes the rank-1
site maps strictly positive.  Transposition is always taken in the
computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.errors import UsageError

GRAM_ATOL = 1e-10
ANCHOR_STRICT_FLOOR = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class OperatorBasis:
    """D^2 Hermitian operators normalized to tr(C_k C_l) = D delta_kl."""

    D: int
    elements: tuple
    anchor: Optional[np.ndarray] = None
    construction: str = "custom"

    def __post_init__(self):
        if self.D < 2:
            raise UsageError(f"bond dimension must be >= 2, got {self.D}")
        elements = tuple(linalg.check_hermitian(c) for c in self.elements)
        if len(elements) != self.D**2:
            raise UsageError(f"expected {self.D**2} elements, got {len(elements)}")
        for c in elements:
            if c.shape != (self.D, self.D):
                raise UsageError(f"element shape {c.shape} != ({self.D}, {self.D})")
        gram = gram_matrix(elements)
        defect = float(np.max(np.abs(gram - self.D * np.eye(self.D**2))))
        if defect > GRAM_ATOL:
            raise UsageError(f"basis Gram matrix deviates from D*I by {defect:.3e}")
        object.__setattr__(self, "elements", elements)
        if self.anchor is not None:
            anchor = linalg.as_state(self.anchor)
            if anchor.size != self.D:
                raise UsageError(f"anchor dimension {anchor.size} != D = {self.D}")
            overlaps = self.anchor_overlaps_of(anchor)
            if overlaps.min() < ANCHOR_STRICT_FLOOR:
                raise UsageError(
                    f"anchor overlap {overlaps.min():.3e} below strictness floor"
                )
            object.__setattr__(self, "anchor", anchor)

    def anchor_overlaps_of(self, state) -> np.ndarray:
        return linalg.overlaps(self.elements, linalg.projector(state)[None])[:, 0]

    def anchor_overlaps(self) -> np.ndarray:
        if self.anchor is None:
            raise UsageError("basis has no anchor")
        return self.anchor_overlaps_of(self.anchor)

    def element(self, k: int, transposed: bool = False) -> np.ndarray:
        c = self.elements[k]
        return c.T if transposed else c


@dataclass(frozen=True)
class VirtualSpaceTag:
    """One end of a bond: the basis plus whether this end carries C^T."""

    basis: OperatorBasis
    transposed: bool = False

    def element(self, k: int) -> np.ndarray:
        return self.basis.element(k, transposed=self.transposed)


def gram_matrix(elements: Sequence[np.ndarray]) -> np.ndarray:
    """tr(C_k C_l) for Hermitian elements."""
    return linalg.overlaps(elements, elements)


def max_ent_state(D: int) -> np.ndarray:
    """(1/sqrt(D)) sum_j |jj> on two D-level systems."""
    if D < 2:
        raise UsageError(f"bond dimension must be >= 2, got {D}")
    vec = np.zeros(D * D, dtype=complex)
    vec[np.arange(D) * D + np.arange(D)] = 1.0 / np.sqrt(D)
    return vec


def hermitian_spanning_set(D: int) -> list[np.ndarray]:
    """Canonical orthonormal Hermitian basis under tr(AB).

    Order: |j><j| for j = 0..D-1, then symmetric pairs (|j><k|+|k><j|)/sqrt(2),
    then antisymmetric i(|j><k|-|k><j|)/sqrt(2), both in lexicographic (j, k).
    """
    out = []
    for j in range(D):
        m = np.zeros((D, D), dtype=complex)
        m[j, j] = 1.0
        out.append(m)
    for j in range(D):
        for k in range(j + 1, D):
            m = np.zeros((D, D), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2)
            out.append(m)
    for j in range(D):
        for k in range(j + 1, D):
            m = np.zeros((D, D), dtype=complex)
            m[j, k] = 1j / np.sqrt(2)
            m[k, j] = -1j / np.sqrt(2)
            out.append(m)
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
    if D < 2:
        raise UsageError(f"bond dimension must be >= 2, got {D}")
    phi = linalg.as_state(anchor)
    if phi.size != D:
        raise UsageError(f"anchor dimension {phi.size} != D = {D}")
    gs = _orthonormal_hermitian_completion(linalg.projector(phi), D)
    R = _householder_to_uniform(D**2)
    elements = []
    for k in range(D**2):
        c = np.zeros((D, D), dtype=complex)
        for l in range(D**2):
            c = c + R[k, l] * gs[l]
        elements.append(np.sqrt(D) * c)
    return OperatorBasis(D=D, elements=tuple(elements), anchor=phi, construction="aligned")


def phase_point_basis() -> OperatorBasis:
    """The four unit-trace qubit phase point operators, anchored on (1,1,1)/sqrt(3)."""
    eye = np.eye(2, dtype=complex)
    elements = []
    for a in (0, 1):
        for b in (0, 1):
            op = 0.5 * (
                eye
                + (-1) ** a * PAULI_X
                + (-1) ** (a + b) * PAULI_Y
                + (-1) ** b * PAULI_Z
            )
            elements.append(op)
    anchor = bloch_diag_state()
    return OperatorBasis(D=2, elements=tuple(elements), anchor=anchor, construction="phase_point")


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


def verify_decomposition(basis_or_elements, D: Optional[int] = None) -> float:
    """Max-norm error of (1/D^2) sum_k C_k (x) C_k^T against |phi_D><phi_D|."""
    if isinstance(basis_or_elements, OperatorBasis):
        elements = basis_or_elements.elements
        D = basis_or_elements.D
    else:
        elements = [linalg.as_matrix(c) for c in basis_or_elements]
        if D is None:
            D = elements[0].shape[0]
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
        elements = tuple(linalg.matrix_from_json(m) for m in obj["elements"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed basis file: {exc}") from exc
    anchor = linalg.state_from_json(obj["anchor"]) if "anchor" in obj else None
    return OperatorBasis(
        D=D,
        elements=elements,
        anchor=anchor,
        construction=str(obj.get("construction", "custom")),
    )
