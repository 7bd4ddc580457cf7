"""Restricted measurement sets, their duals, and admissibility checks.

The dual of a measurement set M is the set of Hermitian operators O with
0 <= tr(O X) <= 1 for every POVM element X in M.  ``dual_margin`` reports
how strictly an operator sits inside that dual; ``admissible_povm`` checks
a candidate POVM against products of virtual-space extreme points.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from pepslhv import linalg
from pepslhv.basis import PAULI_X, PAULI_Y, PAULI_Z, OperatorBasis, basis_products, max_ent_state
from pepslhv.errors import SCAN_BLOCK_ENTRIES, UsageError, check_entries

POVM_PSD_ATOL = 1e-9
POVM_SUM_ATOL = 1e-9
STRICT_MARGIN_FLOOR = 1e-8
ADMISSIBLE_ATOL = 1e-9
# in the dual: every overlap in [-DUAL_ATOL, 1 + DUAL_ATOL] (in_dual, the certificate's row rule)
DUAL_ATOL = 1e-9
# complex entries in one block of a set's elements: 112 or 128 elements of noisy-pauli:4
ELEMENT_BLOCK_ENTRIES = SCAN_BLOCK_ENTRIES // 4


def _povm_stack(elements, label: str) -> np.ndarray:
    """Validate POVM elements as one (K, d, d) stack: a Hermitian stack, PSD, summing to I."""
    stack = linalg.hermitian_stack(elements, f"POVM '{label}'")
    min_eigs = np.linalg.eigvalsh(stack)[:, 0]
    if min_eigs.min() < -POVM_PSD_ATOL:
        raise UsageError(f"POVM element {int(np.argmin(min_eigs))} not PSD in '{label}'")
    dim = stack.shape[1]
    if float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim)))) > POVM_SUM_ATOL:
        raise UsageError(f"POVM '{label}' does not sum to identity")
    return stack


@dataclass(frozen=True)
class Povm:
    """A full POVM: PSD elements summing to the identity.

    Any sequence of equal-shape matrices is accepted; ``elements`` is
    stored as the validated (K, d, d) array, a read-only copy.
    """

    elements: np.ndarray
    label: str = ""

    def __post_init__(self):
        elements = _povm_stack(self.elements, self.label)
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class MeasurementSet:
    """The restricted set M = {M_i} of allowed local POVMs.

    The set holds only its POVMs.  Readers scan the elements in blocks of
    whole POVMs (element_blocks), and none holds every element at once: a
    POVM built from elements holds its own read-only stack, and a named
    Pauli POVM builds its elements on first access.
    """

    povms: tuple

    def __post_init__(self):
        povms = tuple(self.povms)
        if not povms:
            raise UsageError("measurement set must be non-empty")
        if any(p.dim != povms[0].dim for p in povms):
            raise UsageError("POVMs in a measurement set must share dimension")
        object.__setattr__(self, "povms", povms)

    @property
    def dim(self) -> int:
        return self.povms[0].dim

    @property
    def n_elements(self) -> int:
        return sum(p.n_outcomes for p in self.povms)

    def by_label(self, label: str) -> Tuple[int, Povm]:
        for i, p in enumerate(self.povms):
            if p.label == label:
                return i, p
        raise UsageError(f"no POVM labelled '{label}' in measurement set")

    def element_blocks(self):
        """Yield (where, elements) per block of whole POVMs, in order; where[k] = (POVM, element) of row k.

        Blocks are balanced by entries (_povm_blocks), of at most
        ELEMENT_BLOCK_ENTRIES complex entries or one POVM, and kept by nobody
        once the reader moves on.  Named Pauli POVMs of one eta are built at
        once from their axis rows, bit for bit their elements; other POVMs'
        elements are concatenated, and one POVM alone is yielded as is.
        """
        d2 = self.dim**2
        ends = _povm_blocks([p.n_outcomes * d2 for p in self.povms], ELEMENT_BLOCK_ENTRIES)
        for a, b in zip(ends[:-1], ends[1:]):
            povms = self.povms[a:b]
            where = [(a + i, j) for i, p in enumerate(povms) for j in range(p.n_outcomes)]
            if all(isinstance(p, _PauliPovm) and p._eta == povms[0]._eta for p in povms):
                yield where, _pauli_elements(np.array([p._axes for p in povms]), povms[0]._eta)
            else:
                yield where, povms[0].elements if b - a == 1 else np.concatenate([p.elements for p in povms])


def _povm_blocks(sizes: Sequence[int], budget: int) -> list:
    """Ends [0, ..., len(sizes)] of blocks of whole POVMs of sizes entries, balanced by entries.

    With n = ceil(total / budget), block k ends at the last POVM boundary at
    or before both k total / n entries and budget entries past its start,
    but holds at least one POVM: equal POVMs within the budget end at
    count k // n.
    """
    cum = list(itertools.accumulate(sizes, initial=0))
    n = -(-cum[-1] // budget)
    ends = [0]
    while ends[-1] < len(sizes):
        a = ends[-1]
        limit = min(cum[-1] * len(ends) // n, cum[a] + budget)
        ends.append(max(a + 1, bisect.bisect_right(cum, limit) - 1))
    return ends


@dataclass(frozen=True)
class DualMargin:
    """Overlap extremes of an operator against every element of M."""

    min_overlap: float
    max_overlap: float
    margin: float
    worst_element: Tuple[int, int]

    def in_dual(self) -> bool:
        return self.min_overlap >= -DUAL_ATOL and self.max_overlap <= 1.0 + DUAL_ATOL

    @property
    def strictly_interior(self) -> bool:
        return self.margin >= STRICT_MARGIN_FLOOR


def dual_margin(O, mset: MeasurementSet) -> DualMargin:
    """Min/max of tr(OX) over M and the strict margin min(tr, 1 - tr).

    The worst element is the first (i, j) attaining the margin.
    """
    op = linalg.check_hermitian(O)
    if op.shape[0] != mset.dim:
        raise UsageError(f"operator dim {op.shape[0]} != measurement dim {mset.dim}")
    where, t = [], []
    for block_where, elements in mset.element_blocks():
        where += block_where
        t.append(linalg.overlaps(op[None], elements)[0])
        del elements  # before the next block is built
    t = np.concatenate(t)
    slack = np.minimum(t, 1.0 - t)
    k = int(np.argmin(slack))
    return DualMargin(
        min_overlap=float(t.min()),
        max_overlap=float(t.max()),
        margin=float(slack[k]),
        worst_element=where[k],
    )


# ---------------------------------------------------------------------------
# Built-in families

# one (outcome, component) pair of states per axis X, Y, Z
_AXIS_STATES = np.array([
    [[1, 1], [1, -1]] / np.sqrt(2),
    [[1, 1j], [1, -1j]] / np.sqrt(2),
    [[1, 0], [0, 1]],
], dtype=complex)


def _pauli_elements(axes: np.ndarray, eta) -> np.ndarray:
    """(m 2^n, 2^n, 2^n) elements of the Pauli product POVMs of axis rows axes (m, n), POVM by POVM.

    POVM a, outcome o is |v><v| with v = v_{a_1 o_1} (x) ... (x) v_{a_n o_n},
    outcomes in itertools.product order.  The factors are multiplied left to
    right, as kron_vectors and np.outer do, so every element is
    bit-identical to the one-at-a-time construction, whichever rows are
    built together.  With eta, X becomes eta X + (1 - eta) tr(X) I / d in
    place, to the same bits as adding the term times the identity: adding
    0.0 turns every -0.0 to +0.0 as that sum does, and the term is then
    added to the real part of each diagonal.
    """
    vecs = _AXIS_STATES[axes[:, 0]]  # (POVM, outcome, component)
    for k in range(1, axes.shape[1]):
        states = _AXIS_STATES[axes[:, k]]
        A, O, C = vecs.shape
        vecs = (vecs[:, :, None, :, None] * states[:, None, :, None, :]).reshape(A, 2 * O, 2 * C)
    elements = vecs[..., :, None] * vecs.conj()[..., None, :]
    d = elements.shape[-1]
    if eta is not None:
        traces = np.real(np.trace(elements, axis1=2, axis2=3))
        elements *= eta
        elements += 0.0
        diagonals = elements.reshape(*elements.shape[:2], d * d)[..., :: d + 1]
        diagonals.real += ((1.0 - eta) * (traces / d))[..., None]
    return elements.reshape(-1, d, d)


class _PauliPovm(Povm):
    """One POVM of a named Pauli set: its elements are built on first access (_pauli_elements), then kept."""

    def __init__(self, axes: np.ndarray, eta, label: str):
        for name, value in (("label", label), ("_axes", axes), ("_eta", eta)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def elements(self) -> np.ndarray:
        elements = _pauli_elements(self._axes[None], self._eta)
        elements.flags.writeable = False
        return elements

    @property
    def dim(self) -> int:
        return 2 ** len(self._axes)

    @property
    def n_outcomes(self) -> int:
        return 2 ** len(self._axes)


def _pauli_set(n_qubits: int, eta=None) -> MeasurementSet:
    """The 3^n Pauli product POVMs, not checked (POVMs by construction); with eta, depolarized.

    Each POVM keeps its axis row and eta, and no element (_PauliPovm).
    """
    if n_qubits < 1:
        raise UsageError("need at least one qubit")
    # 3^n POVMs of 2^n elements of 2^n x 2^n; from 14 qubits on, 24^n >= 2^64
    check_entries(f"Pauli stack of {n_qubits} qubits", 24 ** min(n_qubits, 14))
    suffix = ""
    if eta is not None:
        if not 0.0 <= eta <= 1.0:
            raise UsageError(f"eta must be in [0, 1], got {eta}")
        suffix = f"~{eta:g}"
    axes = np.array(list(itertools.product(range(3), repeat=n_qubits)))
    labels = ("".join("XYZ"[a] for a in row) + suffix for row in axes.tolist())
    return MeasurementSet(povms=tuple(_PauliPovm(row, eta, label) for row, label in zip(axes, labels)))


def pauli_product_measurements(n_qubits: int) -> MeasurementSet:
    """All 3^n products of single-qubit X/Y/Z eigenbasis projectors."""
    return _pauli_set(n_qubits)


def noisy_pauli_product_measurements(n_qubits: int, eta: float) -> MeasurementSet:
    """Every Pauli product projector X depolarized to eta X + (1 - eta) tr(X) I / d."""
    return _pauli_set(n_qubits, eta)


def bell_povm() -> Povm:
    """The four Bell projectors on two qubits."""
    phi = max_ent_state(2)
    paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
    elements = []
    for sigma in paulis:
        vec = np.kron(np.eye(2, dtype=complex), sigma) @ phi
        elements.append(np.outer(vec, vec.conj()))
    return Povm(elements=tuple(elements), label="bell")


def bell_measurement_set() -> MeasurementSet:
    return MeasurementSet(povms=(bell_povm(),))


def measurement_set_from_name(name: str) -> MeasurementSet:
    """Named families: "pauli:n", "noisy-pauli:n:eta", "bell"."""
    parts = name.split(":")
    try:
        if parts[0] == "pauli" and len(parts) == 2:
            return pauli_product_measurements(int(parts[1]))
        if parts[0] == "noisy-pauli" and len(parts) == 3:
            return noisy_pauli_product_measurements(int(parts[1]), float(parts[2]))
        if parts[0] == "bell" and len(parts) == 1:
            return bell_measurement_set()
    except ValueError as exc:
        raise UsageError(f"bad measurement-set name '{name}': {exc}") from exc
    raise UsageError(f"unknown measurement-set name '{name}'")


# ---------------------------------------------------------------------------
# Admissibility against virtual state spaces

@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    min_value: float
    max_value: float
    worst: Tuple[Tuple[int, ...], int, float]  # (basis tuple, element index, value)


def admissible_povm(povm: Povm, op_basis: OperatorBasis, flags: Sequence[bool]) -> AdmissibilityReport:
    """Scan tr(V X) over the products V = basis_products(op_basis, flags) of extreme points.

    One virtual space per flag, whose extreme points are the basis elements,
    transposed where flagged (a tail end).  Linearity in V makes checking
    the extreme points sufficient for the whole convex hulls.  The worst
    entry is the first, in C-order over (tuple, element), furthest outside
    [0, 1].
    """
    flags = tuple(flags)
    if not flags:
        raise UsageError("need at least one virtual space")
    dim = op_basis.D ** len(flags)
    if povm.dim != dim:
        raise UsageError(f"POVM dim {povm.dim} != product virtual dim {dim}")
    V = basis_products(op_basis, flags)
    vals = linalg.overlaps(V, povm.elements).reshape([op_basis.D**2] * len(flags) + [-1])
    excess = np.maximum(-vals, vals - 1.0)
    k = np.unravel_index(int(np.argmax(excess)), vals.shape)
    worst = ((0,) * len(flags), 0, 0.0)
    if excess[k] > 0.0:
        worst = (tuple(int(i) for i in k[:-1]), int(k[-1]), float(vals[k]))
    min_v, max_v = float(vals.min()), float(vals.max())
    admissible = min_v >= -ADMISSIBLE_ATOL and max_v <= 1.0 + ADMISSIBLE_ATOL
    return AdmissibilityReport(admissible=admissible, min_value=min_v, max_value=max_v, worst=worst)


# ---------------------------------------------------------------------------
# File format

def measurement_set_from_json(obj: dict) -> MeasurementSet:
    try:
        povms = tuple(
            Povm(
                elements=tuple(linalg.matrix_from_json(x) for x in p["elements"]),
                label=str(p.get("label", "")),
            )
            for p in obj["povms"]
        )
        dim = obj.get("dim")
        if dim is not None and type(dim) is not int:  # refused, not truncated
            raise UsageError(f"dim must be an integer, got {dim!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed measurement-set file: {exc}") from exc
    mset = MeasurementSet(povms=povms)
    if dim is not None and mset.dim != dim:
        raise UsageError("measurement-set file dim disagrees with elements")
    return mset
