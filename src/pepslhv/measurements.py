"""Restricted measurement sets, their duals, and admissibility checks.

The dual of a measurement set M is the set of Hermitian operators O with
0 <= tr(O X) <= 1 for every POVM element X in M.  ``dual_margin`` reports
how strictly an operator sits inside that dual; ``admissible_povm`` checks
a candidate POVM against products of virtual-space extreme points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from pepslhv import linalg
from pepslhv.basis import PAULI_X, PAULI_Y, PAULI_Z, OperatorBasis, basis_products, max_ent_state
from pepslhv.errors import UsageError, check_entries

POVM_PSD_ATOL = 1e-9
POVM_SUM_ATOL = 1e-9
STRICT_MARGIN_FLOOR = 1e-8
ADMISSIBLE_ATOL = 1e-9


def _povm_stack(elements, label: str) -> np.ndarray:
    """Validate POVM elements as one (K, d, d) stack.

    One pass each over the stack: finite entries, hermiticity defect,
    eigvalsh for PSD, and the sum to the identity.
    """
    try:
        stack = np.asarray(elements, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"POVM '{label}' elements are not equal-shape matrices: {exc}") from exc
    if stack.ndim == 0 or len(stack) == 0:
        raise UsageError("POVM needs at least one element")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise UsageError(f"POVM '{label}' elements must be square matrices, got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise UsageError(f"POVM '{label}' has non-finite entries")
    defect = float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))))
    if defect > linalg.HERMITIAN_ATOL:
        raise UsageError(
            f"POVM '{label}' element is not hermitian "
            f"(defect {defect:.3e} > {linalg.HERMITIAN_ATOL:.1e})"
        )
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
    stored as the validated (K, d, d) array.
    """

    elements: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "elements", _povm_stack(self.elements, self.label))

    @classmethod
    def _of_rows(cls, rows: np.ndarray, label: str) -> "Povm":
        """A Povm over rows that are a POVM (validated by _povm_stack, or built as one), not checked."""
        povm = object.__new__(cls)
        object.__setattr__(povm, "elements", rows)
        object.__setattr__(povm, "label", label)
        return povm

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class MeasurementSet:
    """The restricted set M = {M_i} of allowed local POVMs.

    Every element is held once, in one read-only (n, d, d) stack, and each
    POVM's ``elements`` is its row slice of that stack.  A set built from
    POVMs holds a copy of their elements; a named set holds the stack it
    was built in.
    """

    povms: tuple
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        povms = tuple(self.povms)
        if not povms:
            raise UsageError("measurement set must be non-empty")
        dim = povms[0].dim
        if any(p.dim != dim for p in povms):
            raise UsageError("POVMs in a measurement set must share dimension")
        stack = np.concatenate([p.elements for p in povms])
        self._hold(stack, [(p.label, p.n_outcomes) for p in povms])

    @classmethod
    def _of_stack(cls, stack: np.ndarray, povms: list) -> "MeasurementSet":
        """The set over stack, not copied, whose rows are POVMs as povms groups them.

        povms lists (label, outcome count) for each POVM's rows, in order.
        """
        mset = object.__new__(cls)
        mset._hold(stack, povms)
        return mset

    def _hold(self, stack: np.ndarray, povms: list) -> None:
        """Keep stack, read-only, with one Povm over each slice of rows that povms lists."""
        stack.flags.writeable = False
        ends = np.cumsum([n for _, n in povms])
        rows = (Povm._of_rows(stack[e - n : e], label) for (label, n), e in zip(povms, ends))
        object.__setattr__(self, "povms", tuple(rows))
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return self.povms[0].dim

    def by_label(self, label: str) -> Tuple[int, Povm]:
        for i, p in enumerate(self.povms):
            if p.label == label:
                return i, p
        raise UsageError(f"no POVM labelled '{label}' in measurement set")

    def element_stack(self):
        """(every element of every POVM as one (n, d, d) array, (POVM, element) per row).

        The array is the set's own read-only stack, not a copy: every
        ``povm.elements`` is a slice of it.
        """
        where = [(i, j) for i, p in enumerate(self.povms) for j in range(p.n_outcomes)]
        return self._stack, where


@dataclass(frozen=True)
class DualMargin:
    """Overlap extremes of an operator against every element of M."""

    min_overlap: float
    max_overlap: float
    margin: float
    worst_element: Tuple[int, int]

    def in_dual(self, atol: float = 0.0) -> bool:
        return self.min_overlap >= -atol and self.max_overlap <= 1.0 + atol

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
    stack, where = mset.element_stack()
    t = linalg.overlaps(op[None], stack)[0]
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

_AXIS_STATES = {
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2), np.array([1, -1j], dtype=complex) / np.sqrt(2)),
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


def pauli_product_elements(n_qubits: int) -> np.ndarray:
    """(3^n, 2^n, 2^n, 2^n) stack of product projectors, by axes then outcome bits.

    Row a, column o is |v><v| with v = v_{a_1 o_1} (x) ... (x) v_{a_n o_n},
    both in itertools.product order.  The factors are multiplied left to
    right, as kron_vectors and np.outer do, so every element is
    bit-identical to the one-at-a-time construction.
    """
    states = np.array([_AXIS_STATES[a] for a in "XYZ"])  # (axis, outcome, component)
    vecs = states
    for _ in range(n_qubits - 1):
        A, O, C = vecs.shape
        vecs = vecs[:, None, :, None, :, None] * states[None, :, None, :, None, :]
        vecs = vecs.reshape(3 * A, 2 * O, 2 * C)
    return vecs[..., :, None] * vecs.conj()[..., None, :]


def _pauli_set(n_qubits: int, eta=None) -> MeasurementSet:
    """The 3^n Pauli product POVMs, not checked (POVMs by construction); with eta, depolarized first.

    Depolarizing maps X to eta X + (1 - eta) tr(X) I / d in place on the
    whole stack, to the same bits as adding the term times the identity:
    adding 0.0 turns every -0.0 to +0.0 as that sum does, and the term is
    then added to the real part of each diagonal.  The set holds this
    stack; it is never copied.
    """
    if n_qubits < 1:
        raise UsageError("need at least one qubit")
    # 3^n POVMs of 2^n elements of 2^n x 2^n; from 14 qubits on, 24^n >= 2^64
    check_entries(f"Pauli stack of {n_qubits} qubits", 24 ** min(n_qubits, 14))
    elements = pauli_product_elements(n_qubits)
    suffix = ""
    if eta is not None:
        if not 0.0 <= eta <= 1.0:
            raise UsageError(f"eta must be in [0, 1], got {eta}")
        d = elements.shape[-1]
        traces = np.real(np.trace(elements, axis1=2, axis2=3))
        elements *= eta
        elements += 0.0
        diagonals = elements.reshape(*elements.shape[:2], d * d)[..., :: d + 1]
        diagonals.real += ((1.0 - eta) * (traces / d))[..., None]
        suffix = f"~{eta:g}"
    labels = ("".join(axes) + suffix for axes in itertools.product("XYZ", repeat=n_qubits))
    povms = [(label, 2**n_qubits) for label in labels]
    return MeasurementSet._of_stack(elements.reshape(-1, *elements.shape[2:]), povms)


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

def measurement_set_to_json(mset: MeasurementSet) -> dict:
    return {
        "dim": mset.dim,
        "povms": [
            {"label": p.label, "elements": [linalg.matrix_to_json(x) for x in p.elements]}
            for p in mset.povms
        ],
    }


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
