"""Site maps and exact assembly of the PEPS state on small lattices.

A site map projects the v virtual D-level particles at a site down to one
physical d-level particle.  The maps built here have a single Kraus
operator, so the assembled PEPS is pure.  Full rank of the Kraus operator
guarantees the state is entangled; strict positivity is checked elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis, max_ent_state
from pepslhv.errors import (
    ConstraintError,
    ConstructionError,
    DegenerateNormError,
    UsageError,
)
from pepslhv.lattice import Lattice
from pepslhv.measurements import MeasurementSet

MAX_PHYSICAL_DIM = 2**20
MAX_VIRTUAL_DIM = 2**22
RECIPE1_MAX_RETRIES = 8


@dataclass(frozen=True)
class SiteMap:
    """Linear projection from (C^D)^(x v) to C^d, given by Kraus operators."""

    v: int
    D: int
    d: int
    kraus: tuple  # of (d x D^v) matrices
    label: str = "custom"
    epsilon: float = 0.0
    psi_y: Optional[tuple] = None

    def __post_init__(self):
        if self.v < 1 or self.D < 2 or self.d < 1:
            raise UsageError(f"bad site map dimensions v={self.v}, D={self.D}, d={self.d}")
        kraus = tuple(linalg.as_matrix(k) for k in self.kraus)
        if not kraus:
            raise UsageError("site map needs at least one Kraus operator")
        for k in kraus:
            if k.shape != (self.d, self.D**self.v):
                raise UsageError(f"Kraus shape {k.shape} != ({self.d}, {self.D**self.v})")
        object.__setattr__(self, "kraus", kraus)
        if self.psi_y is not None:
            object.__setattr__(self, "psi_y", tuple(linalg.as_state(p) for p in self.psi_y))

    @property
    def virtual_dim(self) -> int:
        return self.D**self.v

    @property
    def single_kraus(self) -> np.ndarray:
        if len(self.kraus) != 1:
            raise UsageError("site map is not single-Kraus")
        return self.kraus[0]

    def rank(self, rtol: float = 1e-12) -> int:
        sv = np.linalg.svd(np.vstack(self.kraus), compute_uv=False)
        return int(np.sum(sv > rtol * max(sv[0], 1.0)))


def _check_orthonormal(states: Sequence[np.ndarray], atol: float = 1e-9):
    mat = np.array([linalg.as_state(s) for s in states])
    gram = mat.conj() @ mat.T
    if float(np.max(np.abs(gram - np.eye(len(states))))) > atol:
        raise UsageError("states are not pairwise orthonormal")


def complete_orthonormal(psi, count: int) -> list:
    """[psi] extended to ``count`` orthonormal vectors via Gram-Schmidt
    over the computational basis."""
    vec = linalg.as_state(psi)
    d = vec.size
    if count > d:
        raise UsageError(f"cannot fit {count} orthonormal vectors in dimension {d}")
    out = [vec]
    for j in range(d):
        if len(out) == count:
            break
        cand = np.zeros(d, dtype=complex)
        cand[j] = 1.0
        for g in out:
            cand = cand - (g.conj() @ cand) * g
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            out.append(cand / norm)
    if len(out) != count:
        raise UsageError("Gram-Schmidt completion failed")
    return out


def recipe2_site_map(v: int, d: int, psi_y: Sequence[np.ndarray], epsilon: float) -> SiteMap:
    """Single Kraus sum_y eps^Ham(y) |psi_y><y| over v-bit strings y.

    Full virtual rank 2^v for eps > 0, rank 1 at eps = 0.  The virtual bra
    <y| is taken in the computational product basis ordered by the site's
    incidence list, with D = 2.
    """
    if d < 2**v:
        raise ConstraintError(f"physical dimension d={d} < 2^v = {2**v}")
    if epsilon < 0:
        raise UsageError("epsilon must be >= 0")
    states = [linalg.as_state(p) for p in psi_y]
    if len(states) != 2**v:
        raise UsageError(f"need {2**v} states psi_y, got {len(states)}")
    if any(s.size != d for s in states):
        raise UsageError("psi_y dimension mismatch")
    _check_orthonormal(states)
    K = np.zeros((d, 2**v), dtype=complex)
    for y in range(2**v):
        K[:, y] = epsilon ** bin(y).count("1") * states[y]
    return SiteMap(
        v=v, D=2, d=d, kraus=(K,), label="recipe2", epsilon=float(epsilon), psi_y=tuple(states)
    )


def recipe2_states_from_interior(psi, v: int) -> list:
    """Default psi_y: the interior state completed over the computational basis."""
    return complete_orthonormal(psi, 2**v)


def recipe1_site_map(
    v: int,
    D: int,
    d: int,
    psi,
    anchor_states: Sequence[np.ndarray],
    epsilon: float,
    seed: int,
) -> SiteMap:
    """|psi><alpha| plus a seeded unit-spectral-norm perturbation of size eps.

    alpha is the product of the per-virtual-particle anchors; the
    perturbation is redrawn (bounded retries) until the Kraus operator has
    full rank min(d, D^v).
    """
    if d < 2**v:
        raise ConstraintError(f"physical dimension d={d} < 2^v = {2**v}")
    if epsilon < 0:
        raise UsageError("epsilon must be >= 0")
    vec = linalg.as_state(psi)
    if vec.size != d:
        raise UsageError(f"psi dimension {vec.size} != d = {d}")
    anchors = [linalg.as_state(a) for a in anchor_states]
    if len(anchors) != v or any(a.size != D for a in anchors):
        raise UsageError("need one D-dimensional anchor per virtual particle")
    alpha = linalg.kron_vectors(anchors)
    base = np.outer(vec, alpha.conj())
    if epsilon == 0.0:
        return SiteMap(v=v, D=D, d=d, kraus=(base,), label="recipe1", epsilon=0.0)
    full = min(d, D**v)
    for attempt in range(RECIPE1_MAX_RETRIES):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(attempt)))
        P = rng.standard_normal((d, D**v)) + 1j * rng.standard_normal((d, D**v))
        P = P / np.linalg.svd(P, compute_uv=False)[0]
        K = base + epsilon * P
        sv = np.linalg.svd(K, compute_uv=False)
        if sv[full - 1] > 1e-12 * sv[0]:
            return SiteMap(v=v, D=D, d=d, kraus=(K,), label="recipe1", epsilon=float(epsilon))
    raise ConstructionError("could not reach full rank within retry budget")


def identity_site_map(v: int) -> SiteMap:
    """Trivial projector: the physical particle is the 2^v virtual qubits."""
    if v < 1:
        raise UsageError("v must be >= 1")
    return SiteMap(v=v, D=2, d=2**v, kraus=(np.eye(2**v, dtype=complex),), label="identity")


def custom_site_map(kraus, v: int, D: int, d: int, label: str = "custom") -> SiteMap:
    return SiteMap(v=v, D=D, d=d, kraus=(linalg.as_matrix(kraus),), label=label)


# ---------------------------------------------------------------------------
# Complete positivity

def choi_matrix(kraus: Sequence[np.ndarray], in_dim: int) -> np.ndarray:
    """Choi matrix of rho -> sum_K K rho K^dag (transpositions excluded)."""
    mats = [linalg.as_matrix(k) for k in kraus]
    out_dim = mats[0].shape[0]
    C = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for K in mats:
        if K.shape != (out_dim, in_dim):
            raise UsageError("Kraus operators have mixed shapes")
        w = K.T.ravel()  # component (i, a) = K[a, i]
        C += np.outer(w, w.conj())
    return C


def choi_matrix_from_apply(apply_fn, in_dim: int) -> np.ndarray:
    """Choi matrix of an arbitrary linear map given by its action on E_ij."""
    blocks = []
    for i in range(in_dim):
        row = []
        for j in range(in_dim):
            eij = np.zeros((in_dim, in_dim), dtype=complex)
            eij[i, j] = 1.0
            row.append(linalg.as_matrix(apply_fn(eij)))
        blocks.append(row)
    return np.block(blocks)


def choi_check(site_map: SiteMap) -> float:
    """Minimal Choi eigenvalue; >= -1e-9 certifies complete positivity."""
    C = choi_matrix(site_map.kraus, site_map.virtual_dim)
    return float(np.linalg.eigvalsh(C)[0])


# ---------------------------------------------------------------------------
# Instances and exact assembly

@dataclass(frozen=True)
class PepsInstance:
    lattice: Lattice
    site_maps: tuple
    basis: OperatorBasis
    measurement_set: MeasurementSet

    def __post_init__(self):
        maps = tuple(self.site_maps)
        if len(maps) != self.lattice.n_sites:
            raise UsageError("need one site map per site")
        degrees = self.lattice.site_degrees()
        for s, m in enumerate(maps):
            if m.v != degrees[s]:
                raise UsageError(f"site {s}: map v={m.v} != degree {degrees[s]}")
            if m.D != self.basis.D:
                raise UsageError(f"site {s}: map D={m.D} != basis D={self.basis.D}")
            if m.d != self.measurement_set.dim:
                raise UsageError(
                    f"site {s}: map d={m.d} != measurement dim {self.measurement_set.dim}"
                )
        object.__setattr__(self, "site_maps", maps)

    @property
    def D(self) -> int:
        return self.basis.D

    def physical_dims(self) -> list:
        return [m.d for m in self.site_maps]


def assemble_exact_state(instance: PepsInstance):
    """Apply the site maps to the product of bond states.

    Returns (unnormalized state vector, squared norm T).  Virtual wires are
    routed by incidence-list order; the head slot of each edge takes the
    first tensor factor of the bond state.
    """
    lat = instance.lattice
    D = instance.D
    E = lat.n_edges
    phys_dims = instance.physical_dims()
    if int(np.prod(phys_dims)) > MAX_PHYSICAL_DIM:
        raise UsageError("physical dimension too large for exact assembly")
    if D ** (2 * E) > MAX_VIRTUAL_DIM:
        raise UsageError("virtual dimension too large for exact assembly")
    for m in instance.site_maps:
        if len(m.kraus) != 1:
            raise UsageError("exact assembly requires single-Kraus maps")

    phi = max_ent_state(D).reshape(D, D)
    tensor = phi
    for _ in range(E - 1):
        tensor = np.multiply.outer(tensor, phi)
    # edge-major axes: (e0 head, e0 tail, e1 head, e1 tail, ...)
    perm = []
    for s in range(lat.n_sites):
        for e, ishead in lat.incident_edges(s):
            perm.append(2 * e if ishead else 2 * e + 1)
    tensor = tensor.transpose(perm)
    tensor = tensor.reshape([m.virtual_dim for m in instance.site_maps])
    for s, m in enumerate(instance.site_maps):
        tensor = np.tensordot(m.single_kraus, tensor, axes=([1], [s]))
        tensor = np.moveaxis(tensor, 0, s)
    vec = tensor.reshape(-1)
    T = float(np.real(vec.conj() @ vec))
    if T <= 1e-14:
        raise DegenerateNormError(f"assembled state has squared norm {T:.3e}")
    return vec, T


def entanglement_certificate(instance: PepsInstance, state=None) -> list:
    """Entanglement entropy (bits) across every single-site bipartition."""
    if state is None:
        raw, T = assemble_exact_state(instance)
        state = raw / np.sqrt(T)
    dims = instance.physical_dims()
    return [linalg.entanglement_entropy(state, dims, [s]) for s in range(instance.lattice.n_sites)]
