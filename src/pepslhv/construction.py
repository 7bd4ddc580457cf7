"""Site maps and exact assembly of the PEPS state on small lattices.

A site map projects the v virtual D-level particles at a site down to one
physical d-level particle.  The maps built here have a single Kraus
operator, so the assembled PEPS is pure.  Full rank of the Kraus operator
guarantees the state is entangled; strict positivity is checked elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis
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
    """Linear projection from (C^D)^(x v) to C^d, given by one Kraus operator K."""

    v: int
    D: int
    d: int
    K: np.ndarray  # (d x D^v)

    def __post_init__(self):
        if self.v < 1 or self.D < 2 or self.d < 1:
            raise UsageError(f"bad site map dimensions v={self.v}, D={self.D}, d={self.d}")
        K = linalg.as_matrix(self.K)
        if K.shape != (self.d, self.D**self.v):
            raise UsageError(f"Kraus shape {K.shape} != ({self.d}, {self.D**self.v})")
        if not np.any(K):
            # every bound on the outputs is relative to the scale of K
            raise UsageError("Kraus operator is all zero")
        object.__setattr__(self, "K", K)

    @property
    def virtual_dim(self) -> int:
        return self.D**self.v

    def rank(self, rtol: float = 1e-12) -> int:
        sv = np.linalg.svd(self.K, compute_uv=False)
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
    try:
        for y in range(2**v):
            K[:, y] = epsilon ** bin(y).count("1") * states[y]
    except OverflowError as exc:
        raise UsageError(f"epsilon = {epsilon:g} overflows epsilon^{v}") from exc
    return SiteMap(v=v, D=2, d=d, K=K)


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
        return SiteMap(v=v, D=D, d=d, K=base)
    full = min(d, D**v)
    for attempt in range(RECIPE1_MAX_RETRIES):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(attempt)))
        P = rng.standard_normal((d, D**v)) + 1j * rng.standard_normal((d, D**v))
        P = P / np.linalg.svd(P, compute_uv=False)[0]
        K = base + epsilon * P
        sv = np.linalg.svd(K, compute_uv=False)
        if sv[full - 1] > 1e-12 * sv[0]:
            return SiteMap(v=v, D=D, d=d, K=K)
    raise ConstructionError("could not reach full rank within retry budget")


def identity_site_map(v: int) -> SiteMap:
    """Trivial projector: the physical particle is the 2^v virtual qubits."""
    if v < 1:
        raise UsageError("v must be >= 1")
    return SiteMap(v=v, D=2, d=2**v, K=np.eye(2**v, dtype=complex))


# ---------------------------------------------------------------------------
# Complete positivity

def choi_matrix(K: np.ndarray) -> np.ndarray:
    """Choi matrix of rho -> K rho K^dag (transpositions excluded)."""
    w = K.T.ravel()  # component (i, a) = K[a, i]
    return np.outer(w, w.conj())


def choi_check(site_map: SiteMap) -> float:
    """Least eigenvalue of the unit-trace Choi matrix; >= -1e-9 certifies complete positivity.

    K is divided by its largest entry, then its norm: no scale of K reaches it.
    """
    K = site_map.K / np.max(np.abs(site_map.K))
    return float(np.linalg.eigvalsh(choi_matrix(K / np.linalg.norm(K)))[0])


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


def contract_edges(lattice: Lattice, tensors, bond_dim: int, extra_axes=0, keep_edges=False):
    """Sum over all edge assignments of the product of one row per site, as one einsum.

    tensors[s] is (bond_dim^v, ...) with ``extra_axes`` trailing axes, its
    rows in C-order over the site's incident edges; each edge is one label
    shared by its two ends.  The result has the edge axes if
    ``keep_edges``, then extra axis 0 of every site, then axis 1, and so on.
    """
    E, N = lattice.n_edges, lattice.n_sites
    operands = []
    for s, rows in enumerate(tensors):
        edges = [e for e, _ in lattice.incident_edges(s)]
        extra = [E + x * N + s for x in range(extra_axes)]
        operands += [rows.reshape((bond_dim,) * len(edges) + rows.shape[1:]), edges + extra]
    out = list(range(E if keep_edges else 0)) + list(range(E, E + extra_axes * N))
    return np.einsum(*operands, out, optimize=True)


def assemble_exact_state(instance: PepsInstance):
    """Apply the site maps to the product of bond states sum_j |jj>/sqrt(D).

    Returns (unnormalized state vector, squared norm T).  A bond state ties
    the two virtual indices of its edge, so the state is one contraction of
    the transposed Kraus operators over shared edge labels.
    """
    lat = instance.lattice
    D = instance.D
    E = lat.n_edges
    if int(np.prod(instance.physical_dims())) > MAX_PHYSICAL_DIM:
        raise UsageError("physical dimension too large for exact assembly")
    if D ** (2 * E) > MAX_VIRTUAL_DIM:
        raise UsageError("virtual dimension too large for exact assembly")
    # a Kraus scale far from 1 overflows here, and T reports it
    with np.errstate(over="ignore", invalid="ignore"):
        vec = contract_edges(lat, [m.K.T for m in instance.site_maps], D, extra_axes=1)
        vec = vec.reshape(-1) / math.sqrt(D) ** E
        T = float(np.real(vec.conj() @ vec))
    if not 1e-14 < T < math.inf:
        raise DegenerateNormError(f"assembled state has squared norm {T:.3e}")
    return vec, T


def entanglement_certificate(instance: PepsInstance) -> list:
    """Entanglement entropy (bits) across every single-site bipartition."""
    raw, T = assemble_exact_state(instance)
    dims = instance.physical_dims()
    state = raw / np.sqrt(T)
    return [linalg.entanglement_entropy(state, dims, [s]) for s in range(instance.lattice.n_sites)]
