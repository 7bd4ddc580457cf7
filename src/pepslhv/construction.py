"""Site maps and exact assembly of the PEPS state on small lattices.

A site map projects the v virtual D-level particles at a site down to one
physical d-level particle.  The maps built here have a single Kraus
operator, so the assembled PEPS is pure.  Full rank of the Kraus operator
guarantees the state is entangled; strict positivity is checked elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis
from pepslhv.errors import (
    ConstructionError,
    DegenerateNormError,
    UsageError,
    check_entries,
)
from pepslhv.lattice import Lattice, site_groups
from pepslhv.measurements import MeasurementSet

RECIPE1_MAX_RETRIES = 8
# edge assignments an exact contraction sums over, bond_dim^E: a bound on work
MAX_ENUM_ASSIGNMENTS = 2**16


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


def _check_orthonormal(states: Sequence[np.ndarray]):
    mat = np.array([linalg.as_state(s) for s in states])
    gram = mat.conj() @ mat.T
    if float(np.max(np.abs(gram - np.eye(len(states))))) > 1e-9:
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


def recipe2_maker(v: int, d: int, psi) -> Callable[[float], SiteMap]:
    """epsilon -> the single Kraus sum_y eps^Ham(y) |psi_y><y| over v-bit strings y.

    psi_y is psi completed over the computational basis, made and checked
    once.  Full virtual rank 2^v for eps > 0, rank 1 at eps = 0.
    The virtual bra <y| is taken in the computational product basis ordered
    by the site's incidence list, with D = 2.
    """
    states = complete_orthonormal(psi, 2**v)
    _check_orthonormal(states)

    def make(epsilon: float) -> SiteMap:
        if epsilon < 0:
            raise UsageError("epsilon must be >= 0")
        K = np.zeros((d, 2**v), dtype=complex)
        try:
            for y in range(2**v):
                K[:, y] = epsilon ** bin(y).count("1") * states[y]
        except OverflowError as exc:
            raise UsageError(f"epsilon = {epsilon:g} overflows epsilon^{v}") from exc
        return SiteMap(v=v, D=2, d=d, K=K)

    return make


def recipe1_maker(v: int, D: int, d: int, psi, anchor, seed: int) -> Callable[[float], SiteMap]:
    """epsilon -> |psi><alpha| plus a seeded unit-spectral-norm perturbation of size eps.

    alpha is the anchor on each of the v virtual particles, and |psi><alpha|
    is made once; the perturbation is redrawn (bounded retries) until the
    Kraus operator has full rank min(d, D^v).
    """
    alpha = linalg.kron_vectors([linalg.as_state(anchor)] * v)
    base = np.outer(linalg.as_state(psi), alpha.conj())
    full = min(d, D**v)

    def make(epsilon: float) -> SiteMap:
        if epsilon < 0:
            raise UsageError("epsilon must be >= 0")
        if epsilon == 0.0:
            return SiteMap(v=v, D=D, d=d, K=base)
        for attempt in range(RECIPE1_MAX_RETRIES):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(attempt)))
            P = rng.standard_normal((d, D**v)) + 1j * rng.standard_normal((d, D**v))
            P = P / np.linalg.svd(P, compute_uv=False)[0]
            K = base + epsilon * P
            sv = np.linalg.svd(K, compute_uv=False)
            if sv[full - 1] > 1e-12 * sv[0]:
                return SiteMap(v=v, D=D, d=d, K=K)
        raise ConstructionError("could not reach full rank within retry budget")

    return make


def identity_site_map(v: int) -> SiteMap:
    """Trivial projector: the physical particle is the 2^v virtual qubits."""
    if v < 1:
        raise UsageError("v must be >= 1")
    return SiteMap(v=v, D=2, d=2**v, K=np.eye(2**v, dtype=complex))


# ---------------------------------------------------------------------------
# Complete positivity

def choi_check(site_map: SiteMap) -> float:
    """Least eigenvalue of the unit-trace Choi matrix: exactly 0.0 for every site map.

    A site map has one Kraus operator K, so its unit-trace Choi matrix is
    w w^dag / |w|^2 with w = vec(K): rank one, of size d D^v >= 2, so its
    least eigenvalue is 0 and the map is completely positive by
    construction.  Nothing is computed; `peps check` still reports the value.
    """
    return 0.0


# ---------------------------------------------------------------------------
# Instances and exact assembly

@dataclass(frozen=True)
class PepsInstance:
    """A lattice, its site maps, a basis and a measurement set.

    maps holds one site map per degree: maps[v] at every site of degree v.
    """

    lattice: Lattice
    maps: dict
    basis: OperatorBasis
    measurement_set: MeasurementSet

    def __post_init__(self):
        degrees = self.lattice.degrees
        # each degree is checked once, at its first site
        firsts = site_groups(degrees[None])[0]
        for s in firsts:
            v = int(degrees[s])
            m = self.maps.get(v)
            if m is None:
                raise UsageError(f"site {s}: no site map for degree {v}")
            if m.v != v:
                raise UsageError(f"site {s}: map v={m.v} != degree {v}")
            if m.D != self.basis.D:
                raise UsageError(f"site {s}: map D={m.D} != basis D={self.basis.D}")
            if m.d != self.measurement_set.dim:
                raise UsageError(
                    f"site {s}: map d={m.d} != measurement dim {self.measurement_set.dim}"
                )
        if len(self.maps) != len(firsts):
            extra = next(v for v in self.maps if v not in degrees[firsts].tolist())
            raise UsageError(f"site map for degree {extra}, which no site has")

    @property
    def D(self) -> int:
        return self.basis.D

    @functools.cached_property
    def site_maps(self) -> tuple:
        """Each site's map, in site order: a read-only view of maps for per-site readers."""
        return tuple(self.maps[v] for v in self.lattice.degrees.tolist())

    def physical_dims(self) -> list:
        return [self.measurement_set.dim] * self.lattice.n_sites


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
        edges = lattice.incidence[-lattice.degrees[s] :, s].tolist()
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
    lat, D = instance.lattice, instance.D
    E = lat.n_edges
    check_entries("assembled state", math.prod(instance.physical_dims()))
    check_entries("bond assignments of the assembled state", D**E, MAX_ENUM_ASSIGNMENTS)
    # a Kraus scale far from 1 overflows here, and T reports it
    with np.errstate(over="ignore", invalid="ignore"):
        kraus = [instance.maps[v].K.T for v in lat.degrees.tolist()]
        vec = contract_edges(lat, kraus, D, extra_axes=1)
        vec = vec.reshape(-1) / math.sqrt(D) ** E
        T = float(np.real(vec.conj() @ vec))
    if not 1e-14 < T < math.inf:
        raise DegenerateNormError(f"assembled state has squared norm {T:.3e}")
    return vec, T
