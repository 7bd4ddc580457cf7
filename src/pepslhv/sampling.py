"""Classical sampling of measurement outcomes through the hidden-variable model.

A shot draws one edge index per lattice edge from the per-edge product
distribution, then draws each site's outcome from the Born probabilities of
its normalized output operator.  All randomness is counter-based (Philox)
and keyed by (seed, shot, slot), so any partition of the shot range across
workers reproduces identical records.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from pepslhv.construction import PepsInstance
from pepslhv.decomposition import (
    DUAL_ATOL,
    EdgeDistributions,
    edge_distribution,
    normalized_overlaps,
    site_families,
)
from pepslhv.errors import PositivityViolationError, UsageError

DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class MeasurementPlan:
    """One POVM (by index into the instance's measurement set) per site."""

    povm_indices: tuple

    @classmethod
    def uniform(cls, instance: PepsInstance, label: str) -> "MeasurementPlan":
        idx, _ = instance.measurement_set.by_label(label)
        return cls(povm_indices=(idx,) * instance.lattice.n_sites)

    @classmethod
    def from_labels(cls, instance: PepsInstance, labels: Sequence[str]) -> "MeasurementPlan":
        if len(labels) != instance.lattice.n_sites:
            raise UsageError(
                f"plan has {len(labels)} sites, instance has {instance.lattice.n_sites}"
            )
        return cls(
            povm_indices=tuple(instance.measurement_set.by_label(l)[0] for l in labels)
        )

    def povms(self, instance: PepsInstance) -> list:
        povms = []
        for s, idx in enumerate(self.povm_indices):
            if not 0 <= idx < len(instance.measurement_set.povms):
                raise UsageError(f"plan references POVM {idx} which does not exist")
            p = instance.measurement_set.povms[idx]
            if p.dim != instance.site_maps[s].d:
                raise UsageError(f"plan POVM dim mismatch at site {s}")
            povms.append(p)
        return povms


@dataclass(frozen=True)
class ShotRecord:
    shot: int
    outcomes: tuple
    hidden: Optional[tuple] = None

    def to_json(self) -> str:
        obj = {"shot": self.shot, "outcomes": list(self.outcomes)}
        if self.hidden is not None:
            obj["hidden"] = list(self.hidden)
        return json.dumps(obj, separators=(",", ":"))


@dataclass(frozen=True)
class ShotBatch:
    start_shot: int
    outcomes: np.ndarray  # (n_shots, n_sites) int
    hidden: Optional[np.ndarray]  # (n_shots, n_edges) int, if emitted

    @property
    def n_shots(self) -> int:
        return self.outcomes.shape[0]

    def records(self) -> Iterator[ShotRecord]:
        # row by row, so the batch is never held a second time as Python lists
        for i, row in enumerate(self.outcomes):
            hidden = tuple(self.hidden[i].tolist()) if self.hidden is not None else None
            yield ShotRecord(shot=self.start_shot + i, outcomes=tuple(row.tolist()), hidden=hidden)


def derive_seed(seed: int, label: str) -> int:
    """Stable labeled sub-seed so one --seed flag drives every subsystem."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def shot_uniforms(
    seed: int, start_shot: int, n_shots: int, n_slots: int, label: str = "edges"
) -> np.ndarray:
    """Uniform variates, row i belonging to shot start_shot + i.

    Implemented with a Philox counter advanced to the absolute slot
    position, so shot i's row is independent of where the batch starts.
    Separate labels keep the edge and site streams disjoint.
    """
    if n_shots < 0 or n_slots < 1:
        raise UsageError("bad uniform block shape")
    # Philox advances in blocks of four 64-bit outputs; give each shot a
    # whole number of blocks so any start_shot lands on a block boundary.
    blocks_per_shot = -(-n_slots // 4)
    bitgen = np.random.Philox(key=np.uint64(derive_seed(seed, label)))
    bitgen.advance(start_shot * blocks_per_shot)
    u = np.random.Generator(bitgen).random((n_shots, 4 * blocks_per_shot))
    return np.ascontiguousarray(u[:, :n_slots])


def _edge_cdfs(probs) -> np.ndarray:
    """Cumulative edge categoricals, (E, D^2), each row ending at exactly 1.0."""
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    return cdf


def _draw_edges(edge_cdfs: np.ndarray, seed: int, start: int, lam: np.ndarray) -> None:
    """Write the edge indices of shots start..start+len(lam)-1 into lam, (count, E).

    Index = number of CDF bins k < D^2 - 1 with cdf[k] <= u; each row is
    non-decreasing and ends at 1.0 > u, so this is searchsorted(side="right").
    """
    U = shot_uniforms(seed, start, len(lam), len(edge_cdfs), label="edges")
    lam[:] = 0
    for k in range(edge_cdfs.shape[1] - 1):
        lam += U >= edge_cdfs[:, k]


def _draw_sites(
    instance: PepsInstance,
    site_tables: list,
    lam: np.ndarray,
    seed: int,
    start: int,
    outcomes: np.ndarray,
) -> None:
    """Outcomes of shots start.. given their edge indices lam, written into outcomes (len(lam), N)."""
    lat = instance.lattice
    n = instance.D**2
    U = shot_uniforms(seed, start, len(lam), lat.n_sites, label="sites")
    for s, table in enumerate(site_tables):
        flat = np.zeros(len(lam), dtype=np.int64)
        for e, _ in lat.incident_edges(s):
            flat = flat * n + lam[:, e]
        rows = table[flat]
        idx = np.sum(rows <= U[:, s][:, None], axis=1)
        outcomes[:, s] = np.minimum(idx, table.shape[1] - 1)


def sample_hidden(edge_dists, seed: int, shot: int) -> np.ndarray:
    """Edge assignment for one shot; deterministic in (seed, shot)."""
    probs = edge_dists.probs if isinstance(edge_dists, EdgeDistributions) else edge_dists
    cdfs = _edge_cdfs(probs)
    lam = np.empty((1, len(cdfs)), dtype=np.int64)
    _draw_edges(cdfs, seed, shot, lam)
    return lam[0]


def _site_cdf_tables(instance: PepsInstance, povms: list) -> list:
    """Per site, cumulative Born probabilities per extreme index tuple, ((D^2)^v, K).

    Sites sharing (site map, flags, POVM) share one table.  The first row,
    in site then C-order, with a trace below TRACE_FLOOR or an overlap below
    -DUAL_ATOL raises PositivityViolationError.
    """
    families, site_family = site_families(instance)
    cache: dict = {}
    tables = []
    for s, f in enumerate(site_family):
        key = (f, id(povms[s]))
        if key not in cache:
            traces, ok, probs = normalized_overlaps(families[f], povms[s].elements)
            bad = ~ok | (probs.min(axis=1) < -DUAL_ATOL)
            if bad.any():
                r = int(np.argmax(bad))
                if not ok[r]:
                    raise PositivityViolationError(
                        f"site {s}: output trace {traces[r]:.3e} at tuple {r} "
                        "(certificate stale or absent)",
                        witness=(s, r, None, float(traces[r])),
                    )
                j = int(np.argmin(probs[r]))
                raise PositivityViolationError(
                    f"site {s}: tr(sigma X_{j}) = {probs[r, j]:.3e} at tuple {r}",
                    witness=(s, r, j, float(probs[r, j])),
                )
            cdf = np.cumsum(np.clip(probs, 0.0, 1.0), axis=1)
            cache[key] = cdf / cdf[:, -1:]
        tables.append(cache[key])
    return tables


def sample_outcomes(
    instance: PepsInstance,
    assignment,
    plan: MeasurementPlan,
    seed: int,
    shot: int,
) -> ShotRecord:
    """Outcomes at every site for a fixed hidden edge assignment."""
    lat = instance.lattice
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (lat.n_edges,):
        raise UsageError("assignment length must equal the edge count")
    n = instance.D**2
    if np.any(assignment < 0) or np.any(assignment >= n):
        raise UsageError("edge index out of range")
    site_tables = _site_cdf_tables(instance, plan.povms(instance))
    outcomes = np.empty((1, lat.n_sites), dtype=np.int64)
    _draw_sites(instance, site_tables, assignment[None, :], seed, shot, outcomes)
    return ShotRecord(
        shot=shot, outcomes=tuple(outcomes[0].tolist()), hidden=tuple(assignment.tolist())
    )


def run_shots(
    instance: PepsInstance,
    plan: MeasurementPlan,
    n_shots: int,
    seed: int,
    edge_dists: Optional[EdgeDistributions] = None,
    emit_hidden: bool = False,
    start_shot: int = 0,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> ShotBatch:
    """Sample n_shots records; deterministic per shot regardless of chunking."""
    if n_shots < 0:
        raise UsageError("n_shots must be >= 0")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if edge_dists is None:
        edge_dists = edge_distribution(instance)
    lat = instance.lattice
    edge_cdfs = _edge_cdfs(edge_dists.probs)
    site_tables = _site_cdf_tables(instance, plan.povms(instance))
    lam = np.empty((n_shots, lat.n_edges), dtype=np.int64)
    outcomes = np.empty((n_shots, lat.n_sites), dtype=np.int64)

    def work(off):
        # each chunk writes only its own rows, so chunks may run in any order
        part = slice(off, off + chunk)
        _draw_edges(edge_cdfs, seed, start_shot + off, lam[part])
        _draw_sites(instance, site_tables, lam[part], seed, start_shot + off, outcomes[part])

    offsets = range(0, n_shots, chunk)
    if workers > 1 and len(offsets) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, offsets))
    else:
        for off in offsets:
            work(off)
    return ShotBatch(
        start_shot=start_shot,
        outcomes=outcomes,
        hidden=lam if emit_hidden else None,
    )
