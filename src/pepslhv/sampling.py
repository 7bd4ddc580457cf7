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
    _edge_distribution,
    normalized_overlaps,
    site_families,
)
from pepslhv.errors import PositivityViolationError, UsageError

DEFAULT_CHUNK = 1 << 16
_TRANSPOSE_BLOCK = 256  # shots per block in _slot_major_uniforms
_JSONL_BLOCK_BYTES = 1 << 18  # bytes of value words per write in ShotBatch.write_jsonl


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
        povms = instance.measurement_set.povms
        for idx in self.povm_indices:
            if not 0 <= idx < len(povms):
                raise UsageError(f"plan references POVM {idx} which does not exist")
        return [povms[idx] for idx in self.povm_indices]


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
    # rows are shots; run_shots hands out transposed views of site- and
    # edge-major arrays
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

    def write_jsonl(self, fh) -> None:
        """Write one ShotRecord.to_json line per shot to fh, a block of shots per write.

        Each value v becomes one fixed-width word, str(v) + "," padded with
        NULs on the left, taken from a table over 0..max.  A block's words and
        its fixed fields are laid side by side in one byte array, whose NULs
        are then dropped.  Blocks hold about _JSONL_BLOCK_BYTES of words, so
        narrow rows go in long blocks and the batch is never held as bytes.
        """
        if not self.n_shots:
            return
        arrays = [a for a in (self.outcomes, self.hidden) if a is not None]
        words = _comma_words(max(int(a.max()) for a in arrays))
        rows = max(1, _JSONL_BLOCK_BYTES // (words.itemsize * sum(a.shape[1] for a in arrays)))
        shot_width = len(str(self.start_shot + self.n_shots))
        for lo in range(0, self.n_shots, rows):
            hi = min(lo + rows, self.n_shots)
            n = hi - lo
            shots = _decimal(np.arange(self.start_shot + lo, self.start_shot + hi), shot_width)
            fields = [_fixed('{"shot":', n), shots, _fixed(',"outcomes":[', n)]
            fields.append(_row_tokens(words, self.outcomes[lo:hi]))
            if self.hidden is not None:
                fields += [_fixed(',"hidden":[', n), _row_tokens(words, self.hidden[lo:hi])]
            fields.append(_fixed("}\n", n))
            data = np.concatenate(fields, axis=1).ravel()
            # np.compress is branchless; data[data != 0] is 2-3x slower once
            # token lengths vary, as they do for values 0..15
            fh.write(np.compress(data != 0, data).tobytes().decode("ascii"))


def _decimal(values: np.ndarray, width: int) -> np.ndarray:
    """(len(values), width) ASCII digits of non-negative integers, NUL-padded on the left."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    v = values.astype(np.uint64)[:, None]
    digits = (v // powers % 10 + ord("0")).astype(np.uint8)
    # leading zeros become NULs; a value of 0 keeps its last digit
    digits[np.maximum(v, 1) < powers] = 0
    return digits


def _comma_words(top: int) -> np.ndarray:
    """Word v, for v = 0..top, holds str(v) + ",", NUL-padded on the left to a power-of-two width.

    The words are void scalars, so np.take moves each as one aligned copy.
    """
    width = 1 << len(str(top)).bit_length()
    table = np.empty((top + 1, width), dtype=np.uint8)
    table[:, :-1] = _decimal(np.arange(top + 1), width - 1)
    table[:, -1] = ord(",")
    return table.view(np.dtype((np.void, width)))[:, 0]


def _row_tokens(words: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Each row of block, at least one column wide, as the bytes of "v,v,...,v]"."""
    out = np.take(words, block).view(np.uint8)
    out[:, -1] = ord("]")  # every word ends in its separator, so the row's last byte is one
    return out


def _fixed(text: str, rows: int) -> np.ndarray:
    """text as a (rows, len(text)) byte array, one row repeated."""
    return np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8), (rows, len(text)))


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


def _padded(cdf: np.ndarray) -> np.ndarray:
    """CDF rows padded with 2.0 to a power-of-two width, for _draw."""
    width = 1 << (cdf.shape[1] - 1).bit_length()
    out = np.full((len(cdf), width), 2.0)
    out[:, : cdf.shape[1]] = cdf
    return out


def _slot_major_uniforms(
    seed: int, start: int, count: int, n_slots: int, label: str
) -> np.ndarray:
    """shot_uniforms(seed, start, count, n_slots, label).T, C-contiguous (n_slots, count).

    Drawn and transposed a block of shots at a time, which keeps each
    transpose in cache and never holds the shot-major block whole.
    """
    U = np.empty((n_slots, count))
    for i in range(0, count, _TRANSPOSE_BLOCK):
        n = min(_TRANSPOSE_BLOCK, count - i)
        U[:, i : i + n] = shot_uniforms(seed, start + i, n, n_slots, label).T
    return U


def _edge_cdfs(probs) -> np.ndarray:
    """Padded cumulative edge categoricals, each row reaching exactly 1.0."""
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    return _padded(cdf)


def _draw(table: np.ndarray, idx: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Categorical draws by branchless bisection over the rows of a padded CDF table.

    Draw i reads row idx[i] of table and writes to out[i] the number of
    entries <= u[i]; idx is overwritten.  Each row is non-decreasing until it
    first reaches 1.0, its last real entry is exactly 1.0 and its padding is
    2.0, so for u < 1.0 the entries <= u are a prefix shorter than the row:
    bisection finds its length, which is searchsorted(row, u, side="right").
    """
    width = table.shape[1]
    flat = table.ravel()
    idx *= width
    # steps width/2 .. 1 as narrow scalars, so that each (entry <= u) * step
    # stays narrow; flat[step - 1:][idx] is flat[idx + step - 1]
    steps = width >> np.arange(1, width.bit_length())
    for step in steps.astype(np.min_scalar_type(width >> 1)):
        idx += (flat[step - 1 :][idx] <= u) * step
    np.bitwise_and(idx, width - 1, out=out, casting="unsafe")


def _draw_edges(edge_cdfs: np.ndarray, seed: int, start: int, lam: np.ndarray) -> None:
    """Write the edge indices of shots start..start+count-1 into lam, (E, count)."""
    U = _slot_major_uniforms(seed, start, lam.shape[1], len(edge_cdfs), "edges")
    for e, u in enumerate(U):
        _draw(edge_cdfs[e : e + 1], np.zeros(len(u), dtype=np.intp), u, lam[e])


def _draw_sites(
    instance: PepsInstance,
    site_tables: list,
    lam: np.ndarray,
    seed: int,
    start: int,
    outcomes: np.ndarray,
) -> None:
    """Outcomes of shots start.. given edge indices lam (E, count), into outcomes (N, count)."""
    lat = instance.lattice
    n = instance.D**2
    U = _slot_major_uniforms(seed, start, lam.shape[1], lat.n_sites, "sites")
    for s, table in enumerate(site_tables):
        row = np.zeros(lam.shape[1], dtype=np.intp)
        for e, _ in lat.incident_edges(s):
            row *= n
            row += lam[e]
        _draw(table, row, U[s], outcomes[s])


def _site_cdf_tables(
    instance: PepsInstance, povms: list, families: list, site_family: list
) -> list:
    """Per site, padded cumulative Born probabilities per extreme index tuple, ((D^2)^v, W).

    families and site_family are site_families(instance).  Sites sharing
    (site map, flags, POVM) share one table.  The first row, in site then
    C-order, with a trace below TRACE_FLOOR or an overlap below -DUAL_ATOL
    raises PositivityViolationError.
    """
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
            cache[key] = _padded(cdf / cdf[:, -1:])
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
    site_tables = _site_cdf_tables(instance, plan.povms(instance), *site_families(instance))
    outcomes = np.empty((lat.n_sites, 1), dtype=np.int64)
    _draw_sites(instance, site_tables, assignment[:, None], seed, shot, outcomes)
    return ShotRecord(
        shot=shot, outcomes=tuple(outcomes[:, 0].tolist()), hidden=tuple(assignment.tolist())
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
    families = site_families(instance)
    if edge_dists is None:
        edge_dists = _edge_distribution(instance, *families)
    lat = instance.lattice
    povms = plan.povms(instance)
    edge_cdfs = _edge_cdfs(edge_dists.probs)
    site_tables = _site_cdf_tables(instance, povms, *families)
    # hidden indices and outcomes share the narrowest dtype that holds both
    dtype = np.min_scalar_type(max([instance.D**2] + [p.n_outcomes for p in povms]) - 1)
    lam = np.empty((lat.n_edges, n_shots), dtype=dtype)
    outcomes = np.empty((lat.n_sites, n_shots), dtype=dtype)

    def work(off):
        # each chunk writes only its own columns, so chunks may run in any order
        part = slice(off, off + chunk)
        _draw_edges(edge_cdfs, seed, start_shot + off, lam[:, part])
        _draw_sites(instance, site_tables, lam[:, part], seed, start_shot + off, outcomes[:, part])

    offsets = range(0, n_shots, chunk)
    # one worker or one chunk runs on this thread: a pool thread gets its own
    # allocator arena, +5 MB peak RSS (9 %) on cycle:400 at 5000 shots
    if workers > 1 and len(offsets) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, offsets))
    else:
        for off in offsets:
            work(off)
    return ShotBatch(
        start_shot=start_shot,
        outcomes=outcomes.T,
        hidden=lam.T if emit_hidden else None,
    )
