"""Classical sampling of measurement outcomes through the hidden-variable model.

A shot draws one edge index per lattice edge from the per-edge product
distribution, then draws each site's outcome from the Born probabilities of
its normalized output operator.  All randomness is counter-based (Philox)
and keyed by (seed, shot, slot); every run starts at shot 0, and its records
are the same for any block size and worker count.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from pepslhv.construction import PepsInstance, derive_seed
from pepslhv.decomposition import (
    EdgeDistributions,
    _edge_rows,
    _families,
    _family_sites,
    _hermitian_coords,
    _scan_family,
)
from pepslhv.errors import PositivityViolationError, UsageError
from pepslhv.lattice import site_groups
from pepslhv.plans import MeasurementPlan

# shots per slab in perfbench's probe_rng, its only reader; ROADMAP item 2
# deletes it once the benchmark changes
DEFAULT_CHUNK = 1 << 16
# float64/intp entries one block of shots holds: a row of uniforms per shot,
# shared by the edge and site streams, and the bisection's idx and entry
_BLOCK_SLOTS = 1 << 18
_JSONL_BLOCK_BYTES = 1 << 16  # bytes of value words per write in ShotBatch.write_jsonl


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
    # rows are shots; iter_shots hands out hidden as a view that skips the
    # kernel's zero column
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


def shot_uniforms(
    seed: int,
    start_shot: int,
    n_shots: int,
    n_slots: int,
    label: str = "edges",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Uniform variates, row i belonging to shot start_shot + i.

    Implemented with a Philox counter advanced to the absolute slot
    position, so shot i's row is independent of where the batch starts.
    Separate labels keep the edge and site streams disjoint.  With out, a
    C-contiguous float64 array of at least n_shots rows of
    4 * ceil(n_slots / 4) columns, the variates are drawn into it and a view
    is returned.
    """
    if not n_shots:
        # no rows to fill: build no generator (and import no numpy.random)
        return np.empty((0, n_slots)) if out is None else out[:0, :n_slots]
    # Philox advances in blocks of four 64-bit outputs; give each shot a
    # whole number of blocks so any start_shot lands on a block boundary.
    blocks_per_shot = -(-n_slots // 4)
    bitgen = np.random.Philox(key=np.uint64(derive_seed(seed, label)))
    bitgen.advance(start_shot * blocks_per_shot)
    gen = np.random.Generator(bitgen)
    if out is not None:
        return gen.random(out=out[:n_shots])[:, :n_slots]
    return np.ascontiguousarray(gen.random((n_shots, 4 * blocks_per_shot))[:, :n_slots])


def _padded(cdfs: list) -> np.ndarray:
    """CDF row blocks stacked into one table, padded with 2.0 to a power-of-two width, for _draw."""
    width = 1 << (max(c.shape[1] for c in cdfs) - 1).bit_length()
    return np.concatenate(
        [np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=2.0) for c in cdfs]
    )


def _count_draw(cdf_cols: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Edge draws by counting: out[i, e] = #{k : cdf_cols[k, e] <= u[i, e]}.

    cdf_cols (D^2 - 1, E) holds each edge's cumulative probabilities without
    the row's last entry, which is exactly 1.0 > u and never counts.  That is
    searchsorted(row, u, side="right") of the whole row: inversion by
    sequential search, with no gather and no index array.
    """
    out[...] = 0
    for col in cdf_cols:
        out += u >= col


def _draw(
    table: np.ndarray,
    row: np.ndarray,
    u: np.ndarray,
    out: np.ndarray,
    idx: np.ndarray,
    entry: np.ndarray,
) -> None:
    """Categorical draws by branchless bisection over the rows of a padded CDF table.

    The draw at each position reads row row[...] of table and writes to
    out[...] the number of entries <= u[...]; row, u, out and the work
    arrays idx (intp) and entry (float64) share one shape, and u is read in
    place, strided or not.  Each row is non-decreasing until it first
    reaches 1.0, its last real entry is exactly 1.0 and its padding is 2.0,
    so for u < 1.0 the entries <= u are a prefix shorter than the row:
    bisection finds its length, which is searchsorted(row, u, side="right").
    """
    width = table.shape[1]
    flat = table.ravel()
    np.multiply(row, width, out=idx, dtype=np.intp)
    # steps width/2 .. 1 as narrow scalars, so that each (entry <= u) * step
    # stays narrow; flat[step - 1:] taken at idx is flat[idx + step - 1], and
    # mode="clip" spares take a buffered copy of out
    steps = width >> np.arange(1, width.bit_length())
    for step in steps.astype(np.min_scalar_type(width >> 1)):
        np.take(flat[step - 1 :], idx, out=entry, mode="clip")
        idx += (entry <= u) * step
    np.bitwise_and(idx, width - 1, out=out, casting="unsafe")


def _block_shots(n_edges: int, n_sites: int) -> int:
    """Shots per kernel block, B, so that the block's arrays hold about _BLOCK_SLOTS entries.

    A shot holds one row of max(E, N) uniforms and N entries each of idx and entry.
    """
    return max(1, _BLOCK_SLOTS // (max(n_edges, n_sites) + 2 * n_sites))


class _BlockArrays(threading.local):
    """One thread's arrays for a block of at most B shots, allocated once and reused.

    A fresh megabyte array in every block costs page faults each time the
    allocator gives its pages back to the system.  The edge uniforms are
    spent before the site uniforms are drawn, so both streams share one buffer.
    """

    def __init__(self, block: int, n_edges: int, n_sites: int):
        self.buffer = np.empty(block * 4 * -(-max(n_edges, n_sites) // 4))
        self.idx = np.empty(block * n_sites, dtype=np.intp)
        self.entry = np.empty(block * n_sites)

    def uniforms(self, count: int, n_slots: int) -> np.ndarray:
        """The buffer's head as a C-contiguous (count, 4 * ceil(n_slots / 4)) out for shot_uniforms."""
        width = 4 * -(-n_slots // 4)
        return self.buffer[: count * width].reshape(count, width)


@dataclass(frozen=True)
class _SiteTables:
    """Every site's Born CDF rows in one table, and where each site's rows start."""

    table: np.ndarray  # the distinct sites' padded CDF tables, stacked
    # (N,) row of each site's all-zero index tuple, in the narrowest
    # unsigned dtype that holds every row of table
    base: np.ndarray
    # the lattice's own (vmax, N) incidence: sites of lower degree are padded
    # at the front with E, the column of lam that is always 0
    incidence: np.ndarray
    n: int  # D^2, the radix of a site's index tuple


def _draw_sites(
    sites: _SiteTables,
    lam: np.ndarray,
    u: np.ndarray,
    out: np.ndarray,
    idx: np.ndarray,
    entry: np.ndarray,
) -> None:
    """Outcomes (B, N) into out, given unsigned edge indices lam (B, E + 1) with lam[:, E] == 0.

    A site's row is base + its index tuple read in radix D^2 (Horner's rule,
    one gather per incident position, in the dtype of base); then one
    bisection over the block, with _draw's work arrays idx and entry of B * N
    entries.  u (B, N) may be the strided head of a wider buffer of
    uniforms: it is read in place, never copied.
    """
    # np.take along axis 1 gathers at 0.8-0.9 ns per entry at any block size;
    # lam[:, col] took 2.7 ns at B = 5 and 4.2 ns at B = 3 (0.6-0.75 ns at
    # B >= 72), on one core of a 2-vCPU x86-64 machine
    row = np.take(lam, sites.incidence[0], axis=1).astype(sites.base.dtype)
    for col in sites.incidence[1:]:
        row *= sites.n
        row += np.take(lam, col, axis=1)
    row += sites.base
    shape = row.shape
    _draw(sites.table, row, u, out, idx.reshape(shape), entry.reshape(shape))


def _set_up(instance: PepsInstance, plan: MeasurementPlan) -> Tuple[EdgeDistributions, _SiteTables]:
    """(edge distributions, every site's Born CDF rows in one table).

    One site family at a time is made, reduced to its traces and to the
    cumulative Born probabilities of its extreme index tuples, and dropped.
    Sites sharing (site map, flags, POVM) share one block of (D^2)^v rows.
    The errors come in statement order: a non-finite family raises
    UsageError as it is made, then _edge_rows NotFactorizableError, then
    the scan's witness for the least site PositivityViolationError.
    """
    povms = plan.povms(instance)
    firsts, site_family = _family_sites(instance)
    # the first site of each (family, POVM) block, in site order, and each site's block
    block_site, site_block = site_groups(np.stack([site_family, plan.povm_indices]))
    traces, cdfs, witness = [], [None] * len(block_site), None
    for f, (_, coords, t) in enumerate(_families(instance)):
        traces.append(t)
        for b, s in enumerate(block_site):
            if site_family[s] != f:
                continue
            idx, n = plan.povm_indices[s], povms[s].n_outcomes
            block = [(idx, j) for j in range(n)], _hermitian_coords(povms[s].elements)
            probs, _, _, w = _scan_family(instance, s, coords, t, [block], n, keep=True)
            if w is not None:
                # a refused block is never drawn from, so its CDF is not built
                if witness is None or w.site < witness.site:
                    witness = w
                continue
            cdf = np.cumsum(np.clip(probs, 0.0, 1.0), axis=1)
            cdfs[b] = cdf / cdf[:, -1:]
    edges = _edge_rows(instance, firsts, site_family, traces)
    if witness is not None:
        raise PositivityViolationError(f"uncertified output: {witness}", witness=witness)
    table = _padded(cdfs)
    base = np.cumsum([0] + [len(c) for c in cdfs[:-1]])[site_block]
    base = base.astype(np.min_scalar_type(len(table) - 1))
    return edges, _SiteTables(table, base, instance.lattice.incidence, instance.D**2)


def iter_shots(
    instance: PepsInstance,
    plan: MeasurementPlan,
    n_shots: int,
    seed: int,
    edge_dists: Optional[EdgeDistributions] = None,
    emit_hidden: bool = False,
    workers: int = 1,
) -> Iterator[ShotBatch]:
    """Sample n_shots shots as one ShotBatch per block of the kernel, in shot order.

    The tables are built, and any error raised, before this returns; the
    batches read only the tables, so the iterator holds no instance, plan
    or site family.  A block holds B shots, the last one fewer; zero shots yield one empty
    batch.  Each shot depends only on (seed, shot), so the bytes are the same
    for any block size and worker count.  Given edge_dists replace the
    instance's own in the draw only: the errors come in _set_up's order.
    """
    if n_shots < 0:
        raise UsageError("n_shots must be >= 0")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    built, sites = _set_up(instance, plan)
    edge_dists = built if edge_dists is None else edge_dists
    # each edge's CDF without its last entry, one column per edge
    cdf_cols = np.cumsum(edge_dists.probs, axis=1)[:, :-1].T.copy()
    n_sites, n_edges = len(sites.base), cdf_cols.shape[1]
    # hidden indices and outcomes share the narrowest dtype that holds both
    top = max([sites.n] + [p.n_outcomes for p in plan.povms(instance)]) - 1
    dtype = np.min_scalar_type(top)
    block = _block_shots(n_edges, n_sites)
    arrays = _BlockArrays(block, n_edges, n_sites)

    def draw(off: int) -> ShotBatch:
        count = min(block, n_shots - off)
        outcomes = np.empty((count, n_sites), dtype=dtype)
        # column E is the zero that pads low-degree sites
        lam = np.empty((count, n_edges + 1), dtype=dtype)
        lam[:, n_edges] = 0
        u = shot_uniforms(seed, off, count, n_edges, "edges", arrays.uniforms(count, n_edges))
        _count_draw(cdf_cols, u, lam[:, :n_edges])
        # the site stream overwrites the edge uniforms, which lam now holds
        u = shot_uniforms(seed, off, count, n_sites, "sites", arrays.uniforms(count, n_sites))
        size = count * n_sites
        _draw_sites(sites, lam, u, outcomes, arrays.idx[:size], arrays.entry[:size])
        return ShotBatch(off, outcomes, lam[:, :n_edges] if emit_hidden else None)

    return _in_order(draw, range(0, n_shots, block) if n_shots else [0], workers)


def _in_order(fn, items, workers: int) -> Iterator:
    """fn(item) for each item, in order, with at most 2 * workers results held ahead."""
    # one worker or one item runs on this thread: a pool thread gets its own
    # allocator arena, +5 MB peak RSS (9 %) on cycle:400 at 5000 shots
    if workers == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    # imported here: with one worker the pool module (and logging) never loads
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def run_shots(
    instance: PepsInstance,
    plan: MeasurementPlan,
    n_shots: int,
    seed: int,
    edge_dists: Optional[EdgeDistributions] = None,
    emit_hidden: bool = False,
    workers: int = 1,
) -> ShotBatch:
    """iter_shots' batches as one batch, held whole."""
    parts = list(iter_shots(instance, plan, n_shots, seed, edge_dists, emit_hidden, workers))
    if len(parts) == 1:
        return parts[0]
    return ShotBatch(
        start_shot=0,
        outcomes=np.concatenate([p.outcomes for p in parts]),
        hidden=np.concatenate([p.hidden for p in parts]) if emit_hidden else None,
    )
