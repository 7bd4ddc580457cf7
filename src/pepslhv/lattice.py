"""Oriented lattices of sites and edges.

Every edge has an explicit orientation: the head end of a bond carries the
basis operator C, the tail end its transpose.  A site's incident edges are
ordered by edge index; that order defines the tensor position of each
virtual particle at the site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from pepslhv.errors import UsageError, check_entries


@dataclass(frozen=True, eq=False)
class Lattice:
    """Sites and oriented edges, with each site's incidence held as arrays.

    `edges` is (E, 2) intp, (head, tail) per edge.  `incidence` (vmax, N) holds each
    site's edge indices in edge order, sites of lower degree padded at the front
    with E; `is_head` (vmax, N) flags the head ends, and `degrees` is (N,).
    """

    n_sites: int
    edges: np.ndarray

    def __post_init__(self):
        try:
            ends = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        except OverflowError:  # an end past int64 is out of range; -1 stands in for it
            ends = np.array([[x if abs(x) < 2**63 else -1 for x in e] for e in self.edges])
        n, E = self.n_sites, len(ends)
        if n < 2:
            raise UsageError("lattice needs at least two sites")
        if not E:
            raise UsageError("lattice needs at least one edge")
        # each edge touches two sites; refused before any per-site array exists
        if n > 2 * E:
            raise UsageError("every site must touch at least one edge")
        lo, hi = np.sort(ends, axis=1).T
        # a self-loop, an end out of range, or a pair that an earlier edge joins
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        first = np.unique(np.where(bad, -1 - np.arange(E), lo * n + hi), return_index=True)[1]
        if (bad := bad | ~np.isin(np.arange(E), first)).any():
            h, t = (int(x) for x in self.edges[int(np.argmax(bad))])
            if h == t:
                raise UsageError(f"self-loop at site {h}")
            if not (0 <= h < n and 0 <= t < n):
                raise UsageError(f"edge ({h}, {t}) out of range")
            raise UsageError(f"parallel edge between {h} and {t}")
        flat = ends.ravel()
        degrees = np.bincount(flat, minlength=n)
        if degrees.min() < 1:
            raise UsageError("every site must touch at least one edge")
        # a stable sort groups the 2E ends by site, in edge order within a
        # site; a site's k-th of v edges goes to row vmax - v + k
        order = np.argsort(flat, kind="stable")
        site, vmax = flat[order], degrees.max()
        row = np.arange(2 * E) - np.cumsum(degrees)[site] + vmax
        incidence = np.full((vmax, n), E, dtype=np.intp)
        incidence[row, site] = order // 2
        is_head = np.zeros((vmax, n), dtype=bool)
        is_head[row, site] = order % 2 == 0
        for name, value in dict(edges=ends, incidence=incidence, is_head=is_head,
                                degrees=degrees).items():
            object.__setattr__(self, name, value)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self, site: int) -> List[Tuple[int, bool]]:
        """(edge index, site-is-head) pairs, ordered by edge index."""
        v = self.degrees[site]
        return list(zip(self.incidence[-v:, site].tolist(), self.is_head[-v:, site].tolist()))


def site_groups(keys: np.ndarray):
    """(first site of each distinct key column, in site order; each site's group, so numbered)."""
    order = np.lexsort(keys)  # stable: each group's least site leads its run
    new = np.r_[True, np.any(np.diff(keys[:, order], axis=1) != 0, axis=0)]
    group = np.empty_like(order)
    group[order] = np.argsort(np.argsort(order[new]))[np.cumsum(new) - 1]
    return np.sort(order[new]).tolist(), group


def build_chain(N: int) -> Lattice:
    """Open chain; edge (s, s+1) oriented head = s."""
    if N < 2:
        raise UsageError(f"chain needs N >= 2, got {N}")
    s = np.arange(N - 1)
    return Lattice(n_sites=N, edges=np.stack([s, s + 1], axis=1))


def build_cycle(N: int) -> Lattice:
    """Cycle with all edges oriented the same way round; degree 2 everywhere."""
    if N < 3:
        raise UsageError(f"cycle needs N >= 3, got {N}")
    s = np.arange(N)
    return Lattice(n_sites=N, edges=np.stack([s, (s + 1) % N], axis=1))


def build_torus(Lx: int, Ly: int) -> Lattice:
    """Square torus; horizontal edges oriented +x, vertical +y; degree 4."""
    if Lx < 3 or Ly < 3:
        raise UsageError(f"torus needs Lx, Ly >= 3, got {Lx}x{Ly}")
    s = np.arange(Lx * Ly)
    x, y = s % Lx, s // Lx
    # each site's +x edge, then its +y edge
    edges = np.stack([s, y * Lx + (x + 1) % Lx, s, (y + 1) % Ly * Lx + x], axis=1)
    return Lattice(n_sites=Lx * Ly, edges=edges.reshape(-1, 2))


def lattice_from_name(name: str) -> Lattice:
    """Shorthand generators: "chain:N", "cycle:N", "torus:LxxLy".

    A name past the entry budget is refused before any edge is built.
    """
    parts = name.split(":")
    try:
        if parts[0] == "chain" and len(parts) == 2:
            return build_chain(_named_size(1, int(parts[1])))
        if parts[0] == "cycle" and len(parts) == 2:
            return build_cycle(_named_size(1, int(parts[1])))
        if parts[0] == "torus" and len(parts) == 2:
            lx, ly = parts[1].lower().split("x")
            lx, ly = int(lx), int(ly)
            _named_size(2, lx, ly)
            return build_torus(lx, ly)
    except ValueError as exc:
        raise UsageError(f"bad lattice name '{name}': {exc}") from exc
    raise UsageError(f"unknown lattice name '{name}'")


def _named_size(edges_per_site: int, *sizes: int) -> int:
    """The first size, once positive sizes of that many edges per site pass the entry budget."""
    # every command but lattice gen holds at most 250 B per edge at D = 2 on 2^20 edges
    if min(sizes) > 0:
        check_entries("its edges, 16 entries each", 16 * edges_per_site * math.prod(sizes))
    return sizes[0]


def lattice_from_json(obj: dict) -> Lattice:
    """The lattice of {"n_sites": n, "edges": [[head, tail], ...]}, every number a JSON integer."""
    try:
        n_sites, edges = obj["n_sites"], obj["edges"]
        # type(x) is int: a float, a string or a bool is refused, not truncated
        if type(n_sites) is not int:
            raise UsageError(f"n_sites must be an integer, got {n_sites!r}")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
        ):
            raise UsageError("every edge must be two integers [head, tail]")
        return Lattice(n_sites=n_sites, edges=edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed lattice file: {exc}") from exc
