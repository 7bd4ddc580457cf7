"""Oriented lattices of sites and edges.

Every edge has an explicit orientation: the head end of a bond carries the
basis operator C, the tail end its transpose.  Site incidence lists are
ordered by edge index; that order defines the tensor position of each
virtual particle at the site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from pepslhv.errors import UsageError

# sites in a named lattice: 2^17 holds cycle:102400 and torus:240x240, and a
# lattice this size takes tens of MB of Python tuples to build
MAX_NAMED_SITES = 2**17


@dataclass(frozen=True)
class Lattice:
    n_sites: int
    edges: tuple  # of (head, tail) site-index pairs

    def __post_init__(self):
        edges = tuple((int(h), int(t)) for h, t in self.edges)
        if self.n_sites < 2:
            raise UsageError("lattice needs at least two sites")
        if not edges:
            raise UsageError("lattice needs at least one edge")
        # each edge touches two sites; refused before the per-site lists exist
        if self.n_sites > 2 * len(edges):
            raise UsageError("every site must touch at least one edge")
        seen = set()
        incidence = [[] for _ in range(self.n_sites)]
        for e, (h, t) in enumerate(edges):
            if h == t:
                raise UsageError(f"self-loop at site {h}")
            if not (0 <= h < self.n_sites and 0 <= t < self.n_sites):
                raise UsageError(f"edge ({h}, {t}) out of range")
            key = (min(h, t), max(h, t))
            if key in seen:
                raise UsageError(f"parallel edge between {h} and {t}")
            seen.add(key)
            incidence[h].append((e, True))
            incidence[t].append((e, False))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_incidence", tuple(tuple(x) for x in incidence))
        if min(self.site_degrees()) < 1:
            raise UsageError("every site must touch at least one edge")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def site_degrees(self) -> List[int]:
        return [len(x) for x in self._incidence]

    def incident_edges(self, site: int) -> List[Tuple[int, bool]]:
        """(edge index, site-is-head) pairs, ordered by edge index."""
        return list(self._incidence[site])


def build_chain(N: int) -> Lattice:
    """Open chain; edge (s, s+1) oriented head = s."""
    if N < 2:
        raise UsageError(f"chain needs N >= 2, got {N}")
    return Lattice(n_sites=N, edges=tuple((s, s + 1) for s in range(N - 1)))


def build_cycle(N: int) -> Lattice:
    """Cycle with all edges oriented the same way round; degree 2 everywhere."""
    if N < 3:
        raise UsageError(f"cycle needs N >= 3, got {N}")
    return Lattice(n_sites=N, edges=tuple((s, (s + 1) % N) for s in range(N)))


def build_torus(Lx: int, Ly: int) -> Lattice:
    """Square torus; horizontal edges oriented +x, vertical +y; degree 4."""
    if Lx < 3 or Ly < 3:
        raise UsageError(f"torus needs Lx, Ly >= 3, got {Lx}x{Ly}")

    def site(x, y):
        return (y % Ly) * Lx + (x % Lx)

    edges = []
    for y in range(Ly):
        for x in range(Lx):
            edges.append((site(x, y), site(x + 1, y)))
            edges.append((site(x, y), site(x, y + 1)))
    return Lattice(n_sites=Lx * Ly, edges=tuple(edges))


def lattice_from_name(name: str) -> Lattice:
    """Shorthand generators: "chain:N", "cycle:N", "torus:LxxLy".

    A name of more than MAX_NAMED_SITES sites is refused before any edge is
    built.
    """
    parts = name.split(":")
    try:
        if parts[0] == "chain" and len(parts) == 2:
            return build_chain(_named_size(int(parts[1])))
        if parts[0] == "cycle" and len(parts) == 2:
            return build_cycle(_named_size(int(parts[1])))
        if parts[0] == "torus" and len(parts) == 2:
            lx, ly = parts[1].lower().split("x")
            lx, ly = int(lx), int(ly)
            _named_size(lx, ly)
            return build_torus(lx, ly)
    except ValueError as exc:
        raise UsageError(f"bad lattice name '{name}': {exc}") from exc
    raise UsageError(f"unknown lattice name '{name}'")


def _named_size(*sizes: int) -> int:
    """The first size, once the product of positive sizes is at most MAX_NAMED_SITES."""
    if min(sizes) > 0 and math.prod(sizes) > MAX_NAMED_SITES:
        raise UsageError(f"{math.prod(sizes)} sites, more than {MAX_NAMED_SITES}")
    return sizes[0]


def lattice_to_json(lat: Lattice) -> dict:
    return {"n_sites": lat.n_sites, "edges": [[h, t] for h, t in lat.edges]}


def lattice_from_json(obj: dict) -> Lattice:
    try:
        return Lattice(n_sites=int(obj["n_sites"]), edges=tuple((e[0], e[1]) for e in obj["edges"]))
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed lattice file: {exc}") from exc
