"""The epsilon search's verdict: rv_positivity_check(instance).passed, in real coordinates.

`max_epsilon_search` needs only pass or fail per point, and its instances
differ only in their site maps.  `EpsilonProbe` resolves the rest once, holds
operators in real Hermitian coordinates (half the inner dimension of complex
overlaps) and stops at the first row block failing the certificate's row
rule.  No product of basis elements is built: over the generators G_a of one
bond (`basis.hermitian_spanning_set`), a family's coordinates are one map per
degree, over G_a1 (x) ... (x) G_av, contracted bond by bond with the basis's.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from pepslhv import linalg
from pepslhv.basis import hermitian_spanning_set
from pepslhv.construction import PepsInstance, SiteMap
from pepslhv.decomposition import _family_sites, _row_blocks, _row_rule, _usable_traces
from pepslhv.decomposition import rv_positivity_check

# a sum of products bounded by this in size is finite however it is rounded
_COORD_BOUND = np.finfo(float).max / 4


def _hermitian_coords(ops: np.ndarray, off: float) -> np.ndarray:
    """(m^2, n) real coordinates, one column per operator of an (n, m, m) stack.

    A column holds the diagonal, then off times Re(X_ij + X_ji) and Im(X_ij - X_ji)
    over i < j in row-major order: with off = 1/2, X's Hermitian part over
    E_ii, E_ij + E_ji and i(E_ij - E_ji).  With off = 1 (the elements) its dot
    product with a Hermitian O's is Re tr(O X^dag), the tr(O X) of linalg.overlaps.
    """
    i, j = np.triu_indices(ops.shape[-1], 1)
    upper, lower = ops[:, i, j], ops[:, j, i]
    diagonal = np.diagonal(ops, axis1=1, axis2=2).real
    return np.concatenate([diagonal, off * (upper.real + lower.real), off * (upper.imag - lower.imag)], 1).T


def _product_map(site_map: SiteMap, work) -> np.ndarray:
    """(d^2, D^2v) real map: column a holds _hermitian_coords (off = 1/2) of K (G_a1 (x) ... (x) G_av) K^dag.

    Tuples a in C-order.  T[x_1, y_1, ..., x_v, y_v, (i <= j)] = K[i, x] conj(K[j, y])
    takes one real product per bond, in work's two buffers in turn (their
    pages stay mapped): G_a is real, or i times a real matrix, so a tuple's
    power of i comes last.  A Kraus operator near the float range gives
    non-finite entries, without a warning.
    """
    K, D, v, d = site_map.K, site_map.D, site_map.v, site_map.d
    G = hermitian_spanning_set(D)
    g = (G.real + G.imag).reshape(D * D, -1)  # G_a = phase[a] g_a, each G_a real or imaginary
    phase = np.where(G.imag.any(axis=(1, 2)), 1j, 1.0)
    i, j = (np.concatenate([np.arange(d), t]) for t in np.triu_indices(d, 1))
    T = work[0][: len(i) * D ** (2 * v)].reshape((D, D) * v + (len(i),))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(K[i].T.reshape((D, 1) * v + (-1,)), K[j].conj().T.reshape((1, D) * v + (-1,)), out=T)
        for p in range(v):
            A = T.view(float).reshape(D ** (2 * p), D * D, -1)
            T = np.matmul(g, A, out=work[(p + 1) % 2].view(float)[: A.size].reshape(A.shape))
        X = T.view(complex).reshape(D ** (2 * v), -1)
        X *= functools.reduce(np.multiply.outer, [phase] * v).reshape(-1, 1)
        return np.concatenate([X.real.T, X.imag[:, d:].T])


def _family_coords(M: np.ndarray, bonds: list, work):
    """(coordinates, a row per index tuple in C-order; trace per row) of a family's outputs.

    M is the degree's _product_map, bonds one c per bond.  Each product
    contracts the last a and puts its k first, in one of work's buffers.
    """
    d2, n, X = M.shape[0], len(bonds[0]), M
    for p, c in enumerate(reversed(bonds)):
        X = np.matmul(c.T, X.reshape(-1, n).T, out=work[p % 2].view(float)[: M.size].reshape(n, -1))
    X = X.reshape(-1, d2)
    return X, X[:, : math.isqrt(d2)].sum(axis=1)


class EpsilonProbe:
    """rv_positivity_check(instance).passed, for the instances of one epsilon search.

    Built from the first instance: each family's degree, c per bond and row
    blocks; the elements' coordinates (off = 1), one element block at a time;
    the buffers.  A call makes one _product_map per degree and each family's
    _family_coords when its turn comes, and stops at the first column slice
    failing a row, trying the row block that failed last first.  An instance
    whose outputs may overflow is judged by rv_positivity_check itself.
    """

    def __init__(self, instance: PepsInstance):
        mset, lat, D = instance.measurement_set, instance.lattice, instance.D
        self._stack = np.empty((mset.dim**2, mset.n_elements))  # element coordinates
        col = 0
        for where, elements in mset.element_blocks():
            self._stack[:, col : col + len(where)] = _hermitian_coords(elements, 1.0)
            col += len(where)
            del elements  # before the next block is built
        # BLAS packs each product's slice: a slice holds about SCAN_BLOCK_ENTRIES coordinates
        self._cols = list(_row_blocks(mset.n_elements, mset.dim**2))
        # c[a, k] = tr(G_a C~_k) = tr(G_a^T C_k), and G_a^T = -G_a for the antisymmetric
        # G_a: a tail end negates their rows.  C~_k = sum_a c[a, k] G_a
        G = hermitian_spanning_set(D)
        self._families = []  # (v, c per bond, row blocks) per family
        for s in _family_sites(instance)[0]:
            v = int(lat.degrees[s])
            bonds = [linalg.overlaps(G.transpose(0, 2, 1) if t else G, instance.basis.elements)
                     for t in ~lat.is_head[-v:, s]]
            self._families.append((v, bonds, list(_row_blocks((D * D) ** v, mset.n_elements))))
        # a coordinate is at most the largest map entry times c_norm^v, the same for every c
        self._c_norm = float(np.abs(bonds[0]).sum(axis=0).max())
        n = mset.dim * (mset.dim + 1) // 2 * D ** (2 * max(v for v, *_ in self._families))
        self._work = (np.empty(n, complex), np.empty(n, complex))
        rows = max(b - a for *_, blocks in self._families for a, b in blocks)
        self._out = np.empty((rows, max(q - p for p, q in self._cols)))
        self._last_fail = (0, 0)  # (family, block) of the last failing call

    def __call__(self, instance: PepsInstance) -> bool:
        maps = {v: _product_map(m, self._work) for v, m in instance.maps.items()}
        # a trace sums d coordinates.  Past the bound (nan for a non-finite
        # map) an output may not be finite: the certificate then gives the
        # verdict, and raises for the first non-finite family
        for v, M in maps.items():
            if not self._c_norm**v * float(np.abs(M).max()) * len(M) <= _COORD_BOUND:
                return rv_positivity_check(instance).passed
        last_f, last_k = self._last_fail
        for f in sorted(range(len(self._families)), key=lambda f: f != last_f):
            v, bonds, blocks = self._families[f]
            coords, traces = _family_coords(maps[v], bonds, self._work)
            ok, div = _usable_traces(traces)
            for k in sorted(range(len(blocks)), key=lambda k: (f, k) != (last_f, last_k)):
                a, b = blocks[k]
                lo, hi = np.inf, -np.inf
                # a row failing on some columns fails on all of them
                for p, q in self._cols:
                    block = np.matmul(coords[a:b], self._stack[:, p:q], out=self._out[: b - a, : q - p])
                    lo, hi = np.minimum(lo, block.min(axis=1)), np.maximum(hi, block.max(axis=1))
                    if _row_rule(lo, hi, ok[a:b], div[a:b])[1].any():
                        self._last_fail = (f, k)
                        return False
        return True
