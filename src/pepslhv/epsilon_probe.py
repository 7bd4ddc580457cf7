"""The epsilon search's verdict: rv_positivity_check(instance).passed, in real coordinates.

`decomposition.max_epsilon_search` needs only pass or fail at each point
it visits, and its instances differ only in their site maps.  So
`EpsilonProbe` builds what does not depend on epsilon once per search,
holds every operator in real Hermitian coordinates (half the inner
dimension of the complex overlaps), and stops at the first failing row
block.  The row rule is the certificate's (`decomposition._usable_traces`,
`decomposition._row_rule`); the overlaps round differently, so the
certificate and the sampler's tables keep their complex operands.
"""

from __future__ import annotations

import math

import numpy as np

from pepslhv.basis import basis_products
from pepslhv.construction import PepsInstance
from pepslhv.decomposition import _family_sites, _row_blocks, _row_rule, _usable_traces
from pepslhv.decomposition import rv_positivity_check

# a sum of products bounded by this in size is finite however it is rounded
_COORD_BOUND = np.finfo(float).max / 4


def _hermitian_coords(ops: np.ndarray, off: float) -> np.ndarray:
    """(m^2, n) real coordinates, one column per operator of an (n, m, m) stack.

    A column holds the diagonal, then off times Re(X_ij + X_ji) and then off
    times Im(X_ij - X_ji), over i < j in row-major order.  With off = 1/2
    these are the coordinates of the Hermitian part of X over the
    generators E_ii, E_ij + E_ji and i(E_ij - E_ji).  With off = 1 (the
    measurement elements) the dot product with a Hermitian O's coordinates is
    Re tr(O X^dag), the tr(O X) of linalg.overlaps.  Built one row of the
    upper triangle at a time, so no temporary exceeds n * m entries.
    """
    n, m = ops.shape[0], ops.shape[-1]
    half = m * (m - 1) // 2
    out = np.empty((m * m, n))
    out[:m] = np.diagonal(ops, axis1=1, axis2=2).real.T
    p = m
    for i in range(m - 1):
        upper, lower = ops[:, i, i + 1 :], ops[:, i + 1 :, i]
        q = p + m - 1 - i
        out[p:q] = (off * (upper.real + lower.real)).T
        out[half + p : half + q] = (off * (upper.imag - lower.imag)).T
        p = q
    return out


def _map_matrix(K: np.ndarray) -> np.ndarray:
    """(d^2, D^2v) real matrix of H -> K H K^dag on _hermitian_coords (off = 1/2).

    Column a holds the coordinates of K G_a K^dag, G_a the a-th generator
    (E_aa, then E_ab + E_ba, then i(E_ab - E_ba) over a < b), read off its
    diagonal and upper triangle.  Built one generator row a at a time, as
    _hermitian_coords is.  A Kraus operator near the float range gives
    non-finite entries, without a warning.
    """
    d, n = K.shape
    i, j = np.triu_indices(d, 1)
    half = n * (n - 1) // 2
    M = np.empty((d * d, n * n))
    # real parts on the diagonal and the upper triangle, imaginary parts on the upper triangle
    re, im = M[: d + len(i)], M[d + len(i) :]
    # entry (rows[c], cols[c]) of K E_ab K^dag is left[c, a] * right[c, b]
    left = K[np.concatenate([np.arange(d), i])]
    right = K[np.concatenate([np.arange(d), j])].conj()
    with np.errstate(over="ignore", invalid="ignore"):
        x = left * right
        re[:, :n], im[:, :n] = x.real, x[d:].imag
        p = n
        for a in range(n - 1):
            q = p + n - 1 - a
            x, y = left[:, a, None] * right[:, a + 1 :], left[:, a + 1 :] * right[:, a, None]
            s = x + y
            re[:, p:q], im[:, p:q] = s.real, s[d:].imag
            s = x - y  # the image of i(E_ab - E_ba) is i s
            re[:, half + p : half + q], im[:, half + p : half + q] = -s.imag, s[d:].real
            p = q
    return M


def _transposition(D: int, flags: np.ndarray):
    """(source, sign) with coords(X~) = sign * coords(X)[source] for every X, in _hermitian_coords.

    X~ is X on (C^D)^(x v) with its flagged factors transposed: entry
    (l, m) of X~ is entry (a, b) of X, a and b being l and m with their
    flagged digits swapped.  Its coordinate reads X at (a, b), or at the
    mirror (b, a) when a > b, where an imaginary part changes sign.
    """
    v, n = len(flags), D ** len(flags)
    i, j = np.triu_indices(n, 1)
    half = len(i)
    # coordinate c sits at entry (rows[c], cols[c]) of the upper triangle
    rows = np.concatenate([np.arange(n), i, i])
    cols = np.concatenate([np.arange(n), j, j])
    r, c = (np.array(np.unravel_index(x, (D,) * v)) for x in (rows, cols))
    r[flags], c[flags] = c[flags], r[flags]
    a, b = np.ravel_multi_index(r, (D,) * v), np.ravel_multi_index(c, (D,) * v)
    index = np.zeros((n, n), dtype=np.intp)
    index[range(n), range(n)] = range(n)
    index[i, j] = range(n, n + half)
    source = index[np.minimum(a, b), np.maximum(a, b)]
    imag = np.arange(n * n) >= n + half
    source[imag] += half
    return source, np.where(imag & (a > b), -1.0, 1.0)


class EpsilonProbe:
    """rv_positivity_check(instance).passed, for the instances of one epsilon search.

    The work that does not depend on epsilon is done once and kept while
    the instances share their basis and measurement set objects: the basis
    products of each degree (basis.basis_products, site_operator_family with
    K = I and no transposed end) and the elements, both in real Hermitian
    coordinates (_hermitian_coords).  The elements' coordinates are filled
    one element block at a time, so their complex stack is never held.  A
    family's products are a signed permutation of those coordinates
    (_transposition), read one row block at a time.  Each probe builds one
    map matrix per degree of its instance, and real products, one per row
    block and slice of about SCAN_BLOCK_ENTRIES element coordinates, give
    a family's overlaps with half the inner dimension of linalg.overlaps.
    Blocks are judged by the row rule of _scan_family, and the probe stops
    at the first slice that fails a row, trying the row block that failed
    last first.  Overlaps may round differently from the certificate's; the
    verdict is the same.  An instance whose outputs may overflow is judged by
    rv_positivity_check itself, which raises for a non-finite family.
    """

    def __init__(self):
        self._basis = self._mset = None
        self._products = {}  # v -> (coordinates, a column per index tuple; largest column 1-norm)
        self._transpositions = {}  # flags -> _transposition
        self._stack = None  # (d^2, n) element coordinates
        self._last_fail = (0, 0)  # (family, block) of the last failing probe

    def _family(self, instance: PepsInstance, site: int):
        """(P, p_norm, source, sign): row r of site's family is sign * P[source, r]."""
        v = int(instance.lattice.degrees[site])
        if instance.basis is not self._basis:
            self._basis, self._products, self._transpositions = instance.basis, {}, {}
        if v not in self._products:
            P = _hermitian_coords(basis_products(instance.basis, (False,) * v), 0.5)
            self._products[v] = P, float(np.abs(P).sum(axis=0).max())
        flags = ~instance.lattice.is_head[-v:, site]
        if flags.tobytes() not in self._transpositions:
            self._transpositions[flags.tobytes()] = _transposition(instance.D, flags)
        return (*self._products[v], *self._transpositions[flags.tobytes()])

    def __call__(self, instance: PepsInstance) -> bool:
        if instance.measurement_set is not self._mset:
            mset = instance.measurement_set
            self._mset, self._stack = mset, np.empty((mset.dim**2, mset.n_elements))
            col = 0
            for where, elements in mset.element_blocks():
                self._stack[:, col : col + len(where)] = _hermitian_coords(elements, 1.0)
                col += len(where)
                del elements  # before the next block is built
        firsts, _ = _family_sites(instance)
        degrees = instance.lattice.degrees
        maps = {}
        for v, m in instance.maps.items():
            M = _map_matrix(m.K)
            maps[v] = M, float(max(M.max(), -M.min()))  # nan or inf if M is not finite
        # a coordinate is at most p_norm * top in size, and a trace sums d of
        # them.  Past the bound an output may not be finite: the certificate
        # then gives the verdict, and raises for the first non-finite family
        for s in firsts:
            M, top = maps[degrees[s]]
            if not self._family(instance, s)[1] * top * len(M) <= _COORD_BOUND:
                return rv_positivity_check(instance).passed
        # BLAS packs each product's slice of the coordinates, so a slice holds
        # about SCAN_BLOCK_ENTRIES of them: epsilon-max on torus:3x3 peaks at
        # 37.9 MB of RSS, 40.0 MB with every column in one product
        cols = list(_row_blocks(self._stack.shape[1], self._stack.shape[0]))
        last_f, last_k = self._last_fail
        for f in sorted(range(len(firsts)), key=lambda f: f != last_f):
            M = maps[degrees[firsts[f]]][0]
            P, _, source, sign = self._family(instance, firsts[f])
            ok, div = _usable_traces(_family_traces(P, source, sign, M))
            blocks = list(enumerate(_row_blocks(P.shape[1], self._stack.shape[1])))
            out = np.empty((max(b - a for _, (a, b) in blocks), max(q - p for p, q in cols)))
            for k, (a, b) in sorted(blocks, key=lambda kb: (f, kb[0]) != (last_f, last_k)):
                rows = _family_rows(P, source, sign, a, b) @ M.T
                lo, hi = np.inf, -np.inf
                # a row failing on some columns fails on all of them
                for p, q in cols:
                    block = np.matmul(rows, self._stack[:, p:q], out=out[: b - a, : q - p])
                    lo, hi = np.minimum(lo, block.min(axis=1)), np.maximum(hi, block.max(axis=1))
                    if _row_rule(lo, hi, ok[a:b], div[a:b])[1].any():
                        self._last_fail = (f, k)
                        return False
        return True


def _family_traces(P: np.ndarray, source: np.ndarray, sign: np.ndarray, M: np.ndarray):
    """Real trace of each output of a family: _family_rows' coordinates, M = _map_matrix(K)."""
    d = math.isqrt(len(M))
    # the trace of row r is the sum over c of sign[c] P[source[c], r] M[:d, c].sum()
    t = np.empty(len(P))
    t[source] = sign * M[:d].sum(axis=0)
    return t @ P


def _family_rows(P: np.ndarray, source: np.ndarray, sign: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows [a, b) of a family's coordinates, (b - a, D^2v): column c is sign[c] * P[source[c]]."""
    rows = P[source, a:b]
    rows *= sign[:, None]
    return rows.T
