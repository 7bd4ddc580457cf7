"""The epsilon search's verdict: rv_positivity_check(instance).passed, in real coordinates.

`decomposition.max_epsilon_search` needs only pass or fail at each point
it visits, and its instances differ only in their site maps.  So
`EpsilonProbe` resolves what does not depend on epsilon from the first,
then reads only each instance's site maps, holds every operator in real
Hermitian coordinates (half the inner dimension of the complex overlaps),
and stops at the first failing row block.  The row rule is the
certificate's (`decomposition._usable_traces`, `_row_rule`); the overlaps
round differently, so the certificate and the sampler keep complex ones.
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

    Built from the search's first instance, it resolves once what a search
    holds fixed: each family's degree, transposition (_transposition) and
    row blocks; the basis products of each degree (site_operator_family with
    K = I and no transposed end) and the elements, in real Hermitian
    coordinates (_hermitian_coords), the elements filled one element block
    at a time; the column slices of the elements; one scratch buffer.  A
    call reads only its instance's site maps: one map matrix per degree,
    then real products per row block and column slice give a family's
    overlaps with half the inner dimension of linalg.overlaps.  Blocks are
    judged by _scan_family's row rule, and the call stops at the first slice
    that fails a row, trying the row block that failed last first.  The
    verdict is the certificate's, however the overlaps round.  An instance
    whose outputs may overflow is judged by rv_positivity_check itself,
    which raises for a non-finite family.
    """

    def __init__(self, instance: PepsInstance):
        mset, lat = instance.measurement_set, instance.lattice
        self._stack = np.empty((mset.dim**2, mset.n_elements))  # element coordinates
        col = 0
        for where, elements in mset.element_blocks():
            self._stack[:, col : col + len(where)] = _hermitian_coords(elements, 1.0)
            col += len(where)
            del elements  # before the next block is built
        # BLAS packs each product's slice, so a slice holds about SCAN_BLOCK_ENTRIES
        # coordinates: epsilon-max on torus:3x3 peaks at 37.9 MB, 40.0 MB in one slice
        self._cols = list(_row_blocks(mset.n_elements, mset.dim**2))
        firsts, _ = _family_sites(instance)
        products = {}  # v -> (coordinates, a column per index tuple; largest column 1-norm)
        self._families = []  # (v, *products[v], *transposition, row blocks) per family
        for s in firsts:
            v = int(lat.degrees[s])
            if v not in products:
                P = _hermitian_coords(basis_products(instance.basis, (False,) * v), 0.5)
                products[v] = P, float(np.abs(P).sum(axis=0).max())
            P, p_norm = products[v]
            source, sign = _transposition(instance.D, ~lat.is_head[-v:, s])
            blocks = list(_row_blocks(P.shape[1], mset.n_elements))
            self._families.append((v, P, p_norm, source, sign, blocks))
        rows = max(b - a for *_, blocks in self._families for a, b in blocks)
        self._out = np.empty((rows, max(q - p for p, q in self._cols)))
        self._last_fail = (0, 0)  # (family, block) of the last failing call

    def __call__(self, instance: PepsInstance) -> bool:
        maps = {}
        for v, m in instance.maps.items():
            M = _map_matrix(m.K)
            maps[v] = M, float(max(M.max(), -M.min()))  # nan or inf if M is not finite
        # a coordinate is at most p_norm * top in size, and a trace sums d of
        # them.  Past the bound an output may not be finite: the certificate
        # then gives the verdict, and raises for the first non-finite family
        for v, _, p_norm, *_ in self._families:
            M, top = maps[v]
            if not p_norm * top * len(M) <= _COORD_BOUND:
                return rv_positivity_check(instance).passed
        last_f, last_k = self._last_fail
        for f in sorted(range(len(self._families)), key=lambda f: f != last_f):
            v, P, _, source, sign, blocks = self._families[f]
            M = maps[v][0]
            ok, div = _usable_traces(_family_traces(P, source, sign, M))
            for k in sorted(range(len(blocks)), key=lambda k: (f, k) != (last_f, last_k)):
                a, b = blocks[k]
                rows = _family_rows(P, source, sign, a, b) @ M.T
                lo, hi = np.inf, -np.inf
                # a row failing on some columns fails on all of them
                for p, q in self._cols:
                    block = np.matmul(rows, self._stack[:, p:q], out=self._out[: b - a, : q - p])
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
