"""Separable-mixture machinery over hidden edge indices.

Each lattice edge carries an index i_e in {1..D^2} selecting a basis
operator; a site with incident edges e_a, e_b, ... sees the product
C_{i_a} (x) C_{i_b} (x) ... (transposed at tail ends) and outputs
O = K (prod C) K^dag.  When every tr(O) is positive and the normalized
outputs stay inside the measurement dual, the PEPS is a convex mixture of
products of dual members, which is the local hidden variable model.  When
each trace tensor is rank one, that is equal to its total times the outer
product of its normalized marginals, the joint distribution over edge
indices is a product of per-edge categoricals and can be sampled
efficiently.

The outputs are computed in one place, `_families`, as real Hermitian
coordinates: their degree's map over products of a bond's canonical
generators (`_product_map`), contracted bond by bond with each family's
basis coordinates.  `_scan_family` is the one positivity test (for the
certificate, the sampler's tables and, in its early-exit mode, the epsilon
probe), and `_edge_rows` the one reduction from the families' traces to edge
distributions.  `site_operator_family` is the oracle's complex reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis, basis_products, hermitian_spanning_set
from pepslhv.construction import PepsInstance, SiteMap
from pepslhv.errors import SCAN_BLOCK_ENTRIES, NotFactorizableError, UsageError, check_entries
from pepslhv.lattice import site_groups
from pepslhv.measurements import DUAL_ATOL

TRACE_FLOOR = 1e-10
FACTOR_RESIDUAL_RTOL = 1e-8


def site_operator_family(
    site_map: SiteMap, op_basis: OperatorBasis, transposed_flags: Sequence[bool]
) -> np.ndarray:
    """All (D^2)^v output operators in C-order over the index tuples, ((D^2)^v, d, d).

    transposed_flags holds one flag per bond of the site map's degree v.
    """
    prod = basis_products(op_basis, transposed_flags)
    K = site_map.K
    # a Kraus operator near the float range overflows; the oracle rejects
    # it.  K @ prod replaces prod before the second product is made, so at
    # most two family-sized arrays are alive at once
    with np.errstate(over="ignore", invalid="ignore"):
        prod = K @ prod
        return prod @ K.conj().T


def _family_sites(instance: PepsInstance):
    """(first site of each distinct site family, in site order; family index per site).

    Sites with the same degree, so the same site map, and head flags share
    one family of output operators.
    """
    lat = instance.lattice
    return site_groups(np.vstack([lat.degrees, lat.is_head]))


def _hermitian_coords(ops: np.ndarray) -> np.ndarray:
    """(m^2, n) real coordinates, one column per operator X of an (n, m, m) stack.

    A column holds the diagonal, then Re(X_ij + X_ji) and Im(X_ij - X_ji) over
    i < j in row-major order.  Its dot product with a Hermitian O's
    coordinates over E_ii, E_ij + E_ji and i(E_ij - E_ji) (_product_map) is
    Re tr(O X^dag), the tr(O X) of linalg.overlaps.
    """
    m = ops.shape[-1]
    out = np.empty((len(ops), m * m))
    out[:, :m] = np.diagonal(ops.real, axis1=1, axis2=2)
    # row i's upper part at once, so no fancy-indexed copy of the stack is made
    a, half = m, m * (m - 1) // 2
    for i in range(m - 1):
        b = a + m - 1 - i
        np.add(ops.real[:, i, i + 1 :], ops.real[:, i + 1 :, i], out=out[:, a:b])
        np.subtract(ops.imag[:, i, i + 1 :], ops.imag[:, i + 1 :, i], out=out[:, half + a : half + b])
        a = b
    return out.T


def _element_coords(mset):
    """(where, _hermitian_coords(elements)) per block of mset.element_blocks(), as it is read."""
    for where, elements in mset.element_blocks():
        coords = _hermitian_coords(elements)
        del elements  # before the block is read
        yield where, coords
        del coords  # before the next block is built


def _search_parts(instance: PepsInstance):
    """(first site and c per bond of each site family, in site order; two work buffers).

    What an epsilon search holds fixed.  c[a, k] = tr(G_a C~_k) over a bond's
    generators G_a (basis.hermitian_spanning_set), so C~_k = sum_a c[a, k] G_a;
    a tail end negates the rows of the antisymmetric G_a.  The complex buffers
    of _product_map and _families hold the largest degree's map.
    """
    lat, d, G = instance.lattice, instance.measurement_set.dim, hermitian_spanning_set(instance.D)
    bonds = [
        (s, [linalg.overlaps(G.transpose(0, 2, 1) if t else G, instance.basis.elements)
             for t in ~lat.is_head[-lat.degrees[s]:, s]])
        for s in _family_sites(instance)[0]
    ]
    n = d * (d + 1) // 2 * instance.D ** (2 * int(lat.degrees.max()))
    return bonds, (np.empty(n, complex), np.empty(n, complex))


def _product_map(site_map: SiteMap, work) -> np.ndarray:
    """(d^2, D^2v) real map: column a holds the Hermitian coordinates of K (G_a1 (x) ... (x) G_av) K^dag.

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
        # in C order, so that _families' first product reads it as a view
        return np.concatenate([X.real.T, X.imag[:, d:].T], out=np.empty((d * d, len(X))))


def _families(instance: PepsInstance, parts=None):
    """Yield (first site, coordinates, traces) of each site family in turn, in site order.

    parts defaults to _search_parts(instance), whose families may come in
    any order.  A family's coordinates, a row of d^2 per index tuple in C-order,
    are its degree's _product_map contracted bond by bond, each product
    taking the last a and putting its k first, in work until the next family
    is made.  The first family with a non-finite coordinate or trace raises
    UsageError.
    """
    bonds, work = _search_parts(instance) if parts is None else parts
    for s, c in bonds:
        # the map is made anew for each family and dropped before the family is read
        X = _product_map(instance.maps[len(c)], work)
        d2, n = X.shape[0], X.size
        with np.errstate(over="ignore", invalid="ignore"):
            for p, cp in enumerate(reversed(c)):
                X = np.matmul(cp.T, X.reshape(-1, len(cp)).T, out=work[p % 2].view(float)[:n].reshape(len(cp), -1))
            coords = X.reshape(-1, d2)
            traces = coords[:, : math.isqrt(d2)].sum(axis=1)
        if not (np.isfinite(coords).all() and np.isfinite(traces).all()):
            raise UsageError(f"site {s}: non-finite output operator")
        yield s, coords, traces


# ---------------------------------------------------------------------------
# Positivity

@dataclass(frozen=True)
class PositivityWitness:
    site: int
    indices: tuple
    kind: str  # "trace" or "dual"
    povm_index: Optional[int]
    element_index: Optional[int]
    value: float


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    slack: float
    min_trace: float
    witness: Optional[PositivityWitness]
    per_site_slack: tuple

    def to_json(self) -> dict:
        obj = {
            "passed": self.passed,
            "slack": self.slack,
            "min_trace": self.min_trace,
            "per_site_slack": list(self.per_site_slack),
        }
        if self.witness is not None:
            obj["witness"] = asdict(self.witness)
        return obj


def _row_blocks(n_rows: int, width: int):
    """Balanced [a, b) row ranges of about SCAN_BLOCK_ENTRIES entries, two rows or more each.

    A row's products (a family's overlaps, the Born oracle's rows) round
    the same in a block as in the whole product only through the same BLAS
    routine.  numpy hands a one-row product to gemv, and OpenBLAS sums
    products of about a thousand entries or fewer with its small-matrix
    kernels.  Blocks of two rows or more, each about half the
    budget or more when the family exceeds it, avoid both.
    """
    n_blocks = max(1, min(-(-n_rows * width // SCAN_BLOCK_ENTRIES), n_rows // 2))
    ends = [n_rows * k // n_blocks for k in range(n_blocks + 1)]
    return zip(ends[:-1], ends[1:])


def _row_rule(lo: np.ndarray, hi: np.ndarray, ok: np.ndarray, div: np.ndarray):
    """(slack, failing) of rows whose least and largest overlap are lo and hi.

    ok marks the rows whose trace is usable and div holds their trace (1 for
    the others, which fail).  A row also fails if
    min(lo / tr, 1 - hi / tr) < -DUAL_ATOL.  Dividing by a positive trace and
    1 - x are monotone, so this is bit for bit the row's least
    min(tr(sigma X), 1 - tr(sigma X)).
    """
    slack = np.minimum(lo / div, 1.0 - hi / div)
    return slack, ~ok | (slack < -DUAL_ATOL)


def _scan_family(instance: PepsInstance, site: int, coords, traces, blocks, n_elements: int, keep=False, early=False):
    """(normalized overlaps if keep else None, slack, min trace, witness or None) of one site family.

    coords and traces are the family's (_families); blocks yields the (where,
    element coordinates) blocks of n_elements elements in all, in order, as
    _element_coords does.  A row fails if its trace is not positive or below
    TRACE_FLOOR times the largest, or by _row_rule against any element.  The
    witness is the first failing row, at its first worst element.

    Each element block is read once: its overlaps with the family, a
    column slice of the (rows, elements) overlap matrix, are taken a block
    of rows at a time (_row_blocks), and each row keeps its least and
    largest overlap.  A row's worst element lies in a block where the row
    already fails, so only there is it looked up, and an earlier block
    keeps it on a tie.  Memory is one element block and one block of
    overlaps, plus every normalized overlap when keep is set (the sampler's
    tables).  With early set (the epsilon probe) the result is only where a
    row fails: the index of the first element block in which one does, or
    None if none does.
    """
    ok = (traces > 0) & (traces >= TRACE_FLOOR * traces.max())
    div = np.where(ok, traces, 1.0)
    lo, hi = np.full(len(coords), np.inf), np.full(len(coords), -np.inf)
    # per row, at its worst element so far: min(x, 1 - x), x, and the element's index
    worst, worst_x, worst_at = np.full(len(coords), np.inf), np.empty(len(coords)), np.empty(len(coords), np.intp)
    at = []  # (POVM, element) of every element read
    normed = np.empty((len(coords), n_elements)) if keep else None
    index = -1  # not enumerate(blocks), whose result tuple keeps the last block while the next is made
    for where, elements in blocks:
        index, col = index + 1, len(at)
        at += where
        for a, b in _row_blocks(len(coords), len(where)):
            block = coords[a:b] @ elements
            block_lo, block_hi = block.min(axis=1), block.max(axis=1)
            np.minimum(lo[a:b], block_lo, out=lo[a:b])
            np.maximum(hi[a:b], block_hi, out=hi[a:b])
            if keep:
                np.divide(block, div[a:b, None], out=normed[a:b, col : len(at)])
            failing = _row_rule(block_lo, block_hi, ok[a:b], div[a:b])[1]
            if early and failing.any():
                return index
            fail = np.flatnonzero(ok[a:b] & failing)
            if fail.size:
                x = block[fail] / div[a + fail, None]
                m = np.minimum(x, 1.0 - x)
                k = np.argmin(m, axis=1)
                i = np.arange(len(fail))
                better = m[i, k] < worst[a + fail]
                r, i, k = a + fail[better], i[better], k[better]
                worst[r], worst_x[r], worst_at[r] = m[i, k], x[i, k], col + k
        del elements, block  # before the next block is built
    if early:
        return None
    row_slack, bad = _row_rule(lo, hi, ok, div)
    witness = None
    if bad.any():
        r = int(np.argmax(bad))
        tup = np.unravel_index(r, (instance.D**2,) * int(instance.lattice.degrees[site]))
        tup = tuple(int(k) for k in tup)
        if not ok[r]:
            witness = PositivityWitness(site, tup, "trace", None, None, float(traces[r]))
        else:
            i, j = at[worst_at[r]]
            witness = PositivityWitness(site, tup, "dual", i, j, float(worst_x[r]))
    slack = float(row_slack[ok].min()) if ok.any() else math.inf
    return normed, slack, float(traces.min()), witness


def rv_positivity_check(instance: PepsInstance) -> PositivityReport:
    """Scan all extreme index tuples at every site.

    Passes iff every output trace is positive and at least 1e-10 times the
    largest of its site's family, and every normalized output has overlaps
    inside [-1e-9, 1 + 1e-9] for every POVM element; no Kraus scale changes
    either test.  The slack is the worst min(tr(sigma X), 1 - tr(sigma X))
    over the scan; the witness is the first failing tuple of the first
    failing site.
    """
    mset = instance.measurement_set
    # one family at a time: each is made, scanned against every element block and dropped
    scans = [
        _scan_family(instance, s, coords, traces, _element_coords(mset), mset.n_elements)
        for s, coords, traces in _families(instance)
    ]
    per_site_slack = tuple(np.array([sc[1] for sc in scans])[_family_sites(instance)[1]].tolist())
    # a family's witness is at its first site, so the least site is the first failure
    witness = min((sc[3] for sc in scans if sc[3] is not None), key=lambda w: w.site, default=None)
    return PositivityReport(
        passed=witness is None,
        slack=min(per_site_slack),
        min_trace=min(sc[2] for sc in scans),
        witness=witness,
        per_site_slack=per_site_slack,
    )


# ---------------------------------------------------------------------------
# Trace factorization

def _rank_one_marginals(t: np.ndarray):
    """(log of the total S, marginals q_k per axis summing to 1, residual) of a positive tensor.

    t factorizes exactly when it is S times the outer product of its
    normalized marginals; residual = max|t - S (x)_k q_k| / max t, and
    above 1e-8 means not factorizable.  t is divided by its maximum before
    any sum, so a finite t never overflows: log S = log max t + log sum.
    """
    top = t.max()
    t = t / top
    S = t.sum()
    axes = range(t.ndim)
    q = [t.sum(axis=tuple(a for a in axes if a != k)) / S for k in axes]
    recon = S * functools.reduce(np.multiply.outer, q)
    return math.log(top) + math.log(S), q, float(np.max(np.abs(t - recon)))


@dataclass(frozen=True)
class EdgeDistributions:
    probs: np.ndarray  # (E, D^2), row e the categorical of edge e
    log_T: float

    @property
    def T(self) -> float:
        return math.exp(self.log_T)


def edge_distribution(instance: PepsInstance) -> EdgeDistributions:
    """Per-edge categorical distributions p_e and the log normalization log T.

    p_e(k) is proportional to the head marginal times the tail marginal of
    edge e, so no scale of the Kraus operators reaches it.  T = prod_s S_s
    prod_e Z_e / D^(2E), with S_s site s's trace total and Z_e the
    unnormalized mass of edge e, runs about 2^-E and underflows to 0.0
    beyond about a thousand edges, so it is kept as
    log T = sum_e log Z_e + sum_s log S_s - 2E ln D; `T` is its exponential.
    """
    firsts, site_family = _family_sites(instance)
    # one family at a time: each is made, so checked finite, and kept as its traces
    traces = [traces for _, _, traces in _families(instance)]
    return _edge_rows(instance, firsts, site_family, traces)


def _edge_rows(instance: PepsInstance, firsts: list, site_family: np.ndarray, traces: list):
    """EdgeDistributions from each family's traces, family f first at site firsts[f].

    The first family, in site order, with a non-positive trace or a trace
    tensor that is not rank one raises NotFactorizableError.
    """
    marginals = []
    for s, t in zip(firsts, traces):
        table = t.reshape((instance.D**2,) * int(instance.lattice.degrees[s]))
        if np.any(table <= 0):
            raise NotFactorizableError(f"site {s}: non-positive output trace")
        log_S, q, residual = _rank_one_marginals(table)
        if not residual <= FACTOR_RESIDUAL_RTOL:
            raise NotFactorizableError(
                f"site {s}: trace tensor not rank-1 (residual {residual:.3e})"
            )
        marginals.append((log_S, q))
    lat = instance.lattice
    # the sampler's four (E, D^2) real tables at once, as complex entries: weights, probs, cumsum, its copy
    check_entries("edge tables", 2 * lat.n_edges * instance.D**2)
    # each edge's row collects the marginal of its head end and of its tail
    # end, one pass per family and incident position; the two ends differ in
    # their head flag, so a pass meets an edge at most once
    weights = np.ones((lat.n_edges, instance.D**2))
    for f, (_, q) in enumerate(marginals):
        for edges, q_end in zip(lat.incidence[-len(q) :, site_family == f], q):
            weights[edges] *= q_end
    Z = weights.sum(axis=1)
    log_T = (
        float(np.log(Z).sum())
        + float(np.array([log_S for log_S, _ in marginals])[site_family].sum())
        - 2.0 * lat.n_edges * math.log(instance.D)
    )
    return EdgeDistributions(probs=weights / Z[:, None], log_T=log_T)


# ---------------------------------------------------------------------------
# Maximal-epsilon search

EPSILON_COARSE_STEPS = 16
EPSILON_BRACKET_WIDTH = 1e-4


def max_epsilon_search(make_instance: Callable[[float], PepsInstance], eps_hi: float):
    """Bracket the first positivity failure along increasing epsilon.

    Coarse upward scan of EPSILON_COARSE_STEPS points, then bisection of the
    pass/fail predicate down to EPSILON_BRACKET_WIDTH.  In the returned
    (lo, hi), lo is a point this search saw pass and hi one it saw fail.  If
    nothing fails below eps_hi the result is (eps_hi, inf).  Each point is
    one make_instance call, whose instances may differ only in their site
    maps, judged by one epsilon_probe.EpsilonProbe built from epsilon = 0.
    """
    if not 0 < eps_hi < math.inf:
        raise UsageError(f"eps_hi must be positive and finite, got {eps_hi}")
    # imported here: every other command would compile the probe for nothing
    from pepslhv.epsilon_probe import EpsilonProbe

    first = make_instance(0.0)
    probe = EpsilonProbe(first)

    def passes(eps: float) -> bool:
        return probe(make_instance(eps))

    if not probe(first):
        raise UsageError("epsilon = 0 instance must pass the positivity check")
    lo = 0.0
    hi = None
    for eps in np.linspace(0.0, eps_hi, EPSILON_COARSE_STEPS + 1)[1:]:
        if passes(float(eps)):
            lo = float(eps)
        else:
            hi = float(eps)
            break
    if hi is None:
        return eps_hi, math.inf
    while hi - lo > EPSILON_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
