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

`site_operator_family` is the one place the outputs are computed, all
(D^2)^v of them per (site map, flags) in one stack; the certificate, trace
tables, sampler CDF tables and exact mixture all read these stacks.
`_scan_family` is the one positivity test, and `_edge_rows` the one
reduction from the families' traces to edge distributions, for the
certificate, `edge_distribution` and the sampler alike.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis
from pepslhv.construction import PepsInstance, SiteMap, contract_edges
from pepslhv.errors import NotFactorizableError, UsageError

TRACE_FLOOR = 1e-10
DUAL_ATOL = 1e-9
FACTOR_RESIDUAL_RTOL = 1e-8
MAX_ENUM_ASSIGNMENTS = 2**16
MAX_ENUM_PHYS_DIM = 2**12
SCAN_BLOCK_ENTRIES = 2**17


def site_operator_family(
    site_map: SiteMap, op_basis: OperatorBasis, transposed_flags: Sequence[bool]
) -> np.ndarray:
    """All (D^2)^v output operators in C-order over the index tuples, ((D^2)^v, d, d)."""
    v = site_map.v
    flags = tuple(transposed_flags)
    if len(flags) != v:
        raise UsageError(f"need {v} flags")
    C = np.stack(op_basis.elements)
    # row k_1..k_v of the einsum is C~_{k_1} (x) ... (x) C~_{k_v}
    k, i, j = (string.ascii_letters[p * v:(p + 1) * v] for p in range(3))
    spec = ",".join(k[p] + i[p] + j[p] for p in range(v)) + "->" + k + i + j
    prod = np.einsum(spec, *(C.transpose(0, 2, 1) if t else C for t in flags))
    prod = prod.reshape(C.shape[0] ** v, site_map.virtual_dim, site_map.virtual_dim)
    K = site_map.K
    # a Kraus operator near the float range overflows; _family_stack rejects
    # it.  K @ prod replaces prod before the second product is made, so at
    # most two family-sized arrays are alive at once
    with np.errstate(over="ignore", invalid="ignore"):
        prod = K @ prod
        return prod @ K.conj().T


def operator_traces(ops: np.ndarray) -> np.ndarray:
    return np.real(np.trace(ops, axis1=1, axis2=2))


def _family_sites(instance: PepsInstance):
    """(first site of each distinct site family, family index per site).

    Sites with the same site map (by identity) and transposed flags share
    one family of output operators.
    """
    index: dict = {}
    firsts, site_family = [], []
    for s, m in enumerate(instance.site_maps):
        key = (id(m), _flags(instance, s))
        if key not in index:
            index[key] = len(firsts)
            firsts.append(s)
        site_family.append(index[key])
    return firsts, site_family


def _flags(instance: PepsInstance, site: int) -> tuple:
    # head end keeps C; tail end gets the transpose
    return tuple(not ishead for _, ishead in instance.lattice.incident_edges(site))


def _family_stack(instance: PepsInstance, site: int) -> np.ndarray:
    """site_operator_family of site's map and flags; a non-finite entry raises UsageError."""
    ops = site_operator_family(instance.site_maps[site], instance.basis, _flags(instance, site))
    if not np.all(np.isfinite(ops)):
        raise UsageError(f"site {site}: non-finite output operator")
    return ops


def site_families(instance: PepsInstance):
    """(distinct output stacks, family index per site), every stack held at once.

    A stack with a non-finite entry raises UsageError.  The desk-scale
    mixture needs every family together; the certificate and the sampler
    build one family at a time (_family_sites, _family_stack).
    """
    firsts, site_family = _family_sites(instance)
    return [_family_stack(instance, s) for s in firsts], site_family


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


def _scan_family(instance: PepsInstance, site: int, ops: np.ndarray, stack, where, keep=False):
    """(normalized overlaps if keep else None, slack, min trace, witness or None) of site's stack.

    A row fails if its trace is not positive or below TRACE_FLOOR times the
    stack's largest (such rows are not divided), or if an overlap with
    stack, whose element k is where[k] = (POVM, element), leaves
    [-DUAL_ATOL, 1 + DUAL_ATOL].  The witness is the first failing row, at
    its first worst element.

    Rows are scanned in blocks (_row_blocks), and each row keeps only its
    least and largest overlap: dividing by a positive trace and 1 - x are
    monotone, so min(lo / tr, 1 - hi / tr) is bit for bit the row's least
    min(tr(sigma X), 1 - tr(sigma X)).  Memory is one block of overlaps,
    plus every normalized overlap when keep is set (the sampler's tables).
    """
    traces = operator_traces(ops)
    ok = (traces > 0) & (traces >= TRACE_FLOOR * traces.max())
    div = np.where(ok, traces, 1.0)
    row_slack = np.empty(len(ops))
    normed = np.empty((len(ops), len(stack))) if keep else None
    witness = None
    for a, b in _row_blocks(len(ops), len(stack)):
        block = linalg.overlaps(ops[a:b], stack)
        tr = div[a:b]
        row_slack[a:b] = np.minimum(block.min(axis=1) / tr, 1.0 - block.max(axis=1) / tr)
        if keep:
            np.divide(block, tr[:, None], out=normed[a:b])
        bad = ~ok[a:b] | (row_slack[a:b] < -DUAL_ATOL)
        if witness is None and bad.any():
            r = a + int(np.argmax(bad))
            tup = np.unravel_index(r, (instance.D**2,) * instance.site_maps[site].v)
            tup = tuple(int(k) for k in tup)
            if not ok[r]:
                witness = PositivityWitness(site, tup, "trace", None, None, float(traces[r]))
            else:
                row = block[r - a] / div[r]
                k = int(np.argmin(np.minimum(row, 1.0 - row)))
                i, j = where[k]
                witness = PositivityWitness(site, tup, "dual", i, j, float(row[k]))
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
    stack, where = instance.measurement_set.element_stack()
    firsts, site_family = _family_sites(instance)
    # one family at a time: each is built, scanned and dropped before the next
    scans = [_scan_family(instance, s, _family_stack(instance, s), stack, where) for s in firsts]
    per_site_slack = tuple(scans[f][1] for f in site_family)
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
    # one family at a time: each is built, so checked finite, and kept as its traces
    traces = [operator_traces(_family_stack(instance, s)) for s in firsts]
    return _edge_rows(instance, firsts, site_family, traces)


def _edge_rows(instance: PepsInstance, firsts: list, site_family: list, traces: list):
    """EdgeDistributions from each family's operator_traces, family f first at site firsts[f].

    The first family, in site order, with a non-positive trace or a trace
    tensor that is not rank one raises NotFactorizableError.
    """
    marginals = []
    for s, t in zip(firsts, traces):
        table = t.reshape((instance.D**2,) * instance.site_maps[s].v)
        if np.any(table <= 0):
            raise NotFactorizableError(f"site {s}: non-positive output trace")
        log_S, q, residual = _rank_one_marginals(table)
        if not residual <= FACTOR_RESIDUAL_RTOL:
            raise NotFactorizableError(
                f"site {s}: trace tensor not rank-1 (residual {residual:.3e})"
            )
        marginals.append((log_S, q))
    lat = instance.lattice
    # each edge's row collects the marginal of its head end and of its tail end
    weights = np.ones((lat.n_edges, instance.D**2))
    for s, f in enumerate(site_family):
        for (e, _), q in zip(lat.incident_edges(s), marginals[f][1]):
            weights[e] *= q
    Z = weights.sum(axis=1)
    log_T = (
        float(np.log(Z).sum())
        + float(np.array([marginals[f][0] for f in site_family]).sum())
        - 2.0 * lat.n_edges * math.log(instance.D)
    )
    return EdgeDistributions(probs=weights / Z[:, None], log_T=log_T)


# ---------------------------------------------------------------------------
# Exact mixture reconstruction (desk-scale oracle)

def _enumeration_guard(instance: PepsInstance):
    if (instance.D**2) ** instance.lattice.n_edges > MAX_ENUM_ASSIGNMENTS:
        raise UsageError("edge-assignment enumeration too large")
    if math.prod(instance.physical_dims()) > MAX_ENUM_PHYS_DIM:
        raise UsageError("physical dimension too large for enumeration")


def contract_mixture(instance: PepsInstance, site_rows, extra_axes=0, keep_edges=False):
    """contract_edges over D^2 indices per edge, within the enumeration limits."""
    _enumeration_guard(instance)
    return contract_edges(instance.lattice, site_rows, instance.D**2, extra_axes, keep_edges)


def mixture_weights(instance: PepsInstance) -> np.ndarray:
    """prod_s tr(O_s) per edge assignment, shape (D^2,) * E; divide by T D^(2E) for p."""
    _enumeration_guard(instance)
    return _trace_weights(instance, *site_families(instance))


def _trace_weights(instance: PepsInstance, families: list, site_family: list) -> np.ndarray:
    """mixture_weights from site_families(instance)."""
    traces = [operator_traces(ops) for ops in families]
    return contract_mixture(instance, [traces[f] for f in site_family], keep_edges=True)


def mixture_normalization(instance: PepsInstance) -> float:
    """T as the exact sum over all edge assignments."""
    return float(np.sum(mixture_weights(instance))) / instance.D ** (2 * instance.lattice.n_edges)


def reconstruct_mixture(instance: PepsInstance):
    """Sum the separable mixture exactly; returns (density matrix, weights).

    Term lambda, prod_s tr(O_s) (x)_s O_s / tr(O_s), is just (x)_s O_s.
    """
    _enumeration_guard(instance)  # before any site family is built
    families, site_family = site_families(instance)
    weights = _trace_weights(instance, families, site_family).ravel()
    rho = contract_mixture(instance, [families[f] for f in site_family], extra_axes=2)
    dim, total = math.prod(instance.physical_dims()), weights.sum()
    return rho.reshape(dim, dim) / total, weights / total


# ---------------------------------------------------------------------------
# Maximal-epsilon search

EPSILON_COARSE_STEPS = 16
EPSILON_BRACKET_WIDTH = 1e-4


def max_epsilon_search(make_instance: Callable[[float], PepsInstance], eps_hi: float):
    """Bracket the first positivity failure along increasing epsilon.

    Coarse upward scan of EPSILON_COARSE_STEPS points, then bisection of the
    pass/fail predicate down to EPSILON_BRACKET_WIDTH.  In the returned
    (lo, hi), lo is a point this search saw pass and hi one it saw fail.  If
    nothing fails below eps_hi the result is (eps_hi, inf).
    """
    if not 0 < eps_hi < math.inf:
        raise UsageError(f"eps_hi must be positive and finite, got {eps_hi}")

    def passes(eps: float) -> bool:
        return rv_positivity_check(make_instance(eps)).passed

    if not passes(0.0):
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
