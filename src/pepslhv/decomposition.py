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
tables, sampler CDF tables and exact mixture all read these stacks, and
`contract_mixture` is the one sum over edge assignments of the exact mixture.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis
from pepslhv.construction import PepsInstance, SiteMap
from pepslhv.errors import NotFactorizableError, UsageError

TRACE_FLOOR = 1e-10
DUAL_ATOL = 1e-9
FACTOR_RESIDUAL_RTOL = 1e-8
MAX_ENUM_ASSIGNMENTS = 2**16
MAX_ENUM_PHYS_DIM = 2**12


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
    return K @ prod @ K.conj().T


def operator_traces(ops: np.ndarray) -> np.ndarray:
    return np.real(np.trace(ops, axis1=1, axis2=2))


def normalized_overlaps(ops: np.ndarray, elements):
    """(tr(O), mask tr(O) >= TRACE_FLOOR, tr(O X) / tr(O)); masked-out rows are not divided."""
    traces = operator_traces(ops)
    ok = traces >= TRACE_FLOOR
    return traces, ok, linalg.overlaps(ops, elements) / np.where(ok, traces, 1.0)[:, None]


def site_families(instance: PepsInstance):
    """(distinct output stacks, family index per site).

    Sites with the same site map (by identity) and transposed flags share
    one stack.
    """
    index: dict = {}
    families = []
    site_family = []
    for s, m in enumerate(instance.site_maps):
        # head end keeps C; tail end gets the transpose
        flags = tuple(not ishead for _, ishead in instance.lattice.incident_edges(s))
        key = (id(m), flags)
        if key not in index:
            index[key] = len(families)
            families.append(site_operator_family(m, instance.basis, flags))
        site_family.append(index[key])
    return families, site_family


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
            obj["witness"] = {
                "site": self.witness.site,
                "indices": list(self.witness.indices),
                "kind": self.witness.kind,
                "povm_index": self.witness.povm_index,
                "element_index": self.witness.element_index,
                "value": self.witness.value,
            }
        return obj


def _scan_family(ops: np.ndarray, stack, where):
    """(slack, min trace, first witness row in C-order or None) of one stack."""
    traces, ok, normed = normalized_overlaps(ops, stack)
    slacks = np.minimum(normed, 1.0 - normed)
    worst = np.argmin(slacks, axis=1)
    worst_slack = slacks[np.arange(len(ops)), worst]
    slack = float(worst_slack[ok].min()) if ok.any() else math.inf
    bad = ~ok | (worst_slack < -DUAL_ATOL)
    witness = None
    if bad.any():
        r = int(np.argmax(bad))
        if not ok[r]:
            witness = (r, "trace", None, None, float(traces[r]))
        else:
            i, j = where[int(worst[r])]
            witness = (r, "dual", i, j, float(normed[r, worst[r]]))
    return slack, float(traces.min()), witness


def rv_positivity_check(instance: PepsInstance) -> PositivityReport:
    """Scan all extreme index tuples at every site.

    Passes iff every output trace is >= 1e-10 and every normalized output
    has overlaps inside [-1e-9, 1 + 1e-9] for every POVM element.  The
    slack is the worst min(tr(sigma X), 1 - tr(sigma X)) over the scan.
    """
    stack, where = instance.measurement_set.element_stack()
    families, site_family = site_families(instance)
    scans = [_scan_family(ops, stack, where) for ops in families]
    per_site_slack = tuple(scans[f][0] for f in site_family)
    witness = None
    for s, f in enumerate(site_family):
        if scans[f][2] is not None:
            r, kind, i, j, value = scans[f][2]
            tup = np.unravel_index(r, (instance.D**2,) * instance.site_maps[s].v)
            witness = PositivityWitness(s, tuple(int(k) for k in tup), kind, i, j, value)
            break
    slack = min(per_site_slack)
    return PositivityReport(
        passed=witness is None and slack >= -DUAL_ATOL,
        slack=slack,
        min_trace=min(scan[1] for scan in scans),
        witness=witness,
        per_site_slack=per_site_slack,
    )


# ---------------------------------------------------------------------------
# Trace factorization

def _rank_one_marginals(t: np.ndarray):
    """(total S, marginals q_k per axis summing to 1, residual) of a positive tensor.

    t factorizes exactly when it is S times the outer product of its
    normalized marginals; residual = max|t - S (x)_k q_k| / max t, and
    above 1e-8 means not factorizable.
    """
    S = t.sum()
    axes = range(t.ndim)
    q = [t.sum(axis=tuple(a for a in axes if a != k)) / S for k in axes]
    recon = S * functools.reduce(np.multiply.outer, q)
    return S, q, float(np.max(np.abs(t - recon)) / np.max(t))


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
    return _edge_distribution(instance, *site_families(instance))


def _edge_distribution(
    instance: PepsInstance, families: list, site_family: list
) -> EdgeDistributions:
    """edge_distribution, given site_families(instance)."""
    lat = instance.lattice
    n = instance.D**2
    totals, marginals = [], []
    for f, ops in enumerate(families):
        s = site_family.index(f)
        table = operator_traces(ops).reshape((n,) * instance.site_maps[s].v)
        if not np.all(np.isfinite(table)):
            raise UsageError(f"site {s}: non-finite output trace")
        if np.any(table <= 0):
            raise NotFactorizableError(f"site {s}: non-positive output trace")
        S, q, residual = _rank_one_marginals(table)
        if not residual <= FACTOR_RESIDUAL_RTOL:
            raise NotFactorizableError(
                f"site {s}: trace tensor not rank-1 (residual {residual:.3e})"
            )
        totals.append(S)
        marginals.append(q)

    # each edge's row collects the marginal of its head end and of its tail end
    weights = np.ones((lat.n_edges, n))
    for s, f in enumerate(site_family):
        for (e, _), q in zip(lat.incident_edges(s), marginals[f]):
            weights[e] *= q
    Z = weights.sum(axis=1)
    log_T = (
        float(np.log(Z).sum())
        + float(np.log(totals)[site_family].sum())
        - 2.0 * lat.n_edges * math.log(instance.D)
    )
    return EdgeDistributions(probs=weights / Z[:, None], log_T=log_T)


# ---------------------------------------------------------------------------
# Exact mixture reconstruction (desk-scale oracle)

def _enumeration_guard(instance: PepsInstance):
    if (instance.D**2) ** instance.lattice.n_edges > MAX_ENUM_ASSIGNMENTS:
        raise UsageError("edge-assignment enumeration too large")
    if int(np.prod(instance.physical_dims())) > MAX_ENUM_PHYS_DIM:
        raise UsageError("physical dimension too large for enumeration")


def contract_mixture(instance: PepsInstance, site_rows, extra_axes=0, keep_edges=False):
    """Sum over all edge assignments of the product of one row per site, as one einsum.

    site_rows[s] is ((D^2)^v, ...) with ``extra_axes`` trailing axes, its
    rows in C-order over the site's incident edges; each edge is one label
    shared by its two ends.  The result has the edge axes if
    ``keep_edges``, then extra axis 0 of every site, then axis 1, and so on.
    """
    _enumeration_guard(instance)
    lat = instance.lattice
    E, N = lat.n_edges, lat.n_sites
    operands = []
    for s, rows in enumerate(site_rows):
        edges = [e for e, _ in lat.incident_edges(s)]
        extra = [E + x * N + s for x in range(extra_axes)]
        operands += [rows.reshape((instance.D**2,) * len(edges) + rows.shape[1:]), edges + extra]
    out = list(range(E if keep_edges else 0)) + list(range(E, E + extra_axes * N))
    return np.einsum(*operands, out, optimize=True)


def mixture_weights(instance: PepsInstance) -> np.ndarray:
    """prod_s tr(O_s) per edge assignment, shape (D^2,) * E; divide by T D^(2E) for p."""
    families, site_family = site_families(instance)
    traces = [operator_traces(ops) for ops in families]
    return contract_mixture(instance, [traces[f] for f in site_family], keep_edges=True)


def mixture_normalization(instance: PepsInstance) -> float:
    """T as the exact sum over all edge assignments."""
    return float(np.sum(mixture_weights(instance))) / instance.D ** (2 * instance.lattice.n_edges)


def reconstruct_mixture(instance: PepsInstance):
    """Sum the separable mixture exactly; returns (density matrix, weights).

    Term lambda, prod_s tr(O_s) (x)_s O_s / tr(O_s), is just (x)_s O_s.
    """
    families, site_family = site_families(instance)
    weights = mixture_weights(instance).ravel()
    rho = contract_mixture(instance, [families[f] for f in site_family], extra_axes=2)
    dim, total = int(np.prod(instance.physical_dims())), weights.sum()
    return rho.reshape(dim, dim) / total, weights / total


# ---------------------------------------------------------------------------
# Maximal-epsilon search

def max_epsilon_search(
    make_instance: Callable[[float], PepsInstance],
    eps_hi: float,
    coarse_steps: int = 16,
    bracket_width: float = 1e-4,
):
    """Bracket the first positivity failure along increasing epsilon.

    Coarse upward scan, then bisection of the pass/fail predicate.  The
    returned (lo, hi) is re-verified: lo passes, hi fails.  If nothing
    fails below eps_hi the result is (eps_hi, inf).
    """
    if eps_hi <= 0:
        raise UsageError("eps_hi must be positive")

    def passes(eps: float) -> bool:
        return rv_positivity_check(make_instance(eps)).passed

    if not passes(0.0):
        raise UsageError("epsilon = 0 instance must pass the positivity check")
    lo = 0.0
    hi = None
    for eps in np.linspace(0.0, eps_hi, coarse_steps + 1)[1:]:
        if passes(float(eps)):
            lo = float(eps)
        else:
            hi = float(eps)
            break
    if hi is None:
        return eps_hi, math.inf
    while hi - lo > bracket_width:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    if not passes(lo) or passes(hi):
        raise UsageError("pass/fail is not monotone around the returned bracket")
    return lo, hi
