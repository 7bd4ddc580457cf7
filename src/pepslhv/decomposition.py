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
`_scan_family` is the one positivity test, for the certificate and the
sampler's tables alike.
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
    # a Kraus operator near the float range overflows; site_families rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        return K @ prod @ K.conj().T


def operator_traces(ops: np.ndarray) -> np.ndarray:
    return np.real(np.trace(ops, axis1=1, axis2=2))


def site_families(instance: PepsInstance):
    """(distinct output stacks, family index per site).

    Sites with the same site map (by identity) and transposed flags share
    one stack.  A stack with a non-finite entry raises UsageError.
    """
    index: dict = {}
    families = []
    site_family = []
    for s, m in enumerate(instance.site_maps):
        # head end keeps C; tail end gets the transpose
        flags = tuple(not ishead for _, ishead in instance.lattice.incident_edges(s))
        key = (id(m), flags)
        if key not in index:
            ops = site_operator_family(m, instance.basis, flags)
            if not np.all(np.isfinite(ops)):
                raise UsageError(f"site {s}: non-finite output operator")
            index[key] = len(families)
            families.append(ops)
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
            obj["witness"] = asdict(self.witness)
        return obj


def _scan_family(instance: PepsInstance, site: int, ops: np.ndarray, stack, where):
    """(normalized overlaps, slack, min trace, witness or None) of site's stack.

    A row fails if its trace is not positive or below TRACE_FLOOR times the
    stack's largest (such rows are not divided), or if an overlap with
    stack, whose element k is where[k] = (POVM, element), leaves
    [-DUAL_ATOL, 1 + DUAL_ATOL].  The witness is the first failing row.
    """
    traces = operator_traces(ops)
    ok = (traces > 0) & (traces >= TRACE_FLOOR * traces.max())
    normed = linalg.overlaps(ops, stack) / np.where(ok, traces, 1.0)[:, None]
    slacks = np.minimum(normed, 1.0 - normed)
    worst = np.argmin(slacks, axis=1)
    worst_slack = slacks[np.arange(len(ops)), worst]
    slack = float(worst_slack[ok].min()) if ok.any() else math.inf
    bad = ~ok | (worst_slack < -DUAL_ATOL)
    witness = None
    if bad.any():
        r = int(np.argmax(bad))
        tup = np.unravel_index(r, (instance.D**2,) * instance.site_maps[site].v)
        tup = tuple(int(k) for k in tup)
        if not ok[r]:
            witness = PositivityWitness(site, tup, "trace", None, None, float(traces[r]))
        else:
            i, j = where[int(worst[r])]
            witness = PositivityWitness(site, tup, "dual", i, j, float(normed[r, worst[r]]))
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
    families, site_family = site_families(instance)
    scans = [
        _scan_family(instance, site_family.index(f), ops, stack, where)
        for f, ops in enumerate(families)
    ]
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
    """contract_edges over D^2 indices per edge, within the enumeration limits."""
    _enumeration_guard(instance)
    return contract_edges(instance.lattice, site_rows, instance.D**2, extra_axes, keep_edges)


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

EPSILON_COARSE_STEPS = 16
EPSILON_BRACKET_WIDTH = 1e-4


def max_epsilon_search(make_instance: Callable[[float], PepsInstance], eps_hi: float):
    """Bracket the first positivity failure along increasing epsilon.

    Coarse upward scan of EPSILON_COARSE_STEPS points, then bisection of the
    pass/fail predicate down to EPSILON_BRACKET_WIDTH.  In the returned
    (lo, hi), lo is a point this search saw pass and hi one it saw fail.  If
    nothing fails below eps_hi the result is (eps_hi, inf).
    """
    if eps_hi <= 0:
        raise UsageError("eps_hi must be positive")

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
