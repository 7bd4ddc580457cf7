"""Separable-mixture machinery over hidden edge indices.

Each lattice edge carries an index i_e in {1..D^2} selecting a basis
operator; a site with incident edges e_a, e_b, ... sees the product
C_{i_a} (x) C_{i_b} (x) ... (transposed at tail ends) and outputs
O = K (prod C) K^dag.  When every tr(O) is positive and the normalized
outputs stay inside the measurement dual, the PEPS is a convex mixture of
products of dual members, which is the local hidden variable model.  When
the trace tensors factorize, the joint distribution over edge indices is a
product of per-edge categoricals and can be sampled efficiently.

`site_operator_family` is the one place the outputs are computed, all
(D^2)^v of them per (site map, flags) in one stack; the certificate, trace
tables, sampler CDF tables and mixture enumerator all read these stacks.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.basis import OperatorBasis
from pepslhv.construction import PepsInstance, SiteMap
from pepslhv.errors import NotFactorizableError, UsageError
from pepslhv.measurements import MeasurementSet

TRACE_FLOOR = 1e-10
DUAL_ATOL = 1e-9
FACTOR_RESIDUAL_RTOL = 1e-8
MAX_ENUM_ASSIGNMENTS = 2**16
MAX_ENUM_PHYS_DIM = 2**12


def site_output_operator(
    site_map: SiteMap,
    op_basis: OperatorBasis,
    indices: Sequence[int],
    transposed_flags: Sequence[bool],
) -> np.ndarray:
    """O = K (C~_{k_1} (x) ... (x) C~_{k_v}) K^dag, C~ transposed at tail ends."""
    indices = list(indices)
    flags = list(transposed_flags)
    if len(indices) != site_map.v or len(flags) != site_map.v:
        raise UsageError(f"need {site_map.v} indices and flags")
    if any(k < 0 or k >= op_basis.D**2 for k in indices):
        raise UsageError("edge index out of range")
    C = linalg.tensor_product(
        [op_basis.element(k, transposed=t) for k, t in zip(indices, flags)]
    )
    out = np.zeros((site_map.d, site_map.d), dtype=complex)
    for K in site_map.kraus:
        out += K @ C @ K.conj().T
    return out


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
    return sum(K @ prod @ K.conj().T for K in site_map.kraus)


def overlaps(ops: np.ndarray, elements) -> np.ndarray:
    """Real tr(O X) for every O in ops and X in elements, (len(ops), len(elements))."""
    X = np.asarray(elements)
    return np.real(ops.reshape(len(ops), -1) @ X.transpose(0, 2, 1).reshape(len(X), -1).T)


def operator_traces(ops: np.ndarray) -> np.ndarray:
    return np.real(np.trace(ops, axis1=1, axis2=2))


def normalized_overlaps(ops: np.ndarray, elements):
    """(tr(O), mask tr(O) >= TRACE_FLOOR, tr(O X) / tr(O)); masked-out rows are not divided."""
    traces = operator_traces(ops)
    ok = traces >= TRACE_FLOOR
    return traces, ok, overlaps(ops, elements) / np.where(ok, traces, 1.0)[:, None]


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


def site_trace_table(
    site_map: SiteMap, op_basis: OperatorBasis, transposed_flags: Sequence[bool]
) -> np.ndarray:
    """Real tensor of tr(O) over index tuples, shape (D^2,) * v."""
    ops = site_operator_family(site_map, op_basis, transposed_flags)
    return operator_traces(ops).reshape((op_basis.D**2,) * site_map.v)


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


def _element_stack(mset: MeasurementSet):
    """Stacked POVM elements plus (povm, element) bookkeeping."""
    mats, where = [], []
    for i, j, x in mset.iter_elements():
        mats.append(x)
        where.append((i, j))
    return np.stack(mats), where


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
    stack, where = _element_stack(instance.measurement_set)
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

@dataclass(frozen=True)
class FactorizationResult:
    factorizable: bool
    factors: Optional[tuple]  # one positive vector per incident edge position
    residual: float


def trace_factorization(table, v: int) -> FactorizationResult:
    """Exact rank-1 factorization of the order-v trace tensor.

    Successive unfoldings split off one positive factor per virtual
    particle; all but the first returned vector are scaled to unit maximum
    entry.  Residual above 1e-8 (relative, max-norm) means not
    factorizable.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != v:
        raise UsageError(f"table order {t.ndim} != v = {v}")
    if np.any(t <= 0):
        raise UsageError("trace table must be strictly positive")
    raw = [None] * v
    rest = t
    for pos in range(v - 1):
        M = rest.reshape(rest.shape[0], -1)
        U, sv, Vh = np.linalg.svd(M, full_matrices=False)
        u = U[:, 0]
        w = Vh[0]
        if u[int(np.argmax(np.abs(u)))] < 0:
            u, w = -u, -w
        raw[pos] = u
        rest = (sv[0] * w).reshape(rest.shape[1:])
    raw[v - 1] = rest.reshape(-1).copy()

    recon = raw[0]
    for f in raw[1:]:
        recon = np.multiply.outer(recon, f)
    residual = float(np.max(np.abs(t - recon)) / np.max(np.abs(t)))
    if residual > FACTOR_RESIDUAL_RTOL or any(np.any(f <= 0) for f in raw):
        return FactorizationResult(factorizable=False, factors=None, residual=residual)

    # push all scale into the first factor
    scale = 1.0
    factors = [raw[0]]
    for f in raw[1:]:
        peak = float(np.max(f))
        factors.append(f / peak)
        scale *= peak
    factors[0] = factors[0] * scale
    return FactorizationResult(factorizable=True, factors=tuple(factors), residual=residual)


@dataclass(frozen=True)
class EdgeDistributions:
    probs: tuple  # one categorical of length D^2 per edge
    T: float
    site_factors: tuple  # per site, factors in incidence order


def edge_distribution(instance: PepsInstance) -> EdgeDistributions:
    """Per-edge categorical distributions p_e and the normalization T.

    p_e(k) is proportional to the head factor times the tail factor of
    edge e; T is prod_e Z_e / D^(2E) with Z_e the unnormalized mass.
    """
    lat = instance.lattice
    n = instance.D**2
    families, site_family = site_families(instance)
    factors = []
    for f, ops in enumerate(families):
        s = site_family.index(f)
        v = instance.site_maps[s].v
        table = operator_traces(ops).reshape((n,) * v)
        if np.any(table <= 0):
            raise NotFactorizableError(f"site {s}: non-positive output trace")
        res = trace_factorization(table, v)
        if not res.factorizable:
            raise NotFactorizableError(
                f"site {s}: trace tensor not rank-1 (residual {res.residual:.3e})"
            )
        factors.append(res.factors)
    site_factors = [factors[f] for f in site_family]

    # locate the factor vector each edge end contributes
    position = {}
    for s in range(lat.n_sites):
        for pos, (e, ishead) in enumerate(lat.incident_edges(s)):
            position[(e, ishead)] = (s, pos)
    probs = []
    log_T = 0.0
    for e in range(lat.n_edges):
        hs, hp = position[(e, True)]
        ts, tp = position[(e, False)]
        weights = site_factors[hs][hp] * site_factors[ts][tp]
        Z = float(np.sum(weights))
        probs.append(weights / Z)
        log_T += math.log(Z)
    T = math.exp(log_T - 2.0 * lat.n_edges * math.log(instance.D))
    assert all(p.size == n for p in probs)
    return EdgeDistributions(probs=tuple(probs), T=T, site_factors=tuple(site_factors))


# ---------------------------------------------------------------------------
# Exact mixture reconstruction (desk-scale oracle)

def _enumeration_guard(instance: PepsInstance):
    if (instance.D**2) ** instance.lattice.n_edges > MAX_ENUM_ASSIGNMENTS:
        raise UsageError("edge-assignment enumeration too large")
    if int(np.prod(instance.physical_dims())) > MAX_ENUM_PHYS_DIM:
        raise UsageError("physical dimension too large for enumeration")


def enumerate_mixture_terms(instance: PepsInstance):
    """Yield (assignment, weight-numerator, [normalized site operators]) per assignment.

    Weight numerators are prod_s tr(O); divide by T * D^(2E) to get the
    probabilities.  Assignments run in C-order over the edges.
    """
    _enumeration_guard(instance)
    n = instance.D**2
    lat = instance.lattice
    families, site_family = site_families(instance)
    traces = [operator_traces(ops) for ops in families]
    sigmas = [ops / t[:, None, None] for ops, t in zip(families, traces)]
    # rows[s][a] is the output row site s reads under assignment a
    grid = np.indices((n,) * lat.n_edges).reshape(lat.n_edges, -1)
    rows = [
        np.ravel_multi_index(grid[[e for e, _ in lat.incident_edges(s)]], (n,) * m.v)
        for s, m in enumerate(instance.site_maps)
    ]
    weights = np.prod([traces[f][rows[s]] for s, f in enumerate(site_family)], axis=0)
    for a, assignment in enumerate(itertools.product(range(n), repeat=lat.n_edges)):
        site_sigmas = [sigmas[f][rows[s][a]] for s, f in enumerate(site_family)]
        yield assignment, float(weights[a]), site_sigmas


def mixture_normalization(instance: PepsInstance) -> float:
    """T computed by brute-force enumeration of all edge assignments."""
    total = sum(weight for _, weight, _ in enumerate_mixture_terms(instance))
    return total / (instance.D ** (2 * instance.lattice.n_edges))


def reconstruct_mixture(instance: PepsInstance):
    """Sum the separable mixture exactly; returns (density matrix, weights)."""
    dim = int(np.prod(instance.physical_dims()))
    rho = np.zeros((dim, dim), dtype=complex)
    weights = []
    for _, weight, sigmas in enumerate_mixture_terms(instance):
        rho += weight * linalg.tensor_product(sigmas)
        weights.append(weight)
    total = float(np.sum(weights))
    return rho / total, np.array(weights) / total


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
