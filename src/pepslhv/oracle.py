"""Brute-force ground truth for desk-scale instances.

Exact Born-rule joint distributions from the assembled state, the joint
distributions of the separable mixture summed exactly over every edge
assignment (one edge contraction, one site family built at a time), and
total-variation comparison of sampler output against either.  Exact
contraction of a PEPS is #P-hard in general, so all of it runs at desk
scale only, and `verify` is the one command that imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.construction import (
    MAX_ENUM_ASSIGNMENTS,
    PepsInstance,
    assemble_exact_state,
    contract_edges,
)
from pepslhv.decomposition import _family_sites, _row_blocks, site_operator_family
from pepslhv.errors import UsageError, check_entries
from pepslhv.plans import MeasurementPlan

if TYPE_CHECKING:
    from pepslhv.sampling import ShotBatch

# joint outcomes the oracles enumerate: a bound on work
MAX_OUTCOME_SPACE = 2**16
# (d_2...d_N)^2 bra-ket entries each first-site outcome contracts, never held whole: work
MAX_BORN_OPERATOR = 2**20
DEFAULT_CONFIDENCE_K = 4.0
# `verify --mode mixture` passes when the two exact distributions agree up to rounding
MIXTURE_TV_MAX = 1e-10
MIN_FREQUENCY_SHOTS = 1000


@dataclass(frozen=True)
class JointDistribution:
    """Probability tensor over the product outcome space, one axis per site."""

    arities: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != tuple(self.arities):
            raise UsageError(f"probability shape {probs.shape} != arities {self.arities}")
        if float(probs.min()) < -1e-12:
            raise UsageError(f"negative probability {probs.min():.3e}")
        if abs(float(probs.sum()) - 1.0) > 1e-10:
            raise UsageError(f"probabilities sum to {probs.sum():.12f}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "arities", tuple(int(a) for a in self.arities))

    @property
    def n_outcomes(self) -> int:
        return math.prod(self.arities)


def _check_outcome_space(povms: Sequence) -> None:
    """Refuse plans whose joint outcome space is too large."""
    # float products, exact up to 2^53: exact integers over 2^20 sites took 50 s
    if math.prod((p.n_outcomes for p in povms), start=1.0) > MAX_OUTCOME_SPACE:
        raise UsageError("joint outcome space too large")


def _check_oracle_size(povms: Sequence) -> None:
    """Refuse plans whose outcome space, or whose work on sites 2..N, is too large."""
    _check_outcome_space(povms)
    rest = math.prod((p.dim for p in povms[1:]), start=1.0)
    check_entries("Born operator on sites 2..N", rest * rest, MAX_BORN_OPERATOR)


def exact_joint_distribution(state, plan_povms: Sequence) -> JointDistribution:
    """p(j_1..j_N) = <Psi| X_{j_1} (x) ... (x) X_{j_N} |Psi>, contracted site by site.

    One first-site outcome j_1 at a time: after measuring sites 1..s,
    R[j_2..j_s] is the operator <Psi| X_{j_1} (x) ... (x) X_{j_s} (x) . |Psi>
    on the unmeasured sites; measuring site s+1 traces its factor against
    each X_{j_{s+1}}.  Sites 1 and 2 are measured together, in blocks of
    rows u of sites 3..N (decomposition._row_blocks): the bra rows (a_2, u)
    times X_{j_1} Psi, regrouped to (a_2 b_2, u w), give the block R[:, u, :]
    of the (n_2, r, r) operator on sites 3..N, r = d_3 ... d_N.  Sites 3..N
    are then measured on one R[j_2] at a time, so the largest arrays are R
    and one (r, r) slice's regrouped copy, never (d_2 ... d_N)^2.  Each
    probability is still a length-d_1 sum, then a length-d_2^2 sum, and so
    on, in the same order as through the whole (d_2 ... d_N)^2 operator.
    """
    vec = linalg.as_state(state)
    _check_oracle_size(plan_povms)
    dims = [p.dim for p in plan_povms]
    arities = [p.n_outcomes for p in plan_povms]
    if math.prod(dims) != vec.size:
        raise UsageError("plan dimensions do not match the state")
    psi = vec.reshape(dims[0], -1)
    probs = np.empty(arities)
    if len(dims) == 1:
        for j, X in enumerate(plan_povms[0].elements):
            probs[j] = np.real(psi.conj().T @ (X @ psi))[0, 0]
        return JointDistribution(arities=tuple(arities), probs=probs)
    d2, r = dims[1], psi.shape[1] // dims[1]
    # bra[a_2, u] = conj(Psi[:, (a_2, u)]), a view
    bra = psi.conj().T.reshape(d2, r, dims[0])
    site2 = plan_povms[1].elements.reshape(arities[1], d2 * d2)
    R = np.empty((arities[1], r, r), dtype=complex)
    # gemm computes a product's last columns, those past a multiple of its
    # unroll (4 in OpenBLAS's x86-64 zgemm), in an edge kernel that rounds
    # differently; blocks that start on a multiple of 16 columns (u, w) leave
    # those columns where the whole product has them
    unit = 16 // math.gcd(r, 16)
    # a row u makes d2^2 r entries of bra @ ket, as many of its regrouped
    # copy, and n_2 r of the site-2 product: the three share a sixteenth of
    # SCAN_BLOCK_ENTRIES (R, beside them, holds n_2 r^2)
    width = 16 * unit * (2 * d2 * d2 + arities[1]) * r
    blocks = [(a * unit, min(b * unit, r)) for a, b in _row_blocks(-(-r // unit), width)]
    for j, X in enumerate(plan_povms[0].elements):
        ket = X @ psi
        for a, b in blocks:
            # rows (a_2, u) in one matmul, so a one-row u block is not a gemv
            block = bra[:, a:b].reshape(-1, dims[0]) @ ket
            # (a_2, u, b_2 w) -> (a_2 b_2, u w), then one matmul over a_2 b_2
            block = block.reshape(d2, b - a, d2, r).transpose(0, 2, 1, 3)
            R[:, a:b] = (site2 @ block.reshape(d2 * d2, -1)).reshape(-1, b - a, r)
        # one second-site outcome at a time: a batched matmul over all of R
        # also runs one gemm per R[j_2], so no bit moves
        for j2, out in enumerate(R):
            for d, povm in zip(dims[2:], plan_povms[2:]):
                # group the bra and ket indices of the next site, then one matmul over them
                rest = out.shape[-1] // d
                out = out.reshape(-1, d, rest, d, rest).transpose(0, 1, 3, 2, 4)
                out = povm.elements.reshape(povm.n_outcomes, -1) @ out.reshape(-1, d * d, rest**2)
                out = out.reshape(-1, rest, rest)
            probs[j, j2] = np.real(out).reshape(arities[2:])
    return JointDistribution(arities=tuple(arities), probs=probs)


def born_joint_for_instance(instance: PepsInstance, plan: MeasurementPlan) -> JointDistribution:
    povms = plan.povms(instance)
    # before assembly, so an oversized plan exits cleanly instead of allocating
    _check_oracle_size(povms)
    raw, T = assemble_exact_state(instance)
    return exact_joint_distribution(raw / np.sqrt(T), povms)


# ---------------------------------------------------------------------------
# Exact mixture

def _family_stack(instance: PepsInstance, site: int) -> np.ndarray:
    """site_operator_family of site's map and flags; a non-finite entry or trace raises UsageError."""
    lat = instance.lattice
    v = lat.degrees[site]
    # head end keeps C; tail end gets the transpose
    ops = site_operator_family(instance.maps[v], instance.basis, ~lat.is_head[-v:, site])
    # finite entries near the float range can still sum to an infinite trace
    with np.errstate(over="ignore", invalid="ignore"):
        if not (np.isfinite(ops).all() and np.isfinite(np.trace(ops, axis1=1, axis2=2)).all()):
            raise UsageError(f"site {site}: non-finite output operator")
    return ops


def _enumeration_guard(instance: PepsInstance):
    E = instance.lattice.n_edges
    check_entries("edge assignments of the mixture", (instance.D**2) ** E, MAX_ENUM_ASSIGNMENTS)
    check_entries("mixture's density matrix", math.prod(instance.physical_dims()) ** 2)


def mixture_joint_distribution(instance: PepsInstance, plan: MeasurementPlan) -> JointDistribution:
    """sum_lambda p(lambda) prod_s tr(sigma_s X_{j_s}), i.e. prod_s tr(O_s X_{j_s}) normalized.

    Each site family is built (its basis products counted first), read for
    one table tr(O X) per POVM its sites measure, and dropped before the
    next; contract_edges sums the tables.
    """
    povms = plan.povms(instance)
    _check_outcome_space(povms)
    for v in np.unique(instance.lattice.degrees).tolist():
        check_entries(f"basis products of degree {v}", instance.D ** (4 * v))
    arities = [p.n_outcomes for p in povms]
    firsts, site_family = _family_sites(instance)
    pairs = list(zip(site_family.tolist(), plan.povm_indices))  # (family, POVM) per site
    tables = {}
    for f, s in enumerate(firsts):
        ops = _family_stack(instance, s)
        for pair, povm in zip(pairs, povms):
            if pair[0] == f and pair not in tables:
                tables[pair] = linalg.overlaps(ops, povm.elements)
        del ops  # before the next family is built
    _enumeration_guard(instance)
    acc = contract_edges(instance.lattice, [tables[p] for p in pairs], instance.D**2)
    acc = np.clip(acc, 0.0, None)
    return JointDistribution(arities=tuple(arities), probs=acc / acc.sum())


def outcome_counts(batches: Iterable[ShotBatch], arities: Sequence[int]) -> np.ndarray:
    """Shots per joint outcome, over the raveled outcome index, summed batch by batch."""
    size = math.prod(arities)
    counts = np.zeros(size, dtype=np.int64)
    for batch in batches:
        flat = np.ravel_multi_index(tuple(batch.outcomes.T), tuple(arities))
        counts += np.bincount(flat, minlength=size)
    return counts


def tv_distance(p: JointDistribution, q: JointDistribution) -> float:
    if p.arities != q.arities:
        raise UsageError(f"outcome spaces differ: {p.arities} vs {q.arities}")
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))


@dataclass(frozen=True)
class FrequencyReport:
    passed: bool
    tv: float
    threshold: float
    n_outcomes: int
    n_shots: int
    confidence_k: float

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "tv": self.tv,
            "threshold": self.threshold,
            "K": self.n_outcomes,
            "n_shots": self.n_shots,
            "confidence_k": self.confidence_k,
        }


def frequency_test(
    shots,
    exact: JointDistribution,
    confidence_k: float = DEFAULT_CONFIDENCE_K,
) -> FrequencyReport:
    """Pass iff TV(empirical, exact) <= k * sqrt(K / n_shots).

    shots is a ShotBatch (it has outcomes) or an iterable of them, such as
    sampling.iter_shots' batches, which are counted one at a time and never
    held together.
    """
    counts = outcome_counts([shots] if hasattr(shots, "outcomes") else shots, exact.arities)
    n_shots = int(counts.sum())
    if n_shots < MIN_FREQUENCY_SHOTS:
        raise UsageError(f"need at least {MIN_FREQUENCY_SHOTS} shots, got {n_shots}")
    empirical = JointDistribution(exact.arities, (counts / n_shots).reshape(exact.arities))
    tv = tv_distance(empirical, exact)
    threshold = confidence_k * np.sqrt(exact.n_outcomes / n_shots)
    return FrequencyReport(
        passed=bool(tv <= threshold),
        tv=tv,
        threshold=float(threshold),
        n_outcomes=exact.n_outcomes,
        n_shots=n_shots,
        confidence_k=float(confidence_k),
    )
