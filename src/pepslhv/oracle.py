"""Brute-force ground truth for desk-scale instances.

Exact Born-rule joint distributions from the assembled state, exact
distributions from the enumerated separable mixture, and total-variation
comparison of sampler output against either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pepslhv import linalg
from pepslhv.construction import PepsInstance, assemble_exact_state
from pepslhv.decomposition import enumerate_mixture_terms
from pepslhv.errors import UsageError
from pepslhv.sampling import MeasurementPlan, ShotBatch

MAX_OUTCOME_SPACE = 2**16
DEFAULT_CONFIDENCE_K = 4.0
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
        return int(np.prod(self.arities))


def exact_joint_distribution(state, plan_povms: Sequence) -> JointDistribution:
    """p(j_1..j_N) = <Psi| X_{j_1} (x) ... (x) X_{j_N} |Psi> via PSD square roots."""
    vec = linalg.as_state(state)
    dims = [p.dim for p in plan_povms]
    arities = [p.n_outcomes for p in plan_povms]
    if int(np.prod(arities)) > MAX_OUTCOME_SPACE:
        raise UsageError("joint outcome space too large")
    if int(np.prod(dims)) != vec.size:
        raise UsageError("plan dimensions do not match the state")
    tensor = vec.reshape(dims)
    # after processing site s the tensor axes are (j_1, b_1, ..., j_s, b_s, rest)
    for s, povm in enumerate(plan_povms):
        roots = np.stack([linalg.psd_sqrt(x) for x in povm.elements])  # (K, d, d)
        tensor = np.tensordot(roots, tensor, axes=([2], [2 * s]))  # (K, d, ...)
        tensor = np.moveaxis(tensor, (0, 1), (2 * s, 2 * s + 1))
    amp2 = np.abs(tensor) ** 2
    probs = amp2.sum(axis=tuple(range(1, amp2.ndim, 2)))
    return JointDistribution(arities=tuple(arities), probs=probs)


def born_joint_for_instance(instance: PepsInstance, plan: MeasurementPlan) -> JointDistribution:
    raw, T = assemble_exact_state(instance)
    return exact_joint_distribution(raw / np.sqrt(T), plan.povms(instance))


def mixture_joint_distribution(instance: PepsInstance, plan: MeasurementPlan) -> JointDistribution:
    """sum_lambda p(lambda) prod_s tr(sigma_s X_{j_s}) over all edge assignments."""
    povms = plan.povms(instance)
    arities = [p.n_outcomes for p in povms]
    if int(np.prod(arities)) > MAX_OUTCOME_SPACE:
        raise UsageError("joint outcome space too large")
    stacks = [np.stack(p.elements) for p in povms]
    acc = np.zeros(arities)
    # the final normalization divides out sum_lambda weight
    for _, weight, sigmas in enumerate_mixture_terms(instance):
        local = [
            np.real(np.einsum("ab,eba->e", sigma, stack))
            for sigma, stack in zip(sigmas, stacks)
        ]
        joint = local[0]
        for loc in local[1:]:
            joint = np.multiply.outer(joint, loc)
        acc += weight * joint
    acc = np.clip(acc, 0.0, None)
    return JointDistribution(arities=tuple(arities), probs=acc / acc.sum())


def empirical_distribution(batch: ShotBatch, arities: Sequence[int]) -> JointDistribution:
    if batch.n_shots == 0:
        raise UsageError("empty shot batch")
    arities = tuple(int(a) for a in arities)
    flat = np.ravel_multi_index(tuple(batch.outcomes.T), arities)
    counts = np.bincount(flat, minlength=int(np.prod(arities))).astype(float)
    return JointDistribution(arities=arities, probs=(counts / counts.sum()).reshape(arities))


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
    batch: ShotBatch,
    exact: JointDistribution,
    confidence_k: float = DEFAULT_CONFIDENCE_K,
) -> FrequencyReport:
    """Pass iff TV(empirical, exact) <= k * sqrt(K / n_shots)."""
    if batch.n_shots < MIN_FREQUENCY_SHOTS:
        raise UsageError(f"need at least {MIN_FREQUENCY_SHOTS} shots, got {batch.n_shots}")
    emp = empirical_distribution(batch, exact.arities)
    tv = tv_distance(emp, exact)
    threshold = confidence_k * np.sqrt(exact.n_outcomes / batch.n_shots)
    return FrequencyReport(
        passed=bool(tv <= threshold),
        tv=tv,
        threshold=float(threshold),
        n_outcomes=exact.n_outcomes,
        n_shots=batch.n_shots,
        confidence_k=float(confidence_k),
    )
