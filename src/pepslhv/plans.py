"""Measurement plans: which POVM of the instance's measurement set each site measures.

Kept apart from the sampler, so that the commands that read a plan without
drawing shots (`verify --mode mixture`) do not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from pepslhv.construction import PepsInstance
from pepslhv.errors import UsageError


@dataclass(frozen=True)
class MeasurementPlan:
    """One POVM (by index into the instance's measurement set) per site."""

    povm_indices: tuple

    @classmethod
    def uniform(cls, instance: PepsInstance, label: str) -> "MeasurementPlan":
        idx, _ = instance.measurement_set.by_label(label)
        return cls(povm_indices=(idx,) * instance.lattice.n_sites)

    @classmethod
    def from_labels(cls, instance: PepsInstance, labels: Sequence[str]) -> "MeasurementPlan":
        if len(labels) != instance.lattice.n_sites:
            raise UsageError(
                f"plan has {len(labels)} sites, instance has {instance.lattice.n_sites}"
            )
        return cls(
            povm_indices=tuple(instance.measurement_set.by_label(l)[0] for l in labels)
        )

    def povms(self, instance: PepsInstance) -> list:
        return [instance.measurement_set.povms[idx] for idx in self.povm_indices]
