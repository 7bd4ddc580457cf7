"""Spec strings and instance files.

Instance files bundle references: a lattice spec, a basis spec, a
measurement-set spec, the interior state, and a site-map spec.  Specs are
either generator shorthands ("cycle:4", "aligned:2:zero", "pauli:2"),
inline JSON objects, or "@path" references to standalone files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from pepslhv import basis as basis_mod
from pepslhv import lattice as lattice_mod
from pepslhv import linalg
from pepslhv import measurements as meas_mod
from pepslhv.construction import (
    PepsInstance,
    SiteMap,
    custom_site_map,
    identity_site_map,
    recipe1_site_map,
    recipe2_site_map,
    recipe2_states_from_interior,
)
from pepslhv.errors import ConstraintError, StrictInteriorError, UsageError
from pepslhv.measurements import dual_margin
from pepslhv.sampling import MeasurementPlan, derive_seed


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# States

def parse_state(spec, dim: Optional[int] = None) -> np.ndarray:
    """Named states, inline literals, or @file references.

    Names: "zero[:d]", "uniform[:d]", "plus-diag[:n]" (n-fold product of the
    qubit state along the (1,1,1)/sqrt(3) Bloch axis).
    """
    if isinstance(spec, dict):
        return linalg.state_from_json(spec)
    if not isinstance(spec, str):
        raise UsageError(f"bad state spec {spec!r}")
    if spec.startswith("@"):
        return linalg.state_from_json(_load_json(spec[1:]))
    parts = spec.split(":")
    name = parts[0]
    try:
        arg = int(parts[1]) if len(parts) == 2 else None
    except ValueError as exc:
        raise UsageError(f"bad state spec '{spec}': {exc}") from exc
    if name == "zero":
        d = arg or dim
        if d is None:
            raise UsageError("state 'zero' needs a dimension")
        vec = np.zeros(d, dtype=complex)
        vec[0] = 1.0
        return vec
    if name == "uniform":
        d = arg or dim
        if d is None:
            raise UsageError("state 'uniform' needs a dimension")
        return np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    if name == "plus-diag":
        n = arg
        if n is None:
            n = 1 if dim is None else int(round(math.log2(dim)))
        single = basis_mod.bloch_diag_state()
        vec = linalg.kron_vectors([single] * n)
        if dim is not None and vec.size != dim:
            raise UsageError(f"plus-diag:{n} has dimension {vec.size}, expected {dim}")
        return vec
    raise UsageError(f"unknown state spec '{spec}'")


# ---------------------------------------------------------------------------
# Bases, measurement sets, lattices

def parse_basis(spec) -> basis_mod.OperatorBasis:
    """"phase-point", "aligned:D:<statespec>", inline JSON, or @file."""
    if isinstance(spec, dict):
        return basis_mod.basis_from_json(spec)
    if not isinstance(spec, str):
        raise UsageError(f"bad basis spec {spec!r}")
    if spec.startswith("@"):
        return basis_mod.basis_from_json(_load_json(spec[1:]))
    if spec == "phase-point":
        return basis_mod.phase_point_basis()
    parts = spec.split(":", 2)
    if parts[0] == "aligned" and len(parts) == 3:
        D = int(parts[1])
        return basis_mod.build_aligned_basis(D, parse_state(parts[2], dim=D))
    raise UsageError(f"unknown basis spec '{spec}'")


def parse_measurements(spec) -> meas_mod.MeasurementSet:
    if isinstance(spec, dict):
        return meas_mod.measurement_set_from_json(spec)
    if not isinstance(spec, str):
        raise UsageError(f"bad measurement spec {spec!r}")
    if spec.startswith("@"):
        return meas_mod.measurement_set_from_json(_load_json(spec[1:]))
    return meas_mod.measurement_set_from_name(spec)


def parse_lattice(spec) -> lattice_mod.Lattice:
    if isinstance(spec, dict):
        return lattice_mod.lattice_from_json(spec)
    if not isinstance(spec, str):
        raise UsageError(f"bad lattice spec {spec!r}")
    if spec.startswith("@"):
        return lattice_mod.lattice_from_json(_load_json(spec[1:]))
    return lattice_mod.lattice_from_name(spec)


# ---------------------------------------------------------------------------
# Instances

def build_instance(config: dict) -> PepsInstance:
    """Resolve a config/instance dict into a fully validated PepsInstance."""
    try:
        lat = parse_lattice(config["lattice"])
        op_basis = parse_basis(config["basis"])
        mset = parse_measurements(config["measurements"])
        site_spec = config["site_map"]
    except KeyError as exc:
        raise UsageError(f"instance config missing key {exc}") from exc

    degrees = lat.site_degrees()
    recipe = site_spec.get("recipe")
    if isinstance(recipe, str) and recipe.isdigit():
        recipe = int(recipe)
    epsilon = float(site_spec.get("epsilon", 0.0))
    seed = int(site_spec.get("seed", 0))
    d = mset.dim

    psi = None
    if "psi" in config:
        psi = parse_state(config["psi"], dim=d)

    maps_by_degree: dict = {}

    def site_map_for(v: int) -> SiteMap:
        if v in maps_by_degree:
            return maps_by_degree[v]
        if recipe == "identity":
            m = identity_site_map(v)
        elif recipe == 2:
            if psi is None:
                raise UsageError("recipe 2 needs 'psi'")
            if d < 2**v:
                raise ConstraintError(f"physical dimension d={d} < 2^v = {2**v}")
            _require_strict_interior(psi, mset)
            states = recipe2_states_from_interior(psi, v)
            m = recipe2_site_map(v, d, states, epsilon)
        elif recipe == 1:
            if psi is None:
                raise UsageError("recipe 1 needs 'psi'")
            if op_basis.anchor is None:
                raise UsageError("recipe 1 needs an anchored basis")
            _require_strict_interior(psi, mset)
            m = recipe1_site_map(
                v,
                op_basis.D,
                d,
                psi,
                [op_basis.anchor] * v,
                epsilon,
                derive_seed(seed, f"recipe1:v{v}"),
            )
        elif recipe == "custom":
            if "kraus" not in site_spec:
                raise UsageError("recipe 'custom' needs 'kraus'")
            kraus = linalg.matrix_from_json(site_spec["kraus"])
            m = custom_site_map(kraus, v, op_basis.D, d)
        else:
            raise UsageError(f"unknown recipe {recipe!r}")
        maps_by_degree[v] = m
        return m

    site_maps = tuple(site_map_for(v) for v in degrees)
    return PepsInstance(lattice=lat, site_maps=site_maps, basis=op_basis, measurement_set=mset)


def _require_strict_interior(psi, mset):
    margin = dual_margin(linalg.projector(psi), mset)
    if not margin.strictly_interior:
        raise StrictInteriorError(
            f"psi is not strictly inside the dual (margin {margin.margin:.3e})"
        )


def load_instance(path: str) -> PepsInstance:
    return build_instance(_load_json(path))


def normalize_config(config: dict) -> dict:
    """Validate by building, then return the config for storage."""
    build_instance(config)
    return config


# ---------------------------------------------------------------------------
# Plans

def parse_plan(spec, instance: PepsInstance) -> MeasurementPlan:
    """"all:<label>", a plan dict, or @file with {"all": label} / {"sites": [...]}."""
    if isinstance(spec, str):
        if spec.startswith("@"):
            spec = _load_json(spec[1:])
        elif spec.startswith("all:"):
            return MeasurementPlan.uniform(instance, spec[4:])
        else:
            raise UsageError(f"bad plan spec '{spec}'")
    if isinstance(spec, dict):
        if "all" in spec:
            return MeasurementPlan.uniform(instance, spec["all"])
        if "sites" in spec:
            return MeasurementPlan.from_labels(instance, spec["sites"])
    raise UsageError(f"bad plan spec {spec!r}")
