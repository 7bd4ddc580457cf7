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
from typing import Callable, Optional

import numpy as np

from pepslhv import basis as basis_mod
from pepslhv import lattice as lattice_mod
from pepslhv import linalg
from pepslhv import measurements as meas_mod
from pepslhv.construction import (
    PepsInstance,
    SiteMap,
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
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: top-level value must be a JSON object")
    return obj


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
    name, *args = spec.split(":")
    if len(args) > 1:
        raise UsageError(f"bad state spec '{spec}': at most one ':' argument")
    try:
        arg = int(args[0]) if args else None
    except ValueError as exc:
        raise UsageError(f"bad state spec '{spec}': {exc}") from exc
    if name in ("zero", "uniform"):
        d = arg or dim
        if d is None or d < 1:
            raise UsageError(f"state '{spec}' needs a positive dimension, got {d}")
        if name == "zero":
            return np.eye(1, d, dtype=complex)[0]
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
        try:
            D = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad basis spec '{spec}': {exc}") from exc
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

def instance_factory(config: dict) -> Callable[[float], PepsInstance]:
    """Resolve everything in a config/instance dict that does not depend on epsilon.

    The lattice, basis, measurement set and psi are parsed, and every
    epsilon-independent check (the strict-interior test among them) runs,
    once, here.  The returned function builds only the site maps for the
    epsilon it is given; the config's own "epsilon" is not read.
    """
    try:
        lat = parse_lattice(config["lattice"])
        op_basis = parse_basis(config["basis"])
        mset = parse_measurements(config["measurements"])
        site_spec = config["site_map"]
    except KeyError as exc:
        raise UsageError(f"instance config missing key {exc}") from exc
    if not isinstance(site_spec, dict):
        raise UsageError(f"'site_map' must be an object, got {site_spec!r}")

    degrees = lat.site_degrees()
    recipe = site_spec.get("recipe")
    # isdecimal, not isdigit: int() refuses a digit such as "²"
    if isinstance(recipe, str) and recipe.isdecimal():
        recipe = int(recipe)
    seed = site_spec.get("seed", 0)
    if type(seed) is not int:  # a float or a string is refused, not truncated
        raise UsageError(f"'seed' must be an integer, got {seed!r}")
    d = mset.dim

    psi = None
    if "psi" in config:
        psi = parse_state(config["psi"], dim=d)

    def site_map_maker(v: int) -> Callable[[float], SiteMap]:
        if recipe == "identity":
            m = identity_site_map(v)
            return lambda epsilon: m
        if recipe == 2:
            if psi is None:
                raise UsageError("recipe 2 needs 'psi'")
            if d < 2**v:
                raise ConstraintError(f"physical dimension d={d} < 2^v = {2**v}")
            _require_strict_interior(psi, mset)
            states = recipe2_states_from_interior(psi, v)
            return lambda epsilon: recipe2_site_map(v, d, states, epsilon)
        if recipe == 1:
            if psi is None:
                raise UsageError("recipe 1 needs 'psi'")
            if op_basis.anchor is None:
                raise UsageError("recipe 1 needs an anchored basis")
            _require_strict_interior(psi, mset)
            anchors = [op_basis.anchor] * v
            map_seed = derive_seed(seed, f"recipe1:v{v}")
            return lambda epsilon: recipe1_site_map(
                v, op_basis.D, d, psi, anchors, epsilon, map_seed
            )
        if recipe == "custom":
            if "kraus" not in site_spec:
                raise UsageError("recipe 'custom' needs 'kraus'")
            m = SiteMap(v, op_basis.D, d, linalg.matrix_from_json(site_spec["kraus"]))
            return lambda epsilon: m
        raise UsageError(f"unknown recipe {recipe!r}")

    # distinct degrees in order of first appearance, as sites are scanned
    makers = {v: site_map_maker(v) for v in dict.fromkeys(degrees)}

    def make(epsilon: float) -> PepsInstance:
        eps = _number(epsilon, "epsilon")
        if not math.isfinite(eps):
            raise UsageError(f"epsilon must be finite, got {eps}")
        maps = {v: make_map(eps) for v, make_map in makers.items()}
        return PepsInstance(
            lattice=lat,
            site_maps=tuple(maps[v] for v in degrees),
            basis=op_basis,
            measurement_set=mset,
        )

    return make


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"'{name}' must be a number, got {value!r}") from exc


def build_instance(config: dict) -> PepsInstance:
    """Resolve a config/instance dict into a fully validated PepsInstance."""
    make = instance_factory(config)
    return make(config["site_map"].get("epsilon", 0.0))


def _require_strict_interior(psi, mset):
    margin = dual_margin(linalg.projector(psi), mset)
    if not margin.strictly_interior:
        raise StrictInteriorError(
            f"psi is not strictly inside the dual (margin {margin.margin:.3e})"
        )


def load_instance(path: str) -> PepsInstance:
    return build_instance(_load_json(path))


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
            if not isinstance(spec["all"], str):
                raise UsageError(f"plan 'all' must be a label string, got {spec['all']!r}")
            return MeasurementPlan.uniform(instance, spec["all"])
        if "sites" in spec:
            labels = spec["sites"]
            if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
                raise UsageError(f"plan 'sites' must be a list of label strings, got {labels!r}")
            return MeasurementPlan.from_labels(instance, labels)
    raise UsageError(f"bad plan spec {spec!r}")
