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
from typing import TYPE_CHECKING, Callable

import numpy as np

from pepslhv import basis as basis_mod
from pepslhv import lattice as lattice_mod
from pepslhv import linalg
from pepslhv import measurements as meas_mod
from pepslhv.construction import (
    PepsInstance,
    SiteMap,
    derive_seed,
    identity_site_map,
    recipe1_maker,
    recipe2_maker,
)
from pepslhv.errors import ConstraintError, StrictInteriorError, UsageError, check_entries
from pepslhv.lattice import site_groups
from pepslhv.measurements import dual_margin

if TYPE_CHECKING:
    from pepslhv.plans import MeasurementPlan


def _literal_arrays(obj: dict) -> dict:
    """json object_hook: a {"re", "im"} literal's lists become float arrays as they are parsed.

    So a file of many literals never holds all their lists at once.  Lists
    that do not convert are left as parsed, for the literal's reader to refuse.
    """
    if "re" in obj and "im" in obj:
        try:
            parts = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            return obj
        obj["re"], obj["im"] = parts
    return obj


def _load_json(path: str, object_hook: Callable | None = _literal_arrays) -> dict:
    """The JSON object in a file; object_hook=None keeps the literals' lists, to write back."""
    try:
        obj = json.loads(Path(path).read_text(), object_hook=object_hook)
    except ValueError as exc:  # bad JSON, an integer of over 4300 digits, or bytes not UTF-8
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: top-level value must be a JSON object")
    return obj


def _resolve(spec, kind: str, from_json: Callable, from_name: Callable):
    """An object, or an "@path" file holding one, goes to from_json; any other string to from_name."""
    if isinstance(spec, str) and spec.startswith("@"):
        spec = _load_json(spec[1:])
    if isinstance(spec, dict):
        return from_json(spec)
    if isinstance(spec, str):
        return from_name(spec)
    raise UsageError(f"bad {kind} spec {spec!r}")


# ---------------------------------------------------------------------------
# States

def parse_state(spec, dim: int) -> np.ndarray:
    """A state of dimension dim: a name, an inline literal, or an @file reference.

    Names: "zero[:d]", "uniform[:d]", "plus-diag[:n]" (n-fold product of the
    qubit state along the (1,1,1)/sqrt(3) Bloch axis, of dimension 2^n).  A
    name's argument must give dimension dim; it is checked before any array
    is built.  A literal's length must be dim.
    """
    return _resolve(
        spec, "state", lambda obj: _state_literal(obj, dim), lambda name: _named_state(name, dim)
    )


def _state_literal(obj: dict, dim: int) -> np.ndarray:
    vec = linalg.state_from_json(obj)
    if vec.size != dim:
        raise UsageError(f"state literal has dimension {vec.size}, not {dim}")
    return vec


def _named_state(spec: str, dim: int) -> np.ndarray:
    name, *args = spec.split(":")
    if len(args) > 1:
        raise UsageError(f"bad state spec '{spec}': at most one ':' argument")
    try:
        arg = int(args[0]) if args else None
    except ValueError as exc:
        raise UsageError(f"bad state spec '{spec}': {exc}") from exc
    if dim < 1:
        raise UsageError(f"state '{spec}' needs a positive dimension, got {dim}")
    if name in ("zero", "uniform"):
        if arg not in (None, dim):
            raise UsageError(f"state '{spec}' does not have dimension {dim}")
        if name == "zero":
            return np.eye(1, dim, dtype=complex)[0]
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    if name == "plus-diag":
        n = dim.bit_length() - 1
        if n < 1 or dim != 1 << n or arg not in (None, n):
            raise UsageError(f"state '{spec}' does not have dimension {dim}")
        return linalg.kron_vectors([basis_mod.bloch_diag_state()] * n)
    raise UsageError(f"unknown state spec '{spec}'")


# ---------------------------------------------------------------------------
# Bases, measurement sets, lattices

def parse_basis(spec) -> basis_mod.OperatorBasis:
    """"phase-point", "aligned:D:<statespec>", inline JSON, or @file."""
    return _resolve(spec, "basis", basis_mod.basis_from_json, _named_basis)


def _named_basis(spec: str) -> basis_mod.OperatorBasis:
    if spec == "phase-point":
        return basis_mod.phase_point_basis()
    parts = spec.split(":", 2)
    if parts[0] == "aligned" and len(parts) == 3:
        try:
            D = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad basis spec '{spec}': {exc}") from exc
        if D < 2:  # before the anchor, whose message would name the state
            raise UsageError(f"bond dimension must be >= 2, got {D}")
        # its Gram-Schmidt: D^4 / 2 products of D x D matrices, D^7 / 2 multiply-adds,
        # more at every D > 2 than the five D^4-entry arrays the construction holds
        check_entries(f"basis aligned:{D}", D**7 // 2)
        return basis_mod.build_aligned_basis(D, parse_state(parts[2], dim=D))
    raise UsageError(f"unknown basis spec '{spec}'")


def parse_measurements(spec) -> meas_mod.MeasurementSet:
    return _resolve(
        spec, "measurement", meas_mod.measurement_set_from_json, meas_mod.measurement_set_from_name
    )


def parse_lattice(spec) -> lattice_mod.Lattice:
    return _resolve(spec, "lattice", lattice_mod.lattice_from_json, lattice_mod.lattice_from_name)


# ---------------------------------------------------------------------------
# Instances

def instance_factory(config: dict) -> Callable[[float], PepsInstance]:
    """Resolve everything in a config/instance dict that does not depend on epsilon.

    The lattice, basis, measurement set and psi are parsed, and every
    epsilon-independent check (the strict-interior test among them) runs,
    once, here; then one site-map maker is made per degree.  The returned
    function builds only the site maps, one per degree, for the epsilon it is
    given; the config's own "epsilon" is not read.
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

    recipe = site_spec.get("recipe")
    # isdecimal, not isdigit: int() refuses a digit such as "²"
    if isinstance(recipe, str) and recipe.isdecimal():
        try:
            recipe = int(recipe)
        except ValueError:  # more digits than int() converts: refused below, as a string
            pass
    # a bool or a float would compare equal to 1 or 2: refused, not converted
    if type(recipe) not in (int, str) or recipe not in (1, 2, "identity", "custom"):
        raise UsageError(f"unknown recipe {recipe!r}")
    seed = site_spec.get("seed", 0)
    if type(seed) is not int:  # a float or a string is refused, not truncated
        raise UsageError(f"'seed' must be an integer, got {seed!r}")
    D, d = op_basis.D, mset.dim
    # distinct degrees in order of first appearance, as sites are scanned
    degrees = lat.degrees[site_groups(lat.degrees[None])[0]].tolist()
    # before any map: each degree's site family (as large as its Choi matrix) and basis products
    for v in degrees:
        check_entries(f"site family of degree {v}", D ** (2 * v) * d * d)
        check_entries(f"basis products of degree {v}", D ** (4 * v))

    psi = parse_state(config["psi"], dim=d) if "psi" in config else None
    if recipe in (1, 2):
        if psi is None:
            raise UsageError(f"recipe {recipe} needs 'psi'")
        if recipe == 1 and op_basis.anchor is None:
            raise UsageError("recipe 1 needs an anchored basis")
        for v in degrees:
            if d < 2**v:
                raise ConstraintError(f"physical dimension d={d} < 2^v = {2**v}")
        _require_strict_interior(psi, mset)

    def site_map_maker(v: int) -> Callable[[float], SiteMap]:
        if recipe == "identity":
            m = identity_site_map(v)
            return lambda epsilon: m
        if recipe == 2:
            return recipe2_maker(v, d, psi)
        if recipe == 1:
            return recipe1_maker(v, D, d, psi, op_basis.anchor, derive_seed(seed, f"recipe1:v{v}"))
        # recipe "custom"
        if "kraus" not in site_spec:
            raise UsageError("recipe 'custom' needs 'kraus'")
        m = SiteMap(v, D, d, linalg.matrix_from_json(site_spec["kraus"]))
        return lambda epsilon: m

    makers = {v: site_map_maker(v) for v in degrees}

    def make(epsilon: float) -> PepsInstance:
        eps = _number(epsilon, "epsilon")
        if not math.isfinite(eps):
            raise UsageError(f"epsilon must be finite, got {eps}")
        return PepsInstance(
            lattice=lat,
            maps={v: make_map(eps) for v, make_map in makers.items()},
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
    # imported here: peps check and peps epsilon-max read no plan
    from pepslhv.plans import MeasurementPlan

    def from_json(obj: dict) -> MeasurementPlan:
        if "all" in obj:
            if not isinstance(obj["all"], str):
                raise UsageError(f"plan 'all' must be a label string, got {obj['all']!r}")
            return MeasurementPlan.uniform(instance, obj["all"])
        if "sites" in obj:
            labels = obj["sites"]
            if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
                raise UsageError(f"plan 'sites' must be a list of label strings, got {labels!r}")
            return MeasurementPlan.from_labels(instance, labels)
        raise UsageError(f"bad plan spec {obj!r}")

    def from_name(name: str) -> MeasurementPlan:
        if not name.startswith("all:"):
            raise UsageError(f"bad plan spec '{name}'")
        return MeasurementPlan.uniform(instance, name[4:])

    return _resolve(spec, "plan", from_json, from_name)
