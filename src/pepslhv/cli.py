"""Command-line surface.

Exit codes: 0 success, 1 I/O failure, 2 validation/config error,
3 positivity or verification failure, 4 instance not factorizable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from pepslhv import basis as basis_mod
from pepslhv import configio, decomposition, linalg, oracle, sampling
from pepslhv import lattice as lattice_mod
from pepslhv.construction import assemble_exact_state, choi_check
from pepslhv.errors import (
    NotFactorizableError,
    PositivityViolationError,
    StrictInteriorError,
    UsageError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_NOT_FACTORIZABLE = 4


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _default_workers() -> int:
    return int(os.environ.get("RSEP_WORKERS", "1"))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_basis_gen(args) -> int:
    if args.phase_point:
        b = basis_mod.phase_point_basis()
    else:
        anchor = configio.parse_state(args.anchor, dim=args.D)
        b = basis_mod.build_aligned_basis(args.D, anchor)
    _write_json(args.out, basis_mod.basis_to_json(b))
    print(f"wrote basis D={b.D} ({b.construction}) to {args.out}")
    return EXIT_OK


def cmd_basis_verify(args) -> int:
    b = basis_mod.basis_from_json(configio._load_json(args.file))
    err = basis_mod.verify_decomposition(b)
    report = {"D": b.D, "construction": b.construction, "reconstruction_error": err}
    if b.anchor is not None:
        overlaps = b.anchor_overlaps()
        report["anchor_min_overlap"] = float(overlaps.min())
        report["anchor_max_overlap"] = float(overlaps.max())
    _print(report)
    return EXIT_OK if err <= 1e-10 else EXIT_CONFIG


def cmd_dual_margin(args) -> int:
    op = linalg.matrix_from_json(configio._load_json(args.operator))
    mset = configio.parse_measurements(args.measurements)
    m = configio.dual_margin(op, mset)
    _print(
        {
            "min_overlap": m.min_overlap,
            "max_overlap": m.max_overlap,
            "margin": m.margin,
            "in_dual": m.in_dual(atol=1e-9),
            "strictly_interior": m.strictly_interior,
            "worst_element": list(m.worst_element),
        }
    )
    return EXIT_OK


def cmd_lattice_gen(args) -> int:
    lat = configio.parse_lattice(args.name)
    _write_json(args.out, lattice_mod.lattice_to_json(lat))
    print(f"wrote lattice with {lat.n_sites} sites, {lat.n_edges} edges to {args.out}")
    return EXIT_OK


def _build_config_from_args(args) -> dict:
    config = {
        "lattice": args.lattice,
        "basis": args.basis,
        "measurements": args.measurements,
        "site_map": {"recipe": args.recipe, "epsilon": args.epsilon, "seed": args.seed},
    }
    if args.psi is not None:
        config["psi"] = args.psi
    if args.kraus is not None:
        config["site_map"]["kraus"] = configio._load_json(args.kraus)
    return config


def cmd_peps_build(args) -> int:
    config = configio.normalize_config(_build_config_from_args(args))
    _write_json(args.out, config)
    print(f"wrote instance config to {args.out}")
    return EXIT_OK


def cmd_peps_check(args) -> int:
    instance = configio.load_instance(args.instance)
    # sites share map objects; check each distinct map once
    distinct = {id(m): m for m in instance.site_maps}
    choi_min = min(choi_check(m) for m in distinct.values())
    report = decomposition.rv_positivity_check(instance)
    out = {"choi_min_eigenvalue": choi_min, **report.to_json()}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    if choi_min < -1e-9 or not report.passed:
        return EXIT_POSITIVITY
    return EXIT_OK


def cmd_peps_epsilon_max(args) -> int:
    config = configio._load_json(args.instance)

    def make(eps: float):
        cfg = json.loads(json.dumps(config))
        cfg["site_map"]["epsilon"] = eps
        return configio.build_instance(cfg)

    lo, hi = decomposition.max_epsilon_search(make, args.eps_hi)
    out = {"eps_pass": lo, "eps_fail": None if hi == float("inf") else hi}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    return EXIT_OK


def cmd_sample(args) -> int:
    instance = configio.load_instance(args.instance)
    plan = configio.parse_plan(args.plan, instance)
    dists = decomposition.edge_distribution(instance)
    batch = sampling.run_shots(
        instance,
        plan,
        args.shots,
        args.seed,
        edge_dists=dists,
        emit_hidden=args.emit_hidden,
        workers=args.workers,
    )
    with open(args.out, "w") as fh:
        for record in batch.records():
            fh.write(record.to_json() + "\n")
    print(f"wrote {batch.n_shots} shots to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = configio.load_instance(args.instance)
    plan = configio.parse_plan(args.plan, instance)
    exact = oracle.born_joint_for_instance(instance, plan)
    if args.mode == "mixture":
        mix = oracle.mixture_joint_distribution(instance, plan)
        tv = oracle.tv_distance(mix, exact)
        out = {"mode": "mixture", "tv": tv, "threshold": 1e-10, "pass": tv <= 1e-10}
    else:
        dists = decomposition.edge_distribution(instance)
        batch = sampling.run_shots(
            instance, plan, args.shots, args.seed, edge_dists=dists, workers=args.workers
        )
        report = oracle.frequency_test(batch, exact, confidence_k=args.confidence_k)
        out = {"mode": "shots", **report.to_json()}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    return EXIT_OK if out["pass"] else EXIT_POSITIVITY


def cmd_bench(args) -> int:
    config = configio._load_json(args.instance)
    sizes = [int(x) for x in args.sites.split(",")]
    rows = []
    for n in sizes:
        cfg = json.loads(json.dumps(config))
        cfg["lattice"] = f"cycle:{n}"
        instance = configio.build_instance(cfg)
        plan = configio.parse_plan(args.plan, instance)
        dists = decomposition.edge_distribution(instance)
        t0 = time.perf_counter()
        sampling.run_shots(
            instance, plan, args.shots, args.seed, edge_dists=dists, workers=args.workers
        )
        rows.append({"sites": n, "shots": args.shots, "seconds": time.perf_counter() - t0})
    out = {"timings": rows}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pepslhv",
        description="Separable PEPS construction, certification, and LHV sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="operator basis files")
    basis_sub = p_basis.add_subparsers(dest="subcommand", required=True)
    g = basis_sub.add_parser("gen")
    g.add_argument("--D", type=int, default=2)
    g.add_argument("--anchor", default="zero")
    g.add_argument("--phase-point", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_basis_gen)
    v = basis_sub.add_parser("verify")
    v.add_argument("file")
    v.set_defaults(func=cmd_basis_verify)

    p_dual = sub.add_parser("dual", help="dual-set membership")
    dual_sub = p_dual.add_subparsers(dest="subcommand", required=True)
    dm = dual_sub.add_parser("margin")
    dm.add_argument("--operator", required=True)
    dm.add_argument("--measurements", required=True)
    dm.set_defaults(func=cmd_dual_margin)

    p_lat = sub.add_parser("lattice", help="lattice files")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    lg = lat_sub.add_parser("gen")
    lg.add_argument("--name", required=True)
    lg.add_argument("--out", required=True)
    lg.set_defaults(func=cmd_lattice_gen)

    p_peps = sub.add_parser("peps", help="instances and certificates")
    peps_sub = p_peps.add_subparsers(dest="subcommand", required=True)
    b = peps_sub.add_parser("build")
    b.add_argument("--lattice", required=True)
    b.add_argument("--basis", required=True)
    b.add_argument("--measurements", required=True)
    b.add_argument("--recipe", required=True)
    b.add_argument("--psi")
    b.add_argument("--kraus", help="path to a Kraus matrix JSON for recipe 'custom'")
    b.add_argument("--epsilon", type=float, default=0.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_peps_build)
    c = peps_sub.add_parser("check")
    c.add_argument("instance")
    c.add_argument("--out")
    c.set_defaults(func=cmd_peps_check)
    em = peps_sub.add_parser("epsilon-max")
    em.add_argument("instance")
    em.add_argument("--eps-hi", type=float, required=True)
    em.add_argument("--out")
    em.set_defaults(func=cmd_peps_epsilon_max)

    s = sub.add_parser("sample", help="draw shots to JSONL")
    s.add_argument("instance")
    s.add_argument("--plan", required=True)
    s.add_argument("--shots", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--emit-hidden", action="store_true")
    s.add_argument("--workers", type=int, default=_default_workers())
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    vf = sub.add_parser("verify", help="compare against the brute-force oracle")
    vf.add_argument("instance")
    vf.add_argument("--plan", required=True)
    vf.add_argument("--mode", choices=["mixture", "shots"], default="mixture")
    vf.add_argument("--shots", type=int, default=100_000)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--confidence-k", type=float, default=4.0)
    vf.add_argument("--workers", type=int, default=_default_workers())
    vf.add_argument("--out")
    vf.set_defaults(func=cmd_verify)

    bn = sub.add_parser("bench", help="sampling throughput across lattice sizes")
    bn.add_argument("instance")
    bn.add_argument("--sites", required=True)
    bn.add_argument("--plan", required=True)
    bn.add_argument("--shots", type=int, default=10_000)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--workers", type=int, default=_default_workers())
    bn.add_argument("--out")
    bn.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFactorizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FACTORIZABLE
    except PositivityViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except (UsageError, StrictInteriorError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
