"""Command-line surface.

Exit codes: 0 success, 1 I/O failure, 2 validation/config error,
3 positivity or verification failure, 4 instance not factorizable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from pepslhv import basis as basis_mod
from pepslhv import configio, decomposition, linalg
from pepslhv.construction import choi_check
from pepslhv.errors import NotFactorizableError, PositivityViolationError, UsageError

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_NOT_FACTORIZABLE = 4
# edges `lattice gen` formats per write
_LATTICE_CHUNK = 2**15


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_lattice(path, lat) -> None:
    """_write_json of {"n_sites": N, "edges": [[head, tail], ...]}, byte for byte.

    Formatted from the (E, 2) edge array _LATTICE_CHUNK edges at a time, so
    no Python list of every edge is built.
    """
    item = ",\n    [\n      %d,\n      %d\n    ]"
    with open(path, "w") as fh:
        fh.write('{\n  "edges": [')
        for a in range(0, lat.n_edges, _LATTICE_CHUNK):
            chunk = lat.edges[a : a + _LATTICE_CHUNK]
            text = item * len(chunk) % tuple(chunk.ravel().tolist())
            fh.write(text if a else text[1:])  # no comma before the first edge
        fh.write(f'\n  ],\n  "n_sites": {lat.n_sites}\n}}\n')


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_basis_gen(args) -> int:
    spec = "phase-point" if args.phase_point else f"aligned:{args.D}:{args.anchor}"
    b = configio.parse_basis(spec)
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
    return EXIT_OK if err <= basis_mod.DECOMPOSITION_ATOL else EXIT_CONFIG


def cmd_dual_margin(args) -> int:
    op = linalg.matrix_from_json(configio._load_json(args.operator))
    mset = configio.parse_measurements(args.measurements)
    m = configio.dual_margin(op, mset)
    _print(
        {
            "min_overlap": m.min_overlap,
            "max_overlap": m.max_overlap,
            "margin": m.margin,
            "in_dual": m.in_dual(),
            "strictly_interior": m.strictly_interior,
            "worst_element": list(m.worst_element),
        }
    )
    return EXIT_OK


def cmd_lattice_gen(args) -> int:
    lat = configio.parse_lattice(args.name)
    _write_lattice(args.out, lat)
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
        # written back into the instance file as it was read
        config["site_map"]["kraus"] = configio._load_json(args.kraus, object_hook=None)
    return config


def cmd_peps_build(args) -> int:
    config = _build_config_from_args(args)
    configio.build_instance(config)
    _write_json(args.out, config)
    print(f"wrote instance config to {args.out}")
    return EXIT_OK


def cmd_peps_check(args) -> int:
    instance = configio.load_instance(args.instance)
    choi_min = min(choi_check(m) for m in instance.maps.values())
    report = decomposition.rv_positivity_check(instance)
    out = {"choi_min_eigenvalue": choi_min, **report.to_json()}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    if not report.passed:
        return EXIT_POSITIVITY
    return EXIT_OK


def cmd_peps_epsilon_max(args) -> int:
    make = configio.instance_factory(configio._load_json(args.instance))
    lo, hi = decomposition.max_epsilon_search(make, args.eps_hi)
    out = {"eps_pass": lo, "eps_fail": None if hi == float("inf") else hi}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    return EXIT_OK


def cmd_sample(args) -> int:
    # imported here, as in cmd_verify and cmd_bench: peps check and
    # peps epsilon-max load neither the sampler nor the oracle
    from pepslhv import sampling

    instance = configio.load_instance(args.instance)
    plan = configio.parse_plan(args.plan, instance)
    batches = sampling.iter_shots(
        instance,
        plan,
        args.shots,
        args.seed,
        emit_hidden=args.emit_hidden,
        workers=args.workers,
    )
    # the batches read only the sampler's tables: drop the instance and the
    # plan's POVMs before the first shot is drawn
    del instance, plan
    with open(args.out, "w") as fh:
        for batch in batches:
            batch.write_jsonl(fh)
    print(f"wrote {args.shots} shots to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from pepslhv import oracle

    if not 0 < args.confidence_k < float("inf"):
        raise UsageError(f"--confidence-k must be finite and > 0, got {args.confidence_k}")
    if args.mode == "shots" and args.shots < oracle.MIN_FREQUENCY_SHOTS:
        raise UsageError(f"need at least {oracle.MIN_FREQUENCY_SHOTS} shots, got {args.shots}")
    if args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    instance = configio.load_instance(args.instance)
    plan = configio.parse_plan(args.plan, instance)
    exact = oracle.born_joint_for_instance(instance, plan)
    if args.mode == "mixture":
        mix = oracle.mixture_joint_distribution(instance, plan)
        tv = oracle.tv_distance(mix, exact)
        tv_max = oracle.MIXTURE_TV_MAX
        out = {"mode": "mixture", "tv": tv, "threshold": tv_max, "pass": tv <= tv_max}
    else:
        from pepslhv import sampling

        batches = sampling.iter_shots(instance, plan, args.shots, args.seed, workers=args.workers)
        report = oracle.frequency_test(batches, exact, confidence_k=args.confidence_k)
        out = {"mode": "shots", **report.to_json()}
    if args.out:
        _write_json(args.out, out)
    _print(out)
    return EXIT_OK if out["pass"] else EXIT_POSITIVITY


def _bench_env() -> dict:
    """The machine and versions a bench record was measured with."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class _CharCount:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def cmd_bench(args) -> int:
    from pepslhv import sampling

    config = configio._load_json(args.instance)
    rows = []
    for spec in (x.strip() for x in args.sites.split(",")):
        spec = f"cycle:{spec}" if spec.isdigit() else spec
        instance = configio.build_instance(dict(config, lattice=spec))
        plan = configio.parse_plan(args.plan, instance)
        # iter_shots builds the tables before it returns: that is the set-up;
        # each batch is then written as it arrives, the time waiting for the
        # next batch is the kernel's, the time in write_jsonl the serializer's
        sink = _CharCount()
        seconds = serialize_s = 0.0
        start = time.perf_counter()
        batches = sampling.iter_shots(instance, plan, args.shots, args.seed, workers=args.workers)
        t0 = time.perf_counter()
        setup_s = t0 - start
        for batch in batches:
            t1 = time.perf_counter()
            batch.write_jsonl(sink)
            t2 = time.perf_counter()
            seconds += t1 - t0
            serialize_s += t2 - t1
            t0 = t2
        n_sites = instance.lattice.n_sites
        rows.append(
            {
                "lattice": spec,
                "sites": n_sites,
                "shots": args.shots,
                "setup_s": setup_s,
                "seconds": seconds,
                "site_outcomes_per_s": args.shots * n_sites / seconds,
                "serialize_s": serialize_s,
                "output_bytes": sink.chars,
            }
        )
    out = {"env": _bench_env(), "timings": rows}
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
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    vf = sub.add_parser("verify", help="compare against the brute-force oracle")
    vf.add_argument("instance")
    vf.add_argument("--plan", required=True)
    vf.add_argument("--mode", choices=["mixture", "shots"], default="mixture")
    vf.add_argument("--shots", type=int, default=100_000)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--confidence-k", type=float, default=4.0)
    vf.add_argument("--workers", type=int, default=1)
    vf.add_argument("--out")
    vf.set_defaults(func=cmd_verify)

    bn = sub.add_parser("bench", help="sampling throughput across lattice sizes")
    bn.add_argument("instance")
    bn.add_argument(
        "--sites", required=True, help="comma-separated lattice specs; a bare N means cycle:N"
    )
    bn.add_argument("--plan", required=True)
    bn.add_argument("--shots", type=int, default=10_000)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--workers", type=int, default=1)
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
    except (UsageError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    # hashlib then takes CPython's own sha256, to the same digests, instead
    # of mapping OpenSSL's libcrypto (+3 MB RSS); main() alone leaves the
    # interpreter's hashlib as it is
    sys.modules.setdefault("_hashlib", None)
    code = main()
    # no object left at exit holds anything a collection must release, so
    # frozen objects spare the interpreter's final GC pass over the heap
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
