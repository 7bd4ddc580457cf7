#!/usr/bin/env python3
"""Benchmark of the pepslhv command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ring400-hidden --seed 1 --seconds 30 --trace 0

--trace 0 times untraced `python -m pepslhv.cli ...` child processes for
--seconds seconds and reports the end-to-end metrics.  --trace 1 times one
untraced pass of the same commands, replays each of them in this process
with a span around every call into a module, and reports the per-layer
metrics.  Every output is checked; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# Fixed environment for this process and every child, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RSEP_WORKERS", None)

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CHILD_TIMEOUT_S = 150.0
SETUP_REPS = 3
STARTUP_REPS = 5
STARTUP_ARGV = ["-c", "import pepslhv.cli"]
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
# `peps epsilon-max --eps-hi 1.0` on torus3x3, recorded at the seed commit
EPS_BRACKET = (0.169921875, 0.16998291015625)


def _instance(lattice: str, qubits: int, epsilon: float) -> dict:
    # the file `pepslhv peps build` writes for these flags
    return {
        "basis": "aligned:2:zero",
        "lattice": lattice,
        "measurements": f"noisy-pauli:{qubits}:0.5",
        "psi": f"plus-diag:{qubits}",
        "site_map": {"epsilon": epsilon, "recipe": "2", "seed": 0},
    }


INSTANCES = {
    "cycle400": _instance("cycle:400", 2, 0.2),
    "torus30x30": _instance("torus:30x30", 4, 0.1),
    "cycle6": _instance("cycle:6", 2, 0.2),
    "torus3x3": _instance("torus:3x3", 4, 0.1),
}


@dataclass(frozen=True)
class Workload:
    instance: str  # sampled by the set-up, sample and verify commands
    check_instance: str  # given to peps check and peps epsilon-max
    plan: str
    work: tuple  # the commands timed into work_s
    shots: int  # for sample, or for verify --mode shots
    hidden: bool = False
    golden: str = ""  # sha256 of the sample output at seed 0


WORKLOADS = {
    # Shot counts are sized so that each timed command runs several times in
    # one run.  Shots are deterministic per index, so these outputs are the
    # first 5000 / 4000 lines of the 20000 / 10000-shot outputs whose sha256
    # are 872ac7ee... and 6af2800b... at seed 0.
    "ring400-hidden": Workload(
        "cycle400", "cycle400", "all:ZZ~0.5", ("sample",), 5_000, hidden=True,
        golden="85bd41a7801bbeffe994882b9e17b23a46e96a1930f7c463c8e4c26f024dd6b9",
    ),
    "torus30x30": Workload(
        "torus30x30", "torus30x30", "all:ZZZZ~0.5", ("sample",), 4_000,
        golden="25a49df065d0a077e06b4fe7524aa677b83830e88d3a324ebaa25ad5f237cee1",
    ),
    "desk-oracle": Workload(
        "cycle6", "torus3x3", "all:ZZ~0.5",
        ("verify_mixture", "verify_shots", "epsilon_max"), 200_000,
    ),
}

def command_argv(name: str, w: Workload, seed: int) -> list:
    inst = str(OUT / f"{w.instance}.json")
    checked = str(OUT / f"{w.check_instance}.json")
    seeded = ["--seed", str(seed), "--workers", "1"]
    if name == "setup":
        return ["sample", inst, "--plan", w.plan, "--shots", "0", *seeded,
                "--out", str(OUT / "setup.jsonl")]
    if name == "sample":
        return ["sample", inst, "--plan", w.plan, "--shots", str(w.shots), *seeded,
                *(["--emit-hidden"] if w.hidden else []), "--out", str(OUT / "sample.jsonl")]
    if name == "check":
        return ["peps", "check", checked]
    if name == "verify_mixture":
        return ["verify", inst, "--plan", w.plan, "--mode", "mixture", "--workers", "1"]
    if name == "verify_shots":
        return ["verify", inst, "--plan", w.plan, "--mode", "shots",
                "--shots", str(w.shots), *seeded]
    if name == "epsilon_max":
        return ["peps", "epsilon-max", checked, "--eps-hi", "1.0"]
    raise ValueError(name)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Invocation:
    name: str
    seconds: float
    rss_kb: int
    returncode: int
    ok: bool = False
    sha256: str = ""


def run_child(name: str, argv: list) -> Invocation:
    """Run one child, timing it and reading its own peak RSS with wait4."""
    stdout_path = OUT / f"{name}.stdout"
    with open(stdout_path, "wb") as out, open(OUT / f"{name}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(name, seconds, usage.ru_maxrss, proc.returncode)
    if inv.returncode == 0:
        judge_child(inv, stdout_path)
    return inv


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _stdout_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError:
        return {}


def judge_child(inv: Invocation, stdout_path) -> None:
    """Set inv.ok from the child's output; sample digests are judged later."""
    if inv.name == "startup":
        inv.ok = True
    elif inv.name == "setup":
        inv.ok = file_sha256(OUT / "setup.jsonl") == EMPTY_SHA256
    elif inv.name == "sample":
        inv.sha256 = file_sha256(OUT / "sample.jsonl")
    elif inv.name == "check":
        out = _stdout_json(stdout_path)
        inv.ok = out.get("passed") is True and out.get("choi_min_eigenvalue", -1.0) >= -1e-9
    elif inv.name in ("verify_mixture", "verify_shots"):
        inv.ok = _stdout_json(stdout_path).get("pass") is True
    elif inv.name == "epsilon_max":
        out = _stdout_json(stdout_path)
        inv.ok = _bracket_ok((out.get("eps_pass"), out.get("eps_fail")))


def measure(commands: list, argv_of, seconds: float, fill: bool) -> list:
    """Run each command once (set-up SETUP_REPS times).

    With fill, keep running commands until none fits before the deadline,
    each time the one with the fewest runs so far (on a tie, the shorter),
    so that every command gets several samples spread over the run.
    """
    deadline = time.perf_counter() + seconds
    runs = []
    for name in commands:
        for _ in range(SETUP_REPS if name == "setup" else 1):
            runs.append(run_child(name, argv_of(name)))
    while fill:
        times = {n: [r.seconds for r in runs if r.name == n] for n in commands}
        now = time.perf_counter()
        fits = [n for n in commands if now + statistics.median(times[n]) <= deadline]
        if not fits:
            break
        name = min(fits, key=lambda n: (len(times[n]), statistics.median(times[n])))
        runs.append(run_child(name, argv_of(name)))
    return runs


def medians(runs: list) -> dict:
    names = dict.fromkeys(r.name for r in runs)
    return {n: statistics.median(r.seconds for r in runs if r.name == n) for n in names}


def role_seconds(per_command: dict, commands: list) -> dict:
    """Sum per-command figures into the setup, check and work roles."""
    out = {"setup": 0.0, "check": 0.0, "work": 0.0}
    for name in commands:
        out[name if name in ("setup", "check") else "work"] += per_command[name]
    return out


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def replay(name: str, w: Workload, seed: int, tr) -> dict:
    """Replay one command in this process; returns what its check needs.

    An exception is recorded as the result, which then fails its check.
    """
    try:
        return _replay(name, w, seed, tr)
    except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def _replay(name: str, w: Workload, seed: int, tr) -> dict:
    import inproc

    inst = OUT / f"{w.instance}.json"
    checked = OUT / f"{w.check_instance}.json"
    if name in ("setup", "sample"):
        out = OUT / f"{name}-replay.jsonl"
        shots, hidden = (0, False) if name == "setup" else (w.shots, w.hidden)
        result = inproc.replay_sample(tr, name, inst, w.plan, shots, seed, hidden, out)
        return {**result, "sha256": file_sha256(out)}
    if name == "check":
        return inproc.replay_check(tr, checked)
    if name == "verify_mixture":
        return inproc.replay_verify_mixture(tr, inst, w.plan)
    if name == "verify_shots":
        return inproc.replay_verify_shots(tr, inst, w.plan, w.shots, seed)
    if name == "epsilon_max":
        return inproc.replay_epsilon_max(tr, checked)
    raise ValueError(name)


def replay_ok(name: str, result: dict, expected_sha: str, marginal_ok: bool) -> bool:
    if "error" in result:
        return False
    if name == "setup":
        return result["sha256"] == EMPTY_SHA256
    if name == "sample":
        return result["sha256"] == expected_sha and marginal_ok
    if name == "epsilon_max":
        return _bracket_ok(result["bracket"])
    return bool(result["ok"])


def per_layer(tr, startup_s: float, walls: dict, replays: dict) -> tuple:
    """Per-layer metrics from one traced pass, each a total over the pass.

    Returns (metrics listed in BENCHMARK.json, extra numbers for the report).
    """
    tables = tr.total("sampling.tables")
    n_runs = tr.count("sampling.run_shots")
    kernel = tr.total("sampling.run_shots") - n_runs * tables
    site_outcomes = sum(r.get("site_outcomes", 0) for r in replays.values())
    residual = {n: walls[n] - startup_s - tr.total(f"cmd.{n}") for n in replays}
    by_role = role_seconds(residual, list(replays))
    metrics = {
        "cli.startup_s": metric(startup_s, "s"),
        "cli.residual.setup_s": metric(by_role["setup"], "s"),
        "cli.residual.check_s": metric(by_role["check"], "s"),
        "cli.residual.work_s": metric(by_role["work"], "s"),
        "configio.load_instance_s": metric(tr.total("configio.load_instance"), "s"),
        "lattice.incidence_s": metric(tr.total("lattice.incidence"), "s"),
        "construction.choi_check_s": metric(tr.total("construction.choi_check"), "s"),
        "decomposition.certify_s": metric(tr.total("decomposition.certify"), "s"),
        "decomposition.edge_distribution_s": metric(
            tr.total("decomposition.edge_distribution"), "s"),
        "decomposition.epsilon_probes": metric(
            replays.get("epsilon_max", {}).get("probes", 0), "count"),
        "sampling.tables_s": metric(tables, "s"),
        "sampling.rng_s": metric(tr.total("sampling.rng"), "s"),
        "sampling.kernel_s": metric(kernel, "s"),
        "sampling.site_outcomes_per_s": metric(site_outcomes / kernel if kernel > 0 else 0.0, "1/s"),
        "sampling.serialize_s": metric(tr.total("sampling.serialize"), "s"),
        "sampling.output_bytes": metric(sum(r.get("bytes", 0) for r in replays.values()), "bytes"),
    }
    # oracle layers run on desk-oracle only, so they are reported, not listed
    extra = {f"{name}_s": metric(tr.total(name), "s") for name in (
        "construction.assemble_exact_state", "oracle.born_joint",
        "oracle.mixture_joint", "oracle.frequency_test") if tr.count(name)}
    extra.update({f"cli.residual.{n}_s": metric(v, "s") for n, v in residual.items()})
    return metrics, extra


def _bracket_ok(got) -> bool:
    return all(isinstance(g, float) and math.isclose(g, e, rel_tol=1e-12)
               for g, e in zip(got, EPS_BRACKET))


def print_report(title: str, rows: dict) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:38s} {value['value']:>16.6g} {value['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pepslhv" / "cli.py").is_file():
        print(f"error: no pepslhv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inproc

    w = WORKLOADS[args.workload]
    commands = ["setup", "check", *w.work]
    OUT.mkdir(exist_ok=True)
    for name, config in INSTANCES.items():
        (OUT / f"{name}.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    def cli(name):
        return ["-m", "pepslhv.cli", *command_argv(name, w, args.seed)]

    # the first child compiles bytecode; it is run and checked but not timed
    runs = [run_child("startup", STARTUP_ARGV)]
    if args.trace:
        runs += [run_child("startup", STARTUP_ARGV) for _ in range(STARTUP_REPS)]
        startup_s = statistics.median(r.seconds for r in runs[1:])
    timed = measure(commands, cli, args.seconds, fill=not args.trace)
    runs += timed
    walls = medians(timed)

    tr = inproc.Tracer()
    if args.trace:
        inproc.probe_incidence(tr, sorted({OUT / f"{w.instance}.json", OUT / f"{w.check_instance}.json"}))
        inproc.probe_rng(tr, OUT / f"{w.instance}.json", w.shots, args.seed)
        replays = {name: replay(name, w, args.seed, tr) for name in commands}
    else:
        # the reference bytes every timed sample output must equal
        replays = {"sample": replay("sample", w, args.seed, tr)} if "sample" in commands else {}

    report = {}
    marginal_ok = True
    expected_sha = ""
    if "sha256" in replays.get("sample", {}):
        expected_sha = w.golden if args.seed == 0 else replays["sample"]["sha256"]
        try:
            marginal = inproc.site_marginal_check(OUT / f"{w.instance}.json", w.plan,
                                                  OUT / "sample-replay.jsonl")
        except Exception as exc:  # noqa: BLE001 - malformed output fails the check
            marginal = {"ok": False, "worst_site_tv": math.inf, "error": repr(exc)}
        marginal_ok = marginal["ok"]
        report["sample.marginal_worst_site_tv"] = metric(marginal["worst_site_tv"], "1")
        report["sample.edge_T"] = metric(replays["sample"]["edge_T"], "1")
        for r in runs:
            if r.name == "sample" and r.returncode == 0:
                r.ok = r.sha256 == expected_sha and marginal_ok
    replay_checks = {n: replay_ok(n, res, expected_sha, marginal_ok) for n, res in replays.items()}

    attempted = len(runs) + len(replay_checks)
    failed = sum(not r.ok for r in runs) + sum(not ok for ok in replay_checks.values())

    if args.trace:
        metrics, extra = per_layer(tr, startup_s, walls, replays)
    else:
        roles = role_seconds(walls, commands)
        metrics = {
            "setup_s": metric(roles["setup"], "s"),
            "check_s": metric(roles["check"], "s"),
            "work_s": metric(roles["work"], "s"),
            "peak_rss_mb": metric(max(r.rss_kb for r in runs) / 1024.0, "MB"),
        }
        extra = {}
        for n in commands:
            extra[f"cmd.{n}_s"] = metric(walls[n], "s")
            extra[f"cmd.{n}.runs"] = metric(sum(r.name == n for r in timed), "count")
            extra[f"cmd.{n}.peak_rss_mb"] = metric(
                max(r.rss_kb for r in timed if r.name == n) / 1024.0, "MB")
    report.update(extra)
    report["failed_frac"] = metric(failed / attempted, "1")
    env = environment()

    print_report(f"workload {args.workload} seed {args.seed} trace {args.trace} "
                 f"({env['nproc']} CPUs, {env['cpu']}, Python {env['python']}, "
                 f"numpy {env['numpy']})", {**metrics, **report})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "report": report,
        "replay_checks": replay_checks,
        "invocations": [r.__dict__ for r in runs], "spans": tr.to_json(),
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for path in OUT.glob("*.jsonl"):
        path.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
