#!/usr/bin/env python3
"""Alternating A/B runs of perfbench workloads on two source trees.

Each tree is a checkout of the repository with its own `src/` and
`perfbench/`, made beforehand, for example:

    git worktree add ../parent HEAD~1    # or: git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/ab.py --parent ../parent --change . --workload torus30x30 \\
        --pairs 5 --seconds 10 --seed 301 --out BENCH_x.json

Pair i of a workload runs `perfbench/run.py --workload W --seed S+i
--seconds T --trace 0` once on each tree, with the same seed on both sides;
the parent goes first in even pairs and the change in odd ones.  The record
holds the machine, both commits (when a tree is a git checkout), the
command, and per workload every pair's values, per metric the medians,
quartiles and the number of pairs in which the change was lower (every
recorded metric is better lower), and any run that was not `correct`.
After each workload it prints one line per metric to stderr: both
medians, their ratio, and the pairs in which the change was lower.  It
exits 3 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def commit_of(tree: Path):
    """Short HEAD commit of a git checkout (dirty trees marked), else None."""
    if not (tree / ".git").exists():
        return None
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def run_side(tree: Path, argv: list) -> dict:
    """One perfbench run in tree: its result line, detail report and environment."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    workload, seed = argv[argv.index("--workload") + 1], argv[argv.index("--seed") + 1]
    detail_path = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    detail = json.loads(detail_path.read_text()) if detail_path.is_file() else {}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # each command's median wall time and peak RSS, beside the role sums
    for name, m in detail.get("report", {}).items():
        if name.startswith("cmd.") and m["unit"] in ("s", "MB"):
            values[name] = m["value"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values,
            "environment": detail.get("environment")}


def summary(pairs: list) -> dict:
    """Per metric: medians and quartiles of each side, and the pairs the change won."""
    names = [n for n in pairs[0]["values"] if all(n in p["values"] for p in pairs)]
    out = {}
    for name in names:
        sides = {s: [p["values"][name][s] for p in pairs] for s in SIDES}
        out[name] = {
            **{f"median_{s}": statistics.median(v) for s, v in sides.items()},
            **{f"quartiles_{s}": quartiles(v) for s, v in sides.items()},
            "change_lower": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
            "pairs": len(pairs),
        }
    return out


def summary_line(m: dict) -> str:
    """Both medians of a metric's summary, their ratio, and the pairs the change was lower in."""
    parent, change = m["median_parent"], m["median_change"]
    ratio = f"{change / parent:.3f}" if parent else "n/a"
    return (f"median parent {parent:.6g} change {change:.6g}, ratio {ratio}, "
            f"change lower in {m['change_lower']}/{m['pairs']} pairs")


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a perfbench workload; repeat for several, run one after another")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--what", default="", help="what the change is, for the record")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src").is_dir():
            print(f"error: {side} tree {tree} has no perfbench/run.py and src/", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 2

    machine, workloads = None, {}
    for workload in args.workload:
        pairs, not_correct = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            run_argv = ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", "0"]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {}
            for side in order:
                runs[side] = run_side(trees[side], run_argv)
                machine = machine or runs[side].get("environment")
                if not runs[side]["correct"]:
                    not_correct.append({"pair": i, "side": side, "seed": seed,
                                        **{k: v for k, v in runs[side].items()
                                           if k not in ("values", "environment")}})
            if all("values" in r for r in runs.values()):
                names = [n for n in runs["parent"]["values"] if n in runs["change"]["values"]]
                pairs.append({"seed": seed, "first": order[0],
                              "values": {n: {s: runs[s]["values"][n] for s in SIDES} for n in names}})
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{s} {'correct' if runs[s]['correct'] else 'NOT correct'}" for s in SIDES),
                file=sys.stderr)
        workloads[workload] = {"pairs": pairs, "summary": summary(pairs) if pairs else {},
                               "not_correct": not_correct}
        for name, m in workloads[workload]["summary"].items():
            print(f"{workload} {name}: " + summary_line(m), file=sys.stderr)

    record = {
        "what": args.what,
        "machine": machine,
        "commits": {s: commit_of(trees[s]) for s in SIDES},
        "command": f"python3 perfbench/run.py --workload W --seed SEED --seconds {args.seconds} --trace 0",
        "protocol": (f"{args.pairs} pairs per workload, seeds {args.seed}..{args.seed + args.pairs - 1}; "
                     "both sides of a pair use the same seed; the parent runs first in even pairs"),
        "better": "lower",
        "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 3 if any(w["not_correct"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
