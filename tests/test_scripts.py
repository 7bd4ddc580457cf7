"""Smoke tests: the experiment scripts run end to end and print their findings."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_bell_identity_demo():
    lines = run_script("bell_identity_demo.py", "--shots", "2000").stdout.splitlines()
    assert lines[0] == "head-tail pair : admissible=True values in [+0.000, +1.000]"
    assert lines[1] == "head-head pair : admissible=False worst value -0.500 at tuple (0, 0)"
    match = re.fullmatch(
        r"sampler vs oracle: TV = (\S+) \(bound (\S+)\) over 64 joint outcomes, 2000 shots",
        lines[2],
    )
    assert match and float(match[1]) <= float(match[2])


def test_ab_record(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for side in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / side / part, ignore=ignore)
    out = tmp_path / "BENCH_test.json"
    proc = run_script("ab.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "ring400-hidden", "--pairs", "1", "--seconds", "0", "--seed", "5",
                      "--out", str(out))
    record = json.loads(out.read_text())
    assert set(record) == {"what", "machine", "commits", "command", "protocol", "better",
                           "written", "workloads"}
    assert record["commits"] == {"parent": None, "change": None}  # copies, not git checkouts
    assert set(record["machine"]) >= {"nproc", "cpu", "python", "numpy"}
    ring = record["workloads"]["ring400-hidden"]
    assert ring["not_correct"] == []
    (pair,) = ring["pairs"]
    assert (pair["seed"], pair["first"]) == (5, "parent")
    for name in ("setup_s", "check_s", "work_s", "peak_rss_mb"):
        assert set(pair["values"][name]) == {"parent", "change"}
        assert set(ring["summary"][name]) == {
            "median_parent", "median_change", "quartiles_parent", "quartiles_change",
            "change_lower", "pairs",
        }
        assert ring["summary"][name]["pairs"] == 1
    # one stderr line per recorded metric: both medians, their ratio, and the pairs won
    lines = [l for l in proc.stderr.splitlines() if l.startswith("ring400-hidden ") and "median" in l]
    assert [l.split(":")[0] for l in lines] == [f"ring400-hidden {n}" for n in ring["summary"]]
    for line, (name, m) in zip(lines, ring["summary"].items()):
        assert re.fullmatch(
            r"ring400-hidden \S+: median parent \S+ change \S+, ratio (\S+), change lower in (\d)/1 pairs",
            line,
        ), line
        assert line.endswith(f"change lower in {m['change_lower']}/1 pairs")
