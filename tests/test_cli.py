import json

import numpy as np
import pytest

from pepslhv import cli, linalg


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = run(
        "peps", "build",
        "--lattice", "cycle:3",
        "--basis", "aligned:2:zero",
        "--measurements", "noisy-pauli:2:0.5",
        "--recipe", "2",
        "--psi", "plus-diag:2",
        "--epsilon", "0.2",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestBasisCommands:
    def test_gen_and_verify_aligned(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run("basis", "gen", "--D", "2", "--anchor", "plus-diag", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert len(obj["elements"]) == 4
        capsys.readouterr()
        assert run("basis", "verify", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reconstruction_error"] <= 1e-12
        assert report["anchor_min_overlap"] == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_gen_phase_point(self, tmp_path):
        out = tmp_path / "pp.json"
        assert run("basis", "gen", "--phase-point", "--out", str(out)) == 0
        assert run("basis", "verify", str(out)) == 0

    def test_corrupted_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("basis", "verify", str(bad)) == 2

    def test_missing_file_exit_1(self, tmp_path):
        assert run("basis", "verify", str(tmp_path / "nope.json")) == 1


class TestDualCommand:
    def test_margin_report(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(linalg.matrix_to_json(np.eye(2) / 2)))
        assert run("dual", "margin", "--operator", str(op), "--measurements", "pauli:1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["margin"] == pytest.approx(0.5, abs=1e-12)
        assert report["strictly_interior"] is True


class TestLatticeCommand:
    def test_gen(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run("lattice", "gen", "--name", "torus:3x3", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["n_sites"] == 9
        assert len(obj["edges"]) == 18


class TestPepsCommands:
    def test_check_passes(self, instance_file, capsys):
        assert run("peps", "check", str(instance_file)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["slack"] > 0
        assert report["choi_min_eigenvalue"] >= -1e-9

    def test_check_above_threshold_exit_3(self, tmp_path):
        path = tmp_path / "hot.json"
        assert run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "pauli:2",
            "--recipe", "2",
            "--psi", "plus-diag:2",
            "--epsilon", "0.0",
            "--out", str(path),
        ) == 0
        cfg = json.loads(path.read_text())
        cfg["site_map"]["epsilon"] = 0.2  # above the pinned threshold
        path.write_text(json.dumps(cfg))
        assert run("peps", "check", str(path)) == 3

    def test_epsilon_max(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "pauli:2",
            "--recipe", "2",
            "--psi", "plus-diag:2",
            "--out", str(path),
        ) == 0
        capsys.readouterr()
        assert run("peps", "epsilon-max", str(path), "--eps-hi", "0.5") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eps_fail"] is not None
        assert 0 < report["eps_pass"] < report["eps_fail"]
        assert report["eps_fail"] - report["eps_pass"] <= 1e-4

    def test_non_strict_psi_exit_2(self, tmp_path):
        code = run(
            "peps", "build",
            "--lattice", "chain:2",
            "--basis", "aligned:2:zero",
            "--measurements", "pauli:1",
            "--recipe", "2",
            "--psi", "zero:2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_degree_constraint_exit_2(self, tmp_path):
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:1:0.5",  # d=2 < 2^v=4
            "--recipe", "2",
            "--psi", "plus-diag:1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_malformed_psi_exit_2(self, tmp_path, capsys):
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "2",
            "--psi", "zero:abc",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_custom_recipe_without_kraus_exit_2(self, tmp_path, capsys):
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "custom",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestSampleAndVerify:
    def test_sample_deterministic_jsonl(self, instance_file, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            code = run(
                "sample", str(instance_file),
                "--plan", "all:ZZ~0.5",
                "--shots", "500",
                "--seed", "42",
                "--emit-hidden",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        first = json.loads(a.read_text().splitlines()[0])
        assert set(first) == {"shot", "outcomes", "hidden"}

    def test_verify_mixture(self, instance_file, capsys):
        assert run("verify", str(instance_file), "--plan", "all:XY~0.5") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["tv"] <= 1e-10

    def test_verify_shots(self, instance_file, tmp_path):
        out = tmp_path / "rep.json"
        code = run(
            "verify", str(instance_file),
            "--plan", "all:ZZ~0.5",
            "--mode", "shots",
            "--shots", "20000",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    def test_non_factorizable_exit_4(self, instance_file, tmp_path):
        kraus_file = tmp_path / "k.json"
        kraus_file.write_text(
            json.dumps(linalg.matrix_to_json(np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)))
        )
        inst = tmp_path / "nf.json"
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "custom",
            "--kraus", str(kraus_file),
            "--out", str(inst),
        )
        assert code == 0
        code = run(
            "sample", str(inst),
            "--plan", "all:ZZ~0.5",
            "--shots", "10",
            "--out", str(tmp_path / "s.jsonl"),
        )
        assert code == 4


class TestBench:
    def test_timing_table(self, instance_file, tmp_path):
        out = tmp_path / "bench.json"
        code = run(
            "bench", str(instance_file),
            "--sites", "10,20",
            "--plan", "all:ZZ~0.5",
            "--shots", "200",
            "--out", str(out),
        )
        assert code == 0
        rows = json.loads(out.read_text())["timings"]
        assert [r["sites"] for r in rows] == [10, 20]
        assert all(r["seconds"] > 0 for r in rows)
