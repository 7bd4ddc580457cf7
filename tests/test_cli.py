import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import basis as basis_mod
from pepslhv import cli, configio, construction, linalg, measurements, oracle, sampling
from pepslhv.errors import DegenerateNormError, UsageError

from conftest import recipe2_config, run_capped
from reference import lattice_to_json


SRC = Path(__file__).resolve().parent.parent / "src"
TORUS3X3_CHECK_SHA256 = "49c6d974c4beb933e2be120de596743030531550796fcea2871a2cfa19c603f1"


def run(*argv):
    return cli.main(list(argv))


def check_digest(stdout: str) -> str:
    """sha256 of a `peps check` report without its choi_min_eigenvalue, which must be 0.0."""
    report = json.loads(stdout)
    assert report.pop("choi_min_eigenvalue") == 0.0
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


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

    # each raised a ValueError that is not a JSONDecodeError: a traceback, exit 1
    @pytest.mark.parametrize(
        "content", [b'{"D": 1' + b"0" * 5000 + b"}", b'{"D": "\xff"}'], ids=["5001-digit", "not-utf8"]
    )
    def test_unreadable_json_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run("basis", "verify", str(bad)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert run("basis", "verify", str(tmp_path / "nope.json")) == 1

    # built, a basis of D = 10^11 or 5000 asks for 1.46 TiB or 381 MiB: more
    # than the entry budget, so it is refused before any array
    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "gen", "--D", "100000000000", "--anchor", "zero"],
            ["basis", "gen", "--D", "5000", "--anchor", "zero"],
            ["peps", "build", "--lattice", "cycle:3", "--basis", "aligned:100000000000:zero",
             "--measurements", "noisy-pauli:2:0.5", "--recipe", "2", "--psi", "plus-diag:2"],
        ],
        ids=["gen-1e11", "gen-5000", "peps-build-1e11"],
    )
    def test_basis_dimension_too_large_exit_2(self, tmp_path, argv):
        out = tmp_path / "out.json"
        proc = run_capped("-m", "pepslhv.cli", *argv, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and "entries, more than" in proc.stderr
        assert not out.exists()


    # D < 2 is refused by name before the anchor is parsed
    @pytest.mark.parametrize(
        "D, argv",
        [(D, ["basis", "gen", "--D", D, "--anchor", "zero"]) for D in ("-2", "0", "1")]
        + [("-2", ["peps", "build", "--lattice", "cycle:3", "--basis", "aligned:-2:zero",
                   "--measurements", "noisy-pauli:2:0.5", "--recipe", "2", "--psi", "plus-diag:2"])],
        ids=["gen-minus-2", "gen-0", "gen-1", "peps-build-minus-2"],
    )
    def test_bond_dimension_below_2_exit_2(self, tmp_path, capsys, D, argv):
        out = tmp_path / "out.json"
        assert run(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bond dimension must be >= 2, got {D}\n"
        assert not out.exists()


class TestStateSpecs:
    @pytest.mark.parametrize("spec", ["zero:7:7", "uniform:2:2", "plus-diag:2:9"])
    def test_extra_parts_refused(self, spec):
        with pytest.raises(UsageError, match="bad state spec"):
            configio.parse_state(spec, dim=4)

    def test_extra_parts_exit_2(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run("basis", "gen", "--D", "2", "--anchor", "zero:7:7", "--out", str(out)) == 2
        assert "bad state spec" in capsys.readouterr().err
        assert not out.exists()

    # a name sized other than its dimension: built, 10^11 and 2^40 entries
    # exhaust memory, and zero:0 was read as the 2-dimensional zero
    @pytest.mark.parametrize("anchor", ["uniform:100000000000", "plus-diag:40", "zero:0"])
    def test_argument_disagreeing_with_dimension_exit_2(self, tmp_path, anchor):
        out = tmp_path / "b.json"
        argv = ["basis", "gen", "--D", "2", "--anchor", anchor, "--out", str(out)]
        proc = run_capped("-m", "pepslhv.cli", *argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: state '{anchor}' does not have dimension 2\n"
        assert not out.exists()

    def test_psi_disagreeing_with_dimension_exit_2(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = run_capped(
            "-m", "pepslhv.cli", "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:40",
            "--out", str(out),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: state 'plus-diag:40' does not have dimension 4\n"
        assert not out.exists()

    # a 2-dimensional psi against pauli:2 (d = 4) exited 2 only later, from dual_margin
    @pytest.mark.parametrize("form", ["literal", "file"])
    def test_literal_of_another_dimension_exit_2(self, tmp_path, capsys, form):
        literal = linalg.state_to_json(np.eye(2, dtype=complex)[0])
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(literal))
        spec = literal if form == "literal" else f"@{path}"
        with pytest.raises(UsageError, match="^state literal has dimension 2, not 4$"):
            configio.parse_state(spec, dim=4)
        out = tmp_path / "inst.json"
        code = run(
            "peps", "build", "--lattice", "cycle:3", "--basis", "aligned:2:zero",
            "--measurements", "pauli:2", "--recipe", "2", "--psi", f"@{path}", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: state literal has dimension 2, not 4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, dim", [("plus-diag", 6), ("plus-diag", 1), ("zero", 0), ("uniform:-1", 2)]
    )
    def test_no_state_of_that_dimension(self, spec, dim):
        with pytest.raises(UsageError, match="dimension"):
            configio.parse_state(spec, dim)


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

    @pytest.mark.parametrize("chunk", [1, 2, 5, cli._LATTICE_CHUNK])
    @pytest.mark.parametrize("name", ["chain:2", "chain:5", "cycle:3", "cycle:8", "torus:3x4"])
    def test_gen_bytes_are_json_dumps(self, tmp_path, monkeypatch, name, chunk):
        # streamed chunk by chunk from the edge array, byte for byte what
        # json.dumps writes from lists of every edge
        monkeypatch.setattr(cli, "_LATTICE_CHUNK", chunk)
        out = tmp_path / "lat.json"
        assert run("lattice", "gen", "--name", name, "--out", str(out)) == 0
        lat = configio.parse_lattice(name)
        expected = json.dumps(lattice_to_json(lat), indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("name", ["cycle:100000000000", "torus:1000000x1000000"])
    def test_huge_name_exit_2(self, tmp_path, name):
        out = tmp_path / "lat.json"
        proc = run_capped("-m", "pepslhv.cli", "lattice", "gen", "--name", name, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and "entries, more than" in proc.stderr
        assert not out.exists()


class TestPepsCommands:
    def test_path_specs_match_named_specs(self, tmp_path, capsys):
        named = {
            "lattice": "cycle:4",
            "basis": "aligned:2:zero",
            "measurements": "noisy-pauli:2:0.5",
            "psi": "plus-diag:2",
        }
        written = {
            "lattice": lattice_to_json(configio.parse_lattice(named["lattice"])),
            "basis": basis_mod.basis_to_json(configio.parse_basis(named["basis"])),
            "measurements": measurements.measurement_set_to_json(
                configio.parse_measurements(named["measurements"])
            ),
            "psi": linalg.state_to_json(configio.parse_state(named["psi"], 4)),
        }
        at_paths = {}
        for key, obj in written.items():
            path = (tmp_path / f"{key}.json").resolve()
            path.write_text(json.dumps(obj))
            at_paths[key] = f"@{path}"
        stdout = []
        for specs in (named, at_paths):
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(dict(specs, site_map={"recipe": 2, "epsilon": 0.2})))
            assert run("peps", "check", str(path)) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    def test_check_passes(self, instance_file, capsys):
        assert run("peps", "check", str(instance_file)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["slack"] > 0
        assert report["choi_min_eigenvalue"] >= -1e-9

    def test_check_torus3x3_stdout_bits(self, tmp_path, capsys):
        # sha256 of the report without choi_min_eigenvalue (check_digest
        # asserts it is 0.0): slacks, witness and min trace, to the last
        # digit; a one-thread run must give the same digest
        path = tmp_path / "torus3x3.json"
        assert run(
            "peps", "build",
            "--lattice", "torus:3x3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:4:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:4",
            "--epsilon", "0.1",
            "--out", str(path),
        ) == 0
        capsys.readouterr()
        assert run("peps", "check", str(path)) == 0
        assert check_digest(capsys.readouterr().out) == TORUS3X3_CHECK_SHA256
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pepslhv.cli", "peps", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert check_digest(proc.stdout) == TORUS3X3_CHECK_SHA256

    # one Kraus operator: a rank-one Choi matrix, whose least eigenvalue is 0
    @pytest.mark.parametrize(
        "site_map",
        [
            {"recipe": 1, "epsilon": 0.05, "seed": 3},
            {"recipe": 2, "epsilon": 0.2},
            {"recipe": "identity"},
            {"recipe": "custom", "kraus": linalg.matrix_to_json(np.eye(4) / 2)},
        ],
        ids=["recipe-1", "recipe-2", "identity", "custom"],
    )
    def test_check_reports_choi_zero(self, tmp_path, capsys, site_map):
        config = dict(CYCLE3_INSTANCE, site_map=site_map)
        if site_map["recipe"] == "identity":
            config.update(basis="phase-point", measurements="bell")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(config))
        assert run("peps", "check", str(path)) in (0, 3)
        assert json.loads(capsys.readouterr().out)["choi_min_eigenvalue"] == 0.0

    def test_in_process_main_freezes_nothing(self, instance_file, capsys):
        # only entry() freezes the heap before the interpreter exits
        assert gc.get_freeze_count() == 0
        assert run("peps", "check", str(instance_file)) == 0
        assert gc.get_freeze_count() == 0

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
        # the certificate's slack at epsilon = 0, the instance as built
        assert run("peps", "check", str(path)) == 0
        assert f"{json.loads(capsys.readouterr().out)['slack']:.6f}" == "0.044658"
        assert run("peps", "epsilon-max", str(path), "--eps-hi", "0.5") == 0
        report = json.loads(capsys.readouterr().out)
        # the bracket recorded before the instance factory existed
        assert report == {"eps_pass": 0.112060546875, "eps_fail": 0.11212158203125}

    def test_epsilon_max_torus3x3_bracket(self, tmp_path, capsys):
        # the benchmark's desk-oracle instance and command, with its printed bracket
        path = tmp_path / "torus3x3.json"
        path.write_text(json.dumps({
            "lattice": "torus:3x3",
            "basis": "aligned:2:zero",
            "measurements": "noisy-pauli:4:0.5",
            "psi": "plus-diag:4",
            "site_map": {"recipe": "2", "epsilon": 0.1, "seed": 0},
        }))
        assert run("peps", "epsilon-max", str(path), "--eps-hi", "1.0") == 0
        expected = {"eps_pass": 0.169921875, "eps_fail": 0.16998291015625}
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_epsilon_max_non_finite_output_exit_2(self, tmp_path, capsys):
        # the first coarse probe, epsilon = 1e100 / 16, gives Kraus entries near
        # 4e197, whose products overflow; no RuntimeWarning may escape
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(recipe2_config(measurements="pauli:2")))
        assert run("peps", "epsilon-max", str(path), "--eps-hi", "1e100") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: site 0: non-finite output operator"]

    @pytest.mark.parametrize(
        "argv", [["check"], ["epsilon-max", "--eps-hi", "0.5"]], ids=["check", "epsilon-max"]
    )
    def test_sampler_and_oracle_not_imported(self, instance_file, argv):
        # only the commands that draw shots or run an oracle import those modules
        code = (
            "import sys\n"
            "from pepslhv import cli\n"
            f"code = cli.main(['peps', {argv[0]!r}, {str(instance_file)!r}, *{argv[1:]!r}])\n"
            "print(code, [m for m in ('pepslhv.sampling', 'pepslhv.oracle') if m in sys.modules])\n"
        )
        proc = run_capped("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("eps_hi", ["inf", "nan"])
    def test_epsilon_max_non_finite_cap_exit_2(self, instance_file, capsys, monkeypatch, eps_hi):
        built = []
        factory = configio.instance_factory

        def spy(config):
            make = factory(config)
            return lambda eps: built.append(eps) or make(eps)

        monkeypatch.setattr(configio, "instance_factory", spy)
        capsys.readouterr()
        assert run("peps", "epsilon-max", str(instance_file), "--eps-hi", eps_hi) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "eps_hi" in err
        # refused before any probe: not even the epsilon = 0 instance is built
        assert built == []

    @pytest.mark.parametrize(
        "site_map",
        [
            {"recipe": 2, "seed": 0},
            {"recipe": "1", "seed": 7},
            {"recipe": "identity"},
        ],
    )
    def test_instance_factory_matches_build_instance(self, site_map):
        config = {
            "lattice": "chain:3",
            "basis": "aligned:2:zero",
            "measurements": "noisy-pauli:2:0.5",
            "psi": "plus-diag:2",
            "site_map": site_map,
        }
        if site_map["recipe"] == "identity":
            config["basis"], config["measurements"] = "phase-point", "bell"
            config["lattice"] = "cycle:3"
            del config["psi"]
        make = configio.instance_factory(config)
        for eps in (0.0, 0.05, 0.2):
            built = configio.build_instance(
                dict(config, site_map=dict(site_map, epsilon=eps))
            )
            made = make(eps)
            assert made.maps.keys() == built.maps.keys()
            for v, m in made.maps.items():
                assert np.array_equal(m.K, built.maps[v].K)

    def test_malformed_basis_dimension_exit_2(self, tmp_path, capsys):
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:abc:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_construction_error_exit_2(self, tmp_path, capsys, monkeypatch):
        # no retry at all: the first draw already exhausts the budget
        monkeypatch.setattr(construction, "RECIPE1_MAX_RETRIES", 0)
        code = run(
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:2:0.5",
            "--recipe", "1",
            "--psi", "plus-diag:2",
            "--epsilon", "0.1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "error: could not reach full rank" in capsys.readouterr().err

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


def with_field(config, where, value):
    """A deep copy of config with the field at the key path `where` set to value."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return config


PAULI2_JSON = measurements.measurement_set_to_json(measurements.pauli_product_measurements(2))
NOISY_PAULI2_JSON = measurements.measurement_set_to_json(
    measurements.noisy_pauli_product_measurements(2, 0.5)
)
ALIGNED2_JSON = basis_mod.basis_to_json(configio.parse_basis("aligned:2:zero"))
MALFORMED_FIELDS = [
    (("site_map", "epsilon"), "abc"),
    (("site_map", "epsilon"), [0.2]),
    (("site_map", "epsilon"), None),
    (("site_map", "epsilon"), 1e308),
    (("site_map", "seed"), "x"),
    (("site_map",), "recipe-2"),
    (("lattice",), {"n_sites": "x", "edges": [[0, 1], [1, 2], [2, 0]]}),
    (("lattice",), {"n_sites": 3.9, "edges": [[0, 1], [1, 2], [2, 0]]}),
    (("lattice",), {"n_sites": "3", "edges": [[0, 1], [1, 2], [2, 0]]}),
    (("lattice",), {"n_sites": 3, "edges": [[0.5, 1.7], [1, 2], [2, 0]]}),
    (("lattice",), {"n_sites": 3, "edges": [[0, 1, 2], [1, 2], [2, 0]]}),
    (("site_map", "seed"), 2.9),
    (("site_map", "seed"), "3"),
    (("site_map", "recipe"), "\u00b2"),
    (("basis",), dict(ALIGNED2_JSON, D=2.0)),
    (("measurements",), dict(NOISY_PAULI2_JSON, dim=4.0)),
    (("basis",), {"D": "x", "elements": []}),
    (("measurements",), dict(PAULI2_JSON, dim="x")),
    (("psi",), "zero:-1"),
    (("psi",), "uniform:-2"),
    (("basis",), "aligned:-2:zero"),
]


class TestMalformedInstanceFiles:
    @pytest.mark.parametrize(
        "where, value",
        MALFORMED_FIELDS,
        ids=[
            "epsilon-string", "epsilon-list", "epsilon-null", "epsilon-overflow",
            "seed-string", "site_map-string", "lattice-n_sites-string",
            "lattice-n_sites-float", "lattice-n_sites-digits", "lattice-edge-floats",
            "lattice-edge-three-ends", "seed-float", "seed-digits", "recipe-superscript",
            "basis-D-float", "measurements-dim-float", "basis-D-string",
            "measurements-dim-string", "psi-zero-negative", "psi-uniform-negative",
            "basis-aligned-negative",
        ],
    )
    def test_field_exit_2(self, instance_file, capsys, where, value):
        config = with_field(json.loads(instance_file.read_text()), where, value)
        instance_file.write_text(json.dumps(config))
        assert run("peps", "check", str(instance_file)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # each compared equal to 1 or 2 and was built as recipe 1 or 2; int() of
    # 5000 digits raised a ValueError past the CLI (a traceback, exit 1)
    @pytest.mark.parametrize(
        "recipe", [True, False, 2.0, 1.0, "2.0", "1" * 5000],
        ids=["true", "false", "2.0", "1.0", "'2.0'", "5000-digits"],
    )
    def test_recipe_not_an_integer_or_name_exit_2(self, instance_file, capsys, recipe):
        config = with_field(json.loads(instance_file.read_text()), ("site_map", "recipe"), recipe)
        instance_file.write_text(json.dumps(config))
        assert run("peps", "check", str(instance_file)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: unknown recipe {recipe!r}"]

    def test_top_level_not_object_exit_2(self, instance_file, capsys):
        instance_file.write_text(json.dumps([json.loads(instance_file.read_text())]))
        assert run("peps", "check", str(instance_file)) == 2
        assert capsys.readouterr().err.startswith("error: ")


# what `peps build` writes for the instance_file fixture
CYCLE3_INSTANCE = {
    "lattice": "cycle:3",
    "basis": "aligned:2:zero",
    "measurements": "noisy-pauli:2:0.5",
    "psi": "plus-diag:2",
    "site_map": {"recipe": "2", "epsilon": 0.2, "seed": 0},
}
FUZZ_FIELDS = [(key,) for key in CYCLE3_INSTANCE] + [
    ("site_map", key) for key in ("recipe", "epsilon", "seed", "kraus")
]
SPEC_NAMES = [
    "chain", "cycle", "torus", "pauli", "noisy-pauli", "bell", "aligned", "phase-point",
    "zero", "uniform", "plus-diag", "identity", "custom",
]
# small integers only: pauli:n allocates 3^n * 2^n elements
SMALL_INT = st.integers(-3, 4).map(str)
SPEC_STRINGS = st.lists(
    st.one_of(
        st.sampled_from(SPEC_NAMES),
        SMALL_INT,
        st.tuples(SMALL_INT, SMALL_INT).map("x".join),
    ),
    min_size=1,
    max_size=4,
).map(":".join)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


# one or two distinct fields, each set to a spec string or arbitrary JSON
FAULTS = st.lists(
    st.tuples(st.sampled_from(FUZZ_FIELDS), st.one_of(SPEC_STRINGS, JSON_VALUES)),
    min_size=1,
    max_size=2,
    unique_by=lambda fault: fault[0],
)


def sample_and_verify(instance, plan, tmp_path):
    """Exit codes of `sample --shots 3` and `verify --mode mixture` on one instance and plan."""
    # --plan=<spec>, so that argparse does not read a spec starting with "-" as a flag
    return [
        cli.main(["sample", str(instance), f"--plan={plan}", "--shots", "3",
                  "--out", str(tmp_path / "s.jsonl")]),
        cli.main(["verify", str(instance), f"--plan={plan}", "--mode", "mixture"]),
    ]


class TestFuzzInstanceFile:
    @given(field=st.sampled_from(FUZZ_FIELDS), value=st.one_of(SPEC_STRINGS, JSON_VALUES))
    @settings(max_examples=100, deadline=None)
    def test_check_exit_code_in_contract(self, tmp_path_factory, field, value):
        path = tmp_path_factory.mktemp("fuzz") / "inst.json"
        path.write_text(json.dumps(with_field(CYCLE3_INSTANCE, field, value)))
        assert cli.main(["peps", "check", str(path)]) in range(5)

    @given(faults=FAULTS)
    @settings(max_examples=40, deadline=None)
    def test_sample_and_verify_exit_codes_in_contract(self, tmp_path_factory, faults):
        config = CYCLE3_INSTANCE
        # nested fields first, so that a later whole-"site_map" fault replaces them
        for field, value in sorted(faults, key=lambda fault: -len(fault[0])):
            config = with_field(config, field, value)
        tmp_path = tmp_path_factory.mktemp("fuzz")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(config))
        for code in sample_and_verify(path, "all:ZZ~0.5", tmp_path):
            assert code in range(5)


PLAN_LABELS = st.sampled_from(["ZZ~0.5", "XY~0.5", "ZZZZ~0.5", "bell"]) | st.text(max_size=6)
PLAN_SPECS = st.one_of(SPEC_STRINGS, PLAN_LABELS.map("all:".__add__))
PLAN_FILES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"sites": JSON_VALUES | st.lists(PLAN_LABELS, max_size=4)}),
    st.fixed_dictionaries({"all": JSON_VALUES | PLAN_LABELS}),
)


class TestPlanFiles:
    @pytest.mark.parametrize(
        "plan",
        [{"sites": 5}, {"sites": None}, {"sites": True}, {"sites": "ZZ~"}, {"all": 5}],
        ids=["sites-int", "sites-null", "sites-true", "sites-string", "all-int"],
    )
    def test_malformed_plan_file_exit_2(self, instance_file, tmp_path, capsys, plan):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        assert sample_and_verify(instance_file, f"@{plan_file}", tmp_path) == [2, 2]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @given(plan=st.one_of(PLAN_SPECS.map(lambda s: (s, None)), PLAN_FILES.map(lambda o: (None, o))))
    @settings(max_examples=40, deadline=None)
    def test_fuzz_plan_exit_codes_in_contract(self, tmp_path_factory, plan):
        spec, content = plan
        tmp_path = tmp_path_factory.mktemp("plan")
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps(CYCLE3_INSTANCE))
        if content is not None:
            (tmp_path / "plan.json").write_text(json.dumps(content))
            spec = f"@{tmp_path / 'plan.json'}"
        for code in sample_and_verify(instance, spec, tmp_path):
            assert code in range(5)


class TestSampleAndVerify:
    # 10^5 sites: the lattice, the instance and the sampler's tables fit the
    # capped child's address space
    @pytest.mark.parametrize(
        "lattice, qubits", [("cycle:102400", 2), ("torus:240x240", 4)], ids=["cycle", "torus"]
    )
    def test_set_up_at_scale(self, tmp_path, lattice, qubits):
        inst = tmp_path / "inst.json"
        config = recipe2_config(lattice, 0.1, f"noisy-pauli:{qubits}:0.5")
        inst.write_text(json.dumps({**config, "psi": f"plus-diag:{qubits}"}))
        argv = ["sample", str(inst), "--plan", f"all:{'Z' * qubits}~0.5", "--shots", "0"]
        proc = run_capped("-m", "pepslhv.cli", *argv, "--out", str(tmp_path / "s.jsonl"))
        assert proc.returncode == 0, proc.stderr

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

    def test_sample_draws_with_no_instance(self, instance_file, tmp_path, monkeypatch):
        # the batches read only the sampler's tables: the instance and its
        # element stack are dropped before the first batch is written
        load, write = configio.load_instance, sampling.ShotBatch.write_jsonl
        loaded, alive = [], []

        def recorded(path):
            instance = load(path)
            loaded.append(weakref.ref(instance.measurement_set))
            return instance

        def spy(batch, fh):
            alive.append(loaded[0]() is not None)
            return write(batch, fh)

        monkeypatch.setattr(configio, "load_instance", recorded)
        monkeypatch.setattr(sampling.ShotBatch, "write_jsonl", spy)
        out = tmp_path / "s.jsonl"
        assert run(
            "sample", str(instance_file), "--plan", "all:ZZ~0.5", "--shots", "500",
            "--out", str(out),
        ) == 0
        assert alive and not any(alive)

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        # torus:3x3 has 18 edges and 9 sites, so blocks of 2^18 // 36 = 7281 shots: two
        # whole blocks and a short third, drawn by two threads
        inst = tmp_path / "torus.json"
        assert run(
            "peps", "build",
            "--lattice", "torus:3x3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:4:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:4",
            "--epsilon", "0.1",
            "--out", str(inst),
        ) == 0
        shots = str(2 * 7281 + 1000)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert run(
                "sample", str(inst),
                "--plan", "all:ZZZZ~0.5",
                "--shots", shots,
                "--seed", "3",
                "--emit-hidden",
                "--workers", workers,
                "--out", str(out),
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == int(shots)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, instance_file, tmp_path, capsys, workers):
        code = run(
            "sample", str(instance_file),
            "--plan", "all:ZZ~0.5",
            "--shots", "10",
            "--workers", workers,
            "--out", str(tmp_path / "s.jsonl"),
        )
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["nan", "inf", "0", "-1"])
    def test_confidence_k_not_finite_positive_exit_2(self, instance_file, capsys, monkeypatch, k):
        def no_shots(*args, **kwargs):
            raise AssertionError("shots drawn before --confidence-k was checked")

        monkeypatch.setattr(sampling, "iter_shots", no_shots)
        code = run(
            "verify", str(instance_file),
            "--plan", "all:ZZ~0.5",
            "--mode", "shots",
            "--shots", "20000",
            f"--confidence-k={k}",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --confidence-k must be finite and > 0, got {float(k)}"
        ]

    def test_too_few_shots_exit_2_before_work(self, instance_file, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before --shots was checked")

        monkeypatch.setattr(cli.configio, "load_instance", no_work)
        monkeypatch.setattr(oracle, "born_joint_for_instance", no_work)
        monkeypatch.setattr(sampling, "iter_shots", no_work)
        shots = oracle.MIN_FREQUENCY_SHOTS - 1
        code = run(
            "verify", str(instance_file),
            "--plan", "all:ZZ~0.5",
            "--mode", "shots",
            "--shots", str(shots),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: need at least {oracle.MIN_FREQUENCY_SHOTS} shots, got {shots}"
        ]

    @pytest.mark.parametrize("mode", ["mixture", "shots"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2_before_work(
        self, instance_file, capsys, monkeypatch, mode, workers
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before --workers was checked")

        monkeypatch.setattr(cli.configio, "load_instance", no_work)
        monkeypatch.setattr(oracle, "born_joint_for_instance", no_work)
        monkeypatch.setattr(sampling, "iter_shots", no_work)
        code = run(
            "verify", str(instance_file),
            "--plan", "all:ZZ~0.5",
            "--mode", mode,
            "--shots", "20000",
            "--workers", workers,
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: workers must be >= 1, got {workers}"
        ]

    def test_oversized_born_oracle_exit_2_before_assembly(self, tmp_path, capsys, monkeypatch):
        def no_assembly(instance):
            raise AssertionError("state assembled for an oversized oracle")

        monkeypatch.setattr(oracle, "assemble_exact_state", no_assembly)
        inst = tmp_path / "cycle8.json"
        inst.write_text(json.dumps({
            "lattice": "cycle:8",
            "basis": "aligned:2:zero",
            "measurements": "noisy-pauli:2:0.5",
            "psi": "plus-diag:2",
            "site_map": {"recipe": "2", "epsilon": 0.2, "seed": 0},
        }))
        assert run("verify", str(inst), "--plan", "all:ZZ~0.5", "--mode", "mixture") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: Born operator on sites 2..N: {16384**2} entries, "
            f"more than {oracle.MAX_BORN_OPERATOR}"
        ]

    def test_degenerate_norm_exit_2(self, instance_file, capsys, monkeypatch):
        def zero_norm(instance):
            raise DegenerateNormError("assembled state has squared norm 0.000e+00")

        monkeypatch.setattr(oracle, "assemble_exact_state", zero_norm)
        assert run("verify", str(instance_file), "--plan", "all:XY~0.5") == 2
        assert "error: assembled state has squared norm" in capsys.readouterr().err

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
        report = json.loads(out.read_text())
        assert set(report["env"]) == {"nproc", "cpu", "python", "numpy"}
        assert report["env"]["numpy"] == np.__version__
        rows = report["timings"]
        assert [r["sites"] for r in rows] == [10, 20]
        assert [r["lattice"] for r in rows] == ["cycle:10", "cycle:20"]
        assert all(r["seconds"] > 0 for r in rows)
        # serialization is timed into a counting sink: the bytes sample would write
        assert all(r["serialize_s"] > 0 for r in rows)
        for r in rows:
            config = dict(configio._load_json(instance_file), lattice=r["lattice"])
            instance = configio.build_instance(config)
            plan = configio.parse_plan("all:ZZ~0.5", instance)
            batch = sampling.run_shots(instance, plan, 200, 0)
            fh = io.StringIO()
            batch.write_jsonl(fh)
            assert r["output_bytes"] == len(fh.getvalue().encode())

    def test_edge_distributions_built_once(self, instance_file, monkeypatch):
        # bench runs what sample runs: iter_shots builds the edge distributions
        def refuse(instance):
            raise AssertionError("bench built the edge distributions itself")

        monkeypatch.setattr(cli.decomposition, "edge_distribution", refuse)
        assert run(
            "bench", str(instance_file), "--sites", "5", "--plan", "all:ZZ~0.5", "--shots", "50"
        ) == 0

    def test_lattice_specs(self, tmp_path, capsys):
        inst = tmp_path / "torus.json"
        assert run(
            "peps", "build",
            "--lattice", "torus:3x3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:4:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:4",
            "--epsilon", "0.1",
            "--out", str(inst),
        ) == 0
        capsys.readouterr()
        code = run(
            "bench", str(inst),
            "--sites", "torus:3x3,torus:3x4",
            "--plan", "all:ZZZZ~0.5",
            "--shots", "100",
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["timings"]
        assert [(r["lattice"], r["sites"]) for r in rows] == [("torus:3x3", 9), ("torus:3x4", 12)]
        assert all(r["site_outcomes_per_s"] > 0 for r in rows)
