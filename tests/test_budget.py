"""The entry budget: what it refuses before any array is built, what it admits, and exit codes."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pepslhv import basis as basis_mod
from pepslhv import cli, configio, decomposition, linalg
from pepslhv.errors import UsageError

from conftest import capped_peak, run_capped


def star(v: int) -> dict:
    """Site 0 joined to v leaves: one site of degree v."""
    return {"n_sites": v + 1, "edges": [[0, s] for s in range(1, v + 1)]}


def complete(v: int) -> dict:
    """The complete graph on v + 1 sites: every site of degree v."""
    n = v + 1
    return {"n_sites": n, "edges": [[a, b] for a in range(n) for b in range(a + 1, n)]}


def two_outcome_povm(d: int) -> dict:
    """A measurement-set file of one d-dimensional POVM, {E, I - E}, E = |0><0|."""
    first = np.zeros((d, d))
    first[0, 0] = 1.0
    elements = [linalg.matrix_to_json(x) for x in (first, np.eye(d) - first)]
    return {"dim": d, "povms": [{"label": "Z", "elements": elements}]}


def instance(graph: str, v: int, measurements, recipe, basis: str) -> dict:
    """A config on a star or complete lattice of degree v; an int measurements is a POVM file's d."""
    lattice = {"star": star, "complete": complete}[graph](v)
    if isinstance(measurements, int):
        measurements = two_outcome_povm(measurements)
    return {
        "lattice": lattice,
        "basis": basis,
        "measurements": measurements,
        "psi": "plus-diag",
        "site_map": {"recipe": recipe, "epsilon": 0.2},
    }


def factorizable_cycle(n: int, D: int) -> dict:
    """A recipe-1 config at epsilon 0 on cycle:n: rank-one traces, so the sampler builds its edge tables."""
    return {
        "lattice": f"cycle:{n}",
        "basis": f"aligned:{D}:zero",
        "measurements": "pauli:2",
        "psi": "plus-diag:2",
        "site_map": {"recipe": 1, "epsilon": 0.0},
    }


# the largest family the budget admits, and two that it refuses
K7 = ("complete", 6, 64, 2, "aligned:2:zero")  # degree 6, d = 64: (D^2)^v d^2 = 2^24
K8 = ("complete", 7, 128, 2, "aligned:2:zero")  # 2^28 entries; its Choi matrix asked 4 GiB
STAR30 = ("star", 30, "bell", "identity", "phase-point")  # identity_site_map(30) asked 2^60


class TestInProcess:
    def test_largest_family_builds(self):
        inst = configio.build_instance(instance(*K7))
        assert {(m.v, m.d) for m in inst.maps.values()} == {(6, 64)}

    @pytest.mark.parametrize(
        "case, message",
        [(K8, "site family of degree 7: 268435456 entries"),
         (STAR30, "site family of degree 30: 2\\^64 or more entries")],
        ids=["K8", "star30-identity"],
    )
    def test_refused_before_any_site_map(self, monkeypatch, case, message):
        def no_map(*args):
            raise AssertionError("a site map was built past the budget")

        for name in ("identity_site_map", "recipe2_maker", "recipe1_maker"):
            monkeypatch.setattr(configio, name, no_map)
        with pytest.raises(UsageError, match=message):
            configio.build_instance(instance(*case))

    @pytest.mark.parametrize(
        "parse, spec",
        [(configio.parse_measurements, "noisy-pauli:5:0.5"),
         (configio.parse_lattice, "cycle:102400"),
         (configio.parse_lattice, "torus:240x240")],
        ids=["noisy-pauli:5", "cycle:102400", "torus:240x240"],
    )
    def test_admitted(self, parse, spec):
        parse(spec)

    def test_aligned_basis_counts_its_construction(self, monkeypatch):
        # the Gram-Schmidt's D^7 / 2 multiply-adds: D = 11 is built and D = 12 is not
        monkeypatch.setattr(basis_mod, "build_aligned_basis", lambda D, anchor: D)
        assert configio.parse_basis("aligned:11:zero") == 11
        with pytest.raises(UsageError, match="basis aligned:12: 17915904 entries"):
            configio.parse_basis("aligned:12:zero")

    def test_basis_gen_refused_by_the_basis_guard(self, tmp_path, monkeypatch, capsys):
        # basis gen has no budget of its own: the spec's Gram-Schmidt count refuses D = 27
        def no_basis(D, anchor):
            raise AssertionError("the basis was built past the budget")

        monkeypatch.setattr(basis_mod, "build_aligned_basis", no_basis)
        argv = ["basis", "gen", "--D", "27", "--anchor", "zero", "--out", str(tmp_path / "b.json")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: basis aligned:27: 5230176601 entries, more than 16777216"
        ]

    def test_edge_tables_refused_before_any_table(self):
        # 2 E D^2 entries: cycle:524288 at D = 4 sits at the budget, one more edge is refused
        inst = configio.build_instance(factorizable_cycle(2**19 + 1, 4))
        with pytest.raises(UsageError, match=f"edge tables: {2 * (2**19 + 1) * 16} entries"):
            decomposition.edge_distribution(inst)


# generated cases: sizes at, just above and far above each bound, zero and negative
cases = st.one_of(
    st.tuples(st.just("basis"), st.sampled_from([-2, 0, 1, 2, 3, 27, 28, 45, 5000, 10**11])),
    st.tuples(
        st.just("lattice"),
        st.sampled_from(["chain", "cycle"]),
        st.sampled_from([-5, 0, 2, 3, 2**20 + 1, 2**21, 10**11]),
    ),
    st.tuples(
        st.just("torus"),
        st.sampled_from([-1000000, -3, 0, 3, 725, 1000000]),
        st.sampled_from([-3, 3, 725, 1000000]),
    ),
    st.tuples(
        st.just("measurements"),
        st.sampled_from(["pauli:{}", "noisy-pauli:{}:0.5", "noisy-pauli:{}:1.5"]),
        st.sampled_from([-1, 0, 1, 2, 6, 7, 9, 14, 10**11]),
    ),
    # degrees 1-8 and 30 against small sets; a 64- or 128-dimensional file
    # only at degrees its family already passes the budget at, so no admitted
    # case builds a large family
    st.tuples(
        st.just("instance"),
        st.sampled_from(["star", "complete"]),
        st.sampled_from([*range(1, 9), 30]),
        st.sampled_from(["bell", "noisy-pauli:2:0.5", "pauli:3", 2, 4, 8]),
        st.sampled_from(["identity", 2]),
        st.sampled_from(["phase-point", "aligned:2:zero"]),
    ),
    st.tuples(
        st.just("instance"),
        st.sampled_from(["star", "complete"]),
        st.sampled_from([7, 8, 30]),
        st.sampled_from([64, 128]),
        st.sampled_from(["identity", 2]),
        st.just("aligned:2:zero"),
    ),
)


def argv_of(case: tuple, tmp: Path) -> list:
    kind, *args = case
    out = str(tmp / "out.json")
    if kind == "basis":
        return ["basis", "gen", "--D", str(args[0]), "--anchor", "zero", "--out", out]
    if kind == "lattice":
        return ["lattice", "gen", "--name", "{}:{}".format(*args), "--out", out]
    if kind == "torus":
        return ["lattice", "gen", "--name", "torus:{}x{}".format(*args), "--out", out]
    if kind == "measurements":
        spec = args[0].format(args[1])
        return ["peps", "build", "--lattice", "cycle:3", "--basis", "aligned:2:zero",
                "--measurements", spec, "--recipe", "2", "--psi", "plus-diag", "--out", out]
    path = tmp / "instance.json"
    if kind == "sample":
        path.write_text(json.dumps(factorizable_cycle(*args)))
        return ["sample", str(path), "--plan", "all:ZZ", "--shots", "0", "--out", out]
    path.write_text(json.dumps(instance(*args)))
    return ["peps", "check", str(path)]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(case=cases)
@example(case=("instance", *K8))
@example(case=("instance", *STAR30))
@example(case=("basis", 45))  # admitted at D^4 <= 2^22: 153 s and 1.65 GB
@example(case=("sample", 2**20, 8))  # edge tables of 512 MiB each: a MemoryError traceback
@example(case=("sample", 2**17, 8))  # the largest cycle at D = 8: four tables of 64 MiB
def test_exit_code_and_one_line(case):
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_capped("-m", "pepslhv.cli", *argv_of(case, Path(tmp)), timeout=30)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("D, code", [(11, 0), (12, 2)])
def test_largest_aligned_basis_builds_within_a_minute(tmp_path, D, code):
    # aligned:42:zero was once admitted and took 424 s to build; the largest
    # admitted D builds in well under a second, and the next exits 2 with one line
    argv = ["peps", "build", "--lattice", "chain:2", "--basis", f"aligned:{D}:zero",
            "--measurements", "pauli:1", "--recipe", "1", "--psi", "plus-diag:1",
            "--out", str(tmp_path / "inst.json")]
    proc = run_capped("-m", "pepslhv.cli", *argv, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("\n") == code // 2 and "Traceback" not in proc.stderr, proc.stderr


def test_largest_products_peak_near_the_budget(tmp_path):
    # peps check on cycle:3 at D = 8: each degree-2 family reads 2^24 entries
    # (256 MiB) of basis products, half of them with a transposed factor.
    # Built in C order, their reshape is a view: the check peaks within a
    # quarter of that budget entry beyond the interpreter's floor (it peaked
    # at 546 MiB while the reshape copied the stack)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(factorizable_cycle(3, 8)))
    proc, peak = capped_peak("-m", "pepslhv.cli", "peps", "check", str(path))
    assert proc.returncode == 0, proc.stderr
    assert peak <= (1.25 * 256 + 45) * 2**20


def test_largest_epsilon_search_builds_no_products(tmp_path):
    # peps epsilon-max on the same instance: the probe works in product
    # coordinates, d^2 x D^4 reals per map, so no product stack is built (it
    # cached D^4 x D^4 coordinates of them and peaked at 419 MB)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(factorizable_cycle(3, 8)))
    proc, peak = capped_peak("-m", "pepslhv.cli", "peps", "epsilon-max", str(path), "--eps-hi", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"eps_pass": 0.01348876953125, "eps_fail": 0.0135498046875}
    assert peak <= 100 * 2**20
