"""Acceptance suite: one test per top-level claim, one PASS line each.

Every test prints a single summary line so a `pytest -v -s` run reads as a
checklist.  Tolerances are stated inline next to each assertion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pepslhv import cli
from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv import configio, linalg, oracle, sampling
from pepslhv.basis import build_aligned_basis, phase_point_basis, verify_decomposition
from pepslhv.lattice import build_chain
from pepslhv.measurements import (
    admissible_povm,
    bell_povm,
    dual_margin,
    noisy_pauli_product_measurements,
)

from conftest import build, recipe2_config

# Regression constants: the exhaustive positivity checker bracketed the first
# failure of the cycle-3 / aligned-D2 / two-qubit-Pauli demo at these values.
EPS_STAR_LOW = 0.112060546875
EPS_STAR_HIGH = 0.11212158203125

KET0 = np.array([1, 0], dtype=complex)


def report(n, name):
    print(f"criterion {n:02d} ({name}): PASS")


def test_criterion_01_bond_decomposition():
    t0 = time.perf_counter()
    for D in (2, 3, 4):
        anchor = np.zeros(D, dtype=complex)
        anchor[0] = 1.0
        assert verify_decomposition(build_aligned_basis(D, anchor)) <= 1e-10
    assert verify_decomposition(phase_point_basis()) <= 1e-10
    assert time.perf_counter() - t0 < 1.0
    report(1, "bond decomposition")


def test_criterion_02_anchor_strictness():
    for D in (2, 3, 4):
        anchor = np.zeros(D, dtype=complex)
        anchor[0] = 1.0
        overlaps = build_aligned_basis(D, anchor).anchor_overlaps()
        assert np.allclose(overlaps, 1 / np.sqrt(D), atol=1e-10)
    pp = phase_point_basis().anchor_overlaps()
    assert pp.min() == pytest.approx((1 - 1 / np.sqrt(3)) / 2, abs=1e-10)
    report(2, "anchor strictness")


def test_criterion_03_mixture_exactness():
    t0 = time.perf_counter()
    for n, eps in itertools.product((3, 4), (0.0, 0.2)):
        inst = build(recipe2_config(lattice=f"cycle:{n}", epsilon=eps))
        rho, weights = oracle.reconstruct_mixture(inst)
        state, T = con.assemble_exact_state(inst)
        exact = np.outer(state, state.conj()) / T
        assert linalg.trace_distance(rho, exact) <= 1e-10
        assert abs(weights.sum() - 1.0) <= 1e-10
    assert time.perf_counter() - t0 < 30.0
    report(3, "mixture exactness")


def test_criterion_04_normalization_cross_check():
    lattices = [f"chain:{n}" for n in range(2, 7)] + ["cycle:3", "cycle:4"]
    for name in lattices:
        inst = build(recipe2_config(lattice=name))
        _, T_exact = con.assemble_exact_state(inst)
        T_factor = dec.edge_distribution(inst).T
        assert T_factor == pytest.approx(T_exact, rel=1e-10)
    report(4, "normalization cross-check")


def test_criterion_05_positivity_machinery():
    def make(eps):
        return build(recipe2_config(epsilon=eps, measurements="pauli:2"))

    inst0 = make(0.0)
    psi = configio.parse_state(recipe2_config()["psi"], inst0.measurement_set.dim)
    margin = dual_margin(linalg.projector(psi), inst0.measurement_set).margin
    assert margin == pytest.approx(((1 - 1 / np.sqrt(3)) / 2) ** 2, abs=1e-10)
    rep = dec.rv_positivity_check(inst0)
    assert rep.passed and rep.slack >= margin - 1e-9

    lo, hi = dec.max_epsilon_search(make, 0.5)
    assert hi - lo <= 1e-4
    assert dec.rv_positivity_check(make(lo)).passed
    assert not dec.rv_positivity_check(make(hi)).passed
    assert lo == pytest.approx(EPS_STAR_LOW, abs=1e-12)
    assert hi == pytest.approx(EPS_STAR_HIGH, abs=1e-12)
    report(5, "positivity machinery")


def test_criterion_06_sampler_correctness():
    t0 = time.perf_counter()
    inst = build(recipe2_config(lattice="chain:4"))
    plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
    dists = dec.edge_distribution(inst)
    n_shots = 10**6
    batch = sampling.run_shots(inst, plan, n_shots, 1234, edge_dists=dists)
    exact = oracle.born_joint_for_instance(inst, plan)
    tv = oracle.tv_distance(oracle.empirical_distribution(batch, exact.arities), exact)
    threshold = 4 * np.sqrt(exact.n_outcomes / n_shots)
    assert tv <= threshold
    assert time.perf_counter() - t0 < 60.0
    report(6, "sampler correctness")


def test_criterion_07_lhv_structure():
    # given the hidden edge assignment, outcomes must be independent across sites
    inst = build(recipe2_config(lattice="chain:2"))
    plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
    dists = dec.edge_distribution(inst)
    n_shots = 200_000
    batch = sampling.run_shots(
        inst, plan, n_shots, 77, edge_dists=dists, emit_hidden=True
    )
    lam = batch.hidden[:, 0]
    checked = 0
    for value in range(4):
        mask = lam == value
        n = int(mask.sum())
        if n < 2000:
            continue
        joint = np.zeros((4, 4))
        np.add.at(joint, (batch.outcomes[mask, 0], batch.outcomes[mask, 1]), 1.0)
        joint /= n
        product = np.multiply.outer(joint.sum(axis=1), joint.sum(axis=0))
        tv = 0.5 * np.abs(joint - product).sum()
        assert tv <= 4 * np.sqrt(16 / n)
        checked += 1
    assert checked >= 3
    report(7, "LHV structure")


def test_criterion_08_identity_projector_demo():
    pp = phase_point_basis()
    rep = admissible_povm(bell_povm(), pp, (False, True))  # head-tail: the tail end transposed
    assert rep.admissible
    values = [
        np.trace(np.kron(pp.elements[k], pp.elements[l].T) @ x).real
        for k in range(4)
        for l in range(4)
        for x in bell_povm().elements
    ]
    assert len(values) == 64
    assert all(min(abs(v), abs(v - 1)) <= 1e-10 for v in values)

    rep2 = admissible_povm(bell_povm(), pp, (False, False))
    assert not rep2.admissible
    assert rep2.min_value == pytest.approx(-0.5, abs=1e-10)

    inst = build(
        {
            "lattice": "cycle:3",
            "basis": "phase-point",
            "measurements": "bell",
            "site_map": {"recipe": "identity"},
        }
    )
    plan = sampling.MeasurementPlan.uniform(inst, "bell")
    dists = dec.edge_distribution(inst)
    n_shots = 10**6
    batch = sampling.run_shots(inst, plan, n_shots, 5, edge_dists=dists)
    exact = oracle.born_joint_for_instance(inst, plan)
    tv = oracle.tv_distance(oracle.empirical_distribution(batch, exact.arities), exact)
    assert tv <= 4 * np.sqrt(exact.n_outcomes / n_shots)
    report(8, "identity-projector demo")


def test_criterion_09_entanglement_certification():
    for n in range(2, 7):
        ents = oracle.entanglement_certificate(build(recipe2_config(lattice=f"chain:{n}")))
        assert all(e > 1e-4 for e in ents)
    for e in oracle.entanglement_certificate(build(recipe2_config(lattice="chain:4", epsilon=0.0))):
        assert abs(e) <= 1e-9
    # single-bond chain with the computational Recipe-2 map at epsilon = 0.5
    inst = con.PepsInstance(
        lattice=build_chain(2),
        maps={1: con.recipe2_maker(1, 2, KET0)(0.5)},
        basis=build_aligned_basis(2, KET0),
        measurement_set=noisy_pauli_product_measurements(1, 0.5),
    )
    ents = oracle.entanglement_certificate(inst)
    assert ents[0] == pytest.approx(0.32276, abs=1e-4)
    report(9, "entanglement certification")


def test_criterion_10_efficiency():
    def timed(n_sites, shots):
        inst = build(recipe2_config(lattice=f"cycle:{n_sites}"))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        dists = dec.edge_distribution(inst)
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            sampling.run_shots(inst, plan, shots, 0, edge_dists=dists)
            best = min(best, time.perf_counter() - t0)
        return best

    t100 = timed(100, 10**4)
    t200 = timed(200, 10**4)
    assert t200 <= 3.0 * 2.0 * t100  # linear scaling within slack factor 3

    torus = build(
        {
            "lattice": "torus:10x10",
            "basis": "aligned:2:zero",
            "measurements": "noisy-pauli:4:0.5",
            "psi": "plus-diag:4",
            "site_map": {"recipe": 2, "epsilon": 0.1},
        }
    )
    assert dec.rv_positivity_check(torus).passed
    plan = sampling.MeasurementPlan.uniform(torus, "ZZZZ~0.5")
    batch = sampling.run_shots(torus, plan, 1000, 0)
    assert batch.outcomes.shape == (1000, 100)
    report(10, "efficiency")


def test_criterion_11_degenerate_inputs(tmp_path):
    # boundary interior state rejected as non-strict
    code = cli.main(
        [
            "peps", "build",
            "--lattice", "chain:2",
            "--basis", "aligned:2:zero",
            "--measurements", "pauli:1",
            "--recipe", "2",
            "--psi", "zero:2",
            "--out", str(tmp_path / "a.json"),
        ]
    )
    assert code == 2

    # d < 2^v fails with the constraint error
    code = cli.main(
        [
            "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", "noisy-pauli:1:0.5",
            "--recipe", "2",
            "--psi", "plus-diag:1",
            "--out", str(tmp_path / "b.json"),
        ]
    )
    assert code == 2

    # non-factorizable crafted instance refused by the sampler with exit 4
    kraus_file = tmp_path / "kraus.json"
    kraus_file.write_text(
        json.dumps(linalg.matrix_to_json(np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)))
    )
    inst = tmp_path / "nf.json"
    assert (
        cli.main(
            [
                "peps", "build",
                "--lattice", "cycle:3",
                "--basis", "aligned:2:zero",
                "--measurements", "noisy-pauli:2:0.5",
                "--recipe", "custom",
                "--kraus", str(kraus_file),
                "--out", str(inst),
            ]
        )
        == 0
    )
    code = cli.main(
        [
            "sample", str(inst),
            "--plan", "all:ZZ~0.5",
            "--shots", "10",
            "--out", str(tmp_path / "s.jsonl"),
        ]
    )
    assert code == 4
    report(11, "degenerate inputs")
