import hashlib
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv import cli, configio, linalg, oracle, sampling
from pepslhv.errors import UsageError
from pepslhv.measurements import Povm, pauli_product_measurements

from conftest import build, recipe2_config, run_capped
from reference import born_joint_distribution, born_joint_full_operator, site_families

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def pauli1(label):
    _, povm = pauli_product_measurements(1).by_label(label)
    return povm


def random_povm(rng, dim, n_outcomes):
    """X_k = S^(-1/2) A_k S^(-1/2) for random PSD A_k with sum S."""
    G = rng.normal(size=(n_outcomes, dim, dim)) + 1j * rng.normal(size=(n_outcomes, dim, dim))
    A = G @ G.conj().transpose(0, 2, 1)
    w, V = np.linalg.eigh(A.sum(axis=0))
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return Povm(inv_sqrt @ A @ inv_sqrt)


def random_state(rng, size):
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return vec / np.linalg.norm(vec)


# the desk-oracle instance of perfbench, as `pepslhv peps build` writes it
DESK_CYCLE6 = {
    "basis": "aligned:2:zero",
    "lattice": "cycle:6",
    "measurements": "noisy-pauli:2:0.5",
    "psi": "plus-diag:2",
    "site_map": {"epsilon": 0.2, "recipe": "2", "seed": 0},
}
# sha256 of its Born probabilities under all:ZZ~0.5: any reordering of the sums moves it
DESK_CYCLE6_SHA256 = "d385b14a0464849f4033ef44476bdf337a3330469cf6c3452bb598f66019913a"
# `verify --mode mixture` on it under all:ZZ~0.5: the mixture's TV distance from the Born oracle
DESK_CYCLE6_MIXTURE_STDOUT = """\
{
  "mode": "mixture",
  "pass": true,
  "threshold": 1e-10,
  "tv": 2.1062490673014883e-16
}
"""


class TestExactJointDistribution:
    def test_bell_zz(self):
        dist = oracle.exact_joint_distribution(BELL, [pauli1("Z"), pauli1("Z")])
        assert np.allclose(dist.probs, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_bell_xx(self):
        dist = oracle.exact_joint_distribution(BELL, [pauli1("X"), pauli1("X")])
        assert np.allclose(dist.probs, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_chain2_amplitude_weights(self):
        vec = np.array([1, 0, 0, 0.25], dtype=complex)
        vec /= np.linalg.norm(vec)
        dist = oracle.exact_joint_distribution(vec, [pauli1("Z"), pauli1("Z")])
        assert dist.probs[0, 0] == pytest.approx(1 / 1.0625, abs=1e-5)
        assert dist.probs[1, 1] == pytest.approx(0.0625 / 1.0625, abs=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            oracle.exact_joint_distribution(BELL, [pauli1("Z")])

    @pytest.mark.parametrize(
        "dims, arities",
        [((2, 3, 2, 2), (2, 3, 4, 2)), ((3,), (4,)), ((2, 3), (3, 2)), ((4, 2), (1, 3))],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_kronecker_reference(self, dims, arities, seed):
        rng = np.random.default_rng(seed)
        povms = [random_povm(rng, d, k) for d, k in zip(dims, arities)]
        state = random_state(rng, int(np.prod(dims)))
        dist = oracle.exact_joint_distribution(state, povms)
        assert dist.arities == arities
        assert np.max(np.abs(dist.probs - born_joint_distribution(state, povms))) <= 1e-12

    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(
            lambda d: math.prod(d) <= 4096
        ),
        data=st.data(),
        budget=st.sampled_from([1, 100, 1000, dec.SCAN_BLOCK_ENTRIES]),
    )
    @example(dims=[3], data=None, budget=1)  # N = 1
    @example(dims=[2, 3], data=None, budget=1)  # N = 2, one row of sites 3..N
    @example(dims=[2, 2, 4, 5], data=None, budget=1)  # r = 20: blocks of 8 and 12 rows
    @example(dims=[1, 2, 3, 3, 3, 3], data=None, budget=1000)  # r = 81: 32, 32, 17 rows
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_full_operator(self, dims, data, budget):
        """The row-blocked contraction against the whole (d_2 ... d_N)^2 operator of reference.py.

        A small budget splits R into uneven blocks of rows; at an odd r, a
        block not started on a multiple of 16 columns would end inside a gemm
        unroll of the whole product's columns and round differently.
        """
        if data is None:
            arities, seed = [2, 1, 3, 3, 3, 3][: len(dims)], 0  # site 2 has one outcome
        else:
            arities = data.draw(st.lists(st.integers(1, 4), min_size=len(dims), max_size=len(dims)))
            seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        povms = [random_povm(rng, d, k) for d, k in zip(dims, arities)]
        state = random_state(rng, math.prod(dims))
        with mock.patch.object(dec, "SCAN_BLOCK_ENTRIES", budget):
            probs = oracle.exact_joint_distribution(state, povms).probs
        assert probs.tobytes() == born_joint_full_operator(state, povms).tobytes()

    def test_desk_instance_bytes_pinned(self):
        inst = build(DESK_CYCLE6)
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        probs = oracle.born_joint_for_instance(inst, plan).probs
        assert hashlib.sha256(probs.tobytes()).hexdigest() == DESK_CYCLE6_SHA256

    def test_desk_instance_peak_memory(self):
        inst = build(DESK_CYCLE6)
        povms = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5").povms(inst)
        raw, T = con.assemble_exact_state(inst)
        state = raw / np.sqrt(T)
        r = state.size // (povms[0].dim * povms[1].dim)
        # the (n_2, r, r) operator on sites 3..N, one slice's regrouped copy
        # and its products, and one block of rows whose three temporaries
        # share a sixteenth of SCAN_BLOCK_ENTRIES; never the (d_2 ... d_N)^2
        # operator.  393,216 entries here, of which about 362,700 are used
        # (416,000 when the three shared all of SCAN_BLOCK_ENTRIES)
        entries = (povms[1].n_outcomes + 1) * r**2 + dec.SCAN_BLOCK_ENTRIES // 2
        bound = entries * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            oracle.exact_joint_distribution(state, povms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize(
        "lattice, message",
        [
            ("cycle:8", "Born operator on sites 2..N: 268435456 entries"),
            ("cycle:9", "joint outcome space too large"),
        ],
    )
    def test_oversized_plan_refused_before_assembly(self, monkeypatch, lattice, message):
        def no_assembly(instance):
            raise AssertionError("state assembled for an oversized oracle")

        monkeypatch.setattr(oracle, "assemble_exact_state", no_assembly)
        inst = build(recipe2_config(lattice=lattice))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        with pytest.raises(UsageError, match=message):
            oracle.born_joint_for_instance(inst, plan)

    def test_large_plan_refused_at_once(self, cycle3_instance):
        # exact integer products over 2^18 sites took 3.4 s, and 56 s over 2^20
        povm = sampling.MeasurementPlan.uniform(cycle3_instance, "ZZ~0.5").povms(cycle3_instance)[0]
        start = time.perf_counter()
        with pytest.raises(UsageError, match="joint outcome space too large"):
            oracle._check_oracle_size([povm] * 2**18)
        assert time.perf_counter() - start < 1.0

    def test_sums_to_one_for_every_plan(self, cycle3_instance):
        for label in ("XX~0.5", "YZ~0.5", "ZZ~0.5"):
            plan = sampling.MeasurementPlan.uniform(cycle3_instance, label)
            dist = oracle.born_joint_for_instance(cycle3_instance, plan)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestMixtureJointDistribution:
    def test_epsilon_zero_is_product(self):
        config = recipe2_config(epsilon=0.0)
        inst = build(config)
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        mix = oracle.mixture_joint_distribution(inst, plan)
        psi = configio.parse_state(config["psi"], inst.measurement_set.dim)
        _, povm = inst.measurement_set.by_label("ZZ~0.5")
        local = np.array([np.real(psi.conj() @ x @ psi) for x in povm.elements])
        expected = np.multiply.outer(np.multiply.outer(local, local), local)
        assert np.allclose(mix.probs, expected, atol=1e-10)

    @pytest.mark.parametrize("lattice", ["chain:2", "cycle:3"])
    def test_matches_born_oracle(self, lattice):
        inst = build(recipe2_config(lattice=lattice))
        plan = sampling.MeasurementPlan.uniform(inst, "XY~0.5")
        mix = oracle.mixture_joint_distribution(inst, plan)
        exact = oracle.born_joint_for_instance(inst, plan)
        assert np.max(np.abs(mix.probs - exact.probs)) <= 1e-10

    def test_desk_oracle_instance_matches_born(self):
        inst = build(recipe2_config(lattice="cycle:6"))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        mix = oracle.mixture_joint_distribution(inst, plan)
        exact = oracle.born_joint_for_instance(inst, plan)
        assert mix.arities == (4,) * 6
        assert np.max(np.abs(mix.probs - exact.probs)) <= 1e-10

    def test_identity_bell_cycle(self, identity_bell_config):
        inst = build(identity_bell_config)
        plan = sampling.MeasurementPlan.uniform(inst, "bell")
        mix = oracle.mixture_joint_distribution(inst, plan)
        exact = oracle.born_joint_for_instance(inst, plan)
        assert np.max(np.abs(mix.probs - exact.probs)) <= 1e-10

    @pytest.mark.parametrize(
        "labels",
        [["ZZ~0.5"] * 4, ["XY~0.5", "ZZ~0.5", "ZZ~0.5", "YX~0.5"]],
        ids=["uniform", "mixed"],
    )
    def test_one_family_at_a_time(self, monkeypatch, labels):
        inst = build(recipe2_config(lattice="chain:4"))
        plan = sampling.MeasurementPlan.from_labels(inst, labels)
        build_family, calls = oracle._family_stack, []
        monkeypatch.setattr(
            oracle, "_family_stack", lambda instance, s: calls.append(s) or build_family(instance, s)
        )
        mix = oracle.mixture_joint_distribution(inst, plan)
        assert calls == list(dec._family_sites(inst)[0])
        # the bytes of the sum over every family held at once, one table per site
        families, site_family = site_families(inst)
        tables = [linalg.overlaps(families[f], p.elements) for f, p in zip(site_family, plan.povms(inst))]
        acc = np.clip(con.contract_edges(inst.lattice, tables, inst.D**2), 0.0, None)
        assert mix.probs.tobytes() == (acc / acc.sum()).tobytes()

    def test_desk_verify_mixture_stdout(self, tmp_path, capsys):
        path = tmp_path / "cycle6.json"
        path.write_text(json.dumps(DESK_CYCLE6))
        argv = ["verify", str(path), "--plan", "all:ZZ~0.5", "--mode", "mixture", "--workers", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == DESK_CYCLE6_MIXTURE_STDOUT

    def test_large_plan_refused_at_once(self):
        # the exact integer product of 2^18 arities took 3.3 s
        inst = build(recipe2_config(lattice=f"cycle:{2**18}"))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        start = time.perf_counter()
        with pytest.raises(UsageError, match="joint outcome space too large"):
            oracle.mixture_joint_distribution(inst, plan)
        assert time.perf_counter() - start < 1.0


class TestTvDistance:
    def test_self_distance(self):
        p = oracle.JointDistribution(arities=(2,), probs=np.array([0.3, 0.7]))
        assert oracle.tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        p = oracle.JointDistribution(arities=(2,), probs=np.array([1.0, 0.0]))
        q = oracle.JointDistribution(arities=(2,), probs=np.array([0.0, 1.0]))
        assert oracle.tv_distance(p, q) == pytest.approx(1.0)

    def test_quarter(self):
        p = oracle.JointDistribution(arities=(2,), probs=np.array([0.75, 0.25]))
        q = oracle.JointDistribution(arities=(2,), probs=np.array([0.5, 0.5]))
        assert oracle.tv_distance(p, q) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        p = oracle.JointDistribution(arities=(2,), probs=np.array([0.5, 0.5]))
        q = oracle.JointDistribution(arities=(2, 2), probs=np.full((2, 2), 0.25))
        with pytest.raises(UsageError):
            oracle.tv_distance(p, q)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)

        def rand_dist():
            w = rng.random(6) + 1e-9
            return oracle.JointDistribution(arities=(6,), probs=w / w.sum())

        p, q, r = rand_dist(), rand_dist(), rand_dist()
        assert oracle.tv_distance(p, r) <= (
            oracle.tv_distance(p, q) + oracle.tv_distance(q, r) + 1e-12
        )


class TestFrequencyTest:
    def test_sampler_passes(self, cycle3_instance):
        plan = sampling.MeasurementPlan.uniform(cycle3_instance, "ZZ~0.5")
        dists = dec.edge_distribution(cycle3_instance)
        batch = sampling.run_shots(cycle3_instance, plan, 100_000, 0, edge_dists=dists)
        exact = oracle.born_joint_for_instance(cycle3_instance, plan)
        report = oracle.frequency_test(batch, exact)
        assert report.passed
        assert report.tv <= report.threshold

    def test_wrong_plan_fails(self):
        # a Z-aligned interior state separates the ZZ and XX distributions
        config = recipe2_config(lattice="chain:2")
        config["psi"] = "zero:4"
        inst = build(config)
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ~0.5")
        other = sampling.MeasurementPlan.uniform(inst, "XX~0.5")
        dists = dec.edge_distribution(inst)
        batch = sampling.run_shots(inst, plan, 100_000, 0, edge_dists=dists)
        wrong = oracle.born_joint_for_instance(inst, other)
        right = oracle.born_joint_for_instance(inst, plan)
        gap = oracle.tv_distance(right, wrong)
        report = oracle.frequency_test(batch, wrong)
        assert not report.passed
        assert report.tv == pytest.approx(gap, abs=0.05)

    def test_chunks_report_equals_batch(self, cycle3_instance):
        # verify --mode shots counts iter_shots' batches one at a time; blocks
        # of 777 shots (3 edges and 3 sites) give seven batches
        plan = sampling.MeasurementPlan.uniform(cycle3_instance, "ZZ~0.5")
        exact = oracle.born_joint_for_instance(cycle3_instance, plan)
        batch = sampling.run_shots(cycle3_instance, plan, 5000, 2)
        with mock.patch.object(sampling, "_block_shots", lambda n_edges, n_sites: 777):
            batches = list(sampling.iter_shots(cycle3_instance, plan, 5000, 2))
        assert len(batches) == 7
        assert oracle.frequency_test(batches, exact) == oracle.frequency_test(batch, exact)

    def test_one_batch_told_by_its_outcomes(self):
        # a single batch is whatever has outcomes, so the oracle never imports the sampler
        code = (
            "import sys, types\n"
            "import numpy as np\n"
            "from pepslhv import oracle\n"
            "exact = oracle.JointDistribution((2,), np.array([0.5, 0.5]))\n"
            "batch = types.SimpleNamespace(outcomes=np.arange(1000).reshape(-1, 1) % 2)\n"
            "print(oracle.frequency_test(batch, exact).tv, 'pepslhv.sampling' in sys.modules)\n"
        )
        proc = run_capped("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0.0", "False"]

    def test_minimum_shot_count(self, cycle3_instance):
        plan = sampling.MeasurementPlan.uniform(cycle3_instance, "ZZ~0.5")
        dists = dec.edge_distribution(cycle3_instance)
        batch = sampling.run_shots(cycle3_instance, plan, 10, 0, edge_dists=dists)
        exact = oracle.born_joint_for_instance(cycle3_instance, plan)
        with pytest.raises(UsageError):
            oracle.frequency_test(batch, exact)

    def test_report_serializes(self, cycle3_instance):
        plan = sampling.MeasurementPlan.uniform(cycle3_instance, "ZZ~0.5")
        dists = dec.edge_distribution(cycle3_instance)
        batch = sampling.run_shots(cycle3_instance, plan, 2000, 0, edge_dists=dists)
        exact = oracle.born_joint_for_instance(cycle3_instance, plan)
        obj = oracle.frequency_test(batch, exact).to_json()
        assert set(obj) == {"pass", "tv", "threshold", "K", "n_shots", "confidence_k"}
        assert isinstance(obj["pass"], bool)


class TestEmpiricalDistribution:
    def test_counts(self):
        # frequency_test's empirical distribution is these counts over the shot count
        outcomes = np.array([[0, 0], [0, 1], [0, 1], [1, 1]])
        batch = sampling.ShotBatch(start_shot=0, outcomes=outcomes, hidden=None)
        assert oracle.outcome_counts([batch], (2, 2)).tolist() == [1, 2, 0, 1]
        halves = [sampling.ShotBatch(k, outcomes[k:k + 2], None) for k in (0, 2)]
        assert oracle.outcome_counts(halves, (2, 2)).tolist() == [1, 2, 0, 1]
