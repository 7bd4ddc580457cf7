import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import cli, sampling
from pepslhv import decomposition as dec
from pepslhv.errors import PositivityViolationError, UsageError

from conftest import build, recipe2_config


@pytest.fixture(scope="module")
def chain4():
    return build(recipe2_config(lattice="chain:4"))


@pytest.fixture(scope="module")
def chain4_dists(chain4):
    return dec.edge_distribution(chain4)


def uniform_plan(instance, label="ZZ~0.5"):
    return sampling.MeasurementPlan.uniform(instance, label)


class TestMeasurementPlan:
    def test_uniform(self, chain4):
        plan = uniform_plan(chain4)
        assert len(plan.povm_indices) == 4
        assert len(set(plan.povm_indices)) == 1

    def test_from_labels_length_check(self, chain4):
        with pytest.raises(UsageError):
            sampling.MeasurementPlan.from_labels(chain4, ["ZZ~0.5"] * 3)

    def test_unknown_label(self, chain4):
        with pytest.raises(UsageError):
            sampling.MeasurementPlan.uniform(chain4, "WW")


class TestCounterStreams:
    def test_partition_independence(self):
        whole = sampling.shot_uniforms(7, 0, 100, 5)
        head = sampling.shot_uniforms(7, 0, 60, 5)
        tail = sampling.shot_uniforms(7, 60, 40, 5)
        assert np.array_equal(whole, np.vstack([head, tail]))

    def test_labels_are_disjoint_streams(self):
        a = sampling.shot_uniforms(7, 0, 50, 4, label="edges")
        b = sampling.shot_uniforms(7, 0, 50, 4, label="sites")
        assert not np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert sampling.derive_seed(3, "edges") == sampling.derive_seed(3, "edges")
        assert sampling.derive_seed(3, "edges") != sampling.derive_seed(4, "edges")


class TestSampleHidden:
    def test_degenerate_distribution(self):
        probs = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])]
        for shot in range(20):
            out = sampling.sample_hidden(probs, seed=1, shot=shot)
            assert out[0] == 0 and out[1] == 3

    def test_deterministic(self):
        probs = [np.full(4, 0.25)]
        a = sampling.sample_hidden(probs, seed=5, shot=9)
        b = sampling.sample_hidden(probs, seed=5, shot=9)
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        probs = [np.full(4, 0.25)]
        n = 100_000
        counts = np.zeros(4)
        draws = sampling.shot_uniforms(3, 0, n, 1, label="edges")[:, 0]
        idx = np.minimum((draws * 4).astype(int), 3)
        counts = np.bincount(idx, minlength=4)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 4 * sigma)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_batched_run(self, shot):
        probs = [np.array([0.1, 0.2, 0.3, 0.4]), np.full(4, 0.25)]
        single = sampling.sample_hidden(probs, seed=11, shot=shot)
        # the batched sampler must agree with the one-shot path
        u = sampling.shot_uniforms(11, shot, 1, 2, label="edges")[0]
        for e, p in enumerate(probs):
            cdf = np.cumsum(p)
            cdf[-1] = 1.0
            assert single[e] == min(int(np.searchsorted(cdf, u[e], side="right")), 3)


class TestRunShots:
    def test_zero_shots(self, chain4, chain4_dists):
        batch = sampling.run_shots(chain4, uniform_plan(chain4), 0, 0, edge_dists=chain4_dists)
        assert batch.n_shots == 0
        assert list(batch.records()) == []

    def test_chunk_partition_determinism(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        whole = sampling.run_shots(chain4, plan, 5000, 42, edge_dists=chain4_dists, emit_hidden=True)
        head = sampling.run_shots(chain4, plan, 3000, 42, edge_dists=chain4_dists, emit_hidden=True)
        tail = sampling.run_shots(
            chain4, plan, 2000, 42, edge_dists=chain4_dists, emit_hidden=True, start_shot=3000
        )
        assert np.array_equal(whole.outcomes, np.vstack([head.outcomes, tail.outcomes]))
        assert np.array_equal(whole.hidden, np.vstack([head.hidden, tail.hidden]))

    def test_worker_count_does_not_change_output(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        a = sampling.run_shots(chain4, plan, 4000, 1, edge_dists=chain4_dists, workers=1, chunk=512)
        b = sampling.run_shots(chain4, plan, 4000, 1, edge_dists=chain4_dists, workers=4, chunk=512)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_single_shot_path_agrees(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        batch = sampling.run_shots(chain4, plan, 50, 9, edge_dists=chain4_dists, emit_hidden=True)
        for rec in list(batch.records())[:10]:
            redo = sampling.sample_outcomes(chain4, rec.hidden, plan, seed=9, shot=rec.shot)
            assert redo.outcomes == rec.outcomes

    def test_jsonl_records(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        batch = sampling.run_shots(chain4, plan, 3, 0, edge_dists=chain4_dists, emit_hidden=True)
        lines = [r.to_json() for r in batch.records()]
        parsed = [json.loads(l) for l in lines]
        assert [p["shot"] for p in parsed] == [0, 1, 2]
        assert all(len(p["outcomes"]) == 4 for p in parsed)
        assert all(len(p["hidden"]) == 3 for p in parsed)

    def test_outcome_indices_in_range(self, chain4, chain4_dists):
        batch = sampling.run_shots(chain4, uniform_plan(chain4), 2000, 3, edge_dists=chain4_dists)
        assert batch.outcomes.min() >= 0
        assert batch.outcomes.max() < 4

    def test_uncertified_instance_raises_witness(self):
        inst = build(recipe2_config(epsilon=0.2, measurements="pauli:2"))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ")
        dists = dec.edge_distribution(inst)
        with pytest.raises(PositivityViolationError) as err:
            sampling.run_shots(inst, plan, 10, 0, edge_dists=dists)
        assert err.value.witness is not None


class TestDeterministicGivenLambda:
    def test_identity_bell_outcomes_fixed_by_hidden(self, identity_bell_config):
        # head-tail Bell probabilities are all 0 or 1, so lambda decides the outcome
        inst = build(identity_bell_config)
        plan = sampling.MeasurementPlan.uniform(inst, "bell")
        for assignment in [(0, 0, 0), (1, 2, 3), (3, 3, 3)]:
            first = sampling.sample_outcomes(inst, assignment, plan, seed=0, shot=0)
            for shot in range(1, 6):
                again = sampling.sample_outcomes(inst, assignment, plan, seed=shot, shot=shot)
                assert again.outcomes == first.outcomes


class TestGoldenDigest:
    # sha256 of the `pepslhv sample` JSONL at seed 0; any change to the
    # kernel, the CDF tables or the record format that moves a byte fails here
    @pytest.mark.parametrize(
        "lattice, qubits, epsilon, plan, hidden, digest",
        [
            ("cycle:6", 2, 0.2, "all:ZZ~0.5", True,
             "a2a64a2bea562b446571c63eeab83318adec2dde5f438707402b11c06c9aa60f"),
            ("torus:3x3", 4, 0.1, "all:ZZZZ~0.5", False,
             "2e61a5a3663be6f2bc9b717b8f6e18e45540cf73c0e1fc00825178785eb47ff9"),
        ],
        ids=["cycle6-hidden", "torus3x3-d16"],
    )
    def test_sample_jsonl_digest(self, tmp_path, lattice, qubits, epsilon, plan, hidden, digest):
        inst = tmp_path / "inst.json"
        assert cli.main([
            "peps", "build",
            "--lattice", lattice,
            "--basis", "aligned:2:zero",
            "--measurements", f"noisy-pauli:{qubits}:0.5",
            "--recipe", "2",
            "--psi", f"plus-diag:{qubits}",
            "--epsilon", str(epsilon),
            "--out", str(inst),
        ]) == 0
        out = tmp_path / "shots.jsonl"
        argv = ["sample", str(inst), "--plan", plan, "--shots", "2000", "--seed", "0",
                "--out", str(out)]
        assert cli.main(argv + (["--emit-hidden"] if hidden else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
