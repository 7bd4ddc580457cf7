import functools
import io
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import configio
from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv import cli, linalg, sampling
from pepslhv.basis import build_aligned_basis, phase_point_basis
from pepslhv.errors import DegenerateNormError, NotFactorizableError, UsageError
from pepslhv.lattice import build_chain, lattice_from_name
from pepslhv.measurements import (
    MeasurementSet,
    bell_povm,
    dual_margin,
    noisy_pauli_product_measurements,
)

from conftest import build, recipe2_config
from reference import scan_family, site_output_operator

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def trace_table(m, b, flags):
    """tr(O) over the index tuples of one site, shape (D^2,) * v."""
    return dec.operator_traces(dec.site_operator_family(m, b, flags)).reshape((b.D**2,) * m.v)


class TestSiteOutputOperator:
    def test_identity_map_passes_through(self):
        m = con.identity_site_map(1)
        b = phase_point_basis()
        out = dec.site_operator_family(m, b, [False])[0]
        assert np.allclose(out, b.elements[0], atol=1e-14)

    def test_rank_one_sandwich_at_epsilon_zero(self):
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.0)
        b = build_aligned_basis(2, KET0)
        for k, out in enumerate(dec.site_operator_family(m, b, [False])):
            coeff = KET0.conj() @ b.elements[k] @ KET0
            assert np.allclose(out, coeff * np.outer(KET0, KET0.conj()), atol=1e-12)

    def test_trace_formula_with_epsilon(self):
        # Q~ dag Q~ = diag(1, eps^2), so tr(O) = <0|C|0> + eps^2 <1|C|1>
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.5)
        b = build_aligned_basis(2, KET0)
        for k, out in enumerate(dec.site_operator_family(m, b, [False])):
            expected = b.elements[k][0, 0] + 0.25 * b.elements[k][1, 1]
            assert np.trace(out) == pytest.approx(expected.real, abs=1e-12)

    def test_family_rows_match_per_tuple_operator(self):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        m = con.SiteMap(v=3, D=2, d=3, K=K)
        b = build_aligned_basis(2, KET0)
        flags = [False, True, False]
        family = dec.site_operator_family(m, b, flags)
        assert family.shape == (64, 3, 3)
        for r, tup in enumerate(itertools.product(range(4), repeat=3)):
            expected = site_output_operator(m, b, tup, flags)
            assert np.allclose(family[r], expected, atol=1e-12)


class TestPositivityCheck:
    def test_epsilon_zero_slack_equals_interior_margin(self):
        config = recipe2_config(epsilon=0.0, measurements="pauli:2")
        inst = build(config)
        psi = configio.parse_state(config["psi"])
        margin = dual_margin(linalg.projector(psi), inst.measurement_set).margin
        report = dec.rv_positivity_check(inst)
        assert report.passed
        assert report.slack >= margin - 1e-9

    def test_head_head_bell_witness(self):
        # the inadmissible transposition pattern shows up as a -1/2 overlap
        m = con.identity_site_map(2)
        b = phase_point_basis()
        worst = min(
            (np.trace(site_output_operator(m, b, tup, [False, False]) @ x).real
             for tup in itertools.product(range(4), repeat=2)
             for x in bell_povm().elements)
        )
        assert worst == pytest.approx(-0.5, abs=1e-10)

    def test_failure_above_threshold_produces_witness(self):
        inst = build(recipe2_config(epsilon=0.2, measurements="pauli:2"))
        report = dec.rv_positivity_check(inst)
        assert not report.passed
        assert report.witness is not None
        assert report.witness.kind == "dual"
        assert report.witness.value < -1e-9 or report.witness.value > 1 + 1e-9
        # the first failing tuple in site then C-order, as the per-tuple scan found it
        assert report.witness.site == 0
        assert report.witness.indices == (0, 2)
        assert report.witness.povm_index == 5
        assert report.witness.element_index == 3

    def test_report_serializes(self):
        inst = build(recipe2_config(epsilon=0.0))
        obj = dec.rv_positivity_check(inst).to_json()
        assert obj["passed"] is True
        assert len(obj["per_site_slack"]) == 3


class TestTraceFactorization:
    # the rank-one test edge_distribution runs on each trace table
    def test_identity_v2_unit_trace_basis(self):
        m = con.identity_site_map(2)
        table = trace_table(m, phase_point_basis(), [False, True])
        _, _, residual = dec._rank_one_marginals(table)
        assert residual <= dec.FACTOR_RESIDUAL_RTOL
        assert residual <= 1e-12

    def test_recipe2_per_edge_factor_formula(self):
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, 0.3)
        b = build_aligned_basis(2, KET0)
        table = trace_table(m, b, [False, False])
        log_S, q, residual = dec._rank_one_marginals(table)
        assert residual <= dec.FACTOR_RESIDUAL_RTOL
        u = np.array([(c[0, 0] + 0.09 * c[1, 1]).real for c in b.elements])
        recon = np.exp(log_S) * np.multiply.outer(q[0], q[1])
        assert np.allclose(recon, np.multiply.outer(u, u), atol=1e-10)

    def test_head_and_tail_factors_agree(self):
        # diagonals survive transposition, so both ends see the same factor
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, 0.3)
        b = build_aligned_basis(2, KET0)
        t1 = trace_table(m, b, [False, False])
        t2 = trace_table(m, b, [True, True])
        assert np.allclose(t1, t2, atol=1e-12)

    def test_crafted_rank2_table_rejected(self):
        _, _, residual = dec._rank_one_marginals(np.array([[1.0, 1.0], [1.0, 2.0]]))
        assert residual > dec.FACTOR_RESIDUAL_RTOL
        assert residual > 0.1

    @given(
        factors=st.integers(1, 4).flatmap(
            lambda order: st.sampled_from([4, 9]).flatmap(
                lambda width: st.lists(
                    st.lists(st.floats(0.5, 1.0), min_size=width, max_size=width),
                    min_size=order,
                    max_size=order,
                )
            )
        ),
        scale=st.sampled_from([2.0**-300, 1.0, 2.0**300]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_one_tables_accepted_and_bumped_rejected(self, factors, scale):
        factors = [np.array(f) for f in factors]
        table = scale * functools.reduce(np.multiply.outer, factors)
        _, q, residual = dec._rank_one_marginals(table)
        assert residual <= dec.FACTOR_RESIDUAL_RTOL
        for qk, f in zip(q, factors):
            assert np.allclose(qk, f / f.sum(), rtol=1e-12, atol=0)
        if len(factors) > 1:
            # one corner raised by 1e-6 of the peak: rank two; a vector is always rank one
            bumped = table.copy()
            bumped[(0,) * len(factors)] += 1e-6 * table.max()
            assert dec._rank_one_marginals(bumped)[2] > dec.FACTOR_RESIDUAL_RTOL


class TestEdgeDistribution:
    def test_epsilon_zero_uniform(self):
        inst = build(recipe2_config(epsilon=0.0))
        dists = dec.edge_distribution(inst)
        for p in dists.probs:
            assert np.allclose(p, 0.25, atol=1e-12)

    def test_chain2_normalization_cross_check(self):
        from pepslhv.lattice import build_chain
        from pepslhv.measurements import noisy_pauli_product_measurements

        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.5)
        inst = con.PepsInstance(
            lattice=build_chain(2),
            site_maps=(m, m),
            basis=build_aligned_basis(2, KET0),
            measurement_set=noisy_pauli_product_measurements(1, 0.5),
        )
        dists = dec.edge_distribution(inst)
        assert dists.T == pytest.approx(0.53125, abs=1e-10)

    def test_log_T_matches_mixture_normalization(self):
        inst = build(recipe2_config(lattice="cycle:6"))
        dists = dec.edge_distribution(inst)
        assert dists.log_T == pytest.approx(math.log(dec.mixture_normalization(inst)), abs=1e-12)
        assert dists.T == math.exp(dists.log_T)

    @pytest.mark.parametrize(
        "lattice, T", [("cycle:6", 0.015775601281537033), ("chain:2", 0.5008)]
    )
    def test_T_pinned(self, lattice, T):
        # prod_e Z_e / D^(2E); exp(log_T) must keep it to 1e-12
        assert dec.edge_distribution(build(recipe2_config(lattice=lattice))).T == pytest.approx(
            T, rel=1e-12
        )

    def test_log_T_finite_where_T_underflows(self):
        # log T is additive over identical edges; T itself is below the
        # smallest double at 1200 edges
        log_T6 = dec.edge_distribution(build(recipe2_config(lattice="cycle:6"))).log_T
        dists = dec.edge_distribution(build(recipe2_config(lattice="cycle:1200")))
        assert math.isfinite(dists.log_T)
        assert dists.log_T == pytest.approx(200 * log_T6, rel=1e-9)
        assert dists.T == 0.0

    def test_probs_one_row_per_edge(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        assert isinstance(dists.probs, np.ndarray)
        assert dists.probs.shape == (cycle3_instance.lattice.n_edges, cycle3_instance.D**2)

    def test_probabilities_normalized(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        for p in dists.probs:
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_joint_matches_brute_force(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        numerators = dec.mixture_weights(cycle3_instance)
        total = numerators.sum()
        for assignment, weight in np.ndenumerate(numerators):
            product = np.prod([dists.probs[e][k] for e, k in enumerate(assignment)])
            assert product == pytest.approx(weight / total, abs=1e-12)

    def test_non_factorizable_instance_refused(self):
        kraus = np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)
        m = con.SiteMap(2, 2, 4, kraus)
        from pepslhv.lattice import build_cycle
        from pepslhv.measurements import noisy_pauli_product_measurements

        inst = con.PepsInstance(
            lattice=build_cycle(3),
            site_maps=(m, m, m),
            basis=build_aligned_basis(2, KET0),
            measurement_set=noisy_pauli_product_measurements(2, 0.5),
        )
        with pytest.raises(NotFactorizableError):
            dec.edge_distribution(inst)

    def test_non_positive_trace_refused(self):
        # K = |0><0| keeps <0|C_k|0>, which is 0 for half the phase points
        from pepslhv.lattice import build_chain
        from pepslhv.measurements import noisy_pauli_product_measurements

        m = con.SiteMap(1, 2, 2, np.diag([1.0, 0.0]).astype(complex))
        inst = con.PepsInstance(
            lattice=build_chain(2),
            site_maps=(m, m),
            basis=phase_point_basis(),
            measurement_set=noisy_pauli_product_measurements(1, 0.5),
        )
        with pytest.raises(NotFactorizableError, match="non-positive output trace"):
            dec.edge_distribution(inst)

    def test_non_finite_trace_is_usage_error(self):
        # no errstate here: the suite turns numpy warnings into errors
        inst = scaled(build(recipe2_config(lattice="cycle:6")), 2.0**600)
        with pytest.raises(UsageError, match="site 0: non-finite output operator"):
            dec.edge_distribution(inst)

    def test_memory_is_one_family(self):
        # one 1 MiB family at a time, built (with K @ prod) and kept as its
        # 256 traces; holding the three families first took 4.0 MiB
        inst = torus3x3_instance()
        dec.edge_distribution(inst)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dec.edge_distribution(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


def scaled(inst, factor):
    """inst with every distinct site map's Kraus operator times factor, sharing kept."""
    maps = {id(m): con.SiteMap(m.v, m.D, m.d, m.K * factor) for m in inst.site_maps}
    return con.PepsInstance(
        lattice=inst.lattice,
        site_maps=tuple(maps[id(m)] for m in inst.site_maps),
        basis=inst.basis,
        measurement_set=inst.measurement_set,
    )


SCALED_CASES = pytest.mark.parametrize(
    "lattice, qubits, epsilon", [("cycle:6", 2, 0.2), ("torus:3x3", 4, 0.1)],
    ids=["cycle6", "torus3x3"],
)


def scaled_config(lattice, qubits, epsilon):
    config = recipe2_config(lattice, epsilon, f"noisy-pauli:{qubits}:0.5")
    config["psi"] = f"plus-diag:{qubits}"
    return config


def scaled_case(lattice, qubits, epsilon):
    return build(scaled_config(lattice, qubits, epsilon))


def scaled_file(tmp_path, lattice, qubits, epsilon, power):
    """Path of the case as a `custom` instance file, its Kraus operator times 2^power."""
    config = scaled_config(lattice, qubits, epsilon)
    K = build(config).site_maps[0].K * 2.0**power
    config["site_map"] = {"recipe": "custom", "kraus": linalg.matrix_to_json(K)}
    path = tmp_path / f"scaled{power}.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestKrausScale:
    # powers of two scale every trace exactly, so nothing normalized may move
    @SCALED_CASES
    @pytest.mark.parametrize("power", [300, -300])
    def test_edge_distribution_scale_invariant(self, lattice, qubits, epsilon, power):
        inst = scaled_case(lattice, qubits, epsilon)
        base = dec.edge_distribution(inst)
        dists = dec.edge_distribution(scaled(inst, 2.0**power))
        assert np.all(np.isfinite(dists.probs))
        assert np.allclose(dists.probs, base.probs, rtol=1e-9, atol=0)
        shift = 2 * inst.lattice.n_sites * power * math.log(2)
        assert dists.log_T == pytest.approx(base.log_T + shift, rel=1e-9)

    @SCALED_CASES
    def test_shots_scale_invariant(self, lattice, qubits, epsilon):
        inst = scaled_case(lattice, qubits, epsilon)
        plan = sampling.MeasurementPlan.uniform(inst, "Z" * qubits + "~0.5")
        outputs = []
        for which in (inst, scaled(inst, 2.0**300)):
            fh = io.StringIO()
            sampling.run_shots(which, plan, 2000, 0, emit_hidden=True).write_jsonl(fh)
            outputs.append(fh.getvalue())
        assert outputs[0] == outputs[1]

    def test_born_state_overflow_is_degenerate_norm(self):
        # the state's entries run about 2^(300 N), past the float range
        inst = scaled(scaled_case("cycle:6", 2, 0.2), 2.0**300)
        with pytest.raises(DegenerateNormError, match="squared norm (inf|nan)"):
            con.assemble_exact_state(inst)

    @pytest.mark.parametrize("power", [300, -300, 600])
    def test_choi_check_scale_invariant(self, power):
        m = scaled_case("cycle:6", 2, 0.2).site_maps[0]
        base = con.choi_check(m)
        assert math.isfinite(base) and base >= -1e-9
        assert con.choi_check(con.SiteMap(m.v, m.D, m.d, m.K * 2.0**power)) == base

    def test_all_zero_kraus_rejected(self):
        with pytest.raises(UsageError, match="all zero"):
            con.SiteMap(2, 2, 4, np.zeros((4, 4)))

    # the same cases as `custom` instance files through the CLI

    @SCALED_CASES
    @pytest.mark.parametrize("power", [300, -300])
    def test_cli_check_passes_with_unscaled_slack(
        self, tmp_path, capsys, lattice, qubits, epsilon, power
    ):
        reports = []
        for p in (0, power):
            path = scaled_file(tmp_path, lattice, qubits, epsilon, p)
            assert cli.main(["peps", "check", path]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        for key in ("passed", "slack", "per_site_slack"):
            assert reports[1][key] == reports[0][key]

    @SCALED_CASES
    def test_cli_sample_bytes_unscaled(self, tmp_path, lattice, qubits, epsilon):
        outputs = []
        for p in (0, -300):
            out = tmp_path / f"shots{p}.jsonl"
            assert cli.main([
                "sample", scaled_file(tmp_path, lattice, qubits, epsilon, p),
                "--plan", "all:" + "Z" * qubits + "~0.5", "--shots", "500",
                "--emit-hidden", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cli_sample_bytes_at_trace_overflow(self, tmp_path, capsys):
        # x 2^511: every trace is finite, but a site's trace total is not
        outputs = []
        for p in (0, 511):
            out = tmp_path / f"shots{p}.jsonl"
            assert cli.main([
                "sample", scaled_file(tmp_path, "cycle:6", 2, 0.2, p),
                "--plan", "all:ZZ~0.5", "--shots", "500", "--emit-hidden", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == ""

    @SCALED_CASES
    @pytest.mark.parametrize("command", ["sample", "check", "verify"])
    def test_cli_overflow_exit_2_one_line(
        self, tmp_path, capsys, lattice, qubits, epsilon, command
    ):
        path = scaled_file(tmp_path, lattice, qubits, epsilon, 600)
        plan = ["--plan", "all:" + "Z" * qubits + "~0.5"]
        argv = {
            "sample": ["sample", path, *plan, "--shots", "10", "--out", str(tmp_path / "s.jsonl")],
            "check": ["peps", "check", path],
            "verify": ["verify", path, *plan, "--mode", "mixture"],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_cli_all_zero_kraus_exit_2(self, tmp_path, capsys):
        config = recipe2_config()
        config["site_map"] = {"recipe": "custom", "kraus": linalg.matrix_to_json(np.zeros((4, 4)))}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        assert cli.main(["peps", "check", str(path)]) == 2
        assert capsys.readouterr().err == "error: Kraus operator is all zero\n"


class TestRelativeTraceFloor:
    # the noisy Pauli overlaps of a multiple of I are 1/2, so only the trace test decides
    m = con.identity_site_map(1)
    INSTANCE = con.PepsInstance(
        lattice=build_chain(2),
        site_maps=(m, m),
        basis=phase_point_basis(),
        measurement_set=noisy_pauli_product_measurements(1, 0.5),
    )
    STACK, WHERE = INSTANCE.measurement_set.element_stack()

    def scan(self, traces):
        ops = np.asarray(traces)[:, None, None] * np.eye(2) / 2
        return dec._scan_family(self.INSTANCE, 1, ops, self.STACK, self.WHERE)

    @pytest.mark.parametrize("power", [0, -300])
    @pytest.mark.parametrize("low, passes", [(1e-11, False), (1e-9, True)])
    def test_row_below_floor_of_largest_fails(self, power, low, passes):
        _, slack, _, witness = self.scan(np.array([1.0, 0.5, low, 0.25]) * 2.0**power)
        if passes:
            assert witness is None and slack == pytest.approx(0.5)
        else:
            assert (witness.site, witness.indices, witness.kind) == (1, (2,), "trace")

    @pytest.mark.parametrize(
        "traces, row",
        [([1.0, 0.0, 1.0, 1.0], 1), ([0.0] * 4, 0), ([-1.0, -1e-11, -2.0, -1.0], 0)],
        ids=["one-zero", "all-zero", "all-negative"],
    )
    def test_non_positive_trace_fails(self, traces, row):
        witness = self.scan(traces)[3]
        assert (witness.indices, witness.kind, witness.value) == ((row,), "trace", traces[row])


def torus3x3_instance():
    # the desk-oracle certificate instance: d = 16, 256 rows per family, 1296 elements
    config = recipe2_config(lattice="torus:3x3", epsilon=0.1, measurements="noisy-pauli:4:0.5")
    config["psi"] = "plus-diag:4"
    return build(config)


def report_fields(report):
    return report.passed, report.slack, report.min_trace, report.per_site_slack, report.witness


class TestBlockedScan:
    """The row-blocked scan against the full (rows, elements) matrices of tests/reference.py."""

    PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    @staticmethod
    def full_scan_report(instance):
        with mock.patch.object(dec, "_scan_family", scan_family):
            return dec.rv_positivity_check(instance)

    def family(self, traces, bloch):
        """Rows tr (I + a . sigma) / 2: against eta = 0.5 Paulis, a row fails iff some |a_k| > 2."""
        ops = np.eye(2) + np.einsum("rk,kij->rij", bloch, self.PAULI)
        return np.asarray(traces)[:, None, None] * ops / 2

    @given(
        lattice=st.sampled_from(["chain:2", "chain:3", "cycle:3", "torus:3x3"]),
        rows_per_block=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        doubled=st.booleans(),
        marks=st.lists(
            st.tuples(
                st.integers(0, 255),
                st.sampled_from(["floor", "zero", "negative", "dual", "dual-tie", "edge"]),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_full_matrix_scan(self, lattice, rows_per_block, seed, doubled, marks):
        # doubled: every POVM twice, so each element ties with its copy and the first must win
        mset = noisy_pauli_product_measurements(1, 0.5)
        if doubled:
            mset = MeasurementSet(povms=mset.povms + mset.povms)
        lat = lattice_from_name(lattice)
        # the maps only shape the instance: its families are patched in below
        inst = con.PepsInstance(
            lattice=lat,
            site_maps=tuple(con.SiteMap(v, 2, 2, np.eye(2, 2**v)) for v in lat.site_degrees()),
            basis=phase_point_basis(),
            measurement_set=mset,
        )
        rng = np.random.default_rng(seed)
        families, site_family = [], []
        for v in lat.site_degrees():
            rows = 4**v
            traces = rng.uniform(0.1, 2.0, rows)
            bloch = rng.uniform(-1.9, 1.9, (rows, 3))
            for r, mark in marks:
                r %= rows
                traces[r] = {"floor": 1e-11, "zero": 0.0, "negative": -0.5}.get(mark, traces[r])
                if mark.startswith("dual"):
                    bloch[r] = (3.0, 3.0, 3.0) if mark == "dual-tie" else (0.0, -2.5, 1.0)
                if mark == "edge":
                    bloch[r] = (0.0, 0.0, 2.0)  # an overlap of 1: slack 0 up to rounding
            site_family.append(len(families))
            families.append(self.family(traces, bloch))
        # the certificate builds one family at a time through these two
        firsts = [site_family.index(f) for f in range(len(families))]
        with mock.patch.object(dec, "_family_sites", lambda _: (firsts, site_family)), \
                mock.patch.object(dec, "_family_stack", lambda _, s: families[site_family[s]]):
            expected = self.full_scan_report(inst)
            n_elements = len(mset.element_stack()[0])
            with mock.patch.object(dec, "SCAN_BLOCK_ENTRIES", rows_per_block * n_elements):
                got = dec.rv_positivity_check(inst)
        assert report_fields(got) == report_fields(expected)
        if got.witness is not None and got.witness.kind == "dual":
            assert got.witness.povm_index < 3

    def test_dual_witness_in_a_later_block(self):
        inst = TestRelativeTraceFloor.INSTANCE
        stack, where = inst.measurement_set.element_stack()
        ops = self.family([1.0, 0.5, 0.3, 0.7], [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, -2.5)])
        expected = scan_family(inst, 1, ops, stack, where)
        with mock.patch.object(dec, "SCAN_BLOCK_ENTRIES", 2 * len(stack)):
            got = dec._scan_family(inst, 1, ops, stack, where, keep=True)
        assert got[1:] == expected[1:]
        w = got[3]
        assert (w.indices, w.kind, w.povm_index, w.element_index) == ((3,), "dual", 2, 0)
        assert w.value == pytest.approx(-0.125, abs=1e-15)
        assert got[0].tobytes() == expected[0].tobytes()

    def test_torus3x3_at_the_default_block_budget(self):
        # three blocks of 86, 86 and 84 rows per family, each far above BLAS's small-matrix sizes
        inst = torus3x3_instance()
        assert report_fields(dec.rv_positivity_check(inst)) == report_fields(
            self.full_scan_report(inst)
        )
        families, _ = dec.site_families(inst)
        stack, where = inst.measurement_set.element_stack()
        normed = dec._scan_family(inst, 0, families[0], stack, where, keep=True)[0]
        assert normed.tobytes() == scan_family(inst, 0, families[0], stack, where)[0].tobytes()

    @pytest.mark.parametrize("n_rows, width", [(256, 1296), (16, 36), (5, 2**17), (1, 2**18), (4096, 16)])
    def test_row_blocks_cover_in_order(self, n_rows, width):
        blocks = list(dec._row_blocks(n_rows, width))
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == n_rows
        sizes = [b - a for a, b in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= min(2, n_rows)
        assert max(sizes) * width <= max(dec.SCAN_BLOCK_ENTRIES, 3 * width)

    def test_memory_is_families_and_one_block(self):
        # one 1 MiB family at a time: its build holds it and K @ prod, and its
        # scan holds it and at most two blocks of SCAN_BLOCK_ENTRIES overlaps
        # (the next block is made before the last is dropped); 2.7 MiB in all.
        # Building the three families first took 5.0 MiB, and the full
        # (rows, elements) matrices with a copied element stack 21.7 MB.
        inst = torus3x3_instance()
        dec.rv_positivity_check(inst)
        tracemalloc.start()
        try:
            dec.rv_positivity_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20


class TestMixtureReconstruction:
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_cycle3_exact(self, eps):
        inst = build(recipe2_config(epsilon=eps))
        rho, weights = dec.reconstruct_mixture(inst)
        state, T = con.assemble_exact_state(inst)
        exact = np.outer(state, state.conj()) / T
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)
        assert np.all(weights > 0)
        assert linalg.trace_distance(rho, exact) <= 1e-10

    def test_chain2_four_terms(self):
        inst = build(recipe2_config(lattice="chain:2"))
        terms = dec.mixture_weights(inst)
        assert terms.size == 4

    @pytest.mark.parametrize(
        "config",
        [
            recipe2_config(lattice="chain:3"),
            recipe2_config(),
            {
                "lattice": "cycle:3",
                "basis": "phase-point",
                "measurements": "bell",
                "site_map": {"recipe": "identity"},
            },
        ],
        ids=["chain3", "cycle3", "cycle3-identity"],
    )
    def test_mixture_weights_match_enumeration(self, config):
        inst = build(config)
        lat = inst.lattice
        n = inst.D**2
        weights = dec.mixture_weights(inst)
        assert weights.shape == (n,) * lat.n_edges
        for assignment in itertools.product(range(n), repeat=lat.n_edges):
            expected = 1.0
            for s, m in enumerate(inst.site_maps):
                tup = [assignment[e] for e, _ in lat.incident_edges(s)]
                flags = [not ishead for _, ishead in lat.incident_edges(s)]
                expected *= np.trace(site_output_operator(m, inst.basis, tup, flags)).real
            assert weights[assignment] == pytest.approx(expected, abs=1e-12)

    def test_physical_dimension_past_int64_refused(self, monkeypatch):
        # 16 sites of d = 16 on an 8-edge matching: the dimension is 2^64, which
        # an int64 product wraps to 0; both guards must refuse before contracting,
        # and the mixture's before building any site family
        config = recipe2_config(
            lattice={"n_sites": 16, "edges": [[2 * k, 2 * k + 1] for k in range(8)]},
            measurements="noisy-pauli:4:0.5",
        )
        config["psi"] = "plus-diag:4"
        inst = build(config)

        def no_contraction(*args, **kwargs):
            raise AssertionError("contracted past the size guard")

        def no_families(*args, **kwargs):
            raise AssertionError("built site families past the size guard")

        monkeypatch.setattr(con, "contract_edges", no_contraction)
        monkeypatch.setattr(dec, "contract_edges", no_contraction)
        monkeypatch.setattr(dec, "site_families", no_families)
        with pytest.raises(UsageError, match="physical dimension too large"):
            con.assemble_exact_state(inst)
        with pytest.raises(UsageError, match="physical dimension too large"):
            dec.reconstruct_mixture(inst)
        with pytest.raises(UsageError, match="physical dimension too large"):
            dec.mixture_weights(inst)

    def test_families_built_once(self, cycle3_instance, monkeypatch):
        build_families = dec.site_families
        calls = []

        def counted(instance):
            calls.append(instance)
            return build_families(instance)

        monkeypatch.setattr(dec, "site_families", counted)
        dec.reconstruct_mixture(cycle3_instance)
        assert len(calls) == 1

    def test_T_consistency_three_ways(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        _, T_exact = con.assemble_exact_state(cycle3_instance)
        T_enum = dec.mixture_normalization(cycle3_instance)
        assert dists.T == pytest.approx(T_exact, rel=1e-10)
        assert T_enum == pytest.approx(T_exact, rel=1e-10)


class TestMaxEpsilonSearch:
    def test_no_failure_below_cap(self):
        def make(eps):
            return build(recipe2_config(epsilon=eps))

        lo, hi = dec.max_epsilon_search(make, 0.05)
        assert lo == 0.05 and hi == np.inf

    def test_bracket_verified(self):
        def make(eps):
            return build(recipe2_config(epsilon=eps, measurements="pauli:2"))

        lo, hi = dec.max_epsilon_search(make, 0.5)
        assert hi - lo <= 1e-4
        assert dec.rv_positivity_check(make(lo)).passed
        assert not dec.rv_positivity_check(make(hi)).passed

    def test_boundary_state_fails_immediately(self):
        # psi = |00> sits on the dual boundary; any epsilon > 0 breaks positivity
        psi00 = np.eye(4, dtype=complex)[0]

        def make(eps):
            states = con.recipe2_states_from_interior(psi00, 2)
            m = con.recipe2_site_map(2, 4, states, eps)
            from pepslhv.lattice import build_cycle
            from pepslhv.measurements import pauli_product_measurements

            return con.PepsInstance(
                lattice=build_cycle(3),
                site_maps=(m, m, m),
                basis=build_aligned_basis(2, KET0),
                measurement_set=pauli_product_measurements(2),
            )

        lo, hi = dec.max_epsilon_search(make, 0.1)
        assert hi <= 1e-4
