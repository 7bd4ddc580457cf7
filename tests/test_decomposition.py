import functools
import io
import itertools
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import basis as basis_mod
from pepslhv import configio, epsilon_probe, oracle
from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv import cli, linalg, sampling
from pepslhv import measurements as meas_mod
from pepslhv.basis import basis_products, build_aligned_basis, phase_point_basis
from pepslhv.errors import NotFactorizableError, UsageError
from pepslhv.lattice import Lattice, build_chain, build_cycle, lattice_from_name
from pepslhv.measurements import (
    ELEMENT_BLOCK_ENTRIES,
    MeasurementSet,
    Povm,
    bell_povm,
    dual_margin,
    measurement_set_from_name,
)

from conftest import build, recipe2_config
import reference
from reference import (
    complex_scan_family,
    element_stack,
    family_coords,
    file_copy,
    first_site_groups,
    scan_family,
    site_output_operator,
)

KET0 = np.array([1, 0], dtype=complex)


def trace_table(m, b, flags):
    """tr(O) over the index tuples of one site, shape (D^2,) * v."""
    return reference.operator_traces(dec.site_operator_family(m, b, flags)).reshape((b.D**2,) * m.v)


def coords_of(ops):
    """(real coordinates, traces) of a complex family, as decomposition._families gives them.

    A family's off-diagonal coordinates are half an element's: the Hermitian
    part over E_ij + E_ji and i(E_ij - E_ji).
    """
    coords = np.ascontiguousarray(dec._hermitian_coords(np.asarray(ops, dtype=complex)).T)
    coords[:, ops.shape[-1] :] /= 2
    return coords, coords[:, : ops.shape[-1]].sum(axis=1)


def coord_blocks(blocks):
    """Complex (where, elements) blocks as the (where, element coordinates) blocks _scan_family reads."""
    return [(where, dec._hermitian_coords(elements)) for where, elements in blocks]


def scan_ops(inst, site, ops, blocks, keep=False):
    """decomposition._scan_family of a complex family against complex element blocks."""
    blocks = coord_blocks(blocks)
    return dec._scan_family(inst, site, *coords_of(ops), blocks, sum(len(w) for w, _ in blocks), keep=keep)


def reference_scan(inst, site, ops, blocks):
    """tests/reference.py's full-matrix scan_family of the same operands as scan_ops."""
    return scan_family(inst, site, *coords_of(ops), coord_blocks(blocks))


class TestSiteOutputOperator:
    def test_identity_map_passes_through(self):
        m = con.identity_site_map(1)
        b = phase_point_basis()
        out = dec.site_operator_family(m, b, [False])[0]
        assert np.allclose(out, b.elements[0], atol=1e-14)

    def test_rank_one_sandwich_at_epsilon_zero(self):
        m = con.recipe2_maker(1, 2, KET0)(0.0)
        b = build_aligned_basis(2, KET0)
        for k, out in enumerate(dec.site_operator_family(m, b, [False])):
            coeff = KET0.conj() @ b.elements[k] @ KET0
            assert np.allclose(out, coeff * np.outer(KET0, KET0.conj()), atol=1e-12)

    def test_trace_formula_with_epsilon(self):
        # Q~ dag Q~ = diag(1, eps^2), so tr(O) = <0|C|0> + eps^2 <1|C|1>
        m = con.recipe2_maker(1, 2, KET0)(0.5)
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


class TestFamilySites:
    # a site family is keyed by (degree, head flags); with one map per degree
    # these are the groups, numbered alike, of (map identity, head flags)
    @pytest.mark.parametrize(
        "lattice",
        ["chain:5", "cycle:4", "torus:3x4",
         {"n_sites": 6, "edges": [[0, 1], [2, 0], [0, 3], [4, 0], [5, 0]]}],
        ids=["chain5", "cycle4", "torus3x4", "star5"],
    )
    def test_degree_keys_match_identity_keys(self, lattice):
        lat = configio.parse_lattice(lattice)
        inst = con.PepsInstance(
            lattice=lat,
            maps={v: con.SiteMap(v, 2, 2, np.eye(2, 2**v)) for v in set(lat.degrees.tolist())},
            basis=phase_point_basis(),
            measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
        )
        keys = [(id(m), *lat.is_head[:, s].tolist()) for s, m in enumerate(inst.site_maps)]
        firsts, site_family = dec._family_sites(inst)
        assert (firsts, site_family.tolist()) == first_site_groups(keys)
        assert len(firsts) > 1


class TestPositivityCheck:
    def test_epsilon_zero_slack_equals_interior_margin(self):
        config = recipe2_config(epsilon=0.0, measurements="pauli:2")
        inst = build(config)
        psi = configio.parse_state(config["psi"], inst.measurement_set.dim)
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
        m = con.recipe2_maker(2, 4, np.eye(4, dtype=complex)[0])(0.3)
        b = build_aligned_basis(2, KET0)
        table = trace_table(m, b, [False, False])
        log_S, q, residual = dec._rank_one_marginals(table)
        assert residual <= dec.FACTOR_RESIDUAL_RTOL
        u = np.array([(c[0, 0] + 0.09 * c[1, 1]).real for c in b.elements])
        recon = np.exp(log_S) * np.multiply.outer(q[0], q[1])
        assert np.allclose(recon, np.multiply.outer(u, u), atol=1e-10)

    def test_head_and_tail_factors_agree(self):
        # diagonals survive transposition, so both ends see the same factor
        m = con.recipe2_maker(2, 4, np.eye(4, dtype=complex)[0])(0.3)
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

        inst = con.PepsInstance(
            lattice=build_chain(2),
            maps={1: con.recipe2_maker(1, 2, KET0)(0.5)},
            basis=build_aligned_basis(2, KET0),
            measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
        )
        dists = dec.edge_distribution(inst)
        assert dists.T == pytest.approx(0.53125, abs=1e-10)

    def test_log_T_matches_mixture_normalization(self):
        inst = build(recipe2_config(lattice="cycle:6"))
        dists = dec.edge_distribution(inst)
        T = reference.mixture_normalization(inst)
        assert dists.log_T == pytest.approx(math.log(T), abs=1e-12)
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
        numerators = reference.mixture_weights(cycle3_instance)
        total = numerators.sum()
        for assignment, weight in np.ndenumerate(numerators):
            product = np.prod([dists.probs[e][k] for e, k in enumerate(assignment)])
            assert product == pytest.approx(weight / total, abs=1e-12)

    def test_non_factorizable_instance_refused(self):
        kraus = np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)
        from pepslhv.lattice import build_cycle

        inst = con.PepsInstance(
            lattice=build_cycle(3),
            maps={2: con.SiteMap(2, 2, 4, kraus)},
            basis=build_aligned_basis(2, KET0),
            measurement_set=measurement_set_from_name("noisy-pauli:2:0.5"),
        )
        with pytest.raises(NotFactorizableError):
            dec.edge_distribution(inst)

    def test_non_positive_trace_refused(self):
        # K = |0><0| keeps <0|C_k|0>, which is 0 for half the phase points
        from pepslhv.lattice import build_chain

        inst = con.PepsInstance(
            lattice=build_chain(2),
            maps={1: con.SiteMap(1, 2, 2, np.diag([1.0, 0.0]).astype(complex))},
            basis=phase_point_basis(),
            measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
        )
        with pytest.raises(NotFactorizableError, match="non-positive output trace"):
            dec.edge_distribution(inst)

    def test_non_finite_trace_is_usage_error(self):
        # no errstate here: the suite turns numpy warnings into errors
        inst = scaled(build(recipe2_config(lattice="cycle:6")), 2.0**600)
        with pytest.raises(UsageError, match="site 0: non-finite output operator"):
            dec.edge_distribution(inst)

    def test_memory_is_one_family(self):
        # one family at a time, its coordinates in two 0.53 MiB buffers and
        # its 0.5 MiB map, kept as its 256 traces: 1.58 MiB; the complex
        # families took 2.0 MiB one at a time and 4.0 MiB held together
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
    """inst with every site map's Kraus operator times factor."""
    return con.PepsInstance(
        lattice=inst.lattice,
        maps={v: con.SiteMap(m.v, m.D, m.d, m.K * factor) for v, m in inst.maps.items()},
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
    (m,) = build(config).maps.values()
    K = m.K * 2.0**power
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
        with pytest.raises(UsageError, match="squared norm (inf|nan)"):
            con.assemble_exact_state(inst)

    @pytest.mark.parametrize("power", [300, -300, 600])
    def test_choi_check_scale_invariant(self, power):
        m = scaled_case("cycle:6", 2, 0.2).maps[2]
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
    @pytest.mark.parametrize("command", ["sample", "check", "verify", "epsilon-max"])
    def test_cli_overflow_exit_2_one_line(
        self, tmp_path, capsys, lattice, qubits, epsilon, command
    ):
        path = scaled_file(tmp_path, lattice, qubits, epsilon, 600)
        plan = ["--plan", "all:" + "Z" * qubits + "~0.5"]
        argv = {
            "sample": ["sample", path, *plan, "--shots", "10", "--out", str(tmp_path / "s.jsonl")],
            "check": ["peps", "check", path],
            "verify": ["verify", path, *plan, "--mode", "mixture"],
            "epsilon-max": ["peps", "epsilon-max", path, "--eps-hi", "1.0"],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if command == "epsilon-max":
            # the probe's scan refuses the family as the certificate's does
            assert err == ["error: site 0: non-finite output operator"]

    @pytest.mark.parametrize("command", ["check", "epsilon-max", "sample"])
    def test_cli_trace_overflow_exit_2_one_line(self, tmp_path, capsys, command):
        # torus:3x3 x 2^513: every entry is finite, but a trace overflows
        path = scaled_file(tmp_path, "torus:3x3", 4, 0.1, 513)
        argv = {
            "check": ["peps", "check", path],
            "epsilon-max": ["peps", "epsilon-max", path, "--eps-hi", "1.0"],
            "sample": ["sample", path, "--plan", "all:ZZZZ~0.5", "--shots", "10",
                       "--out", str(tmp_path / "s.jsonl")],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: site 0: non-finite output operator\n")

    @SCALED_CASES
    def test_cli_epsilon_max_bytes_unscaled(self, tmp_path, capsys, lattice, qubits, epsilon):
        # x 2^511: every coordinate is finite, as are the traces
        outputs = []
        for p in (0, 300, -300, 511):
            argv = ["peps", "epsilon-max", scaled_file(tmp_path, lattice, qubits, epsilon, p), "--eps-hi", "1.0"]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == "" and json.loads(outputs[0].out)["eps_pass"] == 1.0
        assert outputs[1:] == outputs[:1] * 3

    @SCALED_CASES
    def test_probe_verdict_near_the_float_range(self, lattice, qubits, epsilon):
        # x 2^500 to 2^520 crosses the float range: the probe's verdict, or
        # the UsageError it raises, is the certificate's, and neither warns
        # (on torus:3x3 at x 2^513 every coordinate is finite but a trace is
        # not, which the scan refuses)
        inst = scaled_case(lattice, qubits, epsilon)
        probe = epsilon_probe.EpsilonProbe(inst)
        outcomes = []
        for power in range(500, 521):
            verdicts = []
            for judge in (probe, lambda x: dec.rv_positivity_check(x).passed):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        verdict = judge(scaled(inst, 2.0**power))
                    except UsageError as exc:
                        verdict = str(exc)
                verdicts.append((verdict, [str(w.message) for w in caught]))
            assert verdicts[0] == verdicts[1], power
            assert verdicts[0][1] == [], power
            outcomes.append(verdicts[0])
        assert outcomes[0] == (True, [])
        assert outcomes[-1] == ("site 0: non-finite output operator", [])

    def test_cli_all_zero_kraus_exit_2(self, tmp_path, capsys):
        config = recipe2_config()
        config["site_map"] = {"recipe": "custom", "kraus": linalg.matrix_to_json(np.zeros((4, 4)))}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config))
        assert cli.main(["peps", "check", str(path)]) == 2
        assert capsys.readouterr().err == "error: Kraus operator is all zero\n"


class TestRelativeTraceFloor:
    # the noisy Pauli overlaps of a multiple of I are 1/2, so only the trace test decides
    INSTANCE = con.PepsInstance(
        lattice=build_chain(2),
        maps={1: con.identity_site_map(1)},
        basis=phase_point_basis(),
        measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
    )
    STACK, WHERE = element_stack(INSTANCE.measurement_set)

    def scan(self, traces):
        ops = np.asarray(traces)[:, None, None] * np.eye(2) / 2
        return scan_ops(self.INSTANCE, 1, ops, [(self.WHERE, self.STACK)])

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
        mset = measurement_set_from_name("noisy-pauli:1:0.5")
        if doubled:
            mset = MeasurementSet(povms=mset.povms + mset.povms)
        lat = lattice_from_name(lattice)
        # the maps only shape the instance: its families are patched in below
        inst = con.PepsInstance(
            lattice=lat,
            maps={v: con.SiteMap(v, 2, 2, np.eye(2, 2**v)) for v in set(lat.degrees.tolist())},
            basis=phase_point_basis(),
            measurement_set=mset,
        )
        rng = np.random.default_rng(seed)
        families, site_family = [], []
        for v in lat.degrees.tolist():
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
        # the certificate makes one family at a time through these two
        firsts = [site_family.index(f) for f in range(len(families))]
        made = [(s, *coords_of(families[site_family[s]])) for s in firsts]
        with mock.patch.object(dec, "_family_sites", lambda _: (firsts, site_family)), \
                mock.patch.object(dec, "_families", lambda _: iter(made)):
            expected = self.full_scan_report(inst)
            n_elements = mset.n_elements
            with mock.patch.object(dec, "SCAN_BLOCK_ENTRIES", rows_per_block * n_elements):
                got = dec.rv_positivity_check(inst)
        assert report_fields(got) == report_fields(expected)
        if got.witness is not None and got.witness.kind == "dual":
            assert got.witness.povm_index < 3

    def test_dual_witness_in_a_later_block(self):
        inst = TestRelativeTraceFloor.INSTANCE
        stack, where = element_stack(inst.measurement_set)
        ops = self.family([1.0, 0.5, 0.3, 0.7], [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, -2.5)])
        expected = reference_scan(inst, 1, ops, [(where, stack)])
        with mock.patch.object(dec, "SCAN_BLOCK_ENTRIES", 2 * len(stack)):
            got = scan_ops(inst, 1, ops, [(where, stack)], keep=True)
        assert got[1:] == expected[1:]
        w = got[3]
        assert (w.indices, w.kind, w.povm_index, w.element_index) == ((3,), "dual", 2, 0)
        assert w.value == pytest.approx(-0.125, abs=1e-15)
        assert got[0].tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 5, 12])
    def test_dual_witness_across_element_blocks(self, width):
        # every POVM twice, read in element blocks of `width`: row 1 fails
        # with tied worst elements in POVMs 2 and 5, row 2 fails earlier in
        # the elements, and the witness is row 1 at its first worst element.
        # The eta = 0.5 Paulis and the family have dyadic entries, so every
        # overlap is exact however a block is multiplied
        povms = [Povm([(np.eye(2) + p / 2) / 2, (np.eye(2) - p / 2) / 2], a) for p, a in zip(self.PAULI, "XYZ")]
        mset = MeasurementSet(povms=tuple(povms) * 2)
        base = TestRelativeTraceFloor.INSTANCE
        inst = con.PepsInstance(lattice=base.lattice, maps=base.maps, basis=base.basis, measurement_set=mset)
        stack, where = element_stack(mset)
        ops = self.family([1.0, 0.5, 0.25, 0.75], [(0, 0, 0), (0, 0, -2.5), (3, 3, 3), (1, 0, 0)])
        blocks = [(where[k : k + width], stack[k : k + width]) for k in range(0, len(where), width)]
        got = scan_ops(inst, 1, ops, blocks, keep=True)
        expected = reference_scan(inst, 1, ops, [(where, stack)])
        assert got[1:] == expected[1:]
        w = got[3]
        assert (w.indices, w.kind, w.povm_index, w.element_index, w.value) == ((1,), "dual", 2, 0, -0.125)
        assert got[0].tobytes() == expected[0].tobytes()

    def test_torus3x3_at_the_default_block_budget(self):
        # 11 element blocks of 112 or 128 columns per family, one (256, 128) product each,
        # far above BLAS's small-matrix sizes: the bytes of the whole (256, 1296) product
        inst = torus3x3_instance()
        report = dec.rv_positivity_check(inst)
        assert report_fields(report) == report_fields(self.full_scan_report(inst))
        mset = inst.measurement_set
        complex_families = reference.site_families(inst)[0]
        for f, (s, (coords, traces)) in enumerate(zip(dec._family_sites(inst)[0], family_coords(inst))):
            got = dec._scan_family(inst, s, coords, traces, dec._element_coords(mset), mset.n_elements, keep=True)
            expected = scan_family(inst, s, coords, traces, dec._element_coords(mset))
            assert got[1:] == expected[1:]
            assert got[0].tobytes() == expected[0].tobytes()
            # the oracle's complex operands agree to rounding
            normed, slack, min_trace, _ = complex_scan_family(inst, s, complex_families[f], mset.element_blocks())
            assert np.allclose(got[0], normed, rtol=1e-12, atol=1e-15)
            assert got[1] == pytest.approx(slack, rel=1e-12) and got[2] == pytest.approx(min_trace, rel=1e-12)

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
        # one family's coordinates at a time, in two 0.53 MiB buffers, and
        # while a 512 KiB block of elements is built and converted, one
        # (256, 128) block of overlaps: 1.98 MiB in all (2.0 MiB for one
        # complex 1 MiB family, 2.7 MiB with (86, 1296) overlap blocks).
        # Building the three complex families first took 5.0 MiB, and the
        # full (rows, elements) matrices with a copied element stack 21.7 MB.
        inst = torus3x3_instance()
        dec.rv_positivity_check(inst)
        tracemalloc.start()
        try:
            dec.rv_positivity_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    @staticmethod
    def unequal_file_set():
        """A file set at d = 16 of POVMs with 1 to 16 outcomes and one of 256, every entry dyadic.

        Each POVM of noisy-pauli:4:0.5, rounded to its exact entries
        (multiples of 1/32), is coarse-grained into runs of outcomes, the
        fifth split into 16 equal parts, and the first one appears again at
        the end, so elements tie within a POVM and across blocks.
        Overlaps with a dyadic family are exact sums, so any split into
        blocks gives the same bits.
        """
        rng = np.random.default_rng(29)
        povms = []
        for i, p in enumerate(measurement_set_from_name("noisy-pauli:4:0.5").povms[:24]):
            elements = np.round(p.elements * 32) / 32
            if i == 4:
                povms.append(Povm(np.repeat(elements / 16, 16, axis=0), p.label + "/16"))
                continue
            cuts = np.sort(rng.choice(np.arange(1, 16), rng.integers(0, 15), replace=False))
            runs = np.split(elements, cuts)
            povms.append(Povm([r.sum(axis=0) for r in runs], f"{p.label}:{len(runs)}"))
        povms.append(povms[0])
        return file_copy(MeasurementSet(povms=tuple(povms)))

    def test_unequal_povms_across_blocks(self):
        mset = self.unequal_file_set()
        sizes = [p.n_outcomes for p in mset.povms]
        assert len(set(sizes)) > 5 and 256 in sizes
        blocks = list(mset.element_blocks())
        assert len(blocks) >= 3
        # whole POVMs, in order, within the budget unless a block is one POVM
        assert [w for where, _ in blocks for w in where] == [(i, j) for i, n in enumerate(sizes) for j in range(n)]
        for where, elements in blocks:
            povm_ids = sorted({i for i, _ in where})
            assert len(where) == len(elements) == sum(sizes[i] for i in povm_ids)
            assert elements.size <= ELEMENT_BLOCK_ENTRIES or len(povm_ids) == 1
        assert [len(e) for _, e in blocks if len(e) > 128] == [256]
        # dyadic rows c I + H / 256, a few far outside the dual
        rng = np.random.default_rng(7)
        h = rng.integers(-4, 5, (256, 16, 16)) + 1j * rng.integers(-4, 5, (256, 16, 16))
        h[rng.choice(256, 6, replace=False)] *= 64
        ops = rng.integers(2, 9, 256)[:, None, None] / 16 * np.eye(16) + (h + h.conj().transpose(0, 2, 1)) / 256
        base = torus3x3_instance()
        inst = con.PepsInstance(lattice=base.lattice, maps=base.maps, basis=base.basis, measurement_set=mset)
        got = scan_ops(inst, 0, ops, mset.element_blocks(), keep=True)
        expected = reference_scan(inst, 0, ops, mset.element_blocks())
        assert got[1:] == expected[1:]
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[3] is not None and got[3].kind == "dual"

    def test_file_set_memory_is_families_and_one_block(self):
        # a file copy of noisy-pauli:4:0.5 is read in the named set's blocks:
        # beyond the loaded set, the scan holds what the named set's does.
        # Read as one block of its 1296 elements it took 2.7 MiB
        copy = file_copy(configio.parse_measurements("noisy-pauli:4:0.5"))
        base = torus3x3_instance()
        inst = con.PepsInstance(lattice=base.lattice, maps=base.maps, basis=base.basis, measurement_set=copy)
        dec.rv_positivity_check(inst)
        tracemalloc.start()
        try:
            report = dec.rv_positivity_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report_fields(report) == report_fields(dec.rv_positivity_check(base))
        assert peak <= 2.5 * 2**20

    def test_load_and_check_hold_no_element_stack(self, tmp_path):
        # peps check's own work: the instance holds no element, and the scan
        # builds one block of elements at a time, so the peak (2.0 MiB) stays
        # below the 5.06 MiB (1296, 16, 16) stack that the set used to hold
        config = recipe2_config(lattice="torus:3x3", epsilon=0.1, measurements="noisy-pauli:4:0.5")
        config["psi"] = "plus-diag:4"
        path = tmp_path / "torus3x3.json"
        path.write_text(json.dumps(config))
        dec.rv_positivity_check(configio.load_instance(str(path)))  # first-call imports
        tracemalloc.start()
        try:
            report = dec.rv_positivity_check(configio.load_instance(str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1296 * 16 * 16 * np.dtype(complex).itemsize


class TestOneArithmetic:
    @pytest.mark.parametrize("command", ["check", "epsilon-max", "sample"])
    def test_commands_build_no_complex_family(self, tmp_path, monkeypatch, capsys, command):
        # the pipeline reads only real product coordinates: the oracle's
        # complex family, and the basis products it is built from, are never made
        def no_complex_family(*args, **kwargs):
            raise AssertionError("a complex site family or basis product was built")

        for module, name in [(oracle, "_family_stack"), (dec, "site_operator_family"),
                             (dec, "basis_products"), (basis_mod, "basis_products"),
                             (meas_mod, "basis_products")]:
            monkeypatch.setattr(module, name, no_complex_family)
        path = tmp_path / "torus3x3.json"
        path.write_text(json.dumps(scaled_config("torus:3x3", 4, 0.1)))
        argv = {
            "check": ["peps", "check", str(path)],
            "epsilon-max": ["peps", "epsilon-max", str(path), "--eps-hi", "1.0"],
            "sample": ["sample", str(path), "--plan", "all:ZZZZ~0.5", "--shots", "100",
                       "--out", str(tmp_path / "s.jsonl")],
        }[command]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""


class TestMixtureReconstruction:
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_cycle3_exact(self, eps):
        inst = build(recipe2_config(epsilon=eps))
        rho, weights = reference.reconstruct_mixture(inst)
        state, T = con.assemble_exact_state(inst)
        exact = np.outer(state, state.conj()) / T
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)
        assert np.all(weights > 0)
        assert reference.trace_distance(rho, exact) <= 1e-10

    def test_chain2_four_terms(self):
        inst = build(recipe2_config(lattice="chain:2"))
        terms = reference.mixture_weights(inst)
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
        weights = reference.mixture_weights(inst)
        assert weights.shape == (n,) * lat.n_edges
        for assignment in itertools.product(range(n), repeat=lat.n_edges):
            expected = 1.0
            for s, v in enumerate(lat.degrees.tolist()):
                m = inst.maps[v]
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
        monkeypatch.setattr(reference, "contract_edges", no_contraction)
        monkeypatch.setattr(reference, "site_families", no_families)
        with pytest.raises(UsageError, match="assembled state: 2\\^64 or more entries"):
            con.assemble_exact_state(inst)
        with pytest.raises(UsageError, match="density matrix: 2\\^64 or more entries"):
            reference.reconstruct_mixture(inst)
        with pytest.raises(UsageError, match="density matrix: 2\\^64 or more entries"):
            reference.mixture_weights(inst)

    def test_families_built_once(self, cycle3_instance, monkeypatch):
        build_families = reference.site_families
        calls = []

        def counted(instance):
            calls.append(instance)
            return build_families(instance)

        monkeypatch.setattr(reference, "site_families", counted)
        reference.reconstruct_mixture(cycle3_instance)
        assert len(calls) == 1

    def test_T_consistency_three_ways(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        _, T_exact = con.assemble_exact_state(cycle3_instance)
        T_enum = reference.mixture_normalization(cycle3_instance)
        assert dists.T == pytest.approx(T_exact, rel=1e-10)
        assert T_enum == pytest.approx(T_exact, rel=1e-10)


def boundary_state_instance(eps):
    """cycle:3 whose psi = |00> sits on the dual boundary: any epsilon > 0 breaks positivity.

    Every call builds a fresh lattice, basis and measurement set.
    """
    psi00 = np.eye(4, dtype=complex)[0]
    return con.PepsInstance(
        lattice=build_cycle(3),
        maps={2: con.recipe2_maker(2, 4, psi00)(eps)},
        basis=build_aligned_basis(2, KET0),
        measurement_set=measurement_set_from_name("pauli:2"),
    )


# (instance maker, eps_hi): torus:3x3 at d = 16, cycle:3 against pauli:2,
# chain:4 (degrees 1 and 2: two site maps), and a maker that shares no object
# between its instances
EPSILON_SEARCHES = {
    "torus3x3": (lambda: configio.instance_factory(scaled_config("torus:3x3", 4, 0.0)), 1.0),
    "cycle3-pauli": (lambda: configio.instance_factory(recipe2_config(measurements="pauli:2")), 0.5),
    "chain4": (lambda: configio.instance_factory(recipe2_config(lattice="chain:4")), 1.0),
    "boundary-state": (lambda: boundary_state_instance, 0.1),
}


class TestMaxEpsilonSearch:
    @staticmethod
    def assert_probe_families_match_the_family_stack(inst):
        """Each family's coordinates and traces, in the probe's buffers, against the oracle's _family_stack."""
        stack, _ = element_stack(inst.measurement_set)
        probe = epsilon_probe.EpsilonProbe(inst)
        elements = np.concatenate([e for _, e in probe._blocks], axis=1)
        firsts = dec._family_sites(inst)[0]
        made = dec._families(inst, (probe._bonds, probe._work))
        for s, (t, coords, traces) in zip(firsts, made, strict=True):
            ops = oracle._family_stack(inst, s)
            assert t == s and coords.shape == (len(ops), inst.measurement_set.dim**2)
            scale = np.abs(ops).max()
            assert np.allclose(coords, coords_of(ops)[0], rtol=0, atol=1e-14 * scale)
            assert np.allclose(traces, reference.operator_traces(ops), rtol=0, atol=1e-13 * scale)
            assert np.allclose(coords @ elements, linalg.overlaps(ops, stack), rtol=0, atol=1e-13 * scale)

    @staticmethod
    def star_instance(D, flags, rng):
        """A star whose centre, site 0, has degree v = len(flags) and head flags ~flags.

        Random complex Kraus maps, whose K^dag K is not diagonal, for degrees v and 1.
        """
        v = len(flags)
        lat = Lattice(v + 1, [(p + 1, 0) if t else (0, p + 1) for p, t in enumerate(flags)])
        assert np.array_equal(lat.is_head[-v:, 0], ~np.array(flags))
        maps = {
            w: con.SiteMap(w, D, 4, rng.normal(size=(4, D**w)) + 1j * rng.normal(size=(4, D**w)))
            for w in {1, v}
        }
        b = configio.parse_basis(f"aligned:{D}:zero")
        mset = measurement_set_from_name("pauli:2")
        return con.PepsInstance(lattice=lat, maps=maps, basis=b, measurement_set=mset)

    @pytest.mark.parametrize("D, v", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3)])
    def test_transposition_is_the_einsum_with_transposed_ends(self, D, v):
        # the centre's c per bond, over the tuples G_a1 (x) ... (x) G_av, against
        # the basis products with a transposed factor at each tail end
        rng = np.random.default_rng(11)
        G = basis_mod.hermitian_spanning_set(D)
        antisymmetric = G.imag.any(axis=(1, 2))
        tuples = functools.reduce(
            lambda X, Y: np.einsum("aij,bkl->abikjl", X, Y).reshape(len(X) * len(Y), len(X[0]) * D, -1), [G] * v
        )
        unflagged = None
        for flags in itertools.product([False, True], repeat=v):
            inst = self.star_instance(D, flags, rng)
            [bonds] = [c for s, c in dec._search_parts(inst)[0] if s == 0]
            unflagged = bonds[0] if unflagged is None else unflagged
            # a tail end negates the rows of the antisymmetric G_a, and only those
            for c, t in zip(bonds, flags, strict=True):
                assert np.array_equal(c, np.where(t & antisymmetric, -1.0, 1.0)[:, None] * unflagged), flags
            direct = linalg.overlaps(tuples, basis_products(inst.basis, flags))
            assert np.allclose(functools.reduce(np.kron, bonds), direct, rtol=0, atol=1e-13), flags

    @pytest.mark.parametrize("D, v", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_every_flag_pattern_matches_the_family_stack(self, D, v):
        rng = np.random.default_rng(7)
        for flags in itertools.product([False, True], repeat=v):
            self.assert_probe_families_match_the_family_stack(self.star_instance(D, flags, rng))

    @pytest.mark.parametrize("lattice, qubits", [("chain:4", 2), ("cycle:3", 2), ("torus:3x3", 4)])
    def test_probe_coordinates_match_the_family_stack(self, lattice, qubits):
        # random complex Kraus maps, one per degree
        rng = np.random.default_rng(5)
        lat = lattice_from_name(lattice)
        d = 2**qubits
        maps = {
            v: con.SiteMap(v, 2, d, rng.normal(size=(d, 2**v)) + 1j * rng.normal(size=(d, 2**v)))
            for v in np.unique(lat.degrees).tolist()
        }
        inst = con.PepsInstance(
            lattice=lat,
            maps=maps,
            basis=build_aligned_basis(2, KET0),
            measurement_set=measurement_set_from_name(f"noisy-pauli:{qubits}:0.5"),
        )
        self.assert_probe_families_match_the_family_stack(inst)

    @pytest.mark.parametrize("case", list(EPSILON_SEARCHES))
    def test_probe_verdict_is_the_certificate_verdict(self, case):
        factory, eps_hi = EPSILON_SEARCHES[case]
        make = factory()
        visited = []
        lo, hi = dec.max_epsilon_search(lambda eps: visited.append(eps) or make(eps), eps_hi)
        if case == "torus3x3":
            # one instance per probe: the benchmark's decomposition.epsilon_probes
            assert len(visited) == 14
        # every point the search saw, a grid, and points around the threshold,
        # judged in this order by one probe, as a search does
        near = np.linspace(max(0.0, lo - 1e-3), min(hi, eps_hi) + 1e-3, 16)
        points = list(dict.fromkeys([*visited, *np.linspace(0.0, eps_hi, 25), *near]))
        assert len(points) >= 40
        probe = epsilon_probe.EpsilonProbe(make(0.0))
        for eps in points:
            inst = make(float(eps))
            assert probe(inst) == dec.rv_positivity_check(inst).passed, eps

    def test_torus3x3_search_resolves_its_fixed_parts_once(self, monkeypatch):
        make = configio.instance_factory(scaled_config("torus:3x3", 4, 0.0))
        counts = {"make": 0, "element_blocks": 0, "basis_products": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(
            MeasurementSet, "element_blocks", counted("element_blocks", MeasurementSet.element_blocks)
        )
        # the probe works in product coordinates: no family and no product stack is built
        for module in (basis_mod, dec):
            monkeypatch.setattr(module, "basis_products", counted("basis_products", basis_products))
        lo, hi = dec.max_epsilon_search(counted("make", make), 1.0)
        assert (lo, hi) == (0.169921875, 0.16998291015625)
        assert counts == {"make": 14, "element_blocks": 1, "basis_products": 0}

    def test_fresh_objects_per_epsilon_give_the_same_search(self):
        # as perfbench's --trace 1 replay does: each epsilon's instance is
        # built from the config anew, with its own lattice, basis and
        # measurement set, equal to the last
        config = scaled_config("torus:3x3", 4, 0.0)

        def fresh(eps):
            return build(dict(config, site_map=dict(config["site_map"], epsilon=eps)))

        searches = []
        for make in (configio.instance_factory(config), fresh):
            visited = []
            bracket = dec.max_epsilon_search(lambda eps: visited.append(eps) or make(eps), 1.0)
            searches.append((bracket, visited))
        assert searches[0] == searches[1]
        assert searches[0][0] == (0.169921875, 0.16998291015625)

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
        lo, hi = dec.max_epsilon_search(boundary_state_instance, 0.1)
        assert hi <= 1e-4
