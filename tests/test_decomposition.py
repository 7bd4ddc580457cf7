import itertools

import numpy as np
import pytest

from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv import linalg
from pepslhv.basis import build_aligned_basis, phase_point_basis
from pepslhv.errors import NotFactorizableError, UsageError
from pepslhv.measurements import bell_povm, dual_margin

from conftest import build, recipe2_config

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


class TestSiteOutputOperator:
    def test_identity_map_passes_through(self):
        m = con.identity_site_map(1)
        b = phase_point_basis()
        out = dec.site_output_operator(m, b, [0], [False])
        assert np.allclose(out, b.elements[0], atol=1e-14)

    def test_rank_one_sandwich_at_epsilon_zero(self):
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.0)
        b = build_aligned_basis(2, KET0)
        for k in range(4):
            out = dec.site_output_operator(m, b, [k], [False])
            coeff = KET0.conj() @ b.elements[k] @ KET0
            assert np.allclose(out, coeff * np.outer(KET0, KET0.conj()), atol=1e-12)

    def test_trace_formula_with_epsilon(self):
        # Q~ dag Q~ = diag(1, eps^2), so tr(O) = <0|C|0> + eps^2 <1|C|1>
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.5)
        b = build_aligned_basis(2, KET0)
        for k in range(4):
            out = dec.site_output_operator(m, b, [k], [False])
            expected = b.elements[k][0, 0] + 0.25 * b.elements[k][1, 1]
            assert np.trace(out) == pytest.approx(expected.real, abs=1e-12)

    def test_index_out_of_range(self):
        m = con.identity_site_map(1)
        with pytest.raises(UsageError):
            dec.site_output_operator(m, phase_point_basis(), [4], [False])

    def test_family_rows_match_per_tuple_operator(self):
        rng = np.random.default_rng(5)
        kraus = [rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)) for _ in range(2)]
        m = con.SiteMap(v=3, D=2, d=3, kraus=tuple(kraus))
        b = build_aligned_basis(2, KET0)
        flags = [False, True, False]
        family = dec.site_operator_family(m, b, flags)
        assert family.shape == (64, 3, 3)
        for r, tup in enumerate(itertools.product(range(4), repeat=3)):
            expected = dec.site_output_operator(m, b, tup, flags)
            assert np.allclose(family[r], expected, atol=1e-12)


class TestPositivityCheck:
    def test_epsilon_zero_slack_equals_interior_margin(self):
        inst = build(recipe2_config(epsilon=0.0, measurements="pauli:2"))
        psi = inst.site_maps[0].psi_y[0]
        margin = dual_margin(linalg.projector(psi), inst.measurement_set).margin
        report = dec.rv_positivity_check(inst)
        assert report.passed
        assert report.slack >= margin - 1e-9

    def test_head_head_bell_witness(self):
        # the inadmissible transposition pattern shows up as a -1/2 overlap
        m = con.identity_site_map(2)
        b = phase_point_basis()
        worst = min(
            (np.trace(dec.site_output_operator(m, b, tup, [False, False]) @ x).real
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
    def test_identity_v2_unit_trace_basis(self):
        m = con.identity_site_map(2)
        table = dec.site_trace_table(m, phase_point_basis(), [False, True])
        res = dec.trace_factorization(table, 2)
        assert res.factorizable
        assert res.residual <= 1e-12

    def test_recipe2_per_edge_factor_formula(self):
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, 0.3)
        b = build_aligned_basis(2, KET0)
        table = dec.site_trace_table(m, b, [False, False])
        res = dec.trace_factorization(table, 2)
        assert res.factorizable
        u = np.array([(c[0, 0] + 0.09 * c[1, 1]).real for c in b.elements])
        recon = np.multiply.outer(res.factors[0], res.factors[1])
        assert np.allclose(recon, np.multiply.outer(u, u), atol=1e-10)

    def test_head_and_tail_factors_agree(self):
        # diagonals survive transposition, so both ends see the same factor
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, 0.3)
        b = build_aligned_basis(2, KET0)
        t1 = dec.site_trace_table(m, b, [False, False])
        t2 = dec.site_trace_table(m, b, [True, True])
        assert np.allclose(t1, t2, atol=1e-12)

    def test_crafted_rank2_table_rejected(self):
        res = dec.trace_factorization(np.array([[1.0, 1.0], [1.0, 2.0]]), 2)
        assert not res.factorizable
        assert res.residual > 0.1

    def test_normalization_convention(self):
        table = np.multiply.outer(np.array([2.0, 3.0]), np.array([0.5, 4.0]))
        res = dec.trace_factorization(table, 2)
        assert res.factorizable
        assert np.max(res.factors[1]) == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_table_rejected(self):
        with pytest.raises(UsageError):
            dec.trace_factorization(np.array([[1.0, 0.0], [1.0, 1.0]]), 2)


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

    def test_probabilities_normalized(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        for p in dists.probs:
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_joint_matches_brute_force(self, cycle3_instance):
        dists = dec.edge_distribution(cycle3_instance)
        numerators = {}
        for assignment, weight, _ in dec.enumerate_mixture_terms(cycle3_instance):
            numerators[assignment] = weight
        total = sum(numerators.values())
        for assignment, weight in numerators.items():
            product = np.prod([dists.probs[e][k] for e, k in enumerate(assignment)])
            assert product == pytest.approx(weight / total, abs=1e-12)

    def test_non_factorizable_instance_refused(self):
        kraus = np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)
        m = con.custom_site_map(kraus, 2, 2, 4)
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
        terms = list(dec.enumerate_mixture_terms(inst))
        assert len(terms) == 4

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
