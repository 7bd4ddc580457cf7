import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import construction as con
from pepslhv.basis import build_aligned_basis, phase_point_basis
from pepslhv.errors import ConstraintError, UsageError
from pepslhv.lattice import build_chain, build_cycle
from pepslhv.measurements import bell_measurement_set, noisy_pauli_product_measurements

from conftest import build, recipe2_config
from reference import kraus_rank

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def chain2_recipe2(epsilon):
    """Two v=1 Recipe-2 maps on the single-bond chain, d=2."""
    m = con.recipe2_site_map(1, 2, [KET0, KET1], epsilon)
    return con.PepsInstance(
        lattice=build_chain(2),
        site_maps=(m, m),
        basis=build_aligned_basis(2, KET0),
        measurement_set=noisy_pauli_product_measurements(1, 0.5),
    )


def identity_cycle(n):
    m = con.identity_site_map(2)
    return con.PepsInstance(
        lattice=build_cycle(n),
        site_maps=(m,) * n,
        basis=phase_point_basis(),
        measurement_set=bell_measurement_set(),
    )


class TestRecipe2:
    def test_v1_kraus_formula(self):
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.5)
        assert np.allclose(m.K, np.diag([1.0, 0.5]), atol=1e-14)

    def test_epsilon_zero_is_rank_one(self):
        m = con.recipe2_site_map(1, 2, [KET0, KET1], 0.0)
        assert kraus_rank(m) == 1
        assert np.allclose(m.K, np.outer(KET0, KET0), atol=1e-14)

    def test_singular_values_are_epsilon_powers(self):
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, 0.3)
        sv = np.sort(np.linalg.svd(m.K, compute_uv=False))
        assert np.allclose(sv, sorted([1, 0.3, 0.3, 0.09]), atol=1e-12)

    def test_dimension_constraint(self):
        with pytest.raises(ConstraintError):
            con.recipe2_site_map(2, 2, [KET0, KET1, KET0, KET1], 0.1)

    def test_non_orthonormal_states_rejected(self):
        plus = (KET0 + KET1) / np.sqrt(2)
        with pytest.raises(UsageError):
            con.recipe2_site_map(1, 2, [KET0, plus], 0.1)

    @given(st.floats(0.01, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_singular_value_property(self, eps):
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, eps)
        sv = np.sort(np.linalg.svd(m.K, compute_uv=False))
        assert np.allclose(sv, sorted([1, eps, eps, eps * eps]), atol=1e-12)
        assert kraus_rank(m) == 4


class TestKrausRank:
    # the rank floor is relative, so a tiny Kraus operator keeps its rank
    @pytest.mark.parametrize("power", [0, -40, -300, 300])
    def test_cycle6_recipe2_keeps_rank_4(self, power):
        m = build(recipe2_config(lattice="cycle:6")).site_maps[0]
        assert kraus_rank(con.SiteMap(m.v, m.D, m.d, m.K * 2.0**power)) == 4

    @pytest.mark.parametrize("power", [0, -40])
    def test_identity_keeps_rank_4(self, power):
        assert kraus_rank(con.SiteMap(2, 2, 4, np.eye(4) * 2.0**power)) == 4


class TestRecipe1:
    def test_epsilon_zero_rank_one(self):
        m = con.recipe1_site_map(1, 2, 2, KET0, [KET0], 0.0, seed=1)
        assert kraus_rank(m) == 1

    def test_small_epsilon_full_rank(self):
        m = con.recipe1_site_map(1, 2, 2, KET0, [KET0], 1e-3, seed=7)
        assert kraus_rank(m) == 2
        sv = np.linalg.svd(m.K, compute_uv=False)
        assert sv[-1] > 0

    def test_deterministic_in_seed(self):
        a = con.recipe1_site_map(2, 2, 4, np.eye(4, dtype=complex)[0], [KET0, KET0], 0.01, seed=5)
        b = con.recipe1_site_map(2, 2, 4, np.eye(4, dtype=complex)[0], [KET0, KET0], 0.01, seed=5)
        assert np.array_equal(a.K, b.K)

    def test_anchor_overlap_product(self):
        # <alpha|(C_k1 (x) C_k2)|alpha> = prod of per-factor overlaps = 1/D for v=2
        b = build_aligned_basis(2, KET0)
        alpha = np.kron(b.anchor, b.anchor)
        for k1 in range(4):
            for k2 in range(4):
                val = alpha.conj() @ np.kron(b.elements[k1], b.elements[k2]) @ alpha
                assert val == pytest.approx(0.5, abs=1e-10)

    def test_constraint(self):
        with pytest.raises(ConstraintError):
            con.recipe1_site_map(2, 2, 2, KET0, [KET0, KET0], 0.1, seed=0)


class TestIdentityMap:
    def test_v2_is_4x4_identity(self):
        m = con.identity_site_map(2)
        assert np.array_equal(m.K, np.eye(4))
        assert kraus_rank(m) == 4

    def test_two_site_chain_keeps_the_bond(self):
        m = con.identity_site_map(1)
        inst = con.PepsInstance(
            lattice=build_chain(2),
            site_maps=(m, m),
            basis=phase_point_basis(),
            measurement_set=noisy_pauli_product_measurements(1, 0.5),
        )
        state, T = con.assemble_exact_state(inst)
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert T == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state, phi, atol=1e-12)


class TestChoiCheck:
    def test_identity_v1_choi(self):
        m = con.identity_site_map(1)
        choi = con.choi_matrix(m.K)
        phi = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(choi, np.outer(phi, phi), atol=1e-12)
        assert con.choi_check(m) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_single_kraus_maps_are_cp(self, eps):
        states = [row.astype(complex) for row in np.eye(4)]
        m = con.recipe2_site_map(2, 4, states, eps)
        assert con.choi_check(m) >= -1e-12


class TestAssembleExactState:
    def test_chain2_recipe2_half(self):
        state, T = con.assemble_exact_state(chain2_recipe2(0.5))
        assert T == pytest.approx(0.53125, abs=1e-12)
        expected = np.array([1, 0, 0, 0.25], dtype=complex) / np.sqrt(2)
        phase = state[0] / abs(state[0])
        assert np.allclose(state / phase, expected, atol=1e-12)

    def test_epsilon_zero_is_product(self):
        state, T = con.assemble_exact_state(chain2_recipe2(0.0))
        assert T > 0
        norm = state / np.linalg.norm(state)
        assert abs(abs(norm[0]) - 1.0) < 1e-12

    def test_identity_cycle_norm(self):
        _, T = con.assemble_exact_state(identity_cycle(3))
        assert T == pytest.approx(1.0, abs=1e-12)


class TestEntanglementCertificate:
    def test_chain2_half(self):
        ents = con.entanglement_certificate(chain2_recipe2(0.5))
        assert len(ents) == 2
        assert ents[0] == pytest.approx(0.32276, abs=1e-4)
        assert ents[1] == pytest.approx(ents[0], abs=1e-9)

    def test_epsilon_zero_unentangled(self):
        for ent in con.entanglement_certificate(chain2_recipe2(0.0)):
            assert abs(ent) < 1e-9

    def test_identity_cycle4_two_bits_per_cut(self):
        for ent in con.entanglement_certificate(identity_cycle(4)):
            assert ent == pytest.approx(2.0, abs=1e-9)


class TestPepsInstanceValidation:
    def test_degree_mismatch_rejected(self):
        m = con.identity_site_map(1)  # v=1 on a degree-2 lattice
        with pytest.raises(UsageError):
            con.PepsInstance(
                lattice=build_cycle(3),
                site_maps=(m, m, m),
                basis=phase_point_basis(),
                measurement_set=noisy_pauli_product_measurements(1, 0.5),
            )

    def test_measurement_dim_mismatch_rejected(self):
        m = con.identity_site_map(2)
        with pytest.raises(UsageError):
            con.PepsInstance(
                lattice=build_cycle(3),
                site_maps=(m, m, m),
                basis=phase_point_basis(),
                measurement_set=noisy_pauli_product_measurements(1, 0.5),
            )
