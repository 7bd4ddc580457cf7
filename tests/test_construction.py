import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import configio
from pepslhv import construction as con
from pepslhv.basis import build_aligned_basis, phase_point_basis
from pepslhv.errors import UsageError
from pepslhv.lattice import build_chain, build_cycle, lattice_from_name
from pepslhv.measurements import measurement_set_from_name

from conftest import build, recipe2_config
from reference import entanglement_certificate, kraus_rank, recipe1_site_map, recipe2_site_map

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def chain2_recipe2(epsilon):
    """Two v=1 Recipe-2 maps on the single-bond chain, d=2."""
    return con.PepsInstance(
        lattice=build_chain(2),
        maps={1: con.recipe2_maker(1, 2, KET0)(epsilon)},
        basis=build_aligned_basis(2, KET0),
        measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
    )


def identity_cycle(n):
    return con.PepsInstance(
        lattice=build_cycle(n),
        maps={2: con.identity_site_map(2)},
        basis=phase_point_basis(),
        measurement_set=measurement_set_from_name("bell"),
    )


class TestRecipe2:
    def test_v1_kraus_formula(self):
        m = con.recipe2_maker(1, 2, KET0)(0.5)
        assert np.allclose(m.K, np.diag([1.0, 0.5]), atol=1e-14)

    def test_epsilon_zero_is_rank_one(self):
        m = con.recipe2_maker(1, 2, KET0)(0.0)
        assert kraus_rank(m) == 1
        assert np.allclose(m.K, np.outer(KET0, KET0), atol=1e-14)

    def test_singular_values_are_epsilon_powers(self):
        m = con.recipe2_maker(2, 4, np.eye(4, dtype=complex)[0])(0.3)
        sv = np.sort(np.linalg.svd(m.K, compute_uv=False))
        assert np.allclose(sv, sorted([1, 0.3, 0.3, 0.09]), atol=1e-12)

    def test_dimension_constraint(self):
        # d = 2 < 2^v = 4 on cycle:3, refused once by the factory
        config = recipe2_config(measurements="noisy-pauli:1:0.5")
        config["psi"] = "plus-diag:1"
        with pytest.raises(UsageError, match="d=2 < 2\\^v = 4"):
            build(config)

    def test_non_orthonormal_states_rejected(self):
        plus = (KET0 + KET1) / np.sqrt(2)
        with pytest.raises(UsageError):
            con._check_orthonormal([KET0, plus])

    def test_negative_epsilon_rejected(self):
        with pytest.raises(UsageError, match="epsilon must be >= 0"):
            con.recipe2_maker(1, 2, KET0)(-0.1)

    @given(st.floats(0.01, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_singular_value_property(self, eps):
        m = con.recipe2_maker(2, 4, np.eye(4, dtype=complex)[0])(eps)
        sv = np.sort(np.linalg.svd(m.K, compute_uv=False))
        assert np.allclose(sv, sorted([1, eps, eps, eps * eps]), atol=1e-12)
        assert kraus_rank(m) == 4


class TestMakers:
    # each maker's map against the per-call recipe, which checks everything on every call
    @pytest.mark.parametrize("recipe", [1, 2])
    @pytest.mark.parametrize(
        "lattice, qubits", [("chain:4", 2), ("cycle:3", 2), ("torus:3x3", 4)]
    )
    def test_maker_matches_per_call_recipe(self, lattice, qubits, recipe):
        config = recipe2_config(lattice, measurements=f"noisy-pauli:{qubits}:0.5")
        config["psi"] = f"plus-diag:{qubits}"
        config["site_map"] = {"recipe": recipe, "seed": 3}
        make = configio.instance_factory(config)
        d = 2**qubits
        psi = configio.parse_state(config["psi"], d)
        anchor = configio.parse_basis(config["basis"]).anchor
        for eps in (0.0, 0.05, 0.2):
            maps = make(eps).maps
            assert sorted(maps) == sorted(set(lattice_from_name(lattice).degrees.tolist()))
            for v, m in maps.items():
                if recipe == 2:
                    ref = recipe2_site_map(v, d, con.complete_orthonormal(psi, 2**v), eps)
                else:
                    seed = con.derive_seed(3, f"recipe1:v{v}")
                    ref = recipe1_site_map(v, 2, d, psi, [anchor] * v, eps, seed)
                assert np.array_equal(m.K, ref.K), (v, eps)


class TestKrausRank:
    # the rank floor is relative, so a tiny Kraus operator keeps its rank
    @pytest.mark.parametrize("power", [0, -40, -300, 300])
    def test_cycle6_recipe2_keeps_rank_4(self, power):
        m = build(recipe2_config(lattice="cycle:6")).maps[2]
        assert kraus_rank(con.SiteMap(m.v, m.D, m.d, m.K * 2.0**power)) == 4

    @pytest.mark.parametrize("power", [0, -40])
    def test_identity_keeps_rank_4(self, power):
        assert kraus_rank(con.SiteMap(2, 2, 4, np.eye(4) * 2.0**power)) == 4


class TestRecipe1:
    def test_epsilon_zero_rank_one(self):
        m = con.recipe1_maker(1, 2, 2, KET0, KET0, seed=1)(0.0)
        assert kraus_rank(m) == 1

    def test_small_epsilon_full_rank(self):
        m = con.recipe1_maker(1, 2, 2, KET0, KET0, seed=7)(1e-3)
        assert kraus_rank(m) == 2
        sv = np.linalg.svd(m.K, compute_uv=False)
        assert sv[-1] > 0

    def test_deterministic_in_seed(self):
        a = con.recipe1_maker(2, 2, 4, np.eye(4, dtype=complex)[0], KET0, seed=5)(0.01)
        b = con.recipe1_maker(2, 2, 4, np.eye(4, dtype=complex)[0], KET0, seed=5)(0.01)
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
        config = recipe2_config(measurements="noisy-pauli:1:0.5")
        config["psi"], config["site_map"] = "plus-diag:1", {"recipe": 1, "epsilon": 0.1}
        with pytest.raises(UsageError, match="d=2 < 2\\^v = 4"):
            build(config)


class TestIdentityMap:
    def test_v2_is_4x4_identity(self):
        m = con.identity_site_map(2)
        assert np.array_equal(m.K, np.eye(4))
        assert kraus_rank(m) == 4

    def test_two_site_chain_keeps_the_bond(self):
        inst = con.PepsInstance(
            lattice=build_chain(2),
            maps={1: con.identity_site_map(1)},
            basis=phase_point_basis(),
            measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
        )
        state, T = con.assemble_exact_state(inst)
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert T == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state, phi, atol=1e-12)


class TestChoiCheck:
    def test_identity_v1_choi(self):
        m = con.identity_site_map(1)
        w = m.K.T.ravel()  # the Choi matrix of rho -> K rho K^dag is w w^dag
        choi = np.outer(w, w.conj())
        phi = np.array([1, 0, 0, 1], dtype=complex)
        assert np.allclose(choi, np.outer(phi, phi), atol=1e-12)
        # rank one, so its least eigenvalue is the 0.0 that choi_check reports
        assert np.linalg.eigvalsh(choi)[0] == pytest.approx(0.0, abs=1e-12)
        assert con.choi_check(m) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_single_kraus_maps_are_cp(self, eps):
        m = con.recipe2_maker(2, 4, np.eye(4, dtype=complex)[0])(eps)
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
        ents = entanglement_certificate(chain2_recipe2(0.5))
        assert len(ents) == 2
        assert ents[0] == pytest.approx(0.32276, abs=1e-4)
        assert ents[1] == pytest.approx(ents[0], abs=1e-9)

    def test_epsilon_zero_unentangled(self):
        for ent in entanglement_certificate(chain2_recipe2(0.0)):
            assert abs(ent) < 1e-9

    def test_identity_cycle4_two_bits_per_cut(self):
        for ent in entanglement_certificate(identity_cycle(4)):
            assert ent == pytest.approx(2.0, abs=1e-9)


class TestPepsInstanceValidation:
    PHASE_POINT, BELL = phase_point_basis(), measurement_set_from_name("bell")

    def instance(self, lattice, maps):
        return con.PepsInstance(
            lattice=lattice, maps=maps, basis=self.PHASE_POINT, measurement_set=self.BELL
        )

    def test_degree_mismatch_rejected(self):
        m = con.identity_site_map(1)  # v=1 on a degree-2 lattice
        with pytest.raises(UsageError):
            con.PepsInstance(
                lattice=build_cycle(3),
                maps={2: m},
                basis=phase_point_basis(),
                measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
            )

    def test_measurement_dim_mismatch_rejected(self):
        m = con.identity_site_map(2)
        with pytest.raises(UsageError):
            con.PepsInstance(
                lattice=build_cycle(3),
                maps={2: m},
                basis=phase_point_basis(),
                measurement_set=measurement_set_from_name("noisy-pauli:1:0.5"),
            )

    # chain:4 has degrees 1, 2, 2, 1: site 0 is the first of degree 1, site 1 of degree 2
    @pytest.mark.parametrize(
        "maps, message",
        [
            ({1: con.SiteMap(1, 2, 4, np.eye(4, 2))}, "site 1: no site map for degree 2"),
            ({2: con.identity_site_map(2)}, "site 0: no site map for degree 1"),
            ({1: con.SiteMap(1, 2, 4, np.eye(4, 2)), 2: con.identity_site_map(2),
              3: con.SiteMap(3, 2, 4, np.eye(4, 8))}, "site map for degree 3, which no site has"),
            ({1: con.SiteMap(1, 2, 4, np.eye(4, 2)), 2: con.SiteMap(1, 2, 4, np.eye(4, 2))},
             "site 1: map v=1 != degree 2"),
            ({1: con.SiteMap(1, 3, 4, np.eye(4, 3)), 2: con.identity_site_map(2)},
             "site 0: map D=3 != basis D=2"),
            ({1: con.SiteMap(1, 2, 4, np.eye(4, 2)), 2: con.SiteMap(2, 2, 2, np.eye(2, 4))},
             "site 1: map d=2 != measurement dim 4"),
        ],
        ids=["missing-2", "missing-1", "extra-3", "wrong-v", "wrong-D", "wrong-d"],
    )
    def test_bad_maps_name_the_first_bad_site(self, maps, message):
        with pytest.raises(UsageError, match=f"^{message}$"):
            self.instance(build_chain(4), maps)

    def test_one_map_per_degree(self):
        maps = {1: con.SiteMap(1, 2, 4, np.eye(4, 2)), 2: con.identity_site_map(2)}
        inst = self.instance(build_chain(4), maps)
        assert inst.maps is maps
        assert [m.v for m in inst.site_maps] == [1, 2, 2, 1]
        assert inst.site_maps[1] is inst.site_maps[2] is maps[2]
