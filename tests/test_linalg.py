import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pepslhv import linalg
from pepslhv.basis import phase_point_basis
from pepslhv.errors import UsageError

from reference import tensor_product

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


class TestTensorProduct:
    """The Kronecker reference that per-tuple tests compare package stacks against."""

    def test_identity_times_x(self):
        out = tensor_product([np.eye(2), X])
        expected = np.zeros((4, 4))
        expected[:2, :2] = X.real
        expected[2:, 2:] = X.real
        assert np.array_equal(out, expected)

    def test_single_factor_unchanged(self):
        a = np.arange(4).reshape(2, 2).astype(complex)
        assert np.array_equal(tensor_product([a]), a)

    def test_phase_point_with_transpose_has_unit_trace(self):
        # tr(A (x) A^T) = tr(A)^2 = 1 for unit-trace phase points
        a = phase_point_basis().elements[0]
        out = tensor_product([a, a.T])
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError):
            tensor_product([])

    @given(
        a=arrays(np.int64, (2, 2), elements=st.integers(-5, 5)).map(
            lambda m: m.astype(complex)
        ),
        b=arrays(np.int64, (2, 2), elements=st.integers(-5, 5)).map(
            lambda m: m.astype(complex)
        ),
        c=arrays(np.int64, (2, 2), elements=st.integers(-5, 5)).map(
            lambda m: m.astype(complex)
        ),
    )
    def test_associative_for_integer_entries(self, a, b, c):
        left = tensor_product([tensor_product([a, b]), c])
        right = tensor_product([a, tensor_product([b, c])])
        assert np.array_equal(left, right)


class TestOverlaps:
    @pytest.mark.parametrize("hermitian_side", ["right", "left"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_trace_loop(self, hermitian_side, seed):
        rng = np.random.default_rng(seed)
        d = 3
        general = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        herm = np.stack([random_hermitian(rng, d) for _ in range(4)])
        A, B = (general, herm) if hermitian_side == "right" else (herm, general)
        got = linalg.overlaps(A, B)
        assert got.shape == (len(A), len(B))
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                assert got[i, j] == pytest.approx(np.trace(a @ b).real, abs=1e-12)


class TestEntanglementEntropy:
    def test_bell_pair(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert linalg.entanglement_entropy(phi, [2, 2], [0]) == pytest.approx(1.0)

    def test_product_state(self):
        zz = np.array([1, 0, 0, 0], dtype=complex)
        assert linalg.entanglement_entropy(zz, [2, 2], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_weakly_entangled_pair(self):
        eps = 0.5
        vec = np.array([1, 0, 0, eps**2], dtype=complex)
        vec /= np.linalg.norm(vec)
        # Schmidt weights (1, eps^4) / (1 + eps^4)
        p = np.array([1, eps**4]) / (1 + eps**4)
        expected = -np.sum(p * np.log2(p))
        ent = linalg.entanglement_entropy(vec, [2, 2], [0])
        assert ent == pytest.approx(expected, abs=1e-12)
        assert ent == pytest.approx(0.32276, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            linalg.entanglement_entropy(np.array([1, 0, 0, 0.0]), [2, 3], [0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_cut_complement_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        left = linalg.entanglement_entropy(vec, [2, 2, 2], [0])
        right = linalg.entanglement_entropy(vec, [2, 2, 2], [1, 2])
        assert left == pytest.approx(right, abs=1e-9)


class TestHermiticityPolicy:
    def test_non_hermitian_rejected_not_symmetrized(self):
        with pytest.raises(UsageError):
            linalg.check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_state_norm_enforced(self):
        with pytest.raises(UsageError):
            linalg.as_state(np.array([1.0, 1.0]))


class TestJsonRoundTrips:
    def test_matrix(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = linalg.matrix_from_json(linalg.matrix_to_json(m))
        assert np.allclose(back, m, atol=0)

    def test_state(self):
        vec = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        back = linalg.state_from_json(linalg.state_to_json(vec))
        assert np.allclose(back, vec, atol=0)
