import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import basis, configio, linalg
from pepslhv.errors import UsageError

from reference import aligned_elements, hermitian_spanning_list, phase_point_elements, tensor_product

# every basis the package builds by name, from the first one the benchmark uses
NAMED_BASES = [f"aligned:{D}:{a}" for D in range(2, 7) for a in ("zero", "uniform")] + [
    "aligned:2:plus-diag:1",
    "phase-point",
]


def aligned(D, anchor=None):
    if anchor is None:
        anchor = np.zeros(D, dtype=complex)
        anchor[0] = 1.0
    return basis.build_aligned_basis(D, anchor)


class TestMaxEntState:
    @pytest.mark.parametrize("D", [2, 3])
    def test_amplitudes(self, D):
        vec = basis.max_ent_state(D)
        expected = np.zeros(D * D, dtype=complex)
        for j in range(D):
            expected[j * D + j] = 1 / np.sqrt(D)
        assert np.allclose(vec, expected, atol=0)

    def test_sandwich_of_phase_point(self):
        # <phi| A (x) A^T |phi> = tr(A^2)/2 = 1
        phi = basis.max_ent_state(2)
        a = basis.phase_point_basis().elements[0]
        val = phi.conj() @ np.kron(a, a.T) @ phi
        assert val == pytest.approx(1.0, abs=1e-12)


class TestAlignedBasis:
    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_gram_matrix(self, D):
        b = aligned(D)
        assert np.allclose(linalg.overlaps(b.elements, b.elements), D * np.eye(D * D), atol=1e-10)

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_overlaps_all_equal(self, D):
        """The anchored construction gives <phi|C_k|phi> = 1/sqrt(D) for every k."""
        b = aligned(D)
        assert np.allclose(b.anchor_overlaps(), 1 / np.sqrt(D), atol=1e-10)

    def test_d3_uniform_anchor(self):
        anchor = np.ones(3, dtype=complex) / np.sqrt(3)
        b = aligned(3, anchor)
        assert np.allclose(b.anchor_overlaps(), 1 / np.sqrt(3), atol=1e-10)

    def test_rejects_D1(self):
        with pytest.raises(UsageError):
            basis.build_aligned_basis(1, np.array([1.0]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_anchor_keeps_invariants(self, seed):
        rng = np.random.default_rng(seed)
        anchor = rng.normal(size=3) + 1j * rng.normal(size=3)
        anchor /= np.linalg.norm(anchor)
        b = basis.build_aligned_basis(3, anchor)
        assert np.allclose(linalg.overlaps(b.elements, b.elements), 3 * np.eye(9), atol=1e-9)
        assert np.allclose(b.anchor_overlaps(), 1 / np.sqrt(3), atol=1e-9)


class TestPhasePointBasis:
    def test_a00_matrix(self):
        a00 = basis.phase_point_basis().elements[0]
        expected = np.array([[1, (1 - 1j) / 2], [(1 + 1j) / 2, 0]])
        assert np.allclose(a00, expected, atol=1e-14)

    def test_pairwise_orthogonal(self):
        b = basis.phase_point_basis()
        assert np.allclose(linalg.overlaps(b.elements, b.elements), 2 * np.eye(4), atol=1e-12)

    def test_unit_traces(self):
        for a in basis.phase_point_basis().elements:
            assert np.trace(a) == pytest.approx(1.0, abs=1e-14)

    def test_anchor_minimum_overlap(self):
        # worst Bloch dot product with (1,1,1)/sqrt(3) is -1/sqrt(3)
        overlaps = basis.phase_point_basis().anchor_overlaps()
        assert overlaps.min() == pytest.approx((1 - 1 / np.sqrt(3)) / 2, abs=1e-10)


class TestVerifyDecomposition:
    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_aligned(self, D):
        assert basis.verify_decomposition(aligned(D)) <= 1e-12

    def test_phase_point(self):
        assert basis.verify_decomposition(basis.phase_point_basis()) <= 1e-12

    def test_detects_broken_normalization(self):
        elems = list(basis.phase_point_basis().elements)
        elems[0] = 1.1 * elems[0]
        assert basis.verify_decomposition(elems) > 0.01


class TestTransposition:
    def test_diagonals_shared_with_transpose(self):
        # trace factorization downstream relies on this exact agreement
        for b in (aligned(2), aligned(3), basis.phase_point_basis()):
            c = basis.basis_products(b, (False,))
            ct = basis.basis_products(b, (True,))
            assert np.array_equal(np.diagonal(c, axis1=1, axis2=2), np.diagonal(ct, axis1=1, axis2=2))

    def test_transposed_in_computational_basis(self):
        b = basis.phase_point_basis()
        assert np.array_equal(basis.basis_products(b, (True,))[1], b.elements[1].T)


class TestJsonRoundTrip:
    def test_aligned_round_trip(self):
        b = aligned(2)
        back = basis.basis_from_json(basis.basis_to_json(b))
        assert back.D == 2
        assert back.construction == b.construction
        for x, y in zip(back.elements, b.elements):
            assert np.allclose(x, y, atol=0)
        assert np.allclose(back.anchor, b.anchor, atol=0)


class TestElementStack:
    def test_one_read_only_stack(self):
        b = aligned(3)
        assert isinstance(b.elements, np.ndarray)
        assert b.elements.shape == (9, 3, 3) and b.elements.dtype == complex
        assert not b.elements.flags.writeable
        with pytest.raises(ValueError):
            b.elements[0, 0, 0] = 1.0

    def test_stores_a_copy(self):
        elements = np.array(basis.phase_point_basis().elements)
        b = basis.OperatorBasis(D=2, elements=elements)
        elements[0, 0, 0] = 7.0
        assert b.elements[0, 0, 0] == 1.0
        assert not np.shares_memory(b.elements, elements)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda e: e[:3], "expected 4 elements, got 3"),
            (lambda e: np.zeros((4, 3, 3)), r"element shape \(3, 3\) != \(2, 2\)"),
            (lambda e: [e[0], e[1], e[2], np.eye(3)], "not equal-shape matrices"),
            (lambda e: np.where(np.arange(4)[:, None, None] == 0, np.nan, e), "non-finite"),
            (lambda e: e + np.array([[0, 1], [0, 0]]), "not hermitian"),
            (lambda e: 1.1 * e, "Gram matrix deviates"),
        ],
        ids=["count", "shape", "ragged", "non-finite", "non-hermitian", "gram"],
    )
    def test_rejects(self, edit, message):
        elements = np.array(basis.phase_point_basis().elements)
        with pytest.raises(UsageError, match=message):
            basis.OperatorBasis(D=2, elements=edit(elements))


class TestByteReferences:
    """The whole-stack constructions give the bytes of the per-element ones."""

    @pytest.mark.parametrize("D", range(2, 7))
    def test_spanning_set(self, D):
        assert basis.hermitian_spanning_set(D).tobytes() == np.array(hermitian_spanning_list(D)).tobytes()

    @pytest.mark.parametrize("spec", NAMED_BASES)
    def test_named_basis(self, spec):
        b = configio.parse_basis(spec)
        if spec == "phase-point":
            expected = phase_point_elements()
        else:
            expected = aligned_elements(b.D, b.anchor)
        assert b.elements.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("spec", ["aligned:2:zero", "aligned:3:uniform", "phase-point"])
    def test_products_are_the_tensor_products(self, spec):
        b = configio.parse_basis(spec)
        for flags in [(False,), (True,), (False, True), (True, False, True)]:
            prod = basis.basis_products(b, flags)
            assert prod.shape == (b.D ** (2 * len(flags)), b.D ** len(flags), b.D ** len(flags))
            for r, tup in enumerate(np.ndindex(*[b.D**2] * len(flags))):
                factors = [b.elements[k].T if t else b.elements[k] for k, t in zip(tup, flags)]
                assert np.allclose(prod[r], tensor_product(factors), rtol=0, atol=1e-15), (flags, tup)
