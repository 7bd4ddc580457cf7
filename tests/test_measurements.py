import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import measurements as meas
from pepslhv.basis import bloch_diag_state, build_aligned_basis, phase_point_basis
from pepslhv.errors import UsageError
from pepslhv.linalg import kron_vectors, projector

from conftest import run_capped
import reference
from reference import element_stack, tensor_product


@pytest.fixture(scope="module")
def pauli1():
    return meas.pauli_product_measurements(1)


class TestPovmInvariants:
    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        good = np.eye(2) - bad
        with pytest.raises(UsageError):
            meas.Povm(elements=(bad, good))

    def test_incomplete_rejected(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(UsageError):
            meas.Povm(elements=(half,))

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            meas.MeasurementSet(povms=())

    @pytest.mark.parametrize(
        "elements",
        [
            pytest.param((np.array([[0.5, 0.5], [0.0, 0.5]]), np.array([[0.5, -0.5], [0.0, 0.5]])),
                         id="non-hermitian"),
            pytest.param((np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])), id="non-psd"),
            pytest.param((np.eye(2) / 2,), id="incomplete"),
            pytest.param((np.diag([np.nan, 0.0]), np.eye(2)), id="non-finite"),
            pytest.param((np.eye(2), np.zeros((3, 3))), id="mixed-dims"),
        ],
    )
    def test_batched_validation_rejects_with_label(self, elements):
        with pytest.raises(UsageError, match="probe"):
            meas.Povm(elements=elements, label="probe")

    def test_elements_stored_as_one_array(self):
        elements = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        povm = meas.Povm(elements=elements, label="z")
        assert povm.elements.shape == (2, 2, 2)
        assert povm.elements.dtype == complex
        assert all(np.array_equal(x, y) for x, y in zip(povm.elements, elements))


# sha256 of the noisy-pauli:4:0.5 elements, POVM by POVM: the depolarized Pauli products, bit for bit
NOISY_PAULI4_SHA256 = "f88567018c27f41ae0913c4e71e3649692b47633737924b76d261c9eec6e2880"
# every named Pauli set of 1..5 qubits, at eta 0, 0.25, 0.5 and 1 when noisy
PAULI_NAMES = [f"pauli:{n}" for n in range(1, 6)] + [
    f"noisy-pauli:{n}:{eta}" for n in range(1, 6) for eta in (0, 0.25, 0.5, 1)
]
# sha256 over PAULI_NAMES of each set's space-joined labels, then its elements POVM by POVM
PAULI_SETS_SHA256 = "082d242fd3ea24883a824b1841cc39395fbd0ca28d7e0197752bc3b5e773bed7"


class TestHeldElementStack:
    @pytest.mark.parametrize("name", ["pauli:2", "noisy-pauli:3:0.25", "bell"])
    def test_every_povm_is_a_slice_of_the_stack(self, name):
        # the element blocks, stacked, hold each POVM's elements as one slice of rows, in order
        mset = meas.measurement_set_from_name(name)
        stack, where = element_stack(mset)
        assert len(stack) == len(where) == mset.n_elements == sum(p.n_outcomes for p in mset.povms)
        for i, p in enumerate(mset.povms):
            rows = [k for k, (pi, _) in enumerate(where) if pi == i]
            assert rows == list(range(rows[0], rows[0] + p.n_outcomes))
            assert stack[rows].tobytes() == p.elements.tobytes()
            with pytest.raises(ValueError):
                p.elements[0, 0, 0] = 2.0
        # a set built from POVMs holds its stack: its one block is a read-only view of it
        if name == "bell":
            [(_, block)] = mset.element_blocks()
            assert np.shares_memory(block, mset.povms[0].elements)
            with pytest.raises(ValueError):
                block[0, 0, 0] = 2.0

    def test_user_built_set_keeps_its_values(self):
        z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        x = [np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5], [-0.5, 0.5]])]
        trine = [np.full((2, 2), 1 / 3), np.eye(2) / 3, np.eye(2) * 2 / 3 - np.full((2, 2), 1 / 3)]
        given_elements = [z, x, trine]
        povms = tuple(meas.Povm(elements=e, label=f"p{i}") for i, e in enumerate(given_elements))
        mset = meas.MeasurementSet(povms=povms)
        for p, q, e in zip(mset.povms, povms, given_elements):
            assert (p.label, p.n_outcomes) == (q.label, len(e))
            assert p.elements.tobytes() == np.asarray(e, dtype=complex).tobytes()
        # the set holds its own copy: a later write to a given POVM leaves it as it was
        povms[0].elements[0, 0, 0] = 0.25
        assert mset.povms[0].elements[0, 0, 0] == 1.0

    def test_noisy_pauli4_stack_bits(self):
        mset = meas.measurement_set_from_name("noisy-pauli:4:0.5")
        assert (mset.n_elements, mset.dim) == (1296, 16)
        digest = hashlib.sha256()
        for p in mset.povms:
            digest.update(p.elements.tobytes())
        assert digest.hexdigest() == NOISY_PAULI4_SHA256
        # the blocks a scan reads, each built anew, hold the same bits
        fresh = meas.measurement_set_from_name("noisy-pauli:4:0.5")
        blocks = hashlib.sha256(element_stack(fresh)[0].tobytes())
        assert blocks.hexdigest() == NOISY_PAULI4_SHA256

    def test_named_pauli_sets_are_povms(self):
        # the named sets skip _povm_stack: it is the reference, POVM by POVM
        digest = hashlib.sha256()
        for name in PAULI_NAMES:
            mset = meas.measurement_set_from_name(name)
            digest.update(" ".join(p.label for p in mset.povms).encode())
            for p in mset.povms:
                meas._povm_stack(p.elements, p.label)  # raises UsageError if not a POVM
                digest.update(p.elements.tobytes())
        assert digest.hexdigest() == PAULI_SETS_SHA256

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_are_rows_of_the_whole_stack(self, n):
        # each block is whole POVMs, in order, bit for bit the rows of the stack built at once
        mset = meas.pauli_product_measurements(n)
        d = 2**n
        blocks = list(mset.element_blocks())
        assert all(len(e) % d == 0 for _, e in blocks)
        assert all(e.size <= max(meas.ELEMENT_BLOCK_ENTRIES, d**3) for _, e in blocks)
        whole = reference.pauli_product_elements(n).reshape(-1, d, d)
        assert element_stack(mset)[0].tobytes() == whole.tobytes()

    def test_noisy_pauli4_built_in_place(self):
        # the set keeps axis rows and eta: no element is built until read.
        # It held its 5.06 MiB stack before, and 10.4 MiB with a depolarizing
        # sum and a concatenated copy of the stack
        meas.noisy_pauli_product_measurements(2, 0.5)  # first-call imports are not the build's
        tracemalloc.start()
        try:
            mset = meas.noisy_pauli_product_measurements(4, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mset.n_elements == 1296
        assert peak <= 64 * 2**10

    def test_noisy_pauli_rejects_eta_outside_unit_interval(self):
        for eta in (-0.1, 1.5):
            with pytest.raises(UsageError, match="eta"):
                meas.noisy_pauli_product_measurements(1, eta)


def _loop_dual_margin(O, mset):
    """Per-element reference: first (i, j) attaining the smallest slack."""
    min_o, max_o, margin, worst = np.inf, -np.inf, np.inf, (0, 0)
    for i, povm in enumerate(mset.povms):
        for j, x in enumerate(povm.elements):
            t = float(np.real(np.trace(O @ x)))
            min_o, max_o = min(min_o, t), max(max_o, t)
            if min(t, 1.0 - t) < margin:
                margin, worst = min(t, 1.0 - t), (i, j)
    return min_o, max_o, margin, worst


class TestDualMargin:
    @pytest.mark.parametrize("name", ["pauli:2", "noisy-pauli:3:0.25", "bell", "noisy-pauli:4:0.5"])
    def test_blocks_match_stacked_reference(self, name):
        # the first worst element of each block's overlaps is the stacked scan's, to the bit
        mset = meas.measurement_set_from_name(name)
        rng = np.random.default_rng(7)
        m = rng.normal(size=(mset.dim,) * 2) + 1j * rng.normal(size=(mset.dim,) * 2)
        ops = [m + m.conj().T, m @ m.conj().T / np.trace(m @ m.conj().T).real, np.eye(mset.dim) / 2]
        ops.append(np.diag(np.eye(mset.dim)[-1]))  # exact ties, across POVMs
        for O in ops:
            assert meas.dual_margin(O, mset) == reference.dual_margin(O, mset)

    @pytest.mark.parametrize("name", ["pauli:1", "pauli:2", "noisy-pauli:2:0.5", "bell"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_loop(self, name, seed):
        mset = meas.measurement_set_from_name(name)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(mset.dim,) * 2) + 1j * rng.normal(size=(mset.dim,) * 2)
        ops = [m @ m.conj().T / np.trace(m @ m.conj().T).real, m + m.conj().T, np.eye(mset.dim)]
        ops.append(np.diag(np.eye(mset.dim)[0]))  # exact ties between elements
        for O in ops:
            got = meas.dual_margin(O, mset)
            min_o, max_o, margin, worst = _loop_dual_margin(O, mset)
            assert got.min_overlap == pytest.approx(min_o, abs=1e-12)
            assert got.max_overlap == pytest.approx(max_o, abs=1e-12)
            assert got.margin == pytest.approx(margin, abs=1e-12)
            assert got.worst_element == worst

    def test_z_eigenstate_not_strict(self, pauli1):
        m = meas.dual_margin(np.diag([1.0, 0.0]), pauli1)
        assert m.margin == pytest.approx(0.0, abs=1e-12)
        assert not m.strictly_interior

    def test_diagonal_bloch_state(self, pauli1):
        m = meas.dual_margin(projector(bloch_diag_state()), pauli1)
        assert m.margin == pytest.approx((1 - 1 / np.sqrt(3)) / 2, abs=1e-10)
        assert m.strictly_interior

    def test_maximally_mixed(self, pauli1):
        m = meas.dual_margin(np.eye(2) / 2, pauli1)
        assert m.margin == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, pauli1):
        with pytest.raises(UsageError):
            meas.dual_margin(np.eye(4), pauli1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_density_matrices_always_in_dual(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        margin = meas.dual_margin(rho, meas.pauli_product_measurements(2))
        assert margin.min_overlap >= -1e-10
        assert margin.max_overlap <= 1 + 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_unit_trace_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = m + m.conj().T
        op /= np.trace(op).real if abs(np.trace(op).real) > 0.1 else 1.0
        op = op / np.trace(op).real
        for povm in meas.pauli_product_measurements(1).povms:
            total = sum(np.trace(op @ x).real for x in povm.elements)
            assert total == pytest.approx(1.0, abs=1e-10)


_AXES = {
    "X": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
    "Y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
    "Z": (np.array([1, 0]), np.array([0, 1])),
}


def _reference_povm_elements(axes, eta=None):
    """One element at a time: kron_vectors, np.outer, then depolarize."""
    d = 2 ** len(axes)
    out = []
    for outcome in itertools.product((0, 1), repeat=len(axes)):
        vec = kron_vectors([_AXES[a][o] for a, o in zip(axes, outcome)])
        x = np.outer(vec, vec.conj())
        if eta is not None:
            x = eta * x + (1.0 - eta) * (np.real(np.trace(x)) / d) * np.eye(d, dtype=complex)
        out.append(x)
    return out


class TestPauliFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [None, 0.5])
    def test_batched_elements_bit_identical(self, n, eta):
        if eta is None:
            mset = meas.pauli_product_measurements(n)
        else:
            mset = meas.noisy_pauli_product_measurements(n, eta)
        all_axes = list(itertools.product("XYZ", repeat=n))
        assert len(mset.povms) == len(all_axes)
        for axes, povm in zip(all_axes, mset.povms):
            ref = _reference_povm_elements(axes, eta)
            assert len(povm.elements) == len(ref)
            assert all(np.array_equal(x, y) for x, y in zip(povm.elements, ref))

    def test_single_qubit_count(self, pauli1):
        assert len(pauli1.povms) == 3
        assert all(p.n_outcomes == 2 for p in pauli1.povms)

    def test_two_qubit_count(self):
        mset = meas.pauli_product_measurements(2)
        assert len(mset.povms) == 9
        assert all(p.n_outcomes == 4 for p in mset.povms)
        for p in mset.povms:
            for x in p.elements:
                # rank-1 product projectors
                assert np.linalg.matrix_rank(x, tol=1e-10) == 1

    def test_completeness(self):
        for p in meas.pauli_product_measurements(2).povms:
            total = sum(p.elements)
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_noisy_family_shrinks_overlap_spread(self, pauli1):
        noisy = meas.noisy_pauli_product_measurements(1, 0.5)
        m = meas.dual_margin(np.diag([1.0, 0.0]), noisy)
        # depolarized elements pull every overlap toward tr(X)/d
        assert m.margin == pytest.approx(0.25, abs=1e-12)

    def test_from_name(self):
        assert meas.measurement_set_from_name("pauli:2").dim == 4
        assert meas.measurement_set_from_name("noisy-pauli:1:0.5").dim == 2
        assert meas.measurement_set_from_name("bell").dim == 4
        with pytest.raises(UsageError):
            meas.measurement_set_from_name("stabilizer:3")

    # 24^n stack entries: 2.85 GiB at n = 6 and 6.41 GiB at n = 9, past the
    # child's cap if built; 122 MiB at n = 5, which must still build
    @pytest.mark.parametrize("name", ["pauli:6", "pauli:9", "noisy-pauli:6:0.5"])
    def test_too_many_qubits_exit_2(self, tmp_path, name):
        out = tmp_path / "inst.json"
        proc = run_capped(
            "-m", "pepslhv.cli", "peps", "build",
            "--lattice", "cycle:3",
            "--basis", "aligned:2:zero",
            "--measurements", name,
            "--recipe", "2",
            "--psi", "zero",
            "--out", str(out),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and "entries, more than" in proc.stderr
        assert not out.exists()

    def test_five_qubits_build(self):
        proc = run_capped(
            "-c",
            "from pepslhv import measurements as m\n"
            "s = m.measurement_set_from_name('noisy-pauli:5:0.5')\n"
            "print(len(s.povms), s.dim)",
        )
        assert (proc.returncode, proc.stdout) == (0, "243 32\n"), proc.stderr


class TestAdmissibility:
    def test_bell_vs_head_tail_pair(self):
        b = phase_point_basis()
        report = meas.admissible_povm(meas.bell_povm(), b, (False, True))
        assert report.admissible
        # <Phi|A_k (x) A_l^T|Phi> = tr(A_k A_l)/2, so every value is 0 or 1
        assert report.min_value == pytest.approx(0.0, abs=1e-10)
        assert report.max_value == pytest.approx(1.0, abs=1e-10)

    def test_bell_vs_head_head_pair(self):
        b = phase_point_basis()
        report = meas.admissible_povm(meas.bell_povm(), b, (False, False))
        assert not report.admissible
        assert report.min_value == pytest.approx(-0.5, abs=1e-10)
        assert report.worst[2] == pytest.approx(-0.5, abs=1e-10)

    # the reports of the per-tuple loop this scan replaced
    HALF = 0.4999999999999999
    HEAD_HEAD = (False, -HALF, HALF, ((0, 0), 2, -HALF))

    @pytest.mark.parametrize(
        "pattern, expected",
        [
            ((False, True), (True, 0.0, 0.9999999999999998, ((0, 0), 0, 0.0))),
            ((False, False), HEAD_HEAD),
            ((True, True), HEAD_HEAD),
        ],
        ids=["head-tail", "head-head", "tail-tail"],
    )
    def test_bell_reports_pinned(self, pattern, expected):
        report = meas.admissible_povm(meas.bell_povm(), phase_point_basis(), pattern)
        admissible, min_value, max_value, (tup, j, value) = expected
        assert report.admissible is admissible
        assert report.min_value == pytest.approx(min_value, abs=1e-12)
        assert report.max_value == pytest.approx(max_value, abs=1e-12)
        assert report.worst[:2] == (tup, j)
        assert report.worst[2] == pytest.approx(value, abs=1e-12)

    def test_three_spaces_match_tensor_product_loop(self):
        b = build_aligned_basis(2, np.array([1, 0]))
        flags = (False, True, True)
        _, povm = meas.pauli_product_measurements(3).by_label("XYZ")
        report = meas.admissible_povm(povm, b, flags)
        min_v, max_v, worst = np.inf, -np.inf, ((0, 0, 0), 0, 0.0)
        for tup in itertools.product(range(4), repeat=3):
            V = tensor_product([b.elements[k].T if t else b.elements[k] for t, k in zip(flags, tup)])
            for j, x in enumerate(povm.elements):
                val = float(np.trace(V @ x).real)
                min_v, max_v = min(min_v, val), max(max_v, val)
                if max(-val, val - 1.0) > max(-worst[2], worst[2] - 1.0):
                    worst = (tup, j, val)
        assert not report.admissible
        assert report.min_value == pytest.approx(min_v, abs=1e-12)
        assert report.max_value == pytest.approx(max_v, abs=1e-12)
        assert report.worst[:2] == worst[:2]
        assert report.worst[2] == pytest.approx(worst[2], abs=1e-12)

    def test_computational_basis_vs_phase_points(self):
        b = phase_point_basis()
        elements = tuple(np.diag(row).astype(complex) for row in np.eye(4))
        report = meas.admissible_povm(meas.Povm(elements=elements, label="comp"), b, (False, True))
        assert report.admissible

    def test_verdict_invariant_under_element_permutation(self):
        b = phase_point_basis()
        povm = meas.bell_povm()
        shuffled = meas.Povm(elements=povm.elements[::-1], label="bell-rev")
        r1 = meas.admissible_povm(povm, b, (False, False))
        r2 = meas.admissible_povm(shuffled, b, (False, False))
        assert r1.admissible == r2.admissible
        assert r1.min_value == pytest.approx(r2.min_value, abs=1e-12)
        assert r1.max_value == pytest.approx(r2.max_value, abs=1e-12)

    # the report of the Kronecker loop over (basis, transposed) pairs, to the byte
    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=2)))
    @pytest.mark.parametrize(
        "povm, basis",
        [
            (meas.bell_povm, phase_point_basis),
            (lambda: meas.Povm(elements=np.eye(4)[:, None] * np.eye(4)[:, :, None], label="comp"),
             lambda: build_aligned_basis(2, np.array([1, 0]))),
        ],
        ids=["bell-phase-point", "comp-aligned2"],
    )
    def test_report_equals_kronecker_loop(self, povm, basis, flags):
        b = basis()
        assert meas.admissible_povm(povm(), b, flags) == reference.admissible_povm(povm(), [(b, t) for t in flags])

    def test_bad_flags_rejected(self):
        b = phase_point_basis()
        with pytest.raises(UsageError, match="at least one virtual space"):
            meas.admissible_povm(meas.bell_povm(), b, ())
        with pytest.raises(UsageError, match="POVM dim 4 != product virtual dim 8"):
            meas.admissible_povm(meas.bell_povm(), b, (False, True, False))


class TestMarginConcavity:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_midpoint_margin(self, seed):
        rng = np.random.default_rng(seed)
        mset = meas.pauli_product_measurements(1)

        def herm():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return m + m.conj().T

        a, b = herm(), herm()
        ma = meas.dual_margin(a, mset).margin
        mb = meas.dual_margin(b, mset).margin
        mid = meas.dual_margin((a + b) / 2, mset).margin
        assert mid >= min(ma, mb) - 1e-10


class TestJsonRoundTrip:
    def test_round_trip(self):
        mset = meas.noisy_pauli_product_measurements(1, 0.5)
        back = meas.measurement_set_from_json(meas.measurement_set_to_json(mset))
        assert back.dim == mset.dim
        assert [p.label for p in back.povms] == [p.label for p in mset.povms]
        for p, q in zip(back.povms, mset.povms):
            for x, y in zip(p.elements, q.elements):
                assert np.allclose(x, y, atol=0)

    def test_dim_mismatch_detected(self):
        obj = meas.measurement_set_to_json(meas.bell_measurement_set())
        obj["dim"] = 2
        with pytest.raises(UsageError):
            meas.measurement_set_from_json(obj)
