"""Per-tuple reference computations that the batched package code is checked against."""

import numpy as np

from pepslhv import linalg
from pepslhv.errors import UsageError


def tensor_product(factors) -> np.ndarray:
    """Kronecker product of the factors in list order."""
    mats = [linalg.as_matrix(f) for f in factors]
    if not mats:
        raise UsageError("tensor_product requires at least one factor")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def site_output_operator(site_map, op_basis, indices, transposed_flags) -> np.ndarray:
    """O = K (C~_{k_1} (x) ... (x) C~_{k_v}) K^dag for one index tuple, C~ transposed at tail ends."""
    C = tensor_product(
        [op_basis.element(k, transposed=t) for k, t in zip(indices, transposed_flags)]
    )
    return site_map.K @ C @ site_map.K.conj().T


def kraus_rank(site_map, rtol: float = 1e-12) -> int:
    """Singular values of the Kraus operator above rtol times the largest: no scale moves it."""
    sv = np.linalg.svd(site_map.K, compute_uv=False)
    return int(np.sum(sv > rtol * sv[0]))


def born_joint_distribution(state, povms) -> np.ndarray:
    """p(j_1..j_N) = <psi| X_{j_1} (x) ... (x) X_{j_N} |psi>, one Kronecker product per tuple."""
    vec = np.asarray(state, dtype=complex).ravel()
    arities = [p.n_outcomes for p in povms]
    probs = np.empty(arities)
    for js in np.ndindex(*arities):
        X = tensor_product([p.elements[j] for p, j in zip(povms, js)])
        probs[js] = np.real(vec.conj() @ X @ vec)
    return probs
