"""Per-tuple reference computations that the batched package code is checked against."""

import json
import math

import numpy as np

from pepslhv import basis, linalg, oracle
from pepslhv.construction import (
    RECIPE1_MAX_RETRIES,
    SiteMap,
    _check_orthonormal,
    assemble_exact_state,
)
from pepslhv.decomposition import DUAL_ATOL, TRACE_FLOOR, PositivityWitness, _families, _family_sites
from pepslhv.errors import UsageError
from pepslhv.oracle import _family_stack
from pepslhv.measurements import (
    _AXIS_STATES,
    AdmissibilityReport,
    DualMargin,
    measurement_set_from_json,
)


def operator_traces(ops: np.ndarray) -> np.ndarray:
    """The real traces of a (n, d, d) stack."""
    return np.real(np.trace(ops, axis1=1, axis2=2))


def tensor_product(factors) -> np.ndarray:
    """Kronecker product of the factors in list order."""
    mats = [linalg.as_matrix(f) for f in factors]
    if not mats:
        raise UsageError("tensor_product requires at least one factor")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def basis_products(op_basis, flags) -> np.ndarray:
    """basis.basis_products with the einsum in its default order ("K"), then reshaped."""
    v = len(flags)
    C = op_basis.elements
    k, i, j = ("abcdefghijklmnopqrstuvwxyz"[p * v:(p + 1) * v] for p in range(3))
    spec = ",".join(k[p] + i[p] + j[p] for p in range(v)) + "->" + k + i + j
    prod = np.einsum(spec, *(C.transpose(0, 2, 1) if t else C for t in flags))
    return prod.reshape(len(C) ** v, op_basis.D**v, op_basis.D**v)


def site_output_operator(site_map, op_basis, indices, transposed_flags) -> np.ndarray:
    """O = K (C~_{k_1} (x) ... (x) C~_{k_v}) K^dag for one index tuple, C~ transposed at tail ends."""
    C = tensor_product(
        [op_basis.elements[k].T if t else op_basis.elements[k] for k, t in zip(indices, transposed_flags)]
    )
    return site_map.K @ C @ site_map.K.conj().T


# ---------------------------------------------------------------------------
# Measurement sets, whole

def measurement_set_to_json(mset) -> dict:
    """The measurement-set file's object: what measurement_set_from_json reads."""
    return {
        "dim": mset.dim,
        "povms": [
            {"label": p.label, "elements": [linalg.matrix_to_json(x) for x in p.elements]}
            for p in mset.povms
        ],
    }


def stacked(blocks):
    """(every element of the (where, elements) blocks as one (n, d, d) array, (POVM, element) per row)."""
    blocks = list(blocks)
    return np.concatenate([e for _, e in blocks]), [w for where, _ in blocks for w in where]


def element_stack(mset):
    """The whole (n, d, d) stack of mset's elements and (POVM, element) per row: its blocks, stacked."""
    return stacked(mset.element_blocks())


def file_copy(mset):
    """mset written as a measurement-set file and read back: a set of POVMs built from elements."""
    return measurement_set_from_json(json.loads(json.dumps(measurement_set_to_json(mset))))


def dual_margin(O, mset) -> DualMargin:
    """measurements.dual_margin against the whole stack in one product: the first worst element wins."""
    stack, where = element_stack(mset)
    t = linalg.overlaps(linalg.hermitian_stack([O], "operator"), stack)[0]
    slack = np.minimum(t, 1.0 - t)
    k = int(np.argmin(slack))
    return DualMargin(float(t.min()), float(t.max()), float(slack[k]), where[k])


def pauli_product_elements(n_qubits: int) -> np.ndarray:
    """(3^n, 2^n, 2^n, 2^n) stack of product projectors, by axes then outcome bits, all built at once.

    Row a, column o is |v><v| with v = v_{a_1 o_1} (x) ... (x) v_{a_n o_n},
    both in itertools.product order, the factors multiplied left to right.
    """
    states = _AXIS_STATES  # (axis, outcome, component)
    vecs = states
    for _ in range(n_qubits - 1):
        A, O, C = vecs.shape
        vecs = vecs[:, None, :, None, :, None] * states[None, :, None, :, None, :]
        vecs = vecs.reshape(3 * A, 2 * O, 2 * C)
    return vecs[..., :, None] * vecs.conj()[..., None, :]


# ---------------------------------------------------------------------------
# Bases, one element at a time

def hermitian_spanning_list(D: int) -> list:
    """basis.hermitian_spanning_set, one zero matrix filled per element."""
    out = []
    for j in range(D):
        m = np.zeros((D, D), dtype=complex)
        m[j, j] = 1.0
        out.append(m)
    for j in range(D):
        for k in range(j + 1, D):
            m = np.zeros((D, D), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2)
            out.append(m)
    for j in range(D):
        for k in range(j + 1, D):
            m = np.zeros((D, D), dtype=complex)
            m[j, k] = 1j / np.sqrt(2)
            m[k, j] = -1j / np.sqrt(2)
            out.append(m)
    return out


def aligned_elements(D: int, anchor) -> list:
    """basis.build_aligned_basis's elements, each C_k = sqrt(D) sum_l R[k, l] G_l summed one term at a time."""
    gs = basis._orthonormal_hermitian_completion(linalg.projector(anchor), D)
    R = basis._householder_to_uniform(D**2)
    elements = []
    for k in range(D**2):
        c = np.zeros((D, D), dtype=complex)
        for l in range(D**2):
            c = c + R[k, l] * gs[l]
        elements.append(np.sqrt(D) * c)
    return elements


def phase_point_elements() -> list:
    """basis.phase_point_basis's elements, one (a, b) at a time."""
    eye = np.eye(2, dtype=complex)
    elements = []
    for a in (0, 1):
        for b in (0, 1):
            elements.append(0.5 * (
                eye
                + (-1) ** a * basis.PAULI_X
                + (-1) ** (a + b) * basis.PAULI_Y
                + (-1) ** b * basis.PAULI_Z
            ))
    return elements


def admissible_povm(povm, spaces) -> AdmissibilityReport:
    """measurements.admissible_povm over (basis, transposed) pairs, one Kronecker factor at a time.

    The bases of the pairs may differ.
    """
    dim = int(np.prod([b.D for b, _ in spaces]))
    if povm.dim != dim:
        raise UsageError(f"POVM dim {povm.dim} != product virtual dim {dim}")
    V = np.ones((1, 1, 1))
    for b, transposed in spaces:
        F = np.stack([c.T if transposed else c for c in b.elements])
        (n, a, _), (m, e, _) = V.shape, F.shape
        V = V[:, None, :, None, :, None] * F[None, :, None, :, None, :]
        V = V.reshape(n * m, a * e, a * e)
    vals = linalg.overlaps(V, povm.elements).reshape([b.D**2 for b, _ in spaces] + [-1])
    excess = np.maximum(-vals, vals - 1.0)
    k = np.unravel_index(int(np.argmax(excess)), vals.shape)
    worst = ((0,) * len(spaces), 0, 0.0)
    if excess[k] > 0.0:
        worst = (tuple(int(i) for i in k[:-1]), int(k[-1]), float(vals[k]))
    min_v, max_v = float(vals.min()), float(vals.max())
    admissible = min_v >= -DUAL_ATOL and max_v <= 1.0 + DUAL_ATOL
    return AdmissibilityReport(admissible=admissible, min_value=min_v, max_value=max_v, worst=worst)


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


def scan_family(instance, site: int, coords, traces, blocks, n_elements=None):
    """decomposition._scan_family over the full (rows, elements) overlap matrix at once, its blocks stacked.

    blocks are (where, element coordinates) blocks, as _scan_family reads.
    n_elements is not read: the signature is _scan_family's, so a test can patch this in.
    """
    blocks = list(blocks)
    stack = np.concatenate([e for _, e in blocks], axis=1)
    return _full_scan(instance, site, coords @ stack, traces, [w for where, _ in blocks for w in where])


def complex_scan_family(instance, site: int, ops: np.ndarray, blocks):
    """scan_family of a complex family ops against complex (where, elements) blocks, the oracle's operands."""
    stack, where = stacked(blocks)
    return _full_scan(instance, site, linalg.overlaps(ops, stack), operator_traces(ops), where)


def _full_scan(instance, site, overlaps, traces, where):
    """The scan's report from a family's whole (rows, elements) overlap matrix and its traces."""
    ok = (traces > 0) & (traces >= TRACE_FLOOR * traces.max())
    normed = overlaps / np.where(ok, traces, 1.0)[:, None]
    slacks = np.minimum(normed, 1.0 - normed)
    worst = np.argmin(slacks, axis=1)
    worst_slack = slacks[np.arange(len(normed)), worst]
    slack = float(worst_slack[ok].min()) if ok.any() else math.inf
    bad = ~ok | (worst_slack < -DUAL_ATOL)
    witness = None
    if bad.any():
        r = int(np.argmax(bad))
        tup = np.unravel_index(r, (instance.D**2,) * int(instance.lattice.degrees[site]))
        tup = tuple(int(k) for k in tup)
        if not ok[r]:
            witness = PositivityWitness(site, tup, "trace", None, None, float(traces[r]))
        else:
            i, j = where[int(worst[r])]
            witness = PositivityWitness(site, tup, "dual", i, j, float(normed[r, worst[r]]))
    return normed, slack, float(traces.min()), witness


def family_coords(instance):
    """(coordinates, traces) of every site family, in site order, each coordinate array a copy."""
    return [(coords.copy(), traces) for _, coords, traces in _families(instance)]


def born_joint_full_operator(state, povms) -> np.ndarray:
    """oracle.exact_joint_distribution through the whole (d_2 ... d_N)^2 operator per j_1."""
    dims = [p.dim for p in povms]
    arities = [p.n_outcomes for p in povms]
    psi = np.asarray(state, dtype=complex).reshape(dims[0], -1)
    bra = psi.conj().T
    probs = np.empty(arities)
    for j, X in enumerate(povms[0].elements):
        # R[u, w] = sum_ab conj(Psi[a, u]) X_j[a, b] Psi[b, w]
        R = bra @ (X @ psi)
        for d, povm in zip(dims[1:], povms[1:]):
            rest = R.shape[1] // d
            R = R.reshape(-1, d, rest, d, rest).transpose(0, 1, 3, 2, 4)
            R = povm.elements.reshape(povm.n_outcomes, -1) @ R.reshape(-1, d * d, rest * rest)
            R = R.reshape(-1, rest, rest)
        probs[j] = np.real(R).reshape(arities[1:])
    return probs


def lattice_to_json(lat) -> dict:
    """The lattice file's object, as Python lists: what `lattice gen` writes, through json.dumps."""
    return {"n_sites": lat.n_sites, "edges": lat.edges.tolist()}


def tuple_incidence(n_sites: int, edges) -> list:
    """Each site's (edge index, site-is-head) pairs in edge order, one Python tuple per edge end.

    The edge-by-edge construction and validation that lattice.Lattice does
    with array operations: the same UsageError for the same first bad edge.
    """
    edges = tuple((int(h), int(t)) for h, t in edges)
    if n_sites < 2:
        raise UsageError("lattice needs at least two sites")
    if not edges:
        raise UsageError("lattice needs at least one edge")
    if n_sites > 2 * len(edges):
        raise UsageError("every site must touch at least one edge")
    seen = set()
    incidence = [[] for _ in range(n_sites)]
    for e, (h, t) in enumerate(edges):
        if h == t:
            raise UsageError(f"self-loop at site {h}")
        if not (0 <= h < n_sites and 0 <= t < n_sites):
            raise UsageError(f"edge ({h}, {t}) out of range")
        key = (min(h, t), max(h, t))
        if key in seen:
            raise UsageError(f"parallel edge between {h} and {t}")
        seen.add(key)
        incidence[h].append((e, True))
        incidence[t].append((e, False))
    if min(len(x) for x in incidence) < 1:
        raise UsageError("every site must touch at least one edge")
    return incidence


def first_site_groups(columns) -> tuple:
    """lattice.site_groups by a dict over the columns, one key tuple per site."""
    index: dict = {}
    firsts, group = [], []
    for s, key in enumerate(columns):
        if key not in index:
            index[key] = len(firsts)
            firsts.append(s)
        group.append(index[key])
    return firsts, group


def recipe2_site_map(v: int, d: int, psi_y, epsilon: float) -> SiteMap:
    """construction.recipe2_maker's map, made and checked whole on every call."""
    if d < 2**v:
        raise UsageError(f"physical dimension d={d} < 2^v = {2**v}")
    if epsilon < 0:
        raise UsageError("epsilon must be >= 0")
    states = [linalg.as_state(p) for p in psi_y]
    if len(states) != 2**v:
        raise UsageError(f"need {2**v} states psi_y, got {len(states)}")
    if any(s.size != d for s in states):
        raise UsageError("psi_y dimension mismatch")
    _check_orthonormal(states)
    K = np.zeros((d, 2**v), dtype=complex)
    for y in range(2**v):
        K[:, y] = epsilon ** bin(y).count("1") * states[y]
    return SiteMap(v=v, D=2, d=d, K=K)


def recipe1_site_map(v: int, D: int, d: int, psi, anchor_states, epsilon: float, seed: int):
    """construction.recipe1_maker's map, made and checked whole on every call."""
    if d < 2**v:
        raise UsageError(f"physical dimension d={d} < 2^v = {2**v}")
    if epsilon < 0:
        raise UsageError("epsilon must be >= 0")
    vec = linalg.as_state(psi)
    if vec.size != d:
        raise UsageError(f"psi dimension {vec.size} != d = {d}")
    anchors = [linalg.as_state(a) for a in anchor_states]
    if len(anchors) != v or any(a.size != D for a in anchors):
        raise UsageError("need one D-dimensional anchor per virtual particle")
    base = np.outer(vec, linalg.kron_vectors(anchors).conj())
    if epsilon == 0.0:
        return SiteMap(v=v, D=D, d=d, K=base)
    full = min(d, D**v)
    for attempt in range(RECIPE1_MAX_RETRIES):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(attempt)))
        P = rng.standard_normal((d, D**v)) + 1j * rng.standard_normal((d, D**v))
        P = P / np.linalg.svd(P, compute_uv=False)[0]
        K = base + epsilon * P
        sv = np.linalg.svd(K, compute_uv=False)
        if sv[full - 1] > 1e-12 * sv[0]:
            return SiteMap(v=v, D=D, d=d, K=K)
    raise UsageError("could not reach full rank within retry budget")


# ---------------------------------------------------------------------------
# Entanglement of a pure state

def schmidt_probabilities(state, dims, cut) -> np.ndarray:
    """Squared Schmidt coefficients across the given bipartition."""
    vec = linalg.as_state(state)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != vec.size:
        raise UsageError(f"dims {dims} do not match state dimension {vec.size}")
    cut = sorted(set(int(c) for c in cut))
    if not cut or any(c < 0 or c >= len(dims) for c in cut):
        raise UsageError(f"cut {cut} invalid for {len(dims)} subsystems")
    rest = [i for i in range(len(dims)) if i not in cut]
    tensor = vec.reshape(dims).transpose(cut + rest)
    da = int(np.prod([dims[i] for i in cut]))
    sv = np.linalg.svd(tensor.reshape(da, -1), compute_uv=False)
    return sv**2


def entanglement_entropy(state, dims, cut) -> float:
    """Von Neumann entropy (bits) of the reduced state across the cut."""
    probs = schmidt_probabilities(state, dims, cut)
    probs = probs[probs > 1e-18]
    return float(-np.sum(probs * np.log2(probs)))


def entanglement_certificate(instance) -> list:
    """Entanglement entropy (bits) across every single-site bipartition of the assembled PEPS."""
    raw, T = assemble_exact_state(instance)
    dims = instance.physical_dims()
    state = raw / np.sqrt(T)
    return [entanglement_entropy(state, dims, [s]) for s in range(instance.lattice.n_sites)]


# ---------------------------------------------------------------------------
# The exact separable mixture, summed over every edge assignment

def contract_edges(lattice, tensors, bond_dim: int, extra_axes=0, keep_edges=False):
    """construction.contract_edges with any number of trailing axes per site, edge axes kept.

    tensors[s] is (bond_dim^v, ...) with ``extra_axes`` trailing axes, its
    rows in C-order over the site's incident edges; each edge is one label
    shared by its two ends.  The result has the edge axes if
    ``keep_edges``, then extra axis 0 of every site, then axis 1, and so on.
    """
    E, N = lattice.n_edges, lattice.n_sites
    operands = []
    for s, rows in enumerate(tensors):
        edges = lattice.incidence[-lattice.degrees[s] :, s].tolist()
        extra = [E + x * N + s for x in range(extra_axes)]
        operands += [rows.reshape((bond_dim,) * len(edges) + rows.shape[1:]), edges + extra]
    out = list(range(E if keep_edges else 0)) + list(range(E, E + extra_axes * N))
    return np.einsum(*operands, out, optimize=True)


def contract_mixture(instance, site_rows, extra_axes=0, keep_edges=False):
    """contract_edges over D^2 indices per edge, within the oracle's enumeration limits."""
    oracle._enumeration_guard(instance)
    return contract_edges(instance.lattice, site_rows, instance.D**2, extra_axes, keep_edges)


def site_families(instance):
    """(distinct output stacks, family index per site), every stack held at once.

    A stack with a non-finite entry raises UsageError.  The weights and the
    density matrix below need every family together; the package builds one
    family at a time (decomposition._family_sites, _family_stack).
    """
    firsts, site_family = _family_sites(instance)
    return [_family_stack(instance, s) for s in firsts], site_family


def mixture_weights(instance) -> np.ndarray:
    """prod_s tr(O_s) per edge assignment, shape (D^2,) * E; divide by T D^(2E) for p."""
    oracle._enumeration_guard(instance)
    return _trace_weights(instance, *site_families(instance))


def _trace_weights(instance, families: list, site_family: list) -> np.ndarray:
    """mixture_weights from site_families(instance)."""
    traces = [operator_traces(ops) for ops in families]
    return contract_mixture(instance, [traces[f] for f in site_family], keep_edges=True)


def mixture_normalization(instance) -> float:
    """T as the exact sum over all edge assignments."""
    return float(np.sum(mixture_weights(instance))) / instance.D ** (2 * instance.lattice.n_edges)


def reconstruct_mixture(instance):
    """Sum the separable mixture exactly; returns (density matrix, weights).

    Term lambda, prod_s tr(O_s) (x)_s O_s / tr(O_s), is just (x)_s O_s.
    """
    oracle._enumeration_guard(instance)  # before any site family is built
    families, site_family = site_families(instance)
    weights = _trace_weights(instance, families, site_family).ravel()
    rho = contract_mixture(instance, [families[f] for f in site_family], extra_axes=2)
    dim, total = math.prod(instance.physical_dims()), weights.sum()
    return rho.reshape(dim, dim) / total, weights / total


def trace_distance(a, b) -> float:
    """(1/2)||a - b||_1 for hermitian a, b, refused past a hermiticity defect of 1e-8."""
    diff = linalg.as_matrix(a) - linalg.as_matrix(b)
    defect = float(np.max(np.abs(diff - diff.conj().T)))
    if defect > 1e-8:
        raise UsageError(f"operator: not hermitian (defect {defect:.3e} > 1.0e-08)")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
