import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pepslhv import cli, configio, linalg, sampling
from pepslhv import construction as con
from pepslhv import decomposition as dec
from pepslhv.errors import NotFactorizableError, PositivityViolationError, UsageError
from pepslhv.lattice import lattice_from_name

from conftest import build, recipe2_config
from reference import family_coords


@pytest.fixture(scope="module")
def chain4():
    return build(recipe2_config(lattice="chain:4"))


@pytest.fixture(scope="module")
def chain4_dists(chain4):
    return dec.edge_distribution(chain4)


def uniform_plan(instance, label="ZZ~0.5"):
    return sampling.MeasurementPlan.uniform(instance, label)


def sample_given(instance, assignment, plan, seed, shot):
    """Shot `shot`'s record at seed, with each edge e's hidden index fixed to assignment[e].

    Row e of the edge distributions puts all its mass on assignment[e], so
    the edge draw returns it whatever the edge stream reads, and the site
    stream of (seed, shot) alone decides the outcomes.
    """
    probs = np.zeros((instance.lattice.n_edges, instance.D**2))
    probs[np.arange(len(probs)), list(assignment)] = 1.0
    dists = dec.EdgeDistributions(probs=probs, log_T=0.0)
    batch = sampling.run_shots(instance, plan, shot + 1, seed, edge_dists=dists, emit_hidden=True)
    record = list(batch.records())[shot]
    assert record.hidden == tuple(assignment)
    return record


class TestMeasurementPlan:
    def test_uniform(self, chain4):
        plan = uniform_plan(chain4)
        assert len(plan.povm_indices) == 4
        assert len(set(plan.povm_indices)) == 1

    def test_from_labels_length_check(self, chain4):
        with pytest.raises(UsageError):
            sampling.MeasurementPlan.from_labels(chain4, ["ZZ~0.5"] * 3)

    def test_unknown_label(self, chain4):
        with pytest.raises(UsageError):
            sampling.MeasurementPlan.uniform(chain4, "WW")


class TestCounterStreams:
    def test_partition_independence(self):
        whole = sampling.shot_uniforms(7, 0, 100, 5)
        head = sampling.shot_uniforms(7, 0, 60, 5)
        tail = sampling.shot_uniforms(7, 60, 40, 5)
        assert np.array_equal(whole, np.vstack([head, tail]))

    def test_labels_are_disjoint_streams(self):
        a = sampling.shot_uniforms(7, 0, 50, 4, label="edges")
        b = sampling.shot_uniforms(7, 0, 50, 4, label="sites")
        assert not np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert con.derive_seed(3, "edges") == con.derive_seed(3, "edges")
        assert con.derive_seed(3, "edges") != con.derive_seed(4, "edges")


@functools.cache
def chain_instance(n_edges, D):
    """A chain with n_edges edges: recipe 2 for D = 2, recipe 1 at epsilon 0 otherwise."""
    config = recipe2_config(lattice=f"chain:{n_edges + 1}")
    if D != 2:
        config.update(basis=f"aligned:{D}:zero", site_map={"recipe": 1, "epsilon": 0.0})
    return build(config)


def hidden_indices(probs, n_shots, seed):
    """run_shots' hidden indices, (n_shots, E), for the edge rows probs (E, D^2)."""
    probs = np.asarray(probs, dtype=float)
    inst = chain_instance(len(probs), int(round(np.sqrt(probs.shape[1]))))
    batch = sampling.run_shots(
        inst,
        uniform_plan(inst),
        n_shots,
        seed,
        edge_dists=dec.EdgeDistributions(probs=probs, log_T=0.0),
        emit_hidden=True,
    )
    return batch.hidden


class TestSampleHidden:
    def test_degenerate_distribution(self):
        probs = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])]
        for out in hidden_indices(probs, n_shots=20, seed=1):
            assert out[0] == 0 and out[1] == 3

    def test_deterministic(self):
        probs = [np.full(4, 0.25)]
        a = hidden_indices(probs, n_shots=10, seed=5)
        b = hidden_indices(probs, n_shots=10, seed=5)
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        probs = [np.full(4, 0.25)]
        n = 100_000
        counts = np.bincount(hidden_indices(probs, n_shots=n, seed=3)[:, 0], minlength=4)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 4 * sigma)

    @given(
        st.integers(2, 3).flatmap(
            lambda D: st.lists(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                    min_size=D * D,
                    max_size=D * D,
                ).filter(any),
                min_size=1,
                max_size=5,
            )
        ),
        st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_batched_run(self, rows, shot):
        # rows of length 4 (D = 2) or 9 (D = 3), zero bins allowed
        probs = [np.array(r) / sum(r) for r in rows]
        n = len(rows[0])
        single = hidden_indices(probs, n_shots=shot + 1, seed=11)[shot]
        # the batched sampler must agree with searchsorted on the edge stream
        u = sampling.shot_uniforms(11, shot, 1, len(probs), label="edges")[0]
        for e, p in enumerate(probs):
            cdf = np.cumsum(p)
            cdf[-1] = 1.0
            assert single[e] == min(int(np.searchsorted(cdf, u[e], side="right")), n - 1)
            assert p[single[e]] > 0


class TestBisectionDraw:
    # each stream's draw against searchsorted(side="right") on the rows it builds:
    # the edge stream counts entries, the site stream bisects a padded table

    @staticmethod
    def _reference(stream, probs):
        """The unpadded CDF rows of one stream."""
        ref = np.cumsum(probs, axis=1)
        if stream == "edges":
            ref[:, -1] = 1.0
        else:
            # as _set_up normalizes its Born rows
            ref = ref / ref[:, -1:]
        return ref

    def _check(self, stream, probs, rows, u):
        ref = self._reference(stream, probs)
        width = probs.shape[1]
        rows, u = np.array(rows, dtype=np.intp), np.array(u)
        out = np.empty(len(u), dtype=np.min_scalar_type(width - 1))
        if stream == "edges":
            # one edge per draw, each with its own row's columns
            sampling._count_draw(ref[rows, :-1].T, u, out)
        else:
            table = sampling._padded([ref])
            assert table.shape[1] >= width and table.shape[1] & (table.shape[1] - 1) == 0
            sampling._draw(table, rows, u, out, np.empty(len(u), np.intp), np.empty(len(u)))
        for r, x, k in zip(rows.tolist(), u, out.tolist()):
            assert k == int(np.searchsorted(ref[r], x, side="right"))
            # a bin after the last one with mass can be drawn only for u in
            # [float sum of the row, 1.0), where the edge stream forces 1.0
            assert probs[r, k] > 0 or (stream == "edges" and x >= np.cumsum(probs[r])[-1])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_searchsorted(self, data):
        width = data.draw(st.sampled_from([1, 2, 3, 4, 5, 9, 16, 17, 256]))
        raw = data.draw(
            arrays(
                np.float64,
                (data.draw(st.integers(1, 3)), width),
                elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            ).filter(lambda a: a.any(axis=1).all())
        )
        probs = raw / raw.sum(axis=1, keepdims=True)
        stream = data.draw(st.sampled_from(["edges", "sites"]))
        ref = self._reference(stream, probs)
        # u anywhere in [0, 1), or exactly on a CDF value of its row
        on_cdf = [(r, c) for r in range(len(ref)) for c in ref[r].tolist() if c < 1.0]
        anywhere = st.tuples(
            st.integers(0, len(probs) - 1), st.floats(0.0, 1.0, exclude_max=True)
        )
        draws = data.draw(
            st.lists(
                st.one_of(anywhere, st.sampled_from(on_cdf)) if on_cdf else anywhere,
                min_size=1,
                max_size=40,
            )
        )
        rows, u = zip(*draws)
        self._check(stream, probs, rows, u)

    @pytest.mark.parametrize("stream", ["edges", "sites"])
    @pytest.mark.parametrize(
        "row",
        [[0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0],
         [1.0]],
        ids=["zero-start", "zero-middle", "zero-end", "one-bin-of-three", "width-1"],
    )
    def test_zero_mass_bins(self, stream, row):
        probs = np.array([row])
        ref = self._reference(stream, probs)
        u = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)] + [c for c in ref[0] if c < 1.0]
        self._check(stream, probs, [0] * len(u), u)


class TestCountDraw:
    # the edge draw on a block of shots, (B, E), one CDF row per edge
    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda D: arrays(
                np.float64,
                st.tuples(st.integers(1, 5), st.just(D * D)),
                elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            ).filter(lambda a: a.any(axis=1).all())
        ),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted_per_edge_row(self, raw, n_shots, seed):
        probs = raw / raw.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        rng = np.random.default_rng(seed)
        u = rng.random((n_shots, len(probs)))
        # about half the draws sit exactly on an entry below 1.0 of their
        # edge's row (zero-mass bins repeat an entry), the rest anywhere in [0, 1)
        picks = cdf[np.arange(len(probs)), rng.integers(0, probs.shape[1] - 1, u.shape)]
        on = (rng.random(u.shape) < 0.5) & (picks < 1.0)
        u[on] = picks[on]
        out = np.empty(u.shape, dtype=np.uint8)
        sampling._count_draw(cdf[:, :-1].T.copy(), u, out)
        for e, row in enumerate(cdf):
            assert out[:, e].tolist() == np.searchsorted(row, u[:, e], side="right").tolist()
            # a zero-mass bin only past the row's float sum, where the last entry is forced to 1.0
            assert np.all((probs[e, out[:, e]] > 0) | (u[:, e] >= np.cumsum(probs[e])[-1]))


class TestStackedSiteTables:
    # mixed degrees (chain ends 1, inside 2) and a different POVM per site
    PLANS = [
        ["ZZ~0.5"] * 5,
        ["ZZ~0.5", "XY~0.5", "ZZ~0.5", "YX~0.5", "XX~0.5"],
        ["XY~0.5", "ZZ~0.5", "ZZ~0.5", "ZZ~0.5", "YX~0.5"],
    ]

    @pytest.mark.parametrize("labels", PLANS, ids=["uniform", "mixed", "mixed-ends"])
    def test_matches_per_site_bisection(self, labels):
        inst = chain_instance(4, 2)
        plan = sampling.MeasurementPlan.from_labels(inst, labels)
        batch = sampling.run_shots(inst, plan, 3000, 8, emit_hidden=True)
        u = sampling.shot_uniforms(8, 0, 3000, inst.lattice.n_sites, label="sites")
        families, site_family = family_coords(inst), dec._family_sites(inst)[1]
        povms = plan.povms(inst)
        for s in range(inst.lattice.n_sites):
            # the site's own Born CDF rows, built for this site alone
            where = [(plan.povm_indices[s], j) for j in range(povms[s].n_outcomes)]
            block = where, dec._hermitian_coords(povms[s].elements)
            probs = dec._scan_family(inst, s, *families[site_family[s]], [block], len(where), keep=True)[0]
            cdf = np.cumsum(np.clip(probs, 0.0, 1.0), axis=1)
            cdf = cdf / cdf[:, -1:]
            row = np.zeros(3000, dtype=np.intp)
            for e, _ in inst.lattice.incident_edges(s):
                row = row * 4 + batch.hidden[:, e]
            expect = [np.searchsorted(cdf[r], x, side="right") for r, x in zip(row, u[:, s])]
            assert batch.outcomes[:, s].tolist() == expect


def blocks_of(shots: int):
    """Patch the kernel's block size to the given shots."""
    return mock.patch.object(sampling, "_block_shots", lambda n_edges, n_sites: shots)


def jsonl(batches) -> str:
    fh = io.StringIO()
    for batch in batches:
        batch.write_jsonl(fh)
    return fh.getvalue()


class TestStreaming:
    @pytest.fixture(scope="class")
    def torus(self):
        inst = build(dict(
            recipe2_config(lattice="torus:3x3", epsilon=0.1, measurements="noisy-pauli:4:0.5"),
            psi="plus-diag:4",
        ))
        return inst, sampling.MeasurementPlan.uniform(inst, "ZZZZ~0.5"), {}

    # the stream draws blocks of edge_uniforms // 18 shots: 7281, torus:3x3's
    # own B, or 3, so 2B + 100 and 700 shots leave a ragged last block; the
    # reference draws blocks of ref_block shots (None: one block) on one thread
    @pytest.mark.parametrize(
        "edge_uniforms, n_shots, ref_block",
        [(1 << 17, 2 * 7281 + 100, b) for b in (None, 1000, 7281)]
        + [(64, 700, b) for b in (None, 1, 7, 300)],
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bytes_independent_of_workers_and_chunks(
        self, torus, edge_uniforms, n_shots, ref_block, workers
    ):
        inst, plan, reference = torus
        if (n_shots, ref_block) not in reference:
            # shots at seed 5 as ShotRecord.to_json lines
            with blocks_of(ref_block or n_shots):
                batch = sampling.run_shots(inst, plan, n_shots, 5, emit_hidden=True)
            reference[n_shots, ref_block] = "".join(r.to_json() + "\n" for r in batch.records())
        block = edge_uniforms // 18
        with blocks_of(block):
            batches = list(sampling.iter_shots(
                inst, plan, n_shots, 5, emit_hidden=True, workers=workers,
            ))
        assert [b.start_shot for b in batches] == list(range(0, n_shots, block))
        assert [b.n_shots for b in batches[:-1]] == [block] * (len(batches) - 1)
        assert 0 < batches[-1].n_shots < block
        assert jsonl(batches) == reference[n_shots, ref_block]

    @pytest.mark.parametrize(
        "lattice, n",
        [("chain:5", 2), ("cycle:6", 2), ("torus:3x3", 4)],
    )
    def test_one_batch_per_block(self, lattice, n):
        inst = build(dict(
            recipe2_config(lattice=lattice, epsilon=0.1, measurements=f"noisy-pauli:{n}:0.5"),
            psi=f"plus-diag:{n}",
        ))
        plan = sampling.MeasurementPlan.uniform(inst, "Z" * n + "~0.5")
        lat = inst.lattice
        block = sampling._block_shots(lat.n_edges, lat.n_sites)
        batches = list(sampling.iter_shots(inst, plan, 2 * block + 100, 0))
        assert [b.n_shots for b in batches] == [block, block, 100]
        (empty,) = sampling.iter_shots(inst, plan, 0, 0)
        assert empty.outcomes.shape == (0, lat.n_sites)

    @pytest.mark.parametrize(
        "n_edges, n_sites, block",
        [(1800, 900, 72), (18, 9, 7281), (400, 400, 218), (6, 6, 14563)],
        ids=["torus:30x30", "torus:3x3", "cycle:400", "cycle:6"],
    )
    def test_block_size(self, n_edges, n_sites, block):
        assert sampling._block_shots(n_edges, n_sites) == block

    def test_memory_flat_in_shots(self):
        inst = build(dict(
            recipe2_config(lattice="torus:10x10", epsilon=0.1, measurements="noisy-pauli:4:0.5"),
            psi="plus-diag:4",
        ))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZZZ~0.5")
        dists = dec.edge_distribution(inst)
        peaks = []
        tracemalloc.start()
        try:
            for n_shots in (2_000, 20_000):
                batches = sampling.iter_shots(inst, plan, n_shots, 0, edge_dists=dists)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                for _ in batches:
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


class TestWorkingSet:
    """On cycle:400 with hidden indices, the block and the writer stay near 2 MB and 1 MB."""

    @pytest.fixture(scope="class")
    def ring(self):
        inst = build(dict(recipe2_config(lattice="cycle:400"), psi="plus-diag:2"))
        return inst, uniform_plan(inst)

    def test_block_arrays(self, ring):
        made = []

        class Recorded(sampling._BlockArrays):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with mock.patch.object(sampling, "_BlockArrays", Recorded):
            for _ in sampling.iter_shots(*ring, 500, 0, emit_hidden=True):
                pass
        (arrays,) = made
        assert sum(a.nbytes for a in vars(arrays).values()) <= 2.2e6

    def test_writer_transient(self, ring):
        batch = next(iter(sampling.iter_shots(*ring, 5000, 7, emit_hidden=True)))

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch.write_jsonl(Discard())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_site_uniforms_read_in_place(self):
        # on cycle:6 the site uniforms are the strided (B, 8)[:, :6] head of the
        # block buffer; _draw reads them there instead of copying B * 6 floats
        inst = build(dict(recipe2_config(lattice="cycle:6"), psi="plus-diag:2"))
        made, seen = [], []

        class Recorded(sampling._BlockArrays):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def spy(table, row, u, out, idx, entry):
            seen.append(u)
            return draw(table, row, u, out, idx, entry)

        draw = sampling._draw
        with mock.patch.object(sampling, "_BlockArrays", Recorded), \
                mock.patch.object(sampling, "_draw", spy):
            for _ in sampling.iter_shots(inst, uniform_plan(inst), 1000, 0):
                pass
        (arrays,) = made
        (u,) = seen
        assert u.shape == (1000, 6) and not u.flags.c_contiguous
        assert np.shares_memory(u, arrays.buffer)

    def test_no_openssl_before_a_seed_is_derived(self):
        # hashlib maps libcrypto (+3.6 MB RSS); the certificate derives no seed
        src = Path(sampling.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        config = dict(
            recipe2_config(lattice="torus:3x3", epsilon=0.1, measurements="noisy-pauli:4:0.5"),
            psi="plus-diag:4",
        )
        code = (
            "import sys, pepslhv.cli\n"
            "from pepslhv import configio, construction, decomposition\n"
            f"inst = configio.build_instance({config!r})\n"
            "assert decomposition.rv_positivity_check(inst).passed\n"
            "print('_hashlib' in sys.modules)\n"
            "construction.derive_seed(0, 'edges')\n"
            "print('_hashlib' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_cli_import_loads_no_thread_pool(self):
        # --workers 1 draws inline, so importing the CLI must not load the pool
        src = Path(sampling.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, pepslhv.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestWideOutcomes:
    def test_more_than_256_outcomes(self):
        # 300 copies of I/300: outcome indices up to 299 must not wrap mod 256
        flat = linalg.matrix_to_json(np.eye(2) / 300)
        mset = {"povms": [{"label": "flat", "elements": [flat] * 300}]}
        inst = build(dict(recipe2_config(lattice="chain:2"), measurements=mset, psi="plus-diag:1"))
        plan = sampling.MeasurementPlan.uniform(inst, "flat")
        batch = sampling.run_shots(inst, plan, 3000, 4, emit_hidden=True)
        assert batch.outcomes.max() >= 256
        sites = sampling._set_up(inst, plan)[1]
        u = sampling.shot_uniforms(4, 0, 3000, inst.lattice.n_sites, label="sites")
        for s in range(inst.lattice.n_sites):
            # one edge per site, so the hidden index is the row in the site's block
            (e, _), = inst.lattice.incident_edges(s)
            expect = [
                np.searchsorted(sites.table[sites.base[s] + r, :300], x, side="right")
                for r, x in zip(batch.hidden[:, e].tolist(), u[:, s])
            ]
            assert batch.outcomes[:, s].tolist() == expect
        fh = io.StringIO()
        batch.write_jsonl(fh)
        assert fh.getvalue() == "".join(r.to_json() + "\n" for r in batch.records())


class TestWriteJsonl:
    @given(
        n_shots=st.sampled_from([0, 1, 2, 511, 512, 513, 1100]),
        start_shot=st.one_of(st.sampled_from([0, 95, 999]), st.integers(0, 10**9)),
        n_sites=st.integers(1, 5),
        n_edges=st.one_of(st.none(), st.integers(1, 6)),
        dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
        transposed=st.booleans(),
        block_bytes=st.sampled_from([1, 24, 1000, sampling._JSONL_BLOCK_BYTES]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_records(
        self, n_shots, start_shot, n_sites, n_edges, dtype, transposed, block_bytes, seed
    ):
        # start_shot 95 and 999 put shot numbers across 99/100 and 999/1000;
        # small block_bytes split the batch into blocks of one or a few shots
        rng = np.random.default_rng(seed)
        top = 1000 if dtype == np.int64 else int(np.iinfo(dtype).max) + 1

        def block(width):
            a = rng.integers(0, top, (n_shots, width)).astype(dtype)
            # run_shots hands out transposed views of (slots, shots) arrays
            return np.ascontiguousarray(a.T).T if transposed else a

        batch = sampling.ShotBatch(
            start_shot=start_shot,
            outcomes=block(n_sites),
            hidden=None if n_edges is None else block(n_edges),
        )
        fh = io.StringIO()
        with mock.patch.object(sampling, "_JSONL_BLOCK_BYTES", block_bytes):
            batch.write_jsonl(fh)
        assert fh.getvalue() == "".join(r.to_json() + "\n" for r in batch.records())

    BOUNDARIES = [0, 9, 10, 99, 100, 255, 999, 1000, 9999, 10000, 65535]

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    @pytest.mark.parametrize(
        "outcomes, hidden",
        [
            # one column: each row's first value is also its last
            (np.array(BOUNDARIES)[:, None], None),
            (np.array(BOUNDARIES)[:, None], np.array(BOUNDARIES[::-1])[:, None]),
            (np.array([BOUNDARIES]), np.array([BOUNDARIES[::-1]])),
            (np.array([BOUNDARIES, BOUNDARIES[::-1]]), None),
        ],
        ids=["column", "column-hidden", "row-hidden", "rows"],
    )
    def test_digit_boundaries(self, outcomes, hidden, dtype):
        batch = sampling.ShotBatch(
            start_shot=9,
            outcomes=outcomes.astype(dtype),
            hidden=None if hidden is None else hidden.astype(dtype),
        )
        fh = io.StringIO()
        batch.write_jsonl(fh)
        assert fh.getvalue() == "".join(r.to_json() + "\n" for r in batch.records())


class TestRunShots:
    def test_zero_shots(self, chain4, chain4_dists):
        batch = sampling.run_shots(chain4, uniform_plan(chain4), 0, 0, edge_dists=chain4_dists)
        assert batch.n_shots == 0
        assert list(batch.records()) == []

    def test_zero_shots_build_no_generator(self, chain4, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator built for zero shots")

        monkeypatch.setattr(np.random, "Philox", no_generator)
        (empty,) = sampling.iter_shots(chain4, uniform_plan(chain4), 0, 0)
        assert empty.outcomes.shape == (0, 4)

    def test_worker_count_does_not_change_output(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        kw = dict(edge_dists=chain4_dists, emit_hidden=True)
        with blocks_of(512):
            a = sampling.run_shots(chain4, plan, 4000, 1, workers=1, **kw)
            b = sampling.run_shots(chain4, plan, 4000, 1, workers=4, **kw)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.hidden, b.hidden)
        # one block, and a block that leaves a short last block; threads
        # switch often so that blocks finish out of order
        with blocks_of(4000):
            whole = sampling.run_shots(chain4, plan, 4000, 1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with blocks_of(384):
                ragged = sampling.run_shots(chain4, plan, 4000, 1, workers=4, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert ragged.start_shot == 0
        assert np.array_equal(whole.outcomes, ragged.outcomes)
        assert np.array_equal(whole.hidden, ragged.hidden)
        assert np.array_equal(whole.outcomes, a.outcomes)

    def test_single_shot_path_agrees(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        batch = sampling.run_shots(chain4, plan, 50, 9, edge_dists=chain4_dists, emit_hidden=True)
        for rec in list(batch.records())[:10]:
            redo = sample_given(chain4, rec.hidden, plan, seed=9, shot=rec.shot)
            assert redo.outcomes == rec.outcomes

    def test_jsonl_records(self, chain4, chain4_dists):
        plan = uniform_plan(chain4)
        batch = sampling.run_shots(chain4, plan, 3, 0, edge_dists=chain4_dists, emit_hidden=True)
        lines = [r.to_json() for r in batch.records()]
        parsed = [json.loads(l) for l in lines]
        assert [p["shot"] for p in parsed] == [0, 1, 2]
        assert all(len(p["outcomes"]) == 4 for p in parsed)
        assert all(len(p["hidden"]) == 3 for p in parsed)

    def test_outcome_indices_in_range(self, chain4, chain4_dists):
        batch = sampling.run_shots(chain4, uniform_plan(chain4), 2000, 3, edge_dists=chain4_dists)
        assert batch.outcomes.min() >= 0
        assert batch.outcomes.max() < 4

    def test_uncertified_instance_raises_witness(self):
        inst = build(recipe2_config(epsilon=0.2, measurements="pauli:2"))
        plan = sampling.MeasurementPlan.uniform(inst, "ZZ")
        dists = dec.edge_distribution(inst)
        with pytest.raises(PositivityViolationError) as err:
            sampling.run_shots(inst, plan, 10, 0, edge_dists=dists)
        # the certificate's own witness: site, index tuple, POVM in M and element
        witness = err.value.witness
        assert isinstance(witness, dec.PositivityWitness)
        assert witness.kind == "dual"
        assert not -1e-9 <= witness.value <= 1 + 1e-9
        assert witness.povm_index == plan.povm_indices[witness.site]
        assert len(witness.indices) == inst.lattice.degrees[witness.site]


def exit_order_instance(scale):
    """chain:3 failing all three set-up tests when scale overflows, the last two otherwise.

    The end maps keep only K[1, 1], so their traces are the basis' (1, 1)
    entries, down to -0.707: no factorization (exit 4) and a trace witness
    at site 0 (exit 3).  The middle map is cycle:3's recipe-2 map at
    epsilon 0.2 times scale; times 2^600 its family is non-finite (exit 2).
    """
    K = np.zeros((4, 2), dtype=complex)
    K[1, 1] = 1.0
    end = con.SiteMap(1, 2, 4, K)
    middle = build(recipe2_config()).maps[2]
    return con.PepsInstance(
        lattice=lattice_from_name("chain:3"),
        maps={1: end, 2: con.SiteMap(2, 2, 4, middle.K * scale)},
        basis=configio.parse_basis("aligned:2:zero"),
        measurement_set=configio.parse_measurements("pauli:2"),
    )


def set_up(name, inst):
    """Run the named entry point's set-up on inst."""
    plan = configio.parse_plan("all:ZZ", inst)
    if name == "edge_distribution":
        return dec.edge_distribution(inst)
    if name == "run_shots":
        return sampling.run_shots(inst, plan, 4, 0)
    synthetic = dec.EdgeDistributions(probs=np.full((2, 4), 0.25), log_T=0.0)
    return sampling.run_shots(inst, plan, 4, 0, edge_dists=synthetic)


class TestSetUpErrorOrder:
    # a non-finite family (exit 2) before a trace tensor that does not
    # factorize (exit 4) before a certificate witness (exit 3), whether or
    # not edge distributions are given
    @pytest.mark.parametrize("name", ["edge_distribution", "run_shots", "run_shots(edge_dists)"])
    def test_non_finite_first(self, name):
        with pytest.raises(UsageError, match=r"^site 1: non-finite output operator$"):
            set_up(name, exit_order_instance(2.0**600))

    @pytest.mark.parametrize("name", ["edge_distribution", "run_shots", "run_shots(edge_dists)"])
    def test_not_factorizable_before_witness(self, name):
        with pytest.raises(NotFactorizableError, match=r"^site 0: non-positive output trace$"):
            set_up(name, exit_order_instance(1.0))


class TestDeterministicGivenLambda:
    def test_identity_bell_outcomes_fixed_by_hidden(self, identity_bell_config):
        # head-tail Bell probabilities are all 0 or 1, so lambda decides the outcome
        inst = build(identity_bell_config)
        plan = sampling.MeasurementPlan.uniform(inst, "bell")
        for assignment in [(0, 0, 0), (1, 2, 3), (3, 3, 3)]:
            first = sample_given(inst, assignment, plan, seed=0, shot=0)
            for shot in range(1, 6):
                again = sample_given(inst, assignment, plan, seed=shot, shot=shot)
                assert again.outcomes == first.outcomes


class TestGoldenDigest:
    # sha256 of the `pepslhv sample` JSONL at seed 0; any change to the
    # kernel, the CDF tables or the record format that moves a byte fails here
    @pytest.mark.parametrize(
        "lattice, qubits, epsilon, plan, hidden, shots, digest",
        [
            ("cycle:6", 2, 0.2, "all:ZZ~0.5", True, 2000,
             "a2a64a2bea562b446571c63eeab83318adec2dde5f438707402b11c06c9aa60f"),
            ("torus:3x3", 4, 0.1, "all:ZZZZ~0.5", False, 2000,
             "2e61a5a3663be6f2bc9b717b8f6e18e45540cf73c0e1fc00825178785eb47ff9"),
            # mixed degree (1 at the ends, 2 inside) and a different POVM per site
            ("chain:5", 2, 0.2, {"sites": ["ZZ~0.5", "XY~0.5", "ZZ~0.5", "YX~0.5", "ZZ~0.5"]},
             True, 2000, "52120d5b0eecab97442b1563836124a26103e31f25f7a98c55e99d4c23a97861"),
            # blocks of only B = 3 and B = 4 shots
            ("cycle:25600", 2, 0.2, "all:ZZ~0.5", True, 40,
             "b6b1763ff8984b35656151d574d108d3ea9df3ae2423c35ac939f9924351d596"),
            ("torus:120x120", 4, 0.1, "all:ZZZZ~0.5", True, 24,
             "5becc22dab7f77e7329cf021833a93b9a1b2e5508fb8d79807be74294ad46a5f"),
        ],
        ids=["cycle6-hidden", "torus3x3-d16", "chain5-sites-hidden", "cycle25600-b3-hidden",
             "torus120x120-b4-hidden"],
    )
    def test_sample_jsonl_digest(
        self, tmp_path, lattice, qubits, epsilon, plan, hidden, shots, digest
    ):
        inst = tmp_path / "inst.json"
        assert cli.main([
            "peps", "build",
            "--lattice", lattice,
            "--basis", "aligned:2:zero",
            "--measurements", f"noisy-pauli:{qubits}:0.5",
            "--recipe", "2",
            "--psi", f"plus-diag:{qubits}",
            "--epsilon", str(epsilon),
            "--out", str(inst),
        ]) == 0
        if isinstance(plan, dict):
            plan_file = tmp_path / "plan.json"
            plan_file.write_text(json.dumps(plan))
            plan = f"@{plan_file}"
        out = tmp_path / "shots.jsonl"
        argv = ["sample", str(inst), "--plan", plan, "--shots", str(shots), "--seed", "0",
                "--out", str(out)]
        assert cli.main(argv + (["--emit-hidden"] if hidden else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
