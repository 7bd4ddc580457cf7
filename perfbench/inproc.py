"""In-process half of the benchmark: spans, command replays and output checks.

Each replay repeats what one `pepslhv` subcommand does after argument
parsing, calling the same public functions in the same order, with a span
around each call into a module.  No span lives inside the package itself.
This module imports `pepslhv`, so `run.py` loads it only after putting the
repository's `src` on `sys.path`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pepslhv import configio, decomposition, oracle, sampling
from pepslhv.construction import assemble_exact_state, choi_check

# Per-site marginal test: TV <= MARGINAL_K * sqrt(K / shots), the same
# form and constant as `pepslhv verify --mode shots` uses for the joint.
MARGINAL_K = 4.0
CHOI_ATOL = 1e-9
MIXTURE_TV_MAX = 1e-10
EPS_HI = 1.0


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _load(tr: Tracer, path):
    with tr.span("configio.load_instance"):
        return configio.load_instance(str(path))


def _write_jsonl(tr: Tracer, batch, out) -> int:
    # same loop as cmd_sample, so the bytes must equal the CLI's
    with tr.span("sampling.serialize"):
        with open(out, "w") as fh:
            for record in batch.records():
                fh.write(record.to_json() + "\n")
    return Path(out).stat().st_size


def _exact(tr: Tracer, instance, plan):
    # oracle.born_joint_for_instance, split at its two calls
    with tr.span("construction.assemble_exact_state"):
        raw, T = assemble_exact_state(instance)
    with tr.span("oracle.born_joint"):
        return oracle.exact_joint_distribution(raw / np.sqrt(T), plan.povms(instance))


def replay_sample(tr: Tracer, name: str, path, plan_spec, shots, seed, hidden, out) -> dict:
    """`pepslhv sample`; with shots == 0 this is the set-up command."""
    with tr.span(f"cmd.{name}"):
        instance = _load(tr, path)
        plan = configio.parse_plan(plan_spec, instance)
        with tr.span("decomposition.edge_distribution"):
            dists = decomposition.edge_distribution(instance)
        with tr.span("sampling.tables" if shots == 0 else "sampling.run_shots"):
            batch = sampling.run_shots(
                instance, plan, shots, seed, edge_dists=dists, emit_hidden=hidden, workers=1
            )
        n_bytes = _write_jsonl(tr, batch, out)
    return {
        "bytes": n_bytes,
        "site_outcomes": batch.outcomes.size,
        "edge_T": dists.T,
    }


def replay_check(tr: Tracer, path) -> dict:
    """`pepslhv peps check`, including its per-site choi_check loop."""
    with tr.span("cmd.check"):
        instance = _load(tr, path)
        with tr.span("construction.choi_check"):
            choi_min = min(choi_check(m) for m in instance.site_maps)
        with tr.span("decomposition.certify"):
            report = decomposition.rv_positivity_check(instance)
    return {"ok": choi_min >= -CHOI_ATOL and report.passed, "slack": report.slack}


def replay_verify_mixture(tr: Tracer, path, plan_spec) -> dict:
    with tr.span("cmd.verify_mixture"):
        instance = _load(tr, path)
        plan = configio.parse_plan(plan_spec, instance)
        exact = _exact(tr, instance, plan)
        with tr.span("oracle.mixture_joint"):
            mix = oracle.mixture_joint_distribution(instance, plan)
        tv = oracle.tv_distance(mix, exact)
    return {"ok": tv <= MIXTURE_TV_MAX, "tv": tv}


def replay_verify_shots(tr: Tracer, path, plan_spec, shots, seed) -> dict:
    with tr.span("cmd.verify_shots"):
        instance = _load(tr, path)
        plan = configio.parse_plan(plan_spec, instance)
        exact = _exact(tr, instance, plan)
        with tr.span("decomposition.edge_distribution"):
            dists = decomposition.edge_distribution(instance)
        with tr.span("sampling.run_shots"):
            batch = sampling.run_shots(instance, plan, shots, seed, edge_dists=dists, workers=1)
        with tr.span("oracle.frequency_test"):
            report = oracle.frequency_test(batch, exact)
    return {"ok": report.passed, "tv": report.tv, "site_outcomes": batch.outcomes.size}


def replay_epsilon_max(tr: Tracer, path) -> dict:
    """`pepslhv peps epsilon-max --eps-hi 1.0`.

    Every probe instance is built under a configio.load_instance span and
    counted; rv_positivity_check is wrapped for the length of the search so
    that each probe's certificate gets its own span.
    """
    config = json.loads(Path(path).read_text())
    probes = 0

    def make(eps: float):
        nonlocal probes
        probes += 1
        cfg = json.loads(json.dumps(config))
        cfg["site_map"]["epsilon"] = eps
        with tr.span("configio.load_instance"):
            return configio.build_instance(cfg)

    certify = decomposition.rv_positivity_check

    def traced_certify(instance):
        with tr.span("decomposition.certify"):
            return certify(instance)

    decomposition.rv_positivity_check = traced_certify
    try:
        with tr.span("cmd.epsilon_max"):
            lo, hi = decomposition.max_epsilon_search(make, EPS_HI)
    finally:
        decomposition.rv_positivity_check = certify
    return {"bracket": [lo, hi], "probes": probes}


def probe_incidence(tr: Tracer, paths) -> None:
    """incident_edges(s) for every site, the scan each caller repeats."""
    for path in paths:
        lattice = configio.load_instance(str(path)).lattice
        with tr.span("lattice.incidence"):
            for s in range(lattice.n_sites):
                lattice.incident_edges(s)


def probe_rng(tr: Tracer, path, shots: int, seed: int) -> None:
    """shot_uniforms for the edge and site streams, chunked as run_shots does."""
    lattice = configio.load_instance(str(path)).lattice
    with tr.span("sampling.rng"):
        for start in range(0, shots, sampling.DEFAULT_CHUNK):
            count = min(sampling.DEFAULT_CHUNK, shots - start)
            sampling.shot_uniforms(seed, start, count, lattice.n_edges, label="edges")
            sampling.shot_uniforms(seed, start, count, lattice.n_sites, label="sites")


def site_marginal_check(path, plan_spec, jsonl) -> dict:
    """Compare each site's outcome frequencies in `jsonl` with the model.

    The exact marginal at site s is sum over its incident index tuples of
    prod_e p_e(k_e) * tr(O_k X_j) / tr(O_k), from edge_distribution and
    site_operator_family.  It needs no oracle, so it works at any lattice
    size.  Passes iff every site's TV <= MARGINAL_K * sqrt(K / shots).
    """
    instance = configio.load_instance(str(path))
    plan = configio.parse_plan(plan_spec, instance)
    povms = plan.povms(instance)
    dists = decomposition.edge_distribution(instance)
    lattice = instance.lattice
    with open(jsonl) as fh:
        outcomes = np.array([json.loads(line)["outcomes"] for line in fh], dtype=np.int64)
    shots = outcomes.shape[0]
    families: dict = {}
    worst = 0.0
    passed = True
    for s in range(lattice.n_sites):
        incident = lattice.incident_edges(s)
        m = instance.site_maps[s]
        flags = tuple(not ishead for _, ishead in incident)
        key = (id(m), flags, id(povms[s]))
        if key not in families:
            ops = decomposition.site_operator_family(m, instance.basis, flags)
            stack = np.stack(povms[s].elements)
            traces = np.array([np.real(np.trace(o)) for o in ops])
            families[key] = np.array(
                [np.real(np.einsum("ab,eba->e", o, stack)) for o in ops]
            ) / traces[:, None]
        weights = np.ones(1)
        for e, _ in incident:
            weights = np.multiply.outer(weights, dists.probs[e]).reshape(-1)
        exact = weights @ families[key]
        K = povms[s].n_outcomes
        empirical = np.bincount(outcomes[:, s], minlength=K) / shots
        tv = 0.5 * float(np.abs(empirical - exact).sum())
        worst = max(worst, tv)
        if tv > MARGINAL_K * np.sqrt(K / shots):
            passed = False
    return {"ok": passed, "shots": shots, "worst_site_tv": worst}
