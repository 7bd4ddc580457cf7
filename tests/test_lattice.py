import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepslhv import lattice
from pepslhv.errors import UsageError

from conftest import run_capped

# names of 10^11 and 10^12 sites: built, they exhaust memory; refused, they cost nothing
HUGE_NAMES = ["cycle:100000000000", "torus:1000000x1000000"]


class TestChain:
    def test_two_sites(self):
        lat = lattice.build_chain(2)
        assert lat.n_edges == 1
        assert lat.site_degrees() == [1, 1]

    def test_five_sites(self):
        lat = lattice.build_chain(5)
        assert lat.n_edges == 4
        assert lat.site_degrees() == [1, 2, 2, 2, 1]

    def test_orientation_heads_at_lower_index(self):
        for head, tail in lattice.build_chain(6).edges:
            assert head < tail

    def test_too_short(self):
        with pytest.raises(UsageError):
            lattice.build_chain(1)


class TestCycle:
    def test_three_sites(self):
        lat = lattice.build_cycle(3)
        assert lat.n_edges == 3
        assert lat.site_degrees() == [2, 2, 2]

    def test_translation_invariant_orientation(self):
        lat = lattice.build_cycle(4)
        edges = set(lat.edges)
        shifted = {((h + 1) % 4, (t + 1) % 4) for h, t in edges}
        assert shifted == edges

    def test_n2_would_be_a_double_edge(self):
        with pytest.raises(UsageError):
            lattice.build_cycle(2)


class TestTorus:
    def test_3x3(self):
        lat = lattice.build_torus(3, 3)
        assert lat.n_sites == 9
        assert lat.n_edges == 18
        assert all(v == 4 for v in lat.site_degrees())

    def test_10x10_edge_count(self):
        assert lattice.build_torus(10, 10).n_edges == 200

    def test_translation_invariance_both_axes(self):
        Lx = Ly = 3
        lat = lattice.build_torus(Lx, Ly)

        def site(x, y):
            return (y % Ly) * Lx + (x % Lx)

        coords = {s: (s % Lx, s // Lx) for s in range(Lx * Ly)}
        edges = set(lat.edges)
        for dx, dy in ((1, 0), (0, 1)):
            shifted = {
                (site(coords[h][0] + dx, coords[h][1] + dy),
                 site(coords[t][0] + dx, coords[t][1] + dy))
                for h, t in edges
            }
            assert shifted == edges

    def test_too_small(self):
        with pytest.raises(UsageError):
            lattice.build_torus(2, 3)


class TestInvariants:
    @pytest.mark.parametrize(
        "lat",
        [lattice.build_chain(5), lattice.build_cycle(4), lattice.build_torus(3, 4)],
        ids=["chain", "cycle", "torus"],
    )
    def test_handshake(self, lat):
        assert sum(lat.site_degrees()) == 2 * lat.n_edges

    @pytest.mark.parametrize(
        "lat",
        [lattice.build_chain(5), lattice.build_cycle(4), lattice.build_torus(3, 4)],
        ids=["chain", "cycle", "torus"],
    )
    def test_each_edge_has_one_head_and_one_tail(self, lat):
        heads = [0] * lat.n_edges
        tails = [0] * lat.n_edges
        for s in range(lat.n_sites):
            for e, ishead in lat.incident_edges(s):
                if ishead:
                    heads[e] += 1
                else:
                    tails[e] += 1
        assert heads == [1] * lat.n_edges
        assert tails == [1] * lat.n_edges

    def test_incidence_ordered_by_edge_index(self):
        lat = lattice.build_torus(3, 3)
        for s in range(lat.n_sites):
            idx = [e for e, _ in lat.incident_edges(s)]
            assert idx == sorted(idx)

    def test_self_loop_rejected(self):
        with pytest.raises(UsageError):
            lattice.Lattice(n_sites=2, edges=((0, 0),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(UsageError):
            lattice.Lattice(n_sites=2, edges=((0, 1), (1, 0)))

    def test_too_many_sites_refused_before_incidence(self):
        # one edge touches two sites; the other 10^7 - 2 are refused before
        # any per-site list is built
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="every site must touch"):
                lattice.lattice_from_json({"n_sites": 10**7, "edges": [[0, 1]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNamesAndFiles:
    @given(st.integers(3, 30))
    @settings(max_examples=20)
    def test_cycle_names(self, n):
        lat = lattice.lattice_from_name(f"cycle:{n}")
        assert lat.n_sites == n and lat.n_edges == n

    def test_torus_name(self):
        lat = lattice.lattice_from_name("torus:3x4")
        assert lat.n_sites == 12

    def test_bad_name(self):
        with pytest.raises(UsageError):
            lattice.lattice_from_name("honeycomb:4")

    def test_json_round_trip(self):
        lat = lattice.build_torus(3, 3)
        back = lattice.lattice_from_json(lattice.lattice_to_json(lat))
        assert back == lat

    def test_bound_holds_the_scaling_series(self):
        # cycle:102400 and torus:240x240 must still build
        assert lattice.MAX_NAMED_SITES >= max(2**17, 102400, 240 * 240)
        with pytest.raises(UsageError, match=f"{lattice.MAX_NAMED_SITES + 1} sites"):
            lattice.lattice_from_name(f"cycle:{lattice.MAX_NAMED_SITES + 1}")

    @pytest.mark.parametrize("name", HUGE_NAMES)
    def test_huge_name_refused_before_any_edge(self, name):
        # in a capped child, so a name built despite its size fails there, not here
        code = (
            "from pepslhv.errors import UsageError\n"
            "from pepslhv.lattice import lattice_from_name\n"
            "try:\n"
            f"    lattice_from_name({name!r})\n"
            "except UsageError as exc:\n"
            "    print(exc)\n"
        )
        proc = run_capped("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "sites, more than" in proc.stdout
