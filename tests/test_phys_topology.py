"""Unit tests for the physical topology graph."""

import random

import pytest

from repro.substrates.phys import (Topology, TopologyError, figure3_topology,
                                   grid_topology, line_topology,
                                   random_topology, ring_topology,
                                   star_topology)


class TestConstruction:
    def test_add_nodes_and_links(self):
        topo = Topology()
        topo.add_link("a", "b", latency=0.02)
        assert "a" in topo and "b" in topo
        assert topo.has_link("a", "b")
        assert topo.has_link("b", "a")
        assert topo.link("a", "b").latency == 0.02

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_link(1, 2)
        with pytest.raises(TopologyError):
            topo.add_link(2, 1)

    def test_self_link_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_link(1, 1)

    def test_negative_latency_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, latency=-0.1)

    def test_remove_link(self):
        topo = Topology()
        topo.add_link(1, 2)
        topo.remove_link(1, 2)
        assert not topo.has_link(1, 2)
        assert 1 in topo and 2 in topo

    def test_remove_node_removes_incident_links(self):
        topo = star_topology(3)
        topo.remove_node(0)
        assert topo.links == []
        assert 0 not in topo

    def test_version_bumps_on_change(self):
        topo = Topology()
        v0 = topo.version
        topo.add_link(1, 2)
        assert topo.version > v0
        v1 = topo.version
        topo.set_link_state(1, 2, False)
        assert topo.version > v1

    def test_link_other_endpoint(self):
        topo = Topology()
        link = topo.add_link("x", "y")
        assert link.other("x") == "y"
        assert link.other("y") == "x"
        with pytest.raises(TopologyError):
            link.other("z")


class TestState:
    def test_down_link_hidden_from_neighbors(self):
        topo = line_topology(3)
        assert topo.neighbors(1) == [0, 2]
        topo.set_link_state(1, 2, False)
        assert topo.neighbors(1) == [0]

    def test_down_node_hidden_from_neighbors(self):
        topo = line_topology(3)
        topo.set_node_state(2, False)
        assert topo.neighbors(1) == [0]
        assert topo.neighbors(2) == []

    def test_only_up_false_shows_all(self):
        topo = line_topology(3)
        topo.set_link_state(1, 2, False)
        assert set(topo.neighbors(1, only_up=False)) == {0, 2}


class TestPaths:
    def test_line_path(self):
        topo = line_topology(5)
        assert topo.path(0, 4) == [0, 1, 2, 3, 4]

    def test_path_prefers_low_latency(self):
        topo = Topology()
        topo.add_link("a", "b", latency=1.0)
        topo.add_link("a", "c", latency=0.1)
        topo.add_link("c", "b", latency=0.1)
        assert topo.path("a", "b") == ["a", "c", "b"]

    def test_path_by_hops(self):
        topo = Topology()
        topo.add_link("a", "b", latency=1.0)
        topo.add_link("a", "c", latency=0.1)
        topo.add_link("c", "b", latency=0.1)
        assert topo.path("a", "b", weight="hops") == ["a", "b"]

    def test_no_path_when_partitioned(self):
        topo = line_topology(4)
        topo.set_link_state(1, 2, False)
        assert topo.path(0, 3) is None

    def test_path_to_self(self):
        topo = line_topology(2)
        assert topo.path(0, 0) == [0]

    def test_path_avoids_down_node(self):
        topo = ring_topology(4)  # 0-1-2-3-0
        topo.set_node_state(1, False)
        assert topo.path(0, 2) == [0, 3, 2]

    def test_path_latency(self):
        topo = line_topology(4, latency=0.25)
        assert topo.path_latency([0, 1, 2, 3]) == pytest.approx(0.75)

    def test_connected_components(self):
        topo = line_topology(4)
        topo.set_link_state(1, 2, False)
        comps = sorted(topo.connected_components(), key=lambda c: min(c))
        assert comps == [{0, 1}, {2, 3}]

    def test_is_connected(self):
        assert ring_topology(5).is_connected()
        topo = line_topology(3)
        topo.set_link_state(0, 1, False)
        assert not topo.is_connected()

    @pytest.mark.parametrize("weight", ["latency", "hops"])
    def test_first_hops_match_paths(self, weight):
        topo = grid_topology(3, 3)
        topo.set_link_state((1, 1), (1, 2), False)
        topo.set_node_state((2, 2), False)
        for src in topo.nodes:
            table = topo.first_hops(src, weight=weight)
            expected = {}
            for dst in topo.nodes:
                path = topo.path(src, dst, weight=weight)
                if dst != src and path is not None:
                    expected[dst] = path[1]
            assert table == expected


class TestGenerators:
    def test_line(self):
        topo = line_topology(4)
        assert len(topo.nodes) == 4
        assert len(topo.links) == 3

    def test_ring(self):
        topo = ring_topology(5)
        assert len(topo.links) == 5
        assert all(topo.degree(n) == 2 for n in topo.nodes)

    def test_star(self):
        topo = star_topology(6)
        assert topo.degree(0) == 6
        assert all(topo.degree(i) == 1 for i in range(1, 7))

    def test_grid(self):
        topo = grid_topology(3, 4)
        assert len(topo.nodes) == 12
        assert len(topo.links) == 3 * 3 + 2 * 4
        assert topo.degree((1, 1)) == 4   # interior
        assert topo.degree((0, 0)) == 2   # corner

    def test_figure3_topology_matches_paper(self):
        topo = figure3_topology()
        assert sorted(topo.nodes) == ["N1", "N2", "N3", "N4", "N5", "N6"]
        assert len(topo.links) == 8
        labels = sorted(l.name for l in topo.links)
        assert labels == [f"L{i}" for i in range(1, 9)]
        assert topo.is_connected()

    def test_random_topology_connected(self):
        for seed in range(5):
            topo = random_topology(20, avg_degree=3.0,
                                   rng=random.Random(seed))
            assert topo.is_connected()
            assert len(topo.nodes) == 20

    def test_random_topology_respects_degree_target(self):
        topo = random_topology(30, avg_degree=4.0, rng=random.Random(1))
        avg = 2 * len(topo.links) / len(topo.nodes)
        assert 3.0 <= avg <= 5.0

    def test_copy_is_independent(self):
        topo = ring_topology(4)
        clone = topo.copy()
        topo.set_link_state(0, 1, False)
        assert clone.link(0, 1).up
        assert not topo.link(0, 1).up


class TestPathLatencyEdges:
    def test_empty_and_single_node_paths(self):
        topo = line_topology(3)
        assert topo.path_latency([]) == 0.0
        assert topo.path_latency([1]) == 0.0

    def test_link_metadata_dict(self):
        topo = line_topology(2)
        link = topo.link(0, 1)
        link.meta["color"] = "red"
        assert topo.link(1, 0).meta["color"] == "red"
