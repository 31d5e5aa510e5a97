import numpy as np
import pytest

from qecc1wqc import svsim
from qecc1wqc.circuit import CZ
from qecc1wqc.graphs import (Graph, graph_to_tableau, lc_layer_gates,
                             local_complement, pivot, pivot_layer_gates,
                             tableau_to_graph)
from qecc1wqc.tableau import Tableau


def _random_graph(rng, n):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def test_no_self_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_local_complement_on_leaf_changes_nothing():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert local_complement(g, 0).edges == g.edges  # neighborhood size 1


def test_local_complement_involution(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = _random_graph(rng, n)
        v = int(rng.integers(0, n))
        assert local_complement(local_complement(g, v), v).edges == g.edges


def test_pivot_symmetric(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = _random_graph(rng, n)
        if not g.edges:
            continue
        u, v = sorted(g.edges)[int(rng.integers(0, len(g.edges)))]
        assert pivot(g, u, v).edges == pivot(g, v, u).edges


def test_pivot_requires_edge():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        pivot(g, 0, 2)


def test_k55_pivot_yields_double_star():
    g = Graph.from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)])
    gp = pivot(g, 0, 5)
    expect = {(0, 5)} | {(0, i) for i in range(1, 5)} | {(5, j) for j in range(6, 10)}
    assert gp.edges == frozenset(expect)


def test_graph_tableau_roundtrip_is_identity(rng):
    for _ in range(20):
        n = int(rng.integers(1, 8))
        g = _random_graph(rng, n)
        t = graph_to_tableau(g)
        back, layer = tableau_to_graph(t)
        assert back.edges == g.edges
        assert layer == []


def test_cz_gates_prepare_the_graph_state(rng):
    """One CZ per edge, in sorted order, taking |+>^n to the graph state:
    amplitude (-1)^(edges inside the 1-set of the basis index) / sqrt(2^n)."""
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = _random_graph(rng, n)
        gates = g.cz_gates()
        assert [gt.targets for gt in gates] == sorted(g.edges)
        assert all(gt.kind == "CZ" for gt in gates)
        state = svsim.init(n, "+" * n)
        for gt in gates:
            svsim.apply(state, gt)
        ones = [{q for q in range(n) if (idx >> (n - 1 - q)) & 1}
                for idx in range(2**n)]
        signs = [(-1) ** sum(a in s and b in s for a, b in g.edges) for s in ones]
        assert np.allclose(state.amps, np.array(signs) / np.sqrt(2**n))


def test_empty_graph_gives_x_generators():
    t = graph_to_tableau(Graph.from_edges(3, []))
    labels = [p.to_label() for p in t.stabilizer_rows()]
    assert labels == ["+XII", "+IXI", "+IIX"]


def test_tableau_to_graph_surfaces_layer(rng):
    """Reduction of a random stabilizer state: applying the returned layer
    maps the state onto the returned graph state exactly."""
    from qecc1wqc.circuit import Gate

    for _ in range(15):
        n = int(rng.integers(1, 6))
        t = Tableau.initialized(n, list(rng.choice(["0", "+"], size=n)))
        for _ in range(25):
            kind = rng.choice(["H", "S", "CZ"])
            if kind == "CZ":
                if n < 2:
                    continue
                a, b = rng.choice(n, size=2, replace=False)
                t.apply(CZ(int(a), int(b)))
            else:
                t.apply(Gate(kind, (int(rng.integers(0, n)),)))
        g, layer = tableau_to_graph(t)
        check = t.copy()
        for gate in layer:
            check.apply(gate)
        assert check.stab_equal(graph_to_tableau(g))


def test_lc_layer_matches_dense(rng):
    """|LC_v(G)> equals the local layer applied to |G|, up to global phase."""
    for _ in range(15):
        n = int(rng.integers(2, 6))
        g = _random_graph(rng, n)
        v = int(rng.integers(0, n))
        state = svsim.init(n, "+" * n)
        for a, b in sorted(g.edges):
            svsim.apply(state, CZ(a, b))
        for gate in lc_layer_gates(g, v):
            svsim.apply(state, gate)
        target = svsim.init(n, "+" * n)
        for a, b in sorted(local_complement(g, v).edges):
            svsim.apply(target, CZ(a, b))
        assert svsim.fidelity(state, target) > 1 - 1e-9


def test_pivot_layer_maps_state(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = _random_graph(rng, n)
        if not g.edges:
            continue
        u, v = sorted(g.edges)[int(rng.integers(0, len(g.edges)))]
        t = graph_to_tableau(g)
        for gate in pivot_layer_gates(g, u, v):
            t.apply(gate)
        assert t.stab_equal(graph_to_tableau(pivot(g, u, v)))


def test_json_edges_rebuild_the_graph():
    g = Graph.from_edges(4, [(1, 0), (2, 3)])
    obj = g.to_json_obj()
    assert obj == {"n": 4, "edges": [[0, 1], [2, 3]]}
    assert Graph.from_edges(obj["n"], obj["edges"]) == g


def test_k5_graph_from_tableau():
    t = Tableau.initialized(5, "+++++")
    for a in range(5):
        for b in range(a + 1, 5):
            t.apply(CZ(a, b))
    g, layer = tableau_to_graph(t)
    assert len(g.edges) == 10 and layer == []
