"""Graphs, local complementation, pivot, and graph-state conversions.

A graph state is the result of applying CZ along every edge to qubits
prepared in |+>.  ``tableau_to_graph`` reduces any stabilizer state to a
graph state plus an explicit local-Clifford layer; the layer is returned
rather than assumed trivial, and applying it to the input state yields the
graph state exactly (signed stabilizer equality).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import CZ, Gate, H, S, SDG, Z
from .tableau import Tableau, run_gates


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError("self-loops are not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        norm = frozenset(_norm_edge(u, v) for u, v in edges)
        for u, v in norm:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
        return cls(n, norm)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    def cz_gates(self) -> list[Gate]:
        """The graph state's preparation from |+>^n: CZ along the sorted edges."""
        return [CZ(a, b) for a, b in sorted(self.edges)]


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every edge inside the neighborhood of v."""
    nb = sorted(g.neighbors(v))
    edges = set(g.edges)
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            e = _norm_edge(nb[i], nb[j])
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return Graph(g.n, frozenset(edges))


def pivot(g: Graph, u: int, v: int) -> Graph:
    """Edge complementation along (u, v): LC at u, then v, then u."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge; pivot undefined")
    return local_complement(local_complement(local_complement(g, u), v), u)


def lc_layer_gates(g: Graph, v: int) -> list[Gate]:
    """Local-Clifford layer U with |LC_v(G)> = U |G> (up to global phase).

    The vertex gets the X-axis quarter turn H*S*H; each neighbor gets S^dag.
    """
    gates = [H(v), S(v), H(v)]
    for u in sorted(g.neighbors(v)):
        gates.append(SDG(u))
    return gates


def pivot_layer_gates(g: Graph, u: int, v: int) -> list[Gate]:
    """Layer mapping |G> to |pivot(G, u, v)> as three chained LC layers."""
    gates = []
    cur = g
    for vertex in (u, v, u):
        gates.extend(lc_layer_gates(cur, vertex))
        cur = local_complement(cur, vertex)
    return gates


def graph_to_tableau(g: Graph) -> Tableau:
    return run_gates(Tableau.initialized(g.n, ["+"] * g.n), g.cz_gates())


def tableau_to_graph(t: Tableau) -> tuple[Graph, list[Gate]]:
    """Reduce a stabilizer state to (graph, local layer).

    Applying the returned gates to the input state produces the graph state
    of the returned graph exactly (signed stabilizer equality).  Pivot
    choices are tie-broken by lowest qubit index, so the reduction is
    deterministic; graph-state inputs return an empty layer.
    """
    work = t.copy()
    n = work.n
    layer: list[Gate] = []

    def apply(gate: Gate) -> None:
        work.apply(gate)
        layer.append(gate)

    # canonical rows eliminate the x block first: their leading x bits are
    # the pivot qubits, and a Hadamard on every other qubit fills the block
    rows = work.canonical_stabilizers()
    pivots = {(row.x & -row.x).bit_length() - 1 for row in rows if row.x}
    for q in range(n):
        if q not in pivots:
            apply(H(q))
    # with a full x block, canonical row q is X_q times Z on its neighbours
    rows = work.canonical_stabilizers()
    if any(row.x != 1 << q for q, row in enumerate(rows)):
        raise AssertionError("X-block rank deficient after Hadamard fixes")
    for q, row in enumerate(rows):   # clear Y's on the diagonal
        if (row.z >> q) & 1:
            apply(S(q))
    for q, row in enumerate(work.canonical_stabilizers()):   # fix signs
        if row.phase == 2:
            apply(Z(q))
        elif row.phase != 0:
            raise AssertionError("non-Hermitian generator sign")

    adjacency = [row.z for row in work.canonical_stabilizers()]
    # adjacency must come out symmetric with empty diagonal
    for q in range(n):
        if (adjacency[q] >> q) & 1:
            raise AssertionError("leftover diagonal Z")
        for r in range(n):
            if ((adjacency[q] >> r) & 1) != ((adjacency[r] >> q) & 1):
                raise AssertionError("asymmetric adjacency")
    edges = [(q, r) for q in range(n) for r in range(q + 1, n) if (adjacency[q] >> r) & 1]
    return Graph.from_edges(n, edges), layer
