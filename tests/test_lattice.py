import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecc1wqc import svsim
from qecc1wqc.circuit import CZ, Gate
from qecc1wqc.graphs import Graph, graph_to_tableau
from qecc1wqc.lattice import (Lattice, LatticeError, build_schedule, run_hop,
                              run_schedule, verify_lattice_against,
                              verify_schedule)
from qecc1wqc.svsim import StateVector
from qecc1wqc.tableau import Tableau


# -- engine basics ------------------------------------------------------------------


def test_single_row_global_cz_builds_path():
    lat = Lattice(1, 4)
    lat.prepare([((0, c), "+") for c in range(4)])
    lat.global_cz("horizontal")
    target = graph_to_tableau(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    for gen in target.stabilizer_rows():
        from qecc1wqc.pauli import PauliString
        assert lat.tab.stabilizes(PauliString(lat.n, gen.x, gen.z, gen.phase))


def test_inactive_cell_blocks_entanglement():
    lat = Lattice(1, 3)
    lat.prepare([((0, 0), "+"), ((0, 2), "+")])  # middle cell inactive
    pairs = lat.global_cz("horizontal")
    assert pairs == []


def test_global_cz_is_involution():
    lat = Lattice(3, 3)
    lat.prepare([((r, c), "+") for r in range(3) for c in range(3)])
    before = lat.tab.copy()
    lat.global_cz("vertical")
    lat.global_cz("vertical")
    assert lat.tab.stab_equal(before)
    assert lat.counts.global_cz_steps == 2


def test_grid_cluster_state_matches_graph():
    lat = Lattice(3, 3)
    lat.prepare([((r, c), "+") for r in range(3) for c in range(3)])
    lat.global_cz("vertical")
    lat.global_cz("horizontal")
    edges = []
    for r in range(3):
        for c in range(3):
            if r + 1 < 3:
                edges.append((3 * r + c, 3 * (r + 1) + c))
            if c + 1 < 3:
                edges.append((3 * r + c, 3 * r + c + 1))
    target = graph_to_tableau(Graph.from_edges(9, edges))
    assert lat.tab.stab_equal(target)


def test_prepare_active_cell_rejected():
    lat = Lattice(1, 2)
    lat.prepare([((0, 0), "+")])
    with pytest.raises(LatticeError):
        lat.prepare([((0, 0), "0")])


def test_odd_interior_distant_cz_rejected():
    lat = Lattice(1, 5, {"u": (0, 0), "v": (0, 4)})
    lat.prepare([((0, 0), "+"), ((0, 4), "+")])
    with pytest.raises(LatticeError):
        lat.distant_cz((0, 0), (0, 4), [(0, 1), (0, 2), (0, 3)])


def _expected_cz_tableau() -> Tableau:
    t = Tableau.initialized(2, "++")
    t.apply(CZ(0, 1))
    return t


@pytest.mark.parametrize("interior_len", [2, 4])
def test_distant_cz_exhaustive_over_outcomes(interior_len):
    """Every forced-outcome combination equals CZ plus the recorded frame."""
    cols = interior_len + 2
    target = _expected_cz_tableau()
    for forced in itertools.product([0, 1], repeat=interior_len):
        lat = Lattice(1, cols, {"u": (0, 0), "v": (0, cols - 1)})
        lat.prepare([((0, 0), "+"), ((0, cols - 1), "+")])
        interior = [(0, c) for c in range(1, cols - 1)]
        lat.distant_cz((0, 0), (0, cols - 1), interior, forced=list(forced))
        sub = lat.data_subtableau(["u", "v"])
        assert sub.stab_equal(target), forced


def test_distant_cz_byproduct_rule_matches_dense():
    """The recorded frame matches the dense-simulator byproduct for every
    outcome pattern on a random (non-stabilizer) input pair."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    for interior_len in (2, 4):
        for forced in itertools.product([0, 1], repeat=interior_len):
            n = interior_len + 2
            interior_amp = svsim.init(interior_len, "+" * interior_len).amps
            amps = np.zeros(2**n, dtype=complex)
            m = v.reshape(2, 2)
            full = np.einsum("uv,i->uiv", m, interior_amp).reshape(-1)
            state = StateVector(n, full)
            for j in range(n - 1):
                svsim.apply(state, CZ(j, j + 1))
            for j, mval in enumerate(forced):
                svsim.measure(state, 1 + j, "X", forced=mval)
            zu = sum(forced[1::2]) % 2
            zv = sum(forced[0::2]) % 2
            if zu:
                svsim.apply(state, Gate("Z", (0,)))
            if zv:
                svsim.apply(state, Gate("Z", (n - 1,)))
            out = svsim.extract_pure(state, [0, n - 1])
            expect = StateVector(2, v.copy())
            svsim.apply(expect, CZ(0, 1))
            assert svsim.fidelity(out, expect) > 1 - 1e-9


def test_distant_cz_longer_path_sampled():
    """Longer even chains (interior 6), sampled outcomes, including a bent
    path: still exactly CZ after frame correction."""
    rng = np.random.default_rng(40)
    target = _expected_cz_tableau()
    for trial in range(12):
        forced = [int(b) for b in rng.integers(0, 2, size=6)]
        lat = Lattice(2, 8, {"u": (0, 0), "v": (0, 7)})
        lat.prepare([((0, 0), "+"), ((0, 7), "+")])
        interior = [(0, 1), (1, 1), (1, 2), (1, 3), (0, 3), (0, 4), (0, 5), (0, 6)]
        # 8 interior cells on a bent path
        lat.distant_cz((0, 0), (0, 7), interior, forced=forced + [0, 0])
        assert lat.data_subtableau(["u", "v"]).stab_equal(target)


def test_triangle_of_odd_chains_composes():
    """Three odd-interior chains meeting pairwise at shared endpoints: the
    S-dagger dressings and Z byproducts of the Y closures must compose to
    exactly the triangle graph state, for any outcomes."""
    data = {"a": (0, 0), "b": (0, 4), "c": (4, 2)}
    chains = [
        {"u": [0, 0], "v": [0, 4], "interior": [[0, 1], [0, 2], [0, 3]]},
        {"u": [0, 0], "v": [4, 2],
         "interior": [[1, 0], [2, 0], [3, 0], [4, 0], [4, 1]]},
        {"u": [0, 4], "v": [4, 2],
         "interior": [[1, 4], [2, 4], [3, 4], [4, 4], [4, 3]]},
    ]
    sched = {
        "name": "triangle", "grid": [6, 8],
        "data_cells": {k: list(v) for k, v in data.items()},
        "steps": [
            {"prepare": ([[r, c, "+"] for r, c in data.values()]
                         + [[r, c, "+"] for ch in chains
                            for r, c in ch["interior"]])},
            {"global_cz": "vertical"},
            {"global_cz": "horizontal"},
            {"chains": chains},
        ],
        "expected_global_cz": 2,
    }
    target = Tableau.initialized(3, "+++")
    for a, b in ((0, 1), (0, 2), (1, 2)):
        target.apply(CZ(a, b))
    for seed in range(6):
        lat = run_schedule(sched, seed=seed)
        sub = lat.data_subtableau(["a", "b", "c"])
        assert sub.stab_equal(target), seed


def test_measured_ancillae_disentangled():
    lat = Lattice(1, 4, {"u": (0, 0), "v": (0, 3)})
    lat.prepare([((0, 0), "+"), ((0, 3), "+")])
    lat.distant_cz((0, 0), (0, 3), [(0, 1), (0, 2)])
    for c in (1, 2):
        assert lat.tab.is_disentangled(lat.qubit((0, c)))


def test_skipped_measurement_reported():
    """Dropping one chain measurement leaves its edges unconsumed; the run
    names them."""
    sched = build_schedule("E1_lattice")
    # remove one chain from the final step
    bad = json.loads(json.dumps(sched))
    bad["steps"][-1]["chains"] = bad["steps"][-1]["chains"][:-1]
    with pytest.raises(LatticeError, match=r"E1_lattice: unconsumed edges \[\(\(8, 8\)"):
        run_schedule(bad, seed=1)


def test_unmeasured_ancilla_reported_by_verifier():
    """An ancilla left entangled with the data register is named by the
    verifier's diagnostic."""
    lat = Lattice(1, 3, {"a": (0, 0), "b": (0, 2)})
    lat.prepare([((0, c), "+") for c in range(3)])
    lat.global_cz("horizontal")
    res = verify_lattice_against(lat, _expected_cz_tableau(), ["a", "b"], "row")
    assert not res.ok
    assert res.diagnostic == "cell (0, 1) is still entangled with the data register"


# -- the edge rule and the schedule contract, checked as the schedule runs ---------


def _row_schedule(**changes) -> dict:
    """u = (0, 0) and v = (0, 3) linked through a two-cell chain."""
    sched = {
        "name": "row", "grid": [2, 4],
        "data_cells": {"u": [0, 0], "v": [0, 3]},
        "steps": [
            {"prepare": [[0, c, "+"] for c in range(4)]},
            {"global_cz": "horizontal"},
            {"chains": [{"u": [0, 0], "v": [0, 3], "interior": [[0, 1], [0, 2]]}]},
        ],
        "expected_global_cz": 1,
    }
    sched.update(changes)
    return sched


_PREP, _LAYER, _CHAIN = _row_schedule()["steps"]


@pytest.mark.parametrize("steps,expected,message", [
    ([_PREP, _CHAIN], 0, r"row step 1: chain edge \(\(0, 0\), \(0, 1\)\) created 0 times"),
    ([_PREP, _LAYER, _LAYER, _CHAIN], 2,
     r"row step 3: chain edge \(\(0, 0\), \(0, 1\)\) created 2 times"),
    ([{"prepare": _PREP["prepare"] + [[1, 1, "+"]]}, {"global_cz": "vertical"}, _LAYER,
      _CHAIN], 2, r"row step 3: stray edge \(\(0, 1\), \(1, 1\)\) touches measured interior"),
    ([_PREP, _LAYER], 1, r"row: unconsumed edges \[\(\(0, 0\), \(0, 1\)\)"),
    ([_PREP, _LAYER, _CHAIN], 2, r"row: 1 global layers, expected 2"),
    ([{"prepare": [[2, 0, "+"]]}], 0, r"row step 0: cell \(2, 0\) outside the grid"),
    ([_PREP, _PREP], 0, r"row step 1: cell \(0, 0\) is active"),
    ([{"local": [[1, 1, ["H"]]]}], 0, r"row step 0: local op on inactive cell \(1, 1\)"),
], ids=["no_layer", "edge_twice", "stray_edge", "leftover", "layer_count",
        "outside_grid", "reprepare", "local_inactive"])
def test_schedule_run_enforces_edge_rule(steps, expected, message):
    with pytest.raises(LatticeError, match=message):
        run_schedule(_row_schedule(steps=steps, expected_global_cz=expected), seed=0)


_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@st.composite
def grid_paths(draw, size=5):
    """Self-avoiding paths of 3..12 cells (interior 1..10) on a size x size
    grid; a walk that gets stuck early is kept at the length it reached."""
    length = draw(st.integers(3, 12))
    path = [(draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1)))]
    while len(path) < length:
        r, c = path[-1]
        options = [(r + dr, c + dc) for dr, dc in _STEPS
                   if 0 <= r + dr < size and 0 <= c + dc < size
                   and (r + dr, c + dc) not in path]
        if not options:
            break
        path.append(draw(st.sampled_from(options)))
    return path


@settings(max_examples=300, deadline=None)
@given(path=grid_paths(), seed=st.integers(0, 2**32 - 1))
def test_random_chain_path(path, seed):
    """Two global layers over a prepared path, then one chain: an induced
    path is exactly CZ on its endpoints after the frame, and a path with a
    shortcut edge between non-consecutive cells is rejected by the run."""
    u, v = list(path[0]), list(path[-1])
    sched = {
        "name": "path", "grid": [5, 5], "data_cells": {"u": u, "v": v},
        "steps": [
            {"prepare": [[r, c, "+"] for r, c in path]},
            {"global_cz": "vertical"},
            {"global_cz": "horizontal"},
            {"chains": [{"u": u, "v": v, "interior": [list(rc) for rc in path[1:-1]]}]},
        ],
        "expected_global_cz": 2,
    }
    induced = all(abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1
                  for i, a in enumerate(path) for b in path[i + 2:])
    if induced:
        lat = run_schedule(sched, seed=seed)
        assert lat.data_subtableau(["u", "v"]).stab_equal(_expected_cz_tableau())
    else:
        with pytest.raises(LatticeError, match="stray edge|unconsumed edges"):
            run_schedule(sched, seed=seed)


# -- named schedules -----------------------------------------------------------------


@pytest.mark.parametrize("name,expected_ops", [
    ("E1_lattice", 2),
    ("E2_lattice", 2),
    ("GHZ6_lattice", 3),
    ("LP_full", 7),
])
def test_schedule_verifies_and_counts(name, expected_ops):
    res = verify_schedule(name, seed=101)
    assert res.ok, res.diagnostic
    assert res.global_cz_steps == expected_ops


def test_horseshoe_schedule_verifies():
    res = verify_schedule("horseshoe_lattice", seed=102)
    assert res.ok, res.diagnostic
    assert res.global_cz_steps == 11


def test_schedule_random_outcomes_several_seeds():
    for seed in (0, 1, 2):
        res = verify_schedule("LP_full", seed=seed)
        assert res.ok, res.diagnostic


# -- hop -------------------------------------------------------------------------------


def test_hop_simultaneous_seven_ops():
    rep = run_hop("simultaneous", seed=9)
    assert rep.verified, rep.diagnostic
    assert rep.hop_global_cz == 7
    assert rep.syndrome == "0000"
    assert rep.regions_disjoint


def test_hop_sequential_costs_more():
    rep = run_hop("sequential", seed=10)
    assert rep.verified, rep.diagnostic
    assert rep.hop_global_cz == 11
    assert rep.hop_global_cz > 7


def test_hop_random_seeds():
    for seed in (3, 4):
        rep = run_hop("simultaneous", seed=seed)
        assert rep.verified, rep.diagnostic
