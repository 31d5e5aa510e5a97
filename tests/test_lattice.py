import hashlib
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecc1wqc import svsim
from qecc1wqc.circuit import CZ, Gate
from qecc1wqc.graphs import Graph, graph_to_tableau
from qecc1wqc.lattice import (MAX_CELLS, NAMED_SCHEDULES, Chain, Lattice, LatticeError,
                              build_schedule, hop, run_hop, run_schedule, target_tableau,
                              verify_lattice_against, verify_schedule)
from qecc1wqc.lattice.layouts import (_BENDS, E1, E1_ADJOINT, E2, GRID_ROWS, Chains,
                                      GlobalCZ, Local, Prepare, Schedule, _path, _route,
                                      fan_geometry, stage, wheel_cells, wheel_chain,
                                      wheel_stage)
from qecc1wqc.lattice.verify import data_register_holds
from qecc1wqc.svsim import StateVector
from qecc1wqc.tableau import EntangledError, Tableau, run_gates
from schedule_json import schedule_json


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


def _chain_cz(lat: Lattice, u, v, interior, forced=None) -> list[int]:
    """CZ on live cells u and v through a path of fresh |+> cells: prepare
    the path, one global layer per axis, then measure the path out."""
    lat.prepare([(rc, "+") for rc in interior])
    lat.global_cz("vertical")
    lat.global_cz("horizontal")
    return lat.measure_chain(Chain(u, v, interior), forced=forced)


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
        _chain_cz(lat, (0, 0), (0, cols - 1), interior, forced=list(forced))
        sub = lat.data_subtableau(["u", "v"])
        assert sub.stab_equal(target), forced


def test_distant_cz_byproduct_rule_matches_dense():
    """The frame a chain records matches the dense-simulator byproduct for
    every outcome pattern on a random (non-stabilizer) input pair."""
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
            lat = Lattice(1, n)
            lat.prepare([((0, 0), "+"), ((0, n - 1), "+")])
            _chain_cz(lat, (0, 0), (0, n - 1), [(0, c) for c in range(1, n - 1)],
                      forced=list(forced))
            qu, qv = lat.qubit((0, 0)), lat.qubit((0, n - 1))
            assert (lat.frame.z_bit(qu), lat.frame.z_bit(qv)) == (zu, zv)
            assert lat.frame.x == 0
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
        forced = [int(b) for b in rng.integers(0, 2, size=8)]
        lat = Lattice(2, 8, {"u": (0, 0), "v": (0, 7)})
        lat.prepare([((0, 0), "+"), ((0, 7), "+")])
        interior = [(0, 1), (1, 1), (1, 2), (1, 3), (0, 3), (0, 4), (0, 5), (0, 6)]
        # 8 interior cells on a bent path
        _chain_cz(lat, (0, 0), (0, 7), interior, forced=forced)
        assert lat.data_subtableau(["u", "v"]).stab_equal(target)


def test_triangle_of_odd_chains_composes():
    """Three odd-interior chains meeting pairwise at shared endpoints: the
    S-dagger dressings and Z byproducts of the Y closures must compose to
    exactly the triangle graph state, for any outcomes."""
    data = {"a": (0, 0), "b": (0, 4), "c": (4, 2)}
    chains = [
        Chain((0, 0), (0, 4), [(0, 1), (0, 2), (0, 3)]),
        Chain((0, 0), (4, 2), [(1, 0), (2, 0), (3, 0), (4, 0), (4, 1)]),
        Chain((0, 4), (4, 2), [(1, 4), (2, 4), (3, 4), (4, 4), (4, 3)]),
    ]
    sched = Schedule("triangle", (6, 8), data, [
        Prepare([(rc, "+") for rc in data.values()]
                + [(rc, "+") for ch in chains for rc in ch.interior]),
        GlobalCZ("vertical"),
        GlobalCZ("horizontal"),
        Chains(chains),
    ], 2)
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
    _chain_cz(lat, (0, 0), (0, 3), [(0, 1), (0, 2)])
    for c in (1, 2):
        lat.tab.restricted([lat.qubit((0, c))])  # raises EntangledError if not


def _without_chain(sched: Schedule, index: int) -> Schedule:
    """``sched`` with chain ``index`` of its last step left out."""
    chains = list(sched.steps[-1].chains)
    del chains[index]
    return replace(sched, steps=sched.steps[:-1] + [Chains(chains)])


def test_skipped_measurement_reported():
    """Dropping one chain measurement leaves its edges unconsumed; the run
    names them."""
    bad = _without_chain(build_schedule("E1_lattice"), -1)
    with pytest.raises(LatticeError, match=r"E1_lattice: unconsumed edges \[\(\(8, 8\)"):
        run_schedule(bad, seed=1)


@pytest.mark.parametrize("dropped,step", [(0, 2), (3, 1)], ids=["west_arm", "south_arm"])
def test_leftover_edges_name_their_step(dropped, step):
    """The leftover-edge error names the step of the global layer that
    created them: E1's west chain is horizontal (step 2), its south chain
    vertical (step 1)."""
    bad = _without_chain(build_schedule("E1_lattice"), dropped)
    with pytest.raises(LatticeError,
                       match=rf"unconsumed edges \[.*\] \(first created by step {step}\)$"):
        run_schedule(bad, seed=1)
    lat = Lattice(1, 3)
    lat.prepare([((0, c), "+") for c in range(3)])
    lat.global_cz("h")
    lat.global_cz("v")
    lat.global_cz("h")
    assert lat.pending == {((0, 0), (0, 1)): [0, 2], ((0, 1), (0, 2)): [0, 2]}


def test_unmeasured_ancilla_reported_by_verifier():
    """An ancilla left entangled with the data register is named by the
    verifier's diagnostic."""
    lat = Lattice(1, 3, {"a": (0, 0), "b": (0, 2)})
    lat.prepare([((0, c), "+") for c in range(3)])
    lat.global_cz("horizontal")
    res = verify_lattice_against(lat, _expected_cz_tableau(), ["a", "b"], "row")
    assert not res.ok
    assert res.diagnostic == "cell (0, 1) is still entangled with the data register"


def test_verification_does_not_widen_the_lattice():
    """A data cell that was never prepared fails verification, named by
    its label and cell, and gets no qubit; so does a label with no cell."""
    lat = Lattice(1, 3, {"a": (0, 0), "b": (0, 2)})
    lat.prepare([((0, 0), "+")])
    res = verify_lattice_against(lat, Tableau.initialized(2, "+0"), ["a", "b"], "row")
    assert not res.ok
    assert res.diagnostic == "data label 'b': cell (0, 2) was never prepared"
    res = verify_lattice_against(lat, Tableau.initialized(2, "+0"), ["a", "c"], "row")
    assert res.diagnostic == "no data cell is labelled 'c'"
    with pytest.raises(LatticeError, match=r"^data label 'b': cell \(0, 2\) was never"):
        lat.data_subtableau(["a", "b"])
    with pytest.raises(LatticeError, match=r"^cell \(0, 1\) was never prepared"):
        lat.qubit((0, 1))
    assert lat.n == 1


def test_diagnostic_names_lowest_cell_not_first_qubit():
    """Qubits follow preparation order; the diagnostic still names the
    lowest (row, col) of the cells left entangled with the data."""
    lat = Lattice(1, 4, {"a": (0, 0)})
    lat.prepare([((0, c), "+") for c in (3, 2, 1, 0)])
    lat.global_cz("horizontal")
    assert lat.cells == [(0, 3), (0, 2), (0, 1), (0, 0)]
    with pytest.raises(LatticeError, match=r"^cell \(0, 1\) is still entangled"):
        lat.data_subtableau(["a"])


# -- live-cell allocation ---------------------------------------------------------


def test_large_grid_costs_only_prepared_cells():
    """A million-cell grid allocates nothing up front; the tableau is as
    wide as the cells prepared."""
    tracemalloc.start()
    try:
        lat = Lattice(1000, 1000, {"a": (0, 0), "b": (999, 999)})
        lat.prepare([((0, c), "+") for c in range(3)] + [((999, 999), "0")])
        lat.global_cz("horizontal")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.n == 4
    assert peak < 1 << 20


def test_cell_keeps_its_qubit_when_reprepared():
    lat = Lattice(1, 4, {"u": (0, 0), "v": (0, 3)})
    lat.prepare([((0, 0), "+"), ((0, 3), "+")])
    _chain_cz(lat, (0, 0), (0, 3), [(0, 1), (0, 2)])
    qubits = [lat.qubit((0, c)) for c in range(4)]
    lat.prepare([((0, 1), "0")])
    assert lat.n == 4 and [lat.qubit((0, c)) for c in range(4)] == qubits
    from qecc1wqc.pauli import PauliString
    assert lat.tab.stabilizes(PauliString.single(lat.n, qubits[1], "Z"))


def test_cell_limit():
    """A step that would take the lattice past MAX_CELLS cells is rejected
    before it allocates anything."""
    lat = Lattice(100, 100)
    lat.prepare([((0, c), "+") for c in range(10)])
    too_many = [((1 + i // 100, i % 100), "+") for i in range(MAX_CELLS - 9)]
    with pytest.raises(LatticeError, match=f"lattice would use {MAX_CELLS + 1} cells; "
                                           f"the limit is {MAX_CELLS}"):
        lat.prepare(too_many)
    assert lat.n == 10 and len(lat.active) == 10


@pytest.mark.parametrize("layers,message", [
    (["horizontal", "vertical"], r"stray edge \(\(0, 2\), \(1, 2\)\) touches measured interior"),
    (["horizontal", "horizontal"], r"chain edge \(\(1, 0\), \(1, 1\)\) created 2 times"),
], ids=["stray_edge", "edge_twice"])
def test_failed_chain_check_changes_nothing(layers, message):
    """A chain that fails its edge checks consumes no edge: the pending
    edges, the active cells, the frame and the state are as before."""
    lat = Lattice(3, 5)
    lat.prepare([((1, c), "+") for c in range(5)] + [((0, 2), "+")])
    for axis in layers:
        lat.global_cz(axis)
    lat.add_frame_pauli((1, 2), z=1)

    def snapshot():
        return ({e: list(ls) for e, ls in lat.pending.items()}, set(lat.active),
                lat.frame, lat.tab.x.tobytes(), lat.tab.z.tobytes(), lat.tab.ph.tobytes())

    before = snapshot()
    with pytest.raises(LatticeError, match=message):
        lat.measure_chain(Chain((1, 0), (1, 4), [(1, 1), (1, 2), (1, 3)]))
    assert snapshot() == before


# -- the edge rule and the schedule contract, checked as the schedule runs ---------


def _row_schedule(**changes) -> Schedule:
    """u = (0, 0) and v = (0, 3) linked through a two-cell chain."""
    sched = Schedule("row", (2, 4), {"u": (0, 0), "v": (0, 3)}, [
        Prepare([((0, c), "+") for c in range(4)]),
        GlobalCZ("horizontal"),
        Chains([Chain((0, 0), (0, 3), [(0, 1), (0, 2)])]),
    ], 1)
    return replace(sched, **changes)


_PREP, _LAYER, _CHAIN = _row_schedule().steps


@pytest.mark.parametrize("steps,expected,message", [
    ([_PREP, _CHAIN], 0, r"row step 1: chain edge \(\(0, 0\), \(0, 1\)\) created 0 times"),
    ([_PREP, _LAYER, _LAYER, _CHAIN], 2,
     r"row step 3: chain edge \(\(0, 0\), \(0, 1\)\) created 2 times"),
    ([Prepare(_PREP.cells + [((1, 1), "+")]), GlobalCZ("vertical"), _LAYER,
      _CHAIN], 2, r"row step 3: stray edge \(\(0, 1\), \(1, 1\)\) touches measured interior"),
    ([_PREP, _LAYER], 1, r"row: unconsumed edges \[\(\(0, 0\), \(0, 1\)\)"),
    ([_PREP, _LAYER, _CHAIN], 2, r"row: 1 global layers, expected 2"),
    ([Prepare([((2, 0), "+")])], 0, r"row step 0: cell \(2, 0\) outside the grid"),
    ([_PREP, _PREP], 0, r"row step 1: cell \(0, 0\) is active"),
    ([Local([((1, 1), ["H"])])], 0, r"row step 0: local op on inactive cell \(1, 1\)"),
    ([_PREP, _LAYER, Chains([Chain((0, 0), (0, 3), [(0, 2), (0, 1)])])], 1,
     r"row step 2: chain cells \(0, 0\) and \(0, 2\) are not adjacent"),
    ([_PREP, _LAYER, Chains([Chain((0, 0), (0, 3), [(0, 1), (0, 1)])])], 1,
     r"row step 2: chain revisits a cell"),
    *[([_PREP, Local([((0, 1), [kind])])], 0,
       rf"row step 1: unsupported local gate '{kind}'") for kind in ("RZ", "CZ", "T")],
], ids=["no_layer", "edge_twice", "stray_edge", "leftover", "layer_count",
        "outside_grid", "reprepare", "local_inactive", "not_adjacent", "revisit",
        "local_rz", "local_cz", "local_t"])
def test_schedule_run_enforces_edge_rule(steps, expected, message):
    with pytest.raises(LatticeError, match=message):
        run_schedule(_row_schedule(steps=steps, expected_global_cz=expected), seed=0)


def test_run_schedule_takes_only_a_schedule():
    """The JSON form is for files; run_schedule points a dict to the reader."""
    with pytest.raises(TypeError, match=r"^run_schedule takes a Schedule, not a dict "
                                        r"\(load_schedule reads a JSON schedule file\)$"):
        run_schedule(schedule_json(_row_schedule()), seed=0)


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
    u, v = path[0], path[-1]
    sched = Schedule("path", (5, 5), {"u": u, "v": v}, [
        Prepare([(rc, "+") for rc in path]),
        GlobalCZ("vertical"),
        GlobalCZ("horizontal"),
        Chains([Chain(u, v, path[1:-1])]),
    ], 2)
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


# sha256 of the JSON form of build_schedule(name), dumped with sorted keys:
# the schedules the generators emit, step for step, and not only the outcome
# of running them.
SCHEDULE_SHA256 = {
    "E1_lattice": "da2a29b4de053958cc32031783f84c3c2b56a8c4588587596af1b57aa8e0fc49",
    "E2_lattice": "f465aa0feeb72d0879cb8ba1eacbaca9d3b49639cfb630a61abe391bc009af67",
    "GHZ6_lattice": "45c5bf2a81f888aa27b0cb277a125113660e24631c8c61f3b4014947ec0bd454",
    "LP_full": "805e4a42dce1977cb2e6c46ac051a02a68c5824dad35e9731a0a18eb30434874",
    "horseshoe_lattice": "85d2bbc3e05740e9618ae0afb6806fcb82cd872e266c02a9a29fb2a4415c9a92",
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_SHA256))
def test_named_schedule_bytes_pinned(name):
    text = json.dumps(schedule_json(build_schedule(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[name]


def test_e1_adjoint_stage_undoes_e1_stage():
    """The stage compiled from E1's layers in reverse order undoes E1's
    stage: a fresh wheel in |+0000> comes back to |+0000>."""
    steps = wheel_stage([(E1, 0, "+0000")]) + wheel_stage([(E1_ADJOINT, 0, "")])
    sched = Schedule("round_trip", (GRID_ROWS, 17), wheel_cells(0), steps, 4)
    target = Tableau.initialized(5, "+0000")
    for seed in range(3):
        lat = run_schedule(sched, seed=seed)
        res = verify_lattice_against(lat, target, list("12345"), "round_trip")
        assert res.ok, res.diagnostic


@pytest.mark.parametrize("wheels, message", [
    # one wheel twice: its first chain cell is prepared twice
    ([(E2, 0, "+++++"), (E2, 0, "")], r"step 0: cell \(8, 7\) is active"),
    # wheels 9 columns apart: A's east arm is a cell of B's west chain
    ([(E2, 0, "+++++"), (E2, 9, "+++++")], r"step 0: cell \(8, 13\) is active"),
])
def test_overlapping_wheels_rejected(wheels, message):
    """Wheels that share a stage must not overlap: the run fails at the
    shared prepare, naming the step and the cell."""
    sched = Schedule("overlap", (GRID_ROWS, 26), {}, wheel_stage(wheels), 2)
    with pytest.raises(LatticeError, match="^overlap " + message):
        run_schedule(sched, seed=0)


# -- the stage compiler ----------------------------------------------------------------


_PENTAGON = [g.targets for g in E2[0]]


@st.composite
def compiled_subsets(draw):
    """A subset of one wheel's pentagon CZs, or of one fan's five routes in
    either direction, as (data cells, rounds, CZ pairs on the data labels
    in order)."""
    if draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(_PENTAGON), unique=True))
        chains = [wheel_chain(0, *pair) for pair in pairs]
        return wheel_cells(0), [(("vertical", "horizontal"), chains)], pairs
    direction = draw(st.sampled_from([-1, +1]))
    hub = (8, 26) if direction < 0 else (8, 8)
    register = wheel_cells(hub[1] - 8 + 18 * direction)
    qubit = {rc: j for j, rc in enumerate(register.values())}
    first, second = (draw(st.lists(st.sampled_from(routes), unique_by=lambda ch: ch.v))
                     for routes in fan_geometry(hub, direction))
    rounds = [(("horizontal", "vertical"), first), (("vertical",), second)]
    return {**register, "6": hub}, rounds, [(qubit[ch.v], 5) for ch in first + second]


@settings(max_examples=60, deadline=None)
@given(case=compiled_subsets(), seed=st.integers(0, 2**32 - 1))
def test_stage_compiles_any_subset_of_chains(case, seed):
    """``stage`` derives the ancilla prepares of any subset of a wheel's
    pentagon or a fan's routes: the run keeps the edge rule, and the data
    register holds the graph state of exactly the drawn CZs on |+>.  A
    second-round fan route drawn without the first-round routes still finds
    its horizontal segments made by the first round's layer."""
    cells, rounds, pairs = case
    steps = stage([(rc, "+") for rc in cells.values()], rounds)
    layers = sum(len(axes) for axes, _ in rounds)
    lat = run_schedule(Schedule("subset", (GRID_ROWS, 35), cells, steps, layers), seed=seed)
    target = run_gates(Tableau.initialized(len(cells), "+" * len(cells)),
                       [CZ(a, b) for a, b in pairs])
    res = verify_lattice_against(lat, target, list(cells), "subset")
    assert res.ok, res.diagnostic


@pytest.mark.parametrize("rounds, message", [
    ([(("vertical",), [Chain((0, 0), (0, 2), [(0, 1)])])],
     r"^round 0: chain \(0, 0\)-\(0, 2\) has a horizontal edge, which no layer"),
    ([(("vertical",), []), (("vertical",), [Chain((0, 0), (1, 1), [(0, 1)])])],
     r"^round 1: chain \(0, 0\)-\(1, 1\) has a horizontal edge"),
])
def test_stage_names_a_chain_edge_no_layer_makes(rounds, message):
    with pytest.raises(LatticeError, match=message):
        stage([], rounds)


def _hop_schedule(mode: str, monkeypatch) -> Schedule:
    """The schedule ``run_hop`` runs in ``mode``."""
    seen = []

    def capture(sched, seed=None):
        seen.append(sched)
        return run_schedule(sched, seed=seed)

    monkeypatch.setattr(hop, "run_schedule", capture)
    run_hop(mode, seed=0)
    return seen[0]


def _preparation_rounds(sched: Schedule) -> list[tuple[int, int, tuple]]:
    """Replay ``sched`` step by step; before each ``Chains`` step read the
    pending edges.  A round is the steps up to and including a ``Chains``
    step.  For every chain-interior cell, returns (the round it was last
    prepared in, the round of the first global layer that made one of its
    chain edges, the cell)."""
    lat = Lattice(*sched.grid, sched.data_cells).seed(0)
    rnd, layer_round, prepared, out = 0, [], {}, []
    for step in sched.steps:
        match step:
            case Prepare(cells):
                lat.prepare(cells)
                prepared.update((rc, rnd) for rc, _ in cells)
            case Local(ops):
                lat.local_ops(ops)
            case GlobalCZ(axis):
                lat.global_cz(axis)
                layer_round.append(rnd)
            case Chains(chains):
                for p in (ch.path for ch in chains):
                    for i in range(1, len(p) - 1):
                        first = min(lat.pending[tuple(sorted(p[j:j + 2]))][0] for j in (i - 1, i))
                        out.append((prepared[p[i]], layer_round[first], p[i]))
                for chain in chains:
                    lat.measure_chain(chain)
                rnd += 1
    return out


@pytest.mark.parametrize("name", [*NAMED_SCHEDULES, "hop_simultaneous", "hop_sequential"])
def test_ancillas_prepared_just_in_advance(name, monkeypatch):
    """Every chain-interior cell is prepared in the round of the first
    global layer that makes one of its chain edges: not earlier, where it
    would sit idle and gather errors, and not later, where that layer would
    miss it."""
    if name.startswith("hop_"):
        sched = _hop_schedule(name.removeprefix("hop_"), monkeypatch)
    else:
        sched = build_schedule(name)
    rounds = _preparation_rounds(sched)
    assert rounds
    assert [(cell, prep, made) for prep, made, cell in rounds if prep != made] == []


# -- routes ----------------------------------------------------------------------------


def test_path_corners_must_share_an_axis():
    with pytest.raises(ValueError, match="share no row or column"):
        _path((0, 0), (1, 1))
    with pytest.raises(ValueError, match=r"\(0, 3\) and \(2, 4\)"):
        _path((0, 0), (0, 3), (2, 4))


def test_routes_join_their_ends():
    """Each route runs from u to v through adjacent cells, none twice: the
    bent pentagon routes between their arms, each fan from its hub to the
    five cells of its register, and a route with four corners."""
    cells = list(wheel_cells(0).values())
    routes = []
    for a, b in _BENDS:
        routes.append(wheel_chain(0, a, b))
        assert (routes[-1].u, routes[-1].v) == (cells[a], cells[b])
    for hub, direction, base in (((8, 26), -1, 0), ((8, 44), +1, 54)):
        first, second = fan_geometry(hub, direction)
        assert {ch.u for ch in first + second} == {hub}
        assert sorted(ch.v for ch in first + second) == sorted(wheel_cells(base).values())
        routes += first + second
    corners = [(5, 9), (5, 2), (1, 2), (1, 6), (4, 6)]
    routes.append(_route(corners[0], *corners[1:-1], v=corners[-1]))
    assert routes[-1].path == _path(*corners)
    for chain in routes:
        chain.validate_geometry()


def test_repeated_corner_adds_no_cell():
    assert _path((0, 0), (0, 2), (0, 2), (3, 2)) == _path((0, 0), (0, 2), (3, 2))
    assert _path((4, 4), (4, 4)) == [(4, 4)]
    assert _route((2, 1), (2, 1), v=(2, 4)).interior == [(2, 2), (2, 3)]


@pytest.mark.parametrize("pair", list(_BENDS))
def test_bent_pentagon_routes_are_odd(pair):
    """Each bent pentagon chain has 9 interior cells: an odd chain, closed
    by a Y measurement."""
    assert len(wheel_chain(0, *pair).interior) == 9


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


# -- one tableau call per step -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 130), data=st.data())
def test_frame_cz_layer_matches_per_pair_conjugation(n, data):
    """The frame's ``conjugate_cz_layer`` agrees with the tableau's
    separately written byte-column kernel on a row that holds the Pauli."""
    from qecc1wqc.pauli import PauliString, conjugate_cz_layer
    from qecc1wqc.tableau import _int_row

    bits = st.integers(0, 2**n - 1)
    p = PauliString(n, data.draw(bits), data.draw(bits), data.draw(st.integers(0, 3)))
    qubit = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1]),
                               max_size=60))
    t = Tableau.initialized(n)
    words = t.x.shape[1]
    t.x[0], t.z[0], t.ph[0] = _int_row(p.x, words), _int_row(p.z, words), p.phase
    t.apply_cz_layer(pairs)
    assert conjugate_cz_layer(p, pairs) == t.row_pauli(0)


def test_horseshoe_tableau_call_budget(monkeypatch):
    """Layers, preparations and X/Y measurements are single tableau
    operations, so only local gates and chain dressings still go through
    ``Tableau.apply`` (2,118 calls when every CZ and rotation did)."""
    calls = []
    apply = Tableau.apply
    monkeypatch.setattr(Tableau, "apply", lambda self, g: calls.append(g) or apply(self, g))
    run_schedule(build_schedule("horseshoe_lattice"), seed=0)
    assert 0 < len(calls) <= 250


def test_prepared_cells_hold_their_symbols():
    """Fresh and re-prepared cells hold |0>, |1>, |+> or |->, whatever the
    outcome of the reset of a measured cell."""
    from qecc1wqc.pauli import PauliString

    signs = {"0": "+Z", "1": "-Z", "+": "+X", "-": "-X"}
    for seed in range(6):
        lat = Lattice(2, 4).seed(seed)
        lat.prepare([((0, 0), "+"), ((0, 3), "+")])
        _chain_cz(lat, (0, 0), (0, 3), [(0, 1), (0, 2)])
        cells = {(0, 1): "1", (0, 2): "-", (1, 0): "+", (1, 1): "1"}
        lat.prepare(list(cells.items()))
        for rc, sym in cells.items():
            q = lat.qubit(rc)
            label = ["I"] * lat.n
            label[q] = signs[sym][1]
            assert lat.tab.stabilizes(PauliString.from_label(signs[sym][0] + "".join(label)))
            assert lat.frame.x_bit(q) == lat.frame.z_bit(q) == 0


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_measured_data_cell_can_be_prepared_again(basis):
    """measure_data releases its cell, as measure_chain releases a chain's
    interior; re-preparing it used to raise 'cell (0, 0) is active'."""
    lat = Lattice(3, 3).seed(0)
    lat.prepare([((0, 0), "+")])
    lat.add_frame_pauli((0, 0), x=1, z=1)
    lat.measure_data((0, 0), basis)
    assert (0, 0) not in lat.active
    assert lat.frame.x_bit(0) == lat.frame.z_bit(0) == 0
    lat.prepare([((0, 0), "0")])
    assert (0, 0) in lat.active and lat.n == 1
    assert lat.measure_data((0, 0), "Z") == 0
    with pytest.raises(LatticeError, match=r"measurement of inactive cell \(0, 0\)"):
        lat.measure_data((0, 0), "Z")


@pytest.mark.parametrize("forced,message", [
    ([1], "forced has 1 outcomes for 2 interior cells"),
    ([0, 5], "forced outcomes must be 0 or 1, got 5"),
], ids=["short", "outcome_5"])
def test_measure_chain_checks_forced_length_before_measuring(forced, message):
    lat = Lattice(1, 4)
    lat.prepare([((0, c), "+") for c in range(4)])
    lat.global_cz("h")
    chain = Chain((0, 0), (0, 3), [(0, 1), (0, 2)])
    before = (lat.tab.x.tobytes(), lat.tab.z.tobytes(), lat.tab.ph.tobytes())
    with pytest.raises(LatticeError, match=message):
        lat.measure_chain(chain, forced=forced)
    assert (lat.tab.x.tobytes(), lat.tab.z.tobytes(), lat.tab.ph.tobytes()) == before
    assert len(lat.pending) == 3 and len(lat.active) == 4
    assert len(lat.measure_chain(chain, forced=[1, 0])) == 2


def test_reprepare_matches_reset_then_gates_cell_by_cell():
    """Re-preparing measured cells draws each cell's reset in list order and
    then applies the symbol gates: the same rows as resetting and rotating
    one cell at a time."""
    def measured_lattice():
        lat = Lattice(1, 8).seed(11)
        lat.prepare([((0, 0), "+"), ((0, 7), "+")])
        _chain_cz(lat, (0, 0), (0, 7), [(0, c) for c in range(1, 7)])
        return lat

    cells = [((0, 4), "-"), ((0, 1), "1"), ((0, 6), "+"), ((0, 2), "0"), ((0, 3), "-")]
    got = measured_lattice()
    got.prepare(cells)
    ref = measured_lattice()
    gates = {"0": [], "1": ["X"], "+": ["H"], "-": ["X", "H"]}
    for rc, sym in cells:
        q = ref.qubit(rc)
        ref.tab.reset_to_zero(q, rng=ref._rng)
        for kind in gates[sym]:
            ref.tab.apply(Gate(kind, (q,)))
    for a, b in ((got.tab.x, ref.tab.x), (got.tab.z, ref.tab.z), (got.tab.ph, ref.tab.ph)):
        assert a.tobytes() == b.tobytes()
    assert got._rng.bit_generator.state == ref._rng.bit_generator.state



# -- membership verdict ------------------------------------------------------------


def _random_gates(rng, qubits, count):
    qubits = list(qubits)
    gates = []
    for _ in range(count):
        if len(qubits) > 1 and rng.random() < 0.4:
            gates.append(CZ(*(int(q) for q in rng.choice(qubits, size=2, replace=False))))
        else:
            kind = str(rng.choice(["H", "S", "SDG", "X", "Y", "Z"]))
            gates.append(Gate(kind, (int(rng.choice(qubits)),)))
    return gates


@st.composite
def data_registers(draw):
    """A random stabilizer state on 2..130 qubits whose data register (a
    random subset, in random order) is prepared apart from the rest and,
    in some cases, then entangled with it; and a target that is the data
    register's own state, that state with one sign flipped, or that state
    with one generator replaced by a random single-qubit measurement."""
    n = draw(st.integers(2, 130))
    m = draw(st.integers(1, min(n - 1, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = [int(q) for q in rng.permutation(n)]
    data, rest = perm[:m], perm[m:]
    syms = [str(s) for s in rng.choice(list("01+-"), size=n)]
    local = _random_gates(rng, range(m), 3 * m)
    target = run_gates(Tableau.initialized(m, [syms[q] for q in data]), local)
    state = run_gates(Tableau.initialized(n, syms),
                      [Gate(g.kind, tuple(data[t] for t in g.targets)) for g in local]
                      + _random_gates(rng, rest, 3 * len(rest)))
    entangled = draw(st.booleans())
    if entangled:
        for _ in range(int(rng.integers(1, 4))):
            state.apply(CZ(int(rng.choice(data)), int(rng.choice(rest))))
    kind = draw(st.sampled_from(["true", "sign", "replaced"]))
    if kind == "sign":
        target.ph[m + int(rng.integers(0, m))] ^= 2
    elif kind == "replaced":
        q = int(rng.integers(0, m))
        if target.measure(q, "X", rng=rng)[1]:
            target.measure(q, "Z", rng=rng)
    return state, data, target, kind == "true" and not entangled


@settings(max_examples=60, deadline=None)
@given(case=data_registers())
def test_membership_verdict_matches_elimination(case):
    """The membership verdict equals extracting the data register by row
    reduction and comparing its canonical generators with the target's."""
    state, data, target, holds = case
    try:
        eliminated = state.restricted(data).stab_equal(target)
    except EntangledError:
        eliminated = False
    assert data_register_holds(state, data, target) == eliminated
    if holds:
        assert eliminated


def test_membership_verdict_needs_one_distinct_qubit_per_target_qubit():
    state = Tableau.initialized(3, "+++")
    plus = Tableau.initialized(2, "++")
    assert data_register_holds(state, [0, 2], plus)
    assert not data_register_holds(state, [0, 0], plus)
    assert not data_register_holds(state, [0, 1, 2], plus)


def test_shared_cell_diagnostic():
    """Two labels on one cell fail with the generator-count diagnostic."""
    lat = Lattice(1, 2, {"a": (0, 0), "b": (0, 0)})
    lat.prepare([((0, 0), "+"), ((0, 1), "+")])
    res = verify_lattice_against(lat, Tableau.initialized(2, "++"), ["a", "b"], "shared")
    assert not res.ok
    assert res.diagnostic == "expected 2 data generators, found 1"


def test_wrong_sign_target_diagnostic():
    """A target with one sign flipped fails with the first differing
    canonical generator."""
    lat = Lattice(1, 2, {"a": (0, 0), "b": (0, 1)})
    lat.prepare([((0, 0), "+"), ((0, 1), "+")])
    lat.global_cz("horizontal")
    target = _expected_cz_tableau().apply(Gate("Z", (1,)))
    res = verify_lattice_against(lat, target, ["a", "b"], "row")
    assert not res.ok
    assert res.diagnostic == "+ZX != -ZX"


def _check_frame_read_on_data(lat, name, order, refs):
    """The verdict and diagnostic match those that running every frame bit,
    data or not, as a gate on a copy of the whole lattice tableau gives."""
    f = lat.frame
    framed = run_gates(lat.tab.copy(),
                       [Gate(kind, (q,)) for q in range(lat.n)
                        for kind, bit in (("X", f.x_bit(q)), ("Z", f.z_bit(q))) if bit])
    qubits = lat.data_qubits(order)
    verdicts = []
    for ref in refs:
        res = verify_lattice_against(lat, ref, order, name)
        assert res.ok == data_register_holds(framed, qubits, ref)
        if not res.ok:
            assert res.diagnostic == framed.restricted(qubits).first_difference(ref)
        verdicts.append(res.ok)
    return verdicts


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NAMED_SCHEDULES)
def test_frame_is_read_on_the_data_register(name, seed):
    """Checked against the true target and a sign-flipped one: as the
    schedule leaves the frame, after byproducts on the data cells that
    multiply to a target stabilizer (the verdict still holds), and after
    random byproducts there."""
    rng = np.random.default_rng(seed)
    lat = run_schedule(build_schedule(name), seed=seed)
    target, order = target_tableau(name)
    flipped = target.copy()
    flipped.ph[target.n + int(rng.integers(0, target.n))] ^= 2
    refs = (target, flipped)
    assert _check_frame_read_on_data(lat, name, order, refs) == [True, False]
    x = z = 0
    for g in target.stabilizer_rows():
        if rng.random() < 0.5:
            x, z = x ^ g.x, z ^ g.z
    for j, lbl in enumerate(order):
        lat.add_frame_pauli(lat.data_cells[lbl], (x >> j) & 1, (z >> j) & 1)
    assert _check_frame_read_on_data(lat, name, order, refs) == [True, False]
    for lbl in order:
        lat.add_frame_pauli(lat.data_cells[lbl], *(int(b) for b in rng.integers(0, 2, 2)))
    _check_frame_read_on_data(lat, name, order, refs)


def test_verification_runs_no_elimination(monkeypatch):
    """A successful verification decides by membership alone: no row
    reduction for the named schedules and both hop modes (21 per benchmark
    operation when the data register was extracted and compared)."""
    calls = []
    reduce_rows = Tableau._canonical_rows
    monkeypatch.setattr(Tableau, "_canonical_rows",
                        lambda self: calls.append(self.n) or reduce_rows(self))
    for name in ("E1_lattice", "E2_lattice", "GHZ6_lattice", "LP_full", "horseshoe_lattice"):
        assert verify_schedule(name, seed=0).ok
    for mode in ("simultaneous", "sequential"):
        assert run_hop(mode, seed=0).verified
    assert calls == []
    lat = Lattice(1, 3, {"a": (0, 0), "b": (0, 2)})
    lat.prepare([((0, c), "+") for c in range(3)])
    lat.global_cz("horizontal")
    assert not verify_lattice_against(lat, _expected_cz_tableau(), ["a", "b"], "row").ok
    assert calls == [3]
