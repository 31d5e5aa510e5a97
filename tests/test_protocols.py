import numpy as np
import pytest

from conftest import random_qubit
from qecc1wqc import code5, protocols, svsim
from qecc1wqc.circuit import CZ, two_qubit_gate_count
from qecc1wqc.graphs import graph_to_tableau, tableau_to_graph
from qecc1wqc.pauli import PauliString
from qecc1wqc.svsim import StateVector
from qecc1wqc.tableau import Tableau, run_gates


# -- LCS2 ----------------------------------------------------------------------


def test_lcs2_state_matches_assembled_target():
    _, state, _ = protocols.build_LCS2()
    assert svsim.fidelity(state, protocols.assemble_lcs2_target()) > 1 - 1e-10


@pytest.mark.parametrize("registers", [1, 2, 3, 4, 5])
def test_linear_cluster_graph_structure(registers):
    """A pentagon on each register, K5,5 between consecutive registers and
    no edge between registers further apart."""
    g = protocols.linear_cluster_graph(registers)
    assert g.n == 5 * registers
    assert len(g.edges) == 5 * registers + 25 * (registers - 1)
    for a, b in g.edges:
        ra, rb = a // 5, b // 5
        if ra == rb:
            assert tuple(sorted((a % 5, b % 5))) in {
                tuple(sorted(e)) for e in code5.PENTAGON_EDGES}
        else:
            assert abs(ra - rb) == 1
    ends = 2 + 5 if registers > 1 else 2
    for r in range(registers):
        inner = 0 < r < registers - 1
        assert g.degrees()[5 * r:5 * r + 5] == [2 + 10 if inner else ends] * 5


def test_lcs2_graph_degrees_all_seven():
    _, _, graph = protocols.build_LCS2()
    assert graph.degrees() == [7] * 10


def test_lcs2_graph_matches_circuit_tableau():
    circuit, _, graph = protocols.build_LCS2()
    t = run_gates(Tableau.initialized(10, "+" * 10), circuit)
    back, layer = tableau_to_graph(t)
    assert back.edges == graph.edges and layer == []


def test_lcs2_cz_order_permutation_invariant(rng):
    gates, state, _ = protocols.build_LCS2()
    for _ in range(3):
        order = rng.permutation(len(gates))
        shuffled = svsim.init(10, "+" * 10)
        for idx in order:
            svsim.apply(shuffled, gates[idx])
        assert svsim.fidelity(shuffled, state) > 1 - 1e-10


def test_lcs2_logical_z_toggles_branch_labels():
    _, state, _ = protocols.build_LCS2()
    toggled = state.copy()
    for q in range(5):
        from qecc1wqc.circuit import Z
        svsim.apply(toggled, Z(q))
    l0, l1 = code5.logical_zero().amps, code5.logical_one().amps
    lp, lm = code5.logical_plus().amps, code5.logical_minus().amps
    # Z^L_A maps the state to (|0L>|-L> + |1L>|+L>)/sqrt(2)
    expect = StateVector(10, (np.kron(l0, lm) + np.kron(l1, lp)) / np.sqrt(2))
    assert svsim.fidelity(toggled, expect) > 1 - 1e-10


def test_lcs2_sequential_vs_graph_circuit_frame():
    """The 23-gate sequential preparation and the 35-gate graph circuit
    build the same two-register cluster state up to a transversal Z frame
    on both registers; the sequential route lands exactly on the
    alpha|0L>|+L> + beta|1L>|-L> form for a |+> input."""
    seq_circuit = protocols.build_teleport_circuit()
    assert two_qubit_gate_count(seq_circuit) == 23
    graph_circuit = protocols.build_LCS2()[0]
    assert two_qubit_gate_count(graph_circuit) == 35

    seq = svsim.init(10, "+000000000")
    svsim.run_circuit(seq, seq_circuit)
    s = 1 / np.sqrt(2)
    expect = s * (np.kron(code5.logical_zero().amps, code5.logical_plus().amps)
                  + np.kron(code5.logical_one().amps, code5.logical_minus().amps))
    assert abs(np.vdot(expect, seq.amps)) > 1 - 1e-10

    graph = svsim.init(10, "+" * 10)
    svsim.run_circuit(graph, graph_circuit)
    from qecc1wqc.circuit import Z
    for q in range(10):
        svsim.apply(graph, Z(q))
    assert svsim.fidelity(graph, seq) > 1 - 1e-10


# -- logical-physical cluster state ----------------------------------------------


def build_logical_physical(alpha: complex, beta: complex) -> StateVector:
    """Encode + hub fan: alpha |0L>|+>_6 + beta |1L>|->_6 on six qubits."""
    amps = np.zeros(64, dtype=complex)
    amps[0] = alpha
    amps[32] = beta
    state = svsim.from_amplitudes(amps)
    svsim.run_circuit(state, protocols.build_logical_physical_circuit())
    return state


def pentagon_logical_physical() -> StateVector:
    """Pentagon route: (|-L>|0>_6 + |+L>|1>_6)/sqrt(2), exactly."""
    state = svsim.init(6, "++++++")
    return svsim.run_circuit(state, protocols.fan(0, 5) + code5.build_E2())


def test_logical_physical_structure(rng):
    alpha, beta = random_qubit(rng)
    state = build_logical_physical(alpha, beta)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    expect = (alpha * np.kron(code5.logical_zero().amps, plus)
              + beta * np.kron(code5.logical_one().amps, minus))
    assert abs(np.vdot(expect, state.amps)) > 1 - 1e-10


def test_logical_physical_plus_input_vs_pentagon_route():
    s = 1 / np.sqrt(2)
    built = build_logical_physical(s, s)
    pentagon = pentagon_logical_physical()
    # the two constructions differ by exactly a transversal Z on the register
    for q in range(5):
        from qecc1wqc.circuit import Z
        svsim.apply(pentagon, Z(q))
    assert svsim.fidelity(built, pentagon) > 1 - 1e-10


def test_pentagon_route_is_eq12_exactly():
    state = pentagon_logical_physical()
    zero = np.array([1, 0])
    one = np.array([0, 1])
    expect = (np.kron(code5.logical_minus().amps, zero)
              + np.kron(code5.logical_plus().amps, one)) / np.sqrt(2)
    assert np.allclose(state.amps, expect, atol=1e-10)


def test_ghz6_construction():
    state = svsim.init(6, "++++++")
    for n in range(5):
        svsim.apply(state, CZ(n, 5))
    plus5 = svsim.init(5, "+++++").amps
    minus5 = svsim.init(5, "-----").amps
    expect = (np.kron(plus5, [1, 0]) + np.kron(minus5, [0, 1])) / np.sqrt(2)
    assert np.allclose(state.amps, expect, atol=1e-10)


def test_logical_physical_zero_input_is_product():
    state = build_logical_physical(1, 0)
    ok, sub = svsim.partial_trace_is_pure(state, [0, 1, 2, 3, 4])
    assert ok
    assert svsim.fidelity(sub, code5.logical_zero()) > 1 - 1e-10


# -- encoded teleportation ----------------------------------------------------------


def test_teleport_no_error_both_outcomes(rng):
    alpha, beta = random_qubit(rng)
    xi = 1.37
    for m in (0, 1):
        rep = protocols.encoded_teleport((alpha, beta), xi, forced_m=m, rng=rng)
        assert rep.m == m
        assert rep.syndrome == "0000"
        assert rep.fidelity > 1 - 1e-9
        assert rep.two_qubit_gates == 23


def test_teleport_intermediate_state_eq19(rng):
    """After decode and correction the state is a|0>|+L> + b|1>|-L>."""
    alpha, beta = random_qubit(rng)
    amps = np.zeros(1024, dtype=complex)
    amps[0], amps[512] = alpha, beta
    state = svsim.from_amplitudes(amps)
    svsim.run_circuit(state, code5.build_encoder(0))
    from qecc1wqc.circuit import H
    svsim.apply(state, H(5))
    for n in range(5):
        svsim.apply(state, CZ(n, 5))
    svsim.run_circuit(state, code5.build_encoder(5))
    svsim.run_circuit(state, code5.build_decoder(0))
    for q in range(1, 5):
        rec, _ = svsim.measure(state, q, "Z", forced=0)
        assert rec.probability > 1 - 1e-9
    sub = svsim.extract_pure(state, [0, 5, 6, 7, 8, 9])
    expect = (alpha * np.kron([1, 0], code5.logical_plus().amps)
              + beta * np.kron([0, 1], code5.logical_minus().amps))
    assert abs(np.vdot(expect, sub.amps)) > 1 - 1e-10


@pytest.mark.parametrize("label", [lbl for lbl in code5.SYNDROME_TABLE if lbl != "I"])
def test_teleport_corrects_every_single_pauli(label, rng):
    alpha, beta = random_qubit(rng)
    err = code5.error_operator(label)
    rep = protocols.encoded_teleport((alpha, beta), 0.9, injected_error=err, rng=rng)
    assert rep.syndrome == code5.SYNDROME_TABLE[label][0]
    assert rep.fidelity > 1 - 1e-9


def test_teleport_error_during_entangling_leaks(rng):
    """An X error between encoding A and the fan propagates a logical Z onto
    B and is not corrected; the report records it."""
    rep = protocols.encoded_teleport(
        (0.6, 0.8), 0.5, injected_error=PauliString.single(5, 2, "X"),
        error_stage="after_encode_a", rng=rng)
    assert rep.fidelity < 0.99


def test_teleport_weight_two_fails(rng):
    err = PauliString(5, 0b00011, 0, 0)  # X on qubits 1 and 2
    rep = protocols.encoded_teleport((0.6, 0.8), 0.5, injected_error=err, rng=rng)
    assert rep.fidelity <= 0.99


def test_teleport_takes_only_a_five_qubit_error(rng):
    """The injected error is a Pauli on register A; a two-register-wide one
    is rejected before anything runs."""
    with pytest.raises(ValueError, match="must act on the 5 A qubits, got 10"):
        protocols.encoded_teleport((0.6, 0.8), 0.5,
                                   injected_error=PauliString.single(10, 2, "X"), rng=rng)


@pytest.mark.parametrize("call", [
    lambda: svsim.from_amplitudes(np.array([np.nan, 0])),
    lambda: code5.encode((np.nan, 0)),
    lambda: protocols.encoded_teleport((np.nan, 0), 0.3),
], ids=["from_amplitudes", "encode", "encoded_teleport"])
def test_nan_amplitudes_are_rejected_before_any_gate(call):
    """A nan norm fails the normalization check, so no gate runs on an
    all-nan state."""
    with pytest.raises(ValueError, match="amplitudes are not normalized"):
        call()


# -- push-through --------------------------------------------------------------------


def test_push_through_identity_holds():
    rep = protocols.push_through_check(n_random=8, seed=5)
    assert rep.passed
    assert min(rep.fidelities) > 1 - 1e-9
    assert min(rep.negative_control_fidelities) < 1 - 1e-9


# -- horseshoe -------------------------------------------------------------------------


def test_horseshoe_gate_counts():
    assert two_qubit_gate_count(protocols.build_horseshoe_circuit()) == 51
    assert two_qubit_gate_count(protocols.build_horseshoe_fig_order_circuit()) == 47


def test_horseshoe_graph_degrees():
    g = protocols.linear_cluster_graph(4)
    degs = g.degrees()
    assert all(degs[i] == 7 for i in list(range(5)) + list(range(15, 20)))
    assert all(degs[i] == 12 for i in range(5, 15))


def test_horseshoe_chain_equals_endpoint_first_order():
    """The 51-gate chain circuit and the endpoint-first construction agree."""
    def run(circuit):
        init = (["+"] + ["0"] * 4) * 4
        return run_gates(Tableau.initialized(20, init), circuit)

    a = run(protocols.build_horseshoe_circuit())
    b = run(protocols.build_horseshoe_fig_order_circuit())
    assert a.stab_equal(b)


def test_horseshoe_tableau_vs_graph_state():
    """The chain-built state equals the twenty-vertex graph state after a
    transversal Z frame on every register."""
    _, t = protocols.build_horseshoe_logical(mode="tableau")
    from qecc1wqc.circuit import Z
    for q in range(20):
        t.apply(Z(q))
    assert t.stab_equal(graph_to_tableau(protocols.linear_cluster_graph(4)))


def test_horseshoe_intermediate_slice(rng):
    psi = random_qubit(rng)
    phi = random_qubit(rng)
    built, target = protocols.horseshoe_intermediate(psi, phi)
    assert svsim.fidelity(built, target) > 1 - 1e-10


@pytest.mark.slow
def test_horseshoe_dense_mode_matches_tableau():
    circuit, dense = protocols.build_horseshoe_logical(mode="dense")
    _, tab = protocols.build_horseshoe_logical(mode="tableau")
    for row in tab.stabilizer_rows():
        if row.weight > 12:
            continue  # dense Pauli application is enough on a sample
        out = dense.copy()
        svsim.apply_pauli(out, row)
        assert svsim.fidelity(out, dense) > 1 - 1e-9


# -- nine-gate entangler ---------------------------------------------------------------


def test_nine_gate_count_and_k55_count():
    circuit, count = protocols.nine_gate_entangler()
    assert count == 9
    assert len(protocols.k55_graph().edges) == 25


def test_entangler_certificate_verified():
    cert = protocols.entangler_equivalence_certificate()
    assert cert["verified"]
    assert cert["isomorphism_ok"]
    assert cert["layer_maps_state_ok"]
    assert len(cert["local_clifford_layer"]) > 0


def test_nine_gate_circuit_builds_its_graph():
    circuit, _ = protocols.nine_gate_entangler()
    t = run_gates(Tableau.initialized(10, "+" * 10), circuit)
    g, layer = tableau_to_graph(t)
    assert g.edges == protocols.nine_gate_graph().edges and layer == []
