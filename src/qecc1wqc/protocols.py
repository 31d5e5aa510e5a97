"""Protocol builders and verifiers on top of the code and the simulators.

Register layout for two-register protocols: A = qubits 0..4 (information
qubit 0), B = qubits 5..9 (hub qubit 5).  The four-register horseshoe adds
C = 10..14 (hub 10) and D = 15..19 (hub 15).

Measurement convention: the XY-plane basis at angle theta is
{(|0> +/- e^{i theta}|1>)/sqrt(2)}.  Because projection conjugates the
phase, teleporting the gate X^m H Rz(xi) requires measuring at angle -xi;
``encoded_teleport`` takes the gate angle xi and handles the sign
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import code5, svsim
from .circuit import CZ, Circuit, H, Z
from .graphs import Graph, graph_to_tableau, pivot, pivot_layer_gates, tableau_to_graph
from .pauli import PauliString
from .svsim import StateVector
from .tableau import Tableau, run_gates


# -- logical cluster states ----------------------------------------------------


def linear_cluster_graph(registers: int) -> Graph:
    """Logical linear cluster on five-qubit registers 0..4, 5..9, ...

    A pentagon on each register and K5,5 between consecutive registers.
    Two registers give the ten-vertex, degree-seven LCS2 graph; four give
    the horseshoe (degree 7 on the end registers, 12 inside).
    """
    edges = [(5 * r + a, 5 * r + b)
             for r in range(registers) for a, b in code5.PENTAGON_EDGES]
    edges += [(m, n) for r in range(registers - 1)
              for m in range(5 * r, 5 * r + 5) for n in range(5 * r + 5, 5 * r + 10)]
    return Graph.from_edges(5 * registers, edges)


def assemble_lcs2_target() -> StateVector:
    """The state the graph circuit produces, assembled from code words.

    Expanding the cross-CZ block over register parities gives
    (|0L>|-L> - |1L>|+L>)/sqrt(2); note the relative branch sign.
    """
    l0, l1 = code5.logical_zero().amps, code5.logical_one().amps
    lp, lm = code5.logical_plus().amps, code5.logical_minus().amps
    v = (np.kron(l0, lm) - np.kron(l1, lp)) / math.sqrt(2)
    return StateVector(10, v)


def build_LCS2() -> tuple[Circuit, StateVector, Graph]:
    """The two-register graph state: its 35-gate circuit, state and graph."""
    graph = linear_cluster_graph(2)
    c = Circuit(10, graph.cz_gates())
    state = svsim.init(10, "+" * 10)
    svsim.run_circuit(state, c)
    return c, state, graph


# -- logical-physical cluster state -------------------------------------------


def build_logical_physical_circuit() -> Circuit:
    """Encode qubits 0..4, then fan them onto the hub qubit 5."""
    c = Circuit(6)
    c.extend(code5.build_encoder(0, 6).gates)
    c.append(H(5))
    for n in range(5):
        c.append(CZ(n, 5))
    return c


def build_logical_physical(alpha: complex, beta: complex) -> StateVector:
    """Encode + hub fan: alpha |0L>|+>_6 + beta |1L>|->_6 on six qubits."""
    amps = np.zeros(64, dtype=complex)
    amps[0] = alpha
    amps[32] = beta
    state = svsim.from_amplitudes(amps)
    svsim.run_circuit(state, build_logical_physical_circuit())
    return state


def pentagon_logical_physical() -> StateVector:
    """Pentagon route: (|-L>|0>_6 + |+L>|1>_6)/sqrt(2), exactly."""
    state = svsim.init(6, "++++++")
    for n in range(5):
        svsim.apply(state, CZ(n, 5))
    for a, b in code5.PENTAGON_EDGES:
        svsim.apply(state, CZ(a, b))
    return state


# -- encoded teleportation ------------------------------------------------------


def build_teleport_circuit(include_decode: bool = False) -> Circuit:
    """The two-register state-preparation circuit (23 two-qubit gates).

    Encode A, fan the hub, encode B.  With ``include_decode`` the decoder on
    A is appended as well (it is not part of the cluster-state preparation
    cost).
    """
    c = Circuit(10)
    c.extend(code5.build_encoder(0, 10).gates)
    c.append(H(5))
    for n in range(5):
        c.append(CZ(n, 5))
    c.extend(code5.build_encoder(5, 10).gates)
    if include_decode:
        c.extend(code5.build_decoder(0, 10).gates)
    return c


# The hop cut at its two error windows: after encoding A ("after_encode_a")
# and after encoding B ("protected").
_HOP = build_teleport_circuit(include_decode=True).gates
_A_END = len(code5.build_encoder(0, 10).gates)
_B_END = len(_HOP) - len(code5.build_decoder(0, 10).gates)
HOP_ENCODE_A = Circuit(10, _HOP[:_A_END])
HOP_FAN_ENCODE_B = Circuit(10, _HOP[_A_END:_B_END])
HOP_DECODE_A = Circuit(10, _HOP[_B_END:])
TELEPORT_TWO_QUBIT_GATES = build_teleport_circuit().two_qubit_gate_count()


def h_rz_product(psi, xis) -> np.ndarray:
    """prod_k H Rz(xi_k) applied to a single qubit, hop order first."""
    v = np.array(psi, dtype=complex)
    for xi in xis:
        v = np.array([v[0] * np.exp(-1j * xi / 2), v[1] * np.exp(1j * xi / 2)])
        v = np.array([v[0] + v[1], v[0] - v[1]]) / math.sqrt(2)
    return v


def teleport_target(psi: tuple[complex, complex], xi: float, m: int) -> StateVector:
    """(X^L)^m H^L Rz^L(xi) |psi^L>, via the one-qubit oracle then encoding."""
    v = h_rz_product(psi, [xi])
    if m:
        v = v[::-1]
    return code5.encode_amplitudes(v[0], v[1])


ERROR_STAGES = ("protected", "after_encode_a")


@dataclass
class TeleportReport:
    m: int
    syndrome: str
    correction: str
    injected_error: str | None
    error_stage: str | None
    fidelity: float
    two_qubit_gates: int
    xi: float
    measurement_probability: float


def encoded_teleport(psi: tuple[complex, complex], xi: float,
                     injected_error: PauliString | None = None,
                     error_stage: str = "protected",
                     forced_m: int | None = None,
                     rng=None) -> TeleportReport:
    """Full encoded teleportation from register A to register B.

    ``injected_error`` is a Pauli on the five A qubits (width 5 or 10).  In
    the protected stage (after both registers are entangled and encoded,
    before the decoder) any weight-1 error is corrected exactly.  Errors in
    other stages can leak onto B; the report records the resulting fidelity
    rather than raising.
    """
    if error_stage not in ERROR_STAGES:
        raise ValueError(f"unknown error stage {error_stage!r}")
    if rng is None:
        rng = np.random.default_rng()
    err = injected_error
    if err is not None and err.n == 5:
        err = PauliString(10, err.x, err.z, err.phase)
    elif err is not None and err.n != 10:
        raise ValueError("injected error must act on 5 or 10 qubits")
    alpha, beta = psi

    amps = np.zeros(1024, dtype=complex)
    amps[0] = alpha
    amps[512] = beta
    state = svsim.from_amplitudes(amps)
    svsim.run_circuit(state, HOP_ENCODE_A)
    syndrome, rec, out = _teleport_hop(state, xi, rng, forced_m, err, error_stage)
    fid = svsim.fidelity(out, teleport_target(psi, xi, rec.outcome))
    return TeleportReport(
        m=rec.outcome,
        syndrome=syndrome,
        correction=code5.correction_label_for(syndrome),
        injected_error=None if injected_error is None else injected_error.to_label(),
        error_stage=None if injected_error is None else error_stage,
        fidelity=fid,
        two_qubit_gates=TELEPORT_TWO_QUBIT_GATES,
        xi=xi,
        measurement_probability=rec.probability,
    )


def _teleport_hop(state: StateVector, xi: float, rng, forced_m: int | None = None,
                  error: PauliString | None = None, error_stage: str = "protected"):
    """One hop from register A (encoded) to register B (in |00000>).

    Runs the fan and B's encoder, the decoder on A, reads the syndrome,
    applies the table correction and measures qubit 0 at angle -xi; an
    optional 10-qubit ``error`` strikes at ``error_stage``.  Mutates
    ``state``; returns (syndrome string, XY MeasurementRecord, B StateVector).
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if error is not None and error_stage == "after_encode_a":
        svsim.apply_pauli(state, error)
    svsim.run_circuit(state, HOP_FAN_ENCODE_B)
    if error is not None and error_stage == "protected":
        svsim.apply_pauli(state, error)
    svsim.run_circuit(state, HOP_DECODE_A)
    syndrome = code5.syndrome_string(
        svsim.measure(state, q, "Z", rng=rng)[0].outcome for q in range(1, 5))
    corr = code5.correction_for(syndrome)
    svsim.apply_pauli(state, PauliString(10, corr.x, corr.z, corr.phase))
    rec, _ = svsim.measure(state, 0, "XY", rng=rng, forced=forced_m, xi=-xi)
    return syndrome, rec, svsim.extract_pure(state, [5, 6, 7, 8, 9])


# -- push-through identity -------------------------------------------------------


@dataclass
class PushThroughReport:
    fidelities: list[float]
    negative_control_fidelities: list[float]
    passed: bool


def _random_register_state(rng) -> np.ndarray:
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    return v / np.linalg.norm(v)


def push_through_check(n_random: int = 20, seed: int = 0,
                       tol: float = 1e-9) -> PushThroughReport:
    """Verify the encoder/fan identity against the graph-side construction.

    Hub fan followed by encoding of the fresh register equals the 25 cross
    CZ gates, the pentagon, and a transversal Z layer applied to |+>^5.
    The negative control drops the Z layer and must fail on at least one
    input.
    """
    rng = np.random.default_rng(seed)
    inputs = [_random_register_state(rng) for _ in range(n_random - 1)]
    inputs.insert(0, svsim.init(5, "+++++").amps)

    def lhs(reg: np.ndarray) -> StateVector:
        zeros = np.zeros(32, dtype=complex)
        zeros[0] = 1
        st = StateVector(10, np.kron(reg, zeros))
        svsim.run_circuit(st, HOP_FAN_ENCODE_B)
        return st

    def rhs(reg: np.ndarray, with_z_layer: bool) -> StateVector:
        st = StateVector(10, np.kron(reg, svsim.init(5, "+++++").amps))
        for n in range(5):
            for mq in range(5, 10):
                svsim.apply(st, CZ(n, mq))
        for a, b in code5.PENTAGON_EDGES:
            svsim.apply(st, CZ(a + 5, b + 5))
        if with_z_layer:
            for q in range(5, 10):
                svsim.apply(st, Z(q))
        return st

    fids = [svsim.fidelity(lhs(reg), rhs(reg, True)) for reg in inputs]
    neg = [svsim.fidelity(lhs(reg), rhs(reg, False)) for reg in inputs]
    passed = all(f >= 1 - tol for f in fids) and any(f < 1 - tol for f in neg)
    return PushThroughReport(fids, neg, passed)


# -- horseshoe (four-register linear cluster) --------------------------------------


def build_horseshoe_circuit() -> Circuit:
    """Chain construction: encode, fan, encode, ... (51 two-qubit gates)."""
    c = Circuit(20)
    c.extend(code5.build_encoder(0, 20).gates)
    for hub, src in ((5, 0), (10, 5), (15, 10)):
        if hub != 15:
            c.append(H(hub))
        for q in range(src, src + 5):
            c.append(CZ(q, hub))
        c.extend(code5.build_encoder(hub, 20).gates)
    return c


def build_horseshoe_fig_order_circuit() -> Circuit:
    """Endpoint-first construction: encode A and D, bridge the hubs, fan."""
    c = Circuit(20)
    c.extend(code5.build_encoder(0, 20).gates)
    c.extend(code5.build_encoder(15, 20).gates)
    c.append(H(5))
    c.append(H(10))
    c.append(CZ(5, 10))
    for q in range(5):
        c.append(CZ(q, 5))
    for q in range(15, 20):
        c.append(CZ(q, 10))
    c.extend(code5.build_encoder(5, 20).gates)
    c.extend(code5.build_encoder(10, 20).gates)
    return c


def build_horseshoe_logical(mode: str = "tableau"):
    """Run the chain circuit with |+> information qubits.

    Returns (circuit, Tableau) in tableau mode or (circuit, StateVector) in
    the opt-in dense mode (20 qubits; slow but exact).
    """
    circuit = build_horseshoe_circuit()
    if mode == "tableau":
        init = ["0"] * 20
        init[0] = "+"
        init[15] = "+"
        return circuit, run_gates(Tableau.initialized(20, init), circuit.gates)
    if mode == "dense":
        plus1 = np.array([1, 1], dtype=complex) / math.sqrt(2)
        zero4 = np.zeros(16, dtype=complex)
        zero4[0] = 1
        zero5 = np.zeros(32, dtype=complex)
        zero5[0] = 1
        endpoint = np.kron(plus1, zero4)
        amps = np.kron(np.kron(endpoint, np.kron(zero5, zero5)), endpoint)
        st = StateVector(20, amps)
        svsim.run_circuit(st, circuit)
        return circuit, st
    raise ValueError("mode must be 'tableau' or 'dense'")


def horseshoe_intermediate(psi: tuple[complex, complex],
                           phi: tuple[complex, complex]) -> tuple[StateVector, StateVector]:
    """Twelve-qubit slice after encoding the endpoints and bridging the hubs.

    Returns (constructed, target) where the target is
    |psi^L> (|0>|+> + |1>|->)/sqrt(2) |phi^L> assembled directly.
    """
    alpha, beta = psi
    gamma, delta = phi
    # qubits: A = 0..4, hubs 5 and 6, D = 7..11
    amps_a = np.zeros(32, dtype=complex)
    amps_a[0], amps_a[16] = alpha, beta
    amps_d = np.zeros(32, dtype=complex)
    amps_d[0], amps_d[16] = gamma, delta
    hubs = np.zeros(4, dtype=complex)
    hubs[0] = 1
    st = StateVector(12, np.kron(np.kron(amps_a, hubs), amps_d))
    svsim.run_circuit(st, code5.build_encoder(0, 12))
    svsim.run_circuit(st, code5.build_encoder(7, 12))
    svsim.apply(st, H(5))
    svsim.apply(st, H(6))
    svsim.apply(st, CZ(5, 6))

    bell = np.array([1, 1, 1, -1], dtype=complex) / 2  # CZ|++>
    target = np.kron(
        np.kron(code5.encode_amplitudes(alpha, beta).amps, bell),
        code5.encode_amplitudes(gamma, delta).amps)
    return st, StateVector(12, target)


# -- nine-gate entangler ----------------------------------------------------------


def nine_gate_graph() -> Graph:
    """Two GHZ-type stars centred on 0 and 5, bridged by the edge (0, 5)."""
    edges = [(0, 5)] + [(0, i) for i in range(1, 5)] + [(5, j) for j in range(6, 10)]
    return Graph.from_edges(10, edges)


def nine_gate_entangler() -> tuple[Circuit, int]:
    """The nine-gate graph's circuit and its entangling-gate count."""
    c = Circuit(10, nine_gate_graph().cz_gates())
    return c, c.two_qubit_gate_count()


def k55_graph() -> Graph:
    return Graph.from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)])


def entangler_equivalence_certificate() -> dict:
    """Pivot K5,5 on its bridge edge and certify equivalence with the
    nine-gate graph: explicit isomorphism plus a verified local-Clifford
    layer mapping the K5,5 graph state onto the pivoted graph state."""
    g = k55_graph()
    gp = pivot(g, 0, 5)
    target = nine_gate_graph()
    # pivoting exchanges the roles of the edge endpoints, so the pivoted
    # graph coincides with the nine-gate graph under the identity labeling
    iso_ok = gp.edges == target.edges

    layer = pivot_layer_gates(g, 0, 5)
    t = graph_to_tableau(g)
    for gate in layer:
        t.apply(gate)
    layer_ok = t.stab_equal(graph_to_tableau(gp))

    # independent reduction of the transformed state back to a graph
    graph_back, residual_layer = tableau_to_graph(t.copy())
    return {
        "pivot_edge": [1, 6],  # 1-based labels
        "k55_edges": g.to_json_obj()["edges"],
        "pivot_edges": gp.to_json_obj()["edges"],
        "nine_gate_edges": target.to_json_obj()["edges"],
        "isomorphism": "identity",
        "isomorphism_ok": iso_ok,
        "local_clifford_layer": [
            {"g": gate.kind, "t": list(gate.targets)} for gate in layer
        ],
        "layer_maps_state_ok": layer_ok,
        "reduction_roundtrip_edges": graph_back.to_json_obj()["edges"],
        "reduction_layer_size": len(residual_layer),
        "verified": bool(iso_ok and layer_ok),
    }
