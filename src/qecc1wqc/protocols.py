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
from .circuit import CZ, Gate, H, Z, two_qubit_gate_count
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


def build_LCS2() -> tuple[list[Gate], StateVector, Graph]:
    """The two-register graph state: its 35-gate circuit, state and graph."""
    graph = linear_cluster_graph(2)
    c = graph.cz_gates()
    state = svsim.init(10, "+" * 10)
    svsim.run_circuit(state, c)
    return c, state, graph


# -- logical-physical cluster state -------------------------------------------


def fan(register: int, hub: int) -> list[Gate]:
    """CZ from each qubit of the register starting at ``register`` onto ``hub``."""
    return [CZ(q, hub) for q in range(register, register + 5)]


def build_logical_physical_circuit() -> list[Gate]:
    """Encode qubits 0..4, then fan them onto the hub qubit 5."""
    return code5.build_encoder(0) + [H(5)] + fan(0, 5)


# -- encoded teleportation ------------------------------------------------------


def build_teleport_circuit() -> list[Gate]:
    """The two-register state-preparation circuit (23 two-qubit gates).

    Encode A, fan the hub, encode B.  The hop then runs the decoder on A,
    which is not part of the cluster-state preparation cost.
    """
    return build_logical_physical_circuit() + code5.build_encoder(5)


# The hop from A's encoded register, cut at its two error windows: after
# encoding A ("after_encode_a") and after encoding B ("protected").
# ``HOP_TAILS`` holds the gates that run after each window.
_HOP = build_teleport_circuit()
HOP_FAN_ENCODE_B = _HOP[len(code5.build_encoder(0)):]
HOP_DECODE_A = code5.build_decoder(0)
HOP_TAILS = {"protected": HOP_DECODE_A, "after_encode_a": HOP_FAN_ENCODE_B + HOP_DECODE_A}
TELEPORT_TWO_QUBIT_GATES = two_qubit_gate_count(_HOP)


def h_rz_product(psi, xis) -> np.ndarray:
    """prod_k H Rz(xi_k) applied to a single qubit, hop order first."""
    v = np.array(psi, dtype=complex)
    if v.shape != (2,) or not np.isfinite(v).all() or abs(np.linalg.norm(v) - 1) > 1e-8:
        raise ValueError(f"psi must be two finite amplitudes of norm 1, got {psi!r}")
    for xi in xis:
        if not math.isfinite(xi):
            raise ValueError(f"xi must be finite, got {xi!r}")
        v = np.array([v[0] * np.exp(-1j * xi / 2), v[1] * np.exp(1j * xi / 2)])
        v = np.array([v[0] + v[1], v[0] - v[1]]) / math.sqrt(2)
    return v


def teleport_target(psi: tuple[complex, complex], xi: float, m: int) -> StateVector:
    """(X^L)^m H^L Rz^L(xi) |psi^L>, via the one-qubit oracle then encoding."""
    v = h_rz_product(psi, [xi])
    if m:
        v = v[::-1]
    return code5.encode_amplitudes(v[0], v[1])


ERROR_STAGES = tuple(HOP_TAILS)


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

    ``injected_error`` is a Pauli on the five A qubits.  In
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
    if err is not None:
        if err.n != 5:
            raise ValueError(f"injected error must act on the 5 A qubits, got {err.n}")
        err = PauliString(10, err.x, err.z, err.phase)
    syndrome, rec, out = _teleport_hop(code5.encode(psi), xi, rng, forced_m, err, error_stage)
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


def _teleport_hop(register: StateVector, xi: float, rng, forced_m: int | None = None,
                  error: PauliString | None = None, error_stage: str = "protected"):
    """One hop from A's encoded 5-qubit ``register`` to register B.

    Joins B in |00000>, runs the fan and B's encoder, the decoder on A,
    reads the syndrome, applies the table correction and measures qubit 0
    at angle -xi; an optional 10-qubit ``error`` strikes at ``error_stage``.
    Returns (syndrome string, XY MeasurementRecord, B StateVector).
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    state = svsim.init(10, [register, svsim.init(5, "00000")])
    # the earliest window's tail is the whole hop after A's encoder
    hop, tail = HOP_TAILS["after_encode_a"], HOP_TAILS[error_stage]
    svsim.run_circuit(state, hop[:len(hop) - len(tail)])
    if error is not None:
        svsim.apply_pauli(state, error)
    svsim.run_circuit(state, tail)
    syndrome, corr = code5.read_syndrome(
        lambda q: svsim.measure(state, q, "Z", rng=rng)[0].outcome)
    svsim.apply_pauli(state, PauliString(10, corr.x, corr.z, corr.phase))
    rec, _ = svsim.measure(state, 0, "XY", rng=rng, forced=forced_m, xi=-xi)
    return syndrome, rec, svsim.extract_pure(state, [5, 6, 7, 8, 9])


# -- push-through identity -------------------------------------------------------


@dataclass
class PushThroughReport:
    fidelities: list[float]
    negative_control_fidelities: list[float]
    passed: bool


def push_through_check(n_random: int = 20, seed: int = 0,
                       tol: float = 1e-9) -> PushThroughReport:
    """Verify the encoder/fan identity against the graph-side construction.

    Hub fan followed by encoding of the fresh register equals the 25 cross
    CZ gates, the pentagon, and a transversal Z layer applied to |+>^5.
    The negative control drops the Z layer and must fail on at least one
    input.
    """
    rng = np.random.default_rng(seed)
    inputs = [svsim.random_state(rng, 5) for _ in range(n_random - 1)]
    inputs.insert(0, svsim.init(5, "+++++"))

    def lhs(reg: StateVector) -> StateVector:
        st = svsim.init(10, [reg, svsim.init(5, "00000")])
        svsim.run_circuit(st, HOP_FAN_ENCODE_B)
        return st

    # the two-register cluster without A's pentagon: the 25 cross CZs and
    # B's pentagon, then the Z layer on B
    graph_czs = [g for g in linear_cluster_graph(2).cz_gates() if max(g.targets) >= 5]
    z_layer = [Z(q) for q in range(5, 10)]

    def rhs(reg: StateVector, with_z_layer: bool) -> StateVector:
        st = svsim.init(10, [reg, svsim.init(5, "+++++")])
        return svsim.run_circuit(st, graph_czs + z_layer if with_z_layer else graph_czs)

    fids = [svsim.fidelity(lhs(reg), rhs(reg, True)) for reg in inputs]
    neg = [svsim.fidelity(lhs(reg), rhs(reg, False)) for reg in inputs]
    passed = all(f >= 1 - tol for f in fids) and any(f < 1 - tol for f in neg)
    return PushThroughReport(fids, neg, passed)


# -- horseshoe (four-register linear cluster) --------------------------------------


def build_horseshoe_circuit() -> list[Gate]:
    """Chain construction: encode, fan, encode, ... (51 two-qubit gates)."""
    c = code5.build_encoder(0)
    for hub in (5, 10, 15):
        if hub != 15:
            c.append(H(hub))
        c += fan(hub - 5, hub) + code5.build_encoder(hub)
    return c


def build_horseshoe_fig_order_circuit() -> list[Gate]:
    """Endpoint-first construction: encode A and D, bridge the hubs, fan."""
    return (code5.build_encoder(0) + code5.build_encoder(15)
            + [H(5), H(10), CZ(5, 10)] + fan(0, 5) + fan(15, 10)
            + code5.build_encoder(5) + code5.build_encoder(10))


def build_horseshoe_logical(mode: str = "tableau"):
    """Run the chain circuit with |+> information qubits.

    Returns (circuit, Tableau) in tableau mode or (circuit, StateVector) in
    the opt-in dense mode (20 qubits; slow but exact).
    """
    circuit = build_horseshoe_circuit()
    init = "+" + "0" * 14 + "+" + "0" * 4
    if mode == "tableau":
        return circuit, run_gates(Tableau.initialized(20, init), circuit)
    if mode == "dense":
        # each register joins, in its init symbols, just before the first
        # gate that touches it, so only D's encoder and the last fan run on
        # all 2^20 amplitudes
        st, start = svsim.init(5, init[:5]), 0
        for i, g in enumerate(circuit):
            if max(g.targets) >= st.n:
                svsim.run_circuit(st, circuit[start:i])
                st, start = svsim.init(st.n + 5, [st, svsim.init(5, init[st.n:st.n + 5])]), i
        svsim.run_circuit(st, circuit[start:])
        return circuit, st
    raise ValueError("mode must be 'tableau' or 'dense'")


def horseshoe_intermediate(psi: tuple[complex, complex],
                           phi: tuple[complex, complex]) -> tuple[StateVector, StateVector]:
    """Twelve-qubit slice after encoding the endpoints and bridging the hubs.

    Returns (constructed, target) where the target is
    |psi^L> (|0>|+> + |1>|->)/sqrt(2) |phi^L> assembled directly.
    """
    # qubits: A = 0..4, hubs 5 and 6, D = 7..11
    st = svsim.init(12, [StateVector(1, psi), *"000000", StateVector(1, phi), *"0000"])
    svsim.run_circuit(st, code5.build_encoder(0) + code5.build_encoder(7)
                      + [H(5), H(6), CZ(5, 6)])

    bell = np.array([1, 1, 1, -1], dtype=complex) / 2  # CZ|++>
    target = np.kron(np.kron(code5.encode_amplitudes(*psi).amps, bell),
                     code5.encode_amplitudes(*phi).amps)
    return st, StateVector(12, target)


# -- nine-gate entangler ----------------------------------------------------------


def nine_gate_graph() -> Graph:
    """Two GHZ-type stars centred on 0 and 5, bridged by the edge (0, 5)."""
    edges = [(0, 5)] + [(0, i) for i in range(1, 5)] + [(5, j) for j in range(6, 10)]
    return Graph.from_edges(10, edges)


def nine_gate_entangler() -> tuple[list[Gate], int]:
    """The nine-gate graph's circuit and its entangling-gate count."""
    c = nine_gate_graph().cz_gates()
    return c, two_qubit_gate_count(c)


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
