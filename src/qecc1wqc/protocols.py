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
from dataclasses import dataclass, field

import numpy as np

from . import code5, svsim
from .circuit import CZ, Circuit, Gate, H, Z
from .graphs import Graph, graph_to_tableau, pivot, pivot_layer_gates, tableau_to_graph
from .pauli import PauliString
from .svsim import StateVector
from .tableau import Tableau, run_gates

GHZ_VERIFY_DEFAULT_ROUNDS = 4


# -- logical two-qubit cluster state -----------------------------------------


def lcs2_graph() -> Graph:
    """Ten-vertex graph: two pentagons plus all 25 cross edges."""
    edges = []
    for a, b in code5.PENTAGON_EDGES:
        edges.append((a, b))
        edges.append((a + 5, b + 5))
    for m in range(5):
        for n in range(5, 10):
            edges.append((m, n))
    return Graph.from_edges(10, edges)


def build_lcs2_circuit() -> Circuit:
    c = Circuit(10)
    for m in range(5):
        for n in range(5, 10):
            c.append(CZ(m, n))
    for a, b in code5.PENTAGON_EDGES:
        c.append(CZ(a, b))
        c.append(CZ(a + 5, b + 5))
    return c


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
    c = build_lcs2_circuit()
    state = svsim.init(10, "+" * 10)
    svsim.run_circuit(state, c)
    return c, state, lcs2_graph()


# -- logical-physical cluster state -------------------------------------------


def build_logical_physical_circuit() -> Circuit:
    """Encode qubits 0..4, then fan them onto the hub qubit 5."""
    c = Circuit(6)
    c.extend(code5.build_encoder(0, 6).instructions)
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
    c.extend(code5.build_encoder(0, 10).instructions)
    c.append(H(5))
    for n in range(5):
        c.append(CZ(n, 5))
    c.extend(code5.build_encoder(5, 10).instructions)
    if include_decode:
        c.extend(code5.build_decoder(0, 10).instructions)
    return c


# The hop cut at its two error windows: after encoding A ("after_encode_a")
# and after encoding B ("protected").
_HOP = build_teleport_circuit(include_decode=True).instructions
_A_END = len(code5.build_encoder(0, 10).instructions)
_B_END = len(_HOP) - len(code5.build_decoder(0, 10).instructions)
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

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "syndrome": self.syndrome,
            "correction": self.correction,
            "injected_error": self.injected_error,
            "error_stage": self.error_stage,
            "fidelity": self.fidelity,
            "two_qubit_gates": self.two_qubit_gates,
            "xi": self.xi,
            "measurement_probability": self.measurement_probability,
        }


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
        syndrome=str(syndrome),
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
    ``state``; returns (Syndrome, XY MeasurementRecord, B StateVector).
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if error is not None and error_stage == "after_encode_a":
        svsim.apply_pauli(state, error)
    svsim.run_circuit(state, HOP_FAN_ENCODE_B)
    if error is not None and error_stage == "protected":
        svsim.apply_pauli(state, error)
    svsim.run_circuit(state, HOP_DECODE_A)
    bits = tuple(svsim.measure(state, q, "Z", rng=rng)[0].outcome for q in range(1, 5))
    syndrome = code5.Syndrome(bits)
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

    def to_json_obj(self) -> dict:
        return {
            "fidelities": self.fidelities,
            "negative_control_fidelities": self.negative_control_fidelities,
            "passed": self.passed,
        }


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


def horseshoe_graph() -> Graph:
    """Twenty-vertex graph: four pentagons, K5,5 between consecutive registers."""
    edges = []
    for r in range(4):
        base = 5 * r
        for a, b in code5.PENTAGON_EDGES:
            edges.append((base + a, base + b))
    for r in range(3):
        for m in range(5 * r, 5 * r + 5):
            for n in range(5 * r + 5, 5 * r + 10):
                edges.append((m, n))
    return Graph.from_edges(20, edges)


def build_horseshoe_circuit() -> Circuit:
    """Chain construction: encode, fan, encode, ... (51 two-qubit gates)."""
    c = Circuit(20)
    c.extend(code5.build_encoder(0, 20).instructions)
    for hub, src in ((5, 0), (10, 5), (15, 10)):
        if hub != 15:
            c.append(H(hub))
        for q in range(src, src + 5):
            c.append(CZ(q, hub))
        c.extend(code5.build_encoder(hub, 20).instructions)
    return c


def build_horseshoe_fig_order_circuit() -> Circuit:
    """Endpoint-first construction: encode A and D, bridge the hubs, fan."""
    c = Circuit(20)
    c.extend(code5.build_encoder(0, 20).instructions)
    c.extend(code5.build_encoder(15, 20).instructions)
    c.append(H(5))
    c.append(H(10))
    c.append(CZ(5, 10))
    for q in range(5):
        c.append(CZ(q, 5))
    for q in range(15, 20):
        c.append(CZ(q, 10))
    c.extend(code5.build_encoder(5, 20).instructions)
    c.extend(code5.build_encoder(10, 20).instructions)
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
        return circuit, run_gates(Tableau.initialized(20, init), circuit.gates())
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


# -- GHZ-verified encoding -------------------------------------------------------


@dataclass
class GhzVerifyRound:
    generator: str
    syndrome_bit: int
    ancilla_checks: list[int] = field(default_factory=list)
    ancilla_ok: bool = True


@dataclass
class GhzVerifyReport:
    rounds: list[GhzVerifyRound]
    flagged: bool
    ancilla_failures: int

    def to_json_obj(self) -> dict:
        return {
            "rounds": [
                {
                    "generator": r.generator,
                    "syndrome_bit": r.syndrome_bit,
                    "ancilla_checks": r.ancilla_checks,
                    "ancilla_ok": r.ancilla_ok,
                }
                for r in self.rounds
            ],
            "flagged": self.flagged,
            "ancilla_failures": self.ancilla_failures,
        }


def _controlled_pauli(state: StateVector, control: int, target: int, letter: str) -> None:
    if letter == "Z":
        svsim.apply(state, CZ(control, target))
        return
    if letter == "Y":
        svsim.apply(state, Gate("SDG", (target,)))
    svsim.apply(state, H(target))
    svsim.apply(state, CZ(control, target))
    svsim.apply(state, H(target))
    if letter == "Y":
        svsim.apply(state, Gate("S", (target,)))


def ghz_verify_logical(state: StateVector, rounds: int = GHZ_VERIFY_DEFAULT_ROUNDS,
                       ancilla_error: PauliString | None = None,
                       verify_ancilla: bool = True,
                       rng=None) -> GhzVerifyReport:
    """Measure the code generators through four-qubit GHZ ancillas.

    Each round entangles one GHZ (cat) qubit with each data qubit in the
    support of one stabilizer generator; the parity of the X-basis cat
    outcomes is that generator's syndrome bit.  Cat states are optionally
    self-checked with pairwise parity probes before use, so a corrupted
    ancilla is reported as an ancilla failure rather than a data error.
    """
    if state.n != 5:
        raise ValueError("expected a 5-qubit register")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    gens = code5.code_stabilizers()
    out_rounds: list[GhzVerifyRound] = []
    data = state.copy()
    for r in range(rounds):
        gen = gens[r % len(gens)]
        support = [q for q in range(5) if gen.x_bit(q) or gen.z_bit(q)]
        letters = []
        for q in support:
            xb, zb = gen.x_bit(q), gen.z_bit(q)
            letters.append("Y" if xb and zb else ("X" if xb else "Z"))
        k = len(support)
        # data (0..4) + cat (5..4+k) + probe (5+k)
        n_tot = 5 + k + (1 if verify_ancilla else 0)
        full = StateVector(n_tot, np.kron(
            data.amps,
            svsim.init(n_tot - 5, "0" * (n_tot - 5)).amps))
        # cat = (|0..0> + |1..1>)/sqrt(2) via H + CNOT chain
        svsim.apply(full, H(5))
        for j in range(1, k):
            svsim.apply(full, H(5 + j))
            svsim.apply(full, CZ(5 + j - 1, 5 + j))
            svsim.apply(full, H(5 + j))
        if ancilla_error is not None:
            err = ancilla_error
            shifted = PauliString(n_tot, err.x << 5, err.z << 5, err.phase)
            svsim.apply_pauli(full, shifted)
        checks = []
        ancilla_ok = True
        if verify_ancilla:
            probe = 5 + k
            for (i, j) in [(a, a + 1) for a in range(k - 1)]:
                for cat_q in (5 + i, 5 + j):
                    svsim.apply(full, H(probe))
                    svsim.apply(full, CZ(cat_q, probe))
                    svsim.apply(full, H(probe))
                rec, _ = svsim.measure(full, probe, "Z", rng=rng)
                checks.append(rec.outcome)
                if rec.outcome:
                    ancilla_ok = False
                    svsim.apply(full, Gate("X", (probe,)))  # reset for next check
        for j, (q, letter) in enumerate(zip(support, letters)):
            _controlled_pauli(full, 5 + j, q, letter)
        parity = 0
        for j in range(k):
            rec, _ = svsim.measure(full, 5 + j, "X", rng=rng)
            parity ^= rec.outcome
        out_rounds.append(GhzVerifyRound(gen.to_label(), parity, checks, ancilla_ok))
        data = svsim.extract_pure(full, [0, 1, 2, 3, 4])
    flagged = any(r.syndrome_bit for r in out_rounds)
    failures = sum(0 if r.ancilla_ok else 1 for r in out_rounds)
    return GhzVerifyReport(out_rounds, flagged, failures)


# -- nine-gate entangler ----------------------------------------------------------


def nine_gate_entangler() -> tuple[Circuit, int]:
    """Two GHZ-type stars bridged by one gate; nine entangling gates total."""
    c = Circuit(10)
    c.append(CZ(0, 5))
    for i in range(1, 5):
        c.append(CZ(0, i))
    for j in range(6, 10):
        c.append(CZ(5, j))
    return c, c.two_qubit_gate_count()


def nine_gate_graph() -> Graph:
    edges = [(0, 5)] + [(0, i) for i in range(1, 5)] + [(5, j) for j in range(6, 10)]
    return Graph.from_edges(10, edges)


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
