"""Dense state-vector simulator for exact verification of small protocols.

Amplitude ordering: qubit 0 is the most significant bit of the basis-state
index, so ``amps.reshape([2] * n)`` puts qubit q on axis q.  States are
mutated in place by ``apply`` and ``measure`` and also returned, so both
functional and imperative call styles work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .pauli import PauliString

MAX_QUBITS = 24
NORM_TOL = 1e-10
FORCE_TOL = 1e-12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj()

_LOCAL = {"0": np.array([1, 0], dtype=complex),
          "1": np.array([0, 1], dtype=complex),
          "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
          "-": np.array([1, -1], dtype=complex) / math.sqrt(2)}


class StateVector:
    """Normalized complex amplitudes over ``2**n`` basis states."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        self.n = n
        self.amps = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: int
    basis: str
    outcome: int
    probability: float
    xi: float | None = None


def init(n: int, assignment) -> StateVector:
    """Product state from per-qubit symbols in {'0','1','+','-'}."""
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the {MAX_QUBITS}-qubit dense budget")
    if len(assignment) != n:
        raise ValueError("assignment length must equal qubit count")
    amps = np.array([1.0 + 0j])
    for sym in assignment:
        amps = np.kron(amps, _LOCAL[str(sym)])
    return StateVector(n, amps)


def from_amplitudes(amps: np.ndarray) -> StateVector:
    n = int(round(math.log2(len(amps))))
    if 2**n != len(amps):
        raise ValueError("amplitude vector length must be a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the {MAX_QUBITS}-qubit dense budget")
    v = np.asarray(amps, dtype=complex)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1) > 1e-8:
        raise ValueError("amplitudes are not normalized")
    return StateVector(n, v / nrm)


def _apply_single(state: StateVector, u: np.ndarray, q: int) -> None:
    v = state.amps.reshape([2] * state.n)
    v = np.tensordot(u, v, axes=(1, q))
    state.amps = np.moveaxis(v, 0, q).reshape(-1)


def apply(state: StateVector, g: Gate) -> StateVector:
    for t in g.targets:
        if not 0 <= t < state.n:
            raise ValueError(f"gate target {t} out of range")
    if g.kind == "CZ":
        a, b = g.targets
        v = state.amps.reshape([2] * state.n)
        idx = [slice(None)] * state.n
        idx[a] = 1
        idx[b] = 1
        v[tuple(idx)] *= -1
    elif g.kind == "RZ":
        v = state.amps.reshape([2] * state.n)
        (t,) = g.targets
        idx0 = [slice(None)] * state.n
        idx0[t] = 0
        idx1 = [slice(None)] * state.n
        idx1[t] = 1
        v[tuple(idx0)] *= np.exp(-1j * g.xi / 2)
        v[tuple(idx1)] *= np.exp(1j * g.xi / 2)
    else:
        u = {"H": _H, "X": _X, "Y": _Y, "Z": _Z, "S": _S, "SDG": _SDG}[g.kind]
        _apply_single(state, u, g.targets[0])
    return state


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Apply i^phase X^x Z^z: the Z factors act first."""
    if p.n != state.n:
        raise ValueError("Pauli width mismatch")
    for q in range(p.n):
        if p.z_bit(q):
            apply(state, Gate("Z", (q,)))
        if p.x_bit(q):
            apply(state, Gate("X", (q,)))
    state.amps *= 1j ** p.phase
    return state


def _basis_kets(basis: str, xi: float | None):
    """Orthonormal measurement kets (outcome 0, outcome 1)."""
    if basis == "Z":
        return _LOCAL["0"], _LOCAL["1"]
    theta = 0.0 if basis == "X" else float(xi)
    k0 = np.array([1, np.exp(1j * theta)], dtype=complex) / math.sqrt(2)
    k1 = np.array([1, -np.exp(1j * theta)], dtype=complex) / math.sqrt(2)
    return k0, k1


def measure(state: StateVector, qubit: int, basis: str, rng=None,
            forced: int | None = None, xi: float | None = None):
    """Projective measurement; collapses in place.

    Returns (MeasurementRecord, state).  With ``forced`` the collapse is
    deterministic and the record stores the true pre-measurement probability
    of that outcome; forcing an outcome of probability below 1e-12 raises.
    """
    if basis == "XY" and xi is None:
        raise ValueError("XY basis needs an angle")
    k0, k1 = _basis_kets(basis, xi)
    v = state.amps.reshape([2] * state.n)
    a0 = np.tensordot(k0.conj(), v, axes=(0, qubit))
    a1 = np.tensordot(k1.conj(), v, axes=(0, qubit))
    p0 = float(np.vdot(a0, a0).real)
    p1 = float(np.vdot(a1, a1).real)

    if forced is not None:
        outcome = int(forced)
        prob = p0 if outcome == 0 else p1
        if prob < FORCE_TOL:
            raise ValueError(f"forced outcome {outcome} has probability {prob:.3e}")
    else:
        if rng is None:
            rng = np.random.default_rng()
        outcome = 0 if rng.random() < p0 / (p0 + p1) else 1
        prob = p0 if outcome == 0 else p1

    ket = k0 if outcome == 0 else k1
    part = a0 if outcome == 0 else a1
    collapsed = np.tensordot(ket, part, axes=0)  # ket axis first
    collapsed = np.moveaxis(collapsed, 0, qubit)
    state.amps = (collapsed / math.sqrt(prob)).reshape(-1)
    return MeasurementRecord(qubit, basis, outcome, prob, xi), state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, the global-phase-insensitive overlap."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a.amps, b.amps)))


def partial_trace_is_pure(state: StateVector, subset) -> tuple[bool, StateVector | None]:
    """Extract the pure state on ``subset`` if the cut is unentangled.

    Returns (True, sub-state) when the reduced state on ``subset`` is pure
    within tolerance, (False, None) otherwise.
    """
    keep = sorted(subset)
    rest = [q for q in range(state.n) if q not in keep]
    v = state.amps.reshape([2] * state.n)
    v = np.transpose(v, keep + rest)
    m = v.reshape(2 ** len(keep), 2 ** len(rest))
    svals = np.linalg.svd(m, compute_uv=False)
    if 1 - svals[0] ** 2 > NORM_TOL:
        return False, None
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    sub = u[:, 0] * (svals[0])
    sub = sub / np.linalg.norm(sub)
    return True, StateVector(len(keep), sub)


def extract_pure(state: StateVector, subset) -> StateVector:
    ok, sub = partial_trace_is_pure(state, subset)
    if not ok:
        raise ValueError("residual entanglement across the requested cut")
    return sub


def run_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the circuit's gates in order."""
    for g in circuit.gates:
        apply(state, g)
    return state
