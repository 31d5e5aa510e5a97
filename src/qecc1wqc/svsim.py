"""Dense state-vector simulator for exact verification of small protocols.

Amplitude ordering: qubit 0 is the most significant bit of the basis-state
index, so ``amps.reshape([2] * n)`` puts qubit q on axis q, and
``amps.reshape(2**q, 2, -1)`` puts it on the middle axis, the view the gate
and measurement kernels work on.  States are mutated in place by ``apply``
and ``measure`` and also returned, so both functional and imperative call
styles work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate
from .pauli import PauliString

MAX_QUBITS = 24
NORM_TOL = 1e-10
FORCE_TOL = 1e-12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_LOCAL = {"0": np.array([1, 0], dtype=complex),
          "1": np.array([0, 1], dtype=complex),
          "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
          "-": np.array([1, -1], dtype=complex) / math.sqrt(2)}


class StateVector:
    """Normalized complex amplitudes over ``2**n`` basis states."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        self.n = n
        # the kernels update reshaped views of amps in place
        self.amps = np.ascontiguousarray(amps, dtype=complex)
        if self.amps.shape != (1 << n,):
            raise ValueError(
                f"{n} qubits need {1 << n} amplitudes, got shape {self.amps.shape}")

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
        local = _LOCAL.get(str(sym))
        if local is None:
            raise ValueError(f"symbol {sym!r} is not one of 0, 1, +, -")
        # the products np.kron forms, without its overhead
        amps = np.multiply.outer(amps, local).reshape(-1)
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


# Gate kernels.  Each works on ``amps.reshape(2**q, 2, 2**(n-q-1))``, whose
# middle axis is qubit q: ``[:, 0, :]`` holds the amplitudes with that bit 0,
# ``[:, 1, :]`` those with it 1.  Permutations and phases are exact element
# steps.  H is the one gate that mixes the halves; every form below runs the
# BLAS zgemm that ``numpy.tensordot`` runs (2x2 matrix times 2-row operands),
# so it reproduces the bits of the tensordot formulation.  Only the sign of
# an exact zero can differ from it, here and in the element steps.
_HALF_PHASE = {"Z": -1, "S": 1j, "SDG": -1j}
_Y_PHASES = np.array([[-1j], [1j]])  # Y|0> = i|1>, Y|1> = -i|0>
_H_T = _H.T
_SLAB = 1 << 15  # amplitudes per H product, so its temporaries stay in cache
_MIN_BLOCK = 32  # narrower blocks cost more in BLAS calls than a gather


def _halves(amps: np.ndarray, q: int) -> np.ndarray:
    return amps.reshape(1 << q, 2, -1)


def _hadamard(amps: np.ndarray, q: int) -> None:
    """H on qubit q, in place, one slab of at most _SLAB amplitudes at a time."""
    v = _halves(amps, q)
    blocks, _, width = v.shape
    cols = min(width, _SLAB // 2)
    rows = max(1, _SLAB // (2 * width))
    for i in range(0, blocks, rows):
        for j in range(0, width, cols):
            _hadamard_slab(v[i:i + rows, :, j:j + cols])


def _hadamard_slab(s: np.ndarray) -> None:
    blocks, _, width = s.shape
    if width == 1:  # pairs are adjacent: one (blocks x 2) @ (2 x 2) product
        s[...] = (s.reshape(-1, 2) @ _H_T).reshape(s.shape)
    elif width >= _MIN_BLOCK:  # a (2 x 2) @ (2 x width) product per block
        s[...] = np.matmul(_H, s)
    else:  # gather the halves into two rows for one product, scatter back
        prod = np.dot(_H, s.transpose(1, 0, 2).reshape(2, -1))
        s[...] = prod.reshape(2, blocks, width).transpose(1, 0, 2)


def _cz(amps: np.ndarray, a: int, b: int) -> None:
    lo, hi = sorted((a, b))
    amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)[:, 1, :, 1, :] *= -1


def apply(state: StateVector, g: Gate) -> StateVector:
    for t in g.targets:
        if not 0 <= t < state.n:
            raise ValueError(f"gate target {t} out of range")
    kind, q = g.kind, g.targets[0]
    if kind == "CZ":
        _cz(state.amps, q, g.targets[1])
    elif kind == "H":
        _hadamard(state.amps, q)
    elif kind in _HALF_PHASE:
        _halves(state.amps, q)[:, 1, :] *= _HALF_PHASE[kind]
    elif kind == "RZ":
        v = _halves(state.amps, q)
        v[:, 0, :] *= np.exp(-1j * g.xi / 2)
        v[:, 1, :] *= np.exp(1j * g.xi / 2)
    elif kind == "X":
        state.amps = _halves(state.amps, q)[:, ::-1, :].reshape(-1)
    else:  # Y
        state.amps = (_halves(state.amps, q)[:, ::-1, :] * _Y_PHASES).reshape(-1)
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
    if not (isinstance(qubit, (int, np.integer)) and 0 <= qubit < state.n):
        raise ValueError(f"qubit {qubit} is not in 0..{state.n - 1}")
    if basis not in ("Z", "X", "XY"):
        raise ValueError(f"basis {basis!r} is not one of Z, X, XY")
    if basis == "XY" and xi is None:
        raise ValueError("XY basis needs an angle")
    if basis == "XY" and not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if forced not in (None, 0, 1):
        raise ValueError(f"forced outcome {forced!r} is not one of None, 0, 1")
    k0, k1 = _basis_kets(basis, xi)
    v = _halves(state.amps, qubit)
    # The bras contract qubit's two rows, gathered as tensordot gathers them,
    # in the same BLAS call: the (1 x 2) bra times the (2 x N/2) rows.
    rows = v.transpose(1, 0, 2).reshape(2, -1)
    a0 = np.dot(k0.conj().reshape(1, 2), rows)
    a1 = np.dot(k1.conj().reshape(1, 2), rows)
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
    # ket (x) part as tensordot forms it, a (2 x 1) @ (1 x N/2) BLAS product;
    # its two rows go back onto qubit's axis
    collapsed = np.dot(ket.reshape(2, 1), part).reshape(2, len(v), -1)
    np.divide(collapsed.transpose(1, 0, 2), math.sqrt(prob), out=v)
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


def run_circuit(state: StateVector, gates: list[Gate]) -> StateVector:
    """Apply ``gates`` in order."""
    for g in gates:
        apply(state, g)
    return state
