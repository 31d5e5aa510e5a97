"""The five-qubit code: logical states, encoder/decoder, syndrome lookup.

Qubits are 0-based internally; the 1-based labels used in documentation and
the CLI map as qubit k <-> index k-1.  The encoder splits into two layers:
E1 takes |psi>|0000> to the X-basis GHZ-type superposition and E2 is the
five-cycle of CZ gates.  The decoder is the exact adjoint; measuring qubits
1..4 (0-based) in Z afterwards yields the four syndrome bits (a,b,c,d).
"""

from __future__ import annotations

import re

import numpy as np

from . import svsim
from .circuit import CZ, Gate, H, Z
from .pauli import PauliString, compose_pauli
from .svsim import StateVector

# Logical |0>: sixteen +/- 1/4 amplitudes.
_ZERO_PLUS = ("00000", "10010", "01001", "10100", "01010", "00101")
_ZERO_MINUS = ("11011", "00110", "11000", "11101", "00011",
               "11110", "01111", "10001", "01100", "10111")

PENTAGON_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))

# Signed stabilizer generators of the code space (cyclic X Z Z X I family).
STABILIZER_GENERATORS = ("+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ")

# Error label -> (syndrome bits abcd from qubits 2..5, residual on qubit 1).
SYNDROME_TABLE: dict[str, tuple[str, str]] = {
    "I": ("0000", "I"),
    "Z2": ("1000", "I"),
    "Z3": ("0100", "I"),
    "Z4": ("0010", "I"),
    "Z5": ("0001", "I"),
    "X1": ("1001", "X"),
    "X3": ("1010", "X"),
    "X4": ("0101", "X"),
    "X3Z3": ("1110", "X"),
    "X4Z4": ("0111", "X"),
    "X1Z1": ("0110", "XZ"),
    "X2": ("1011", "XZ"),
    "X5": ("1101", "XZ"),
    "X2Z2": ("0011", "XZ"),
    "X5Z5": ("1100", "XZ"),
    "Z1": ("1111", "Z"),
}


def _amps_logical_zero() -> np.ndarray:
    amps = np.zeros(32, dtype=complex)
    for t in _ZERO_PLUS:
        amps[int(t, 2)] = 0.25
    for t in _ZERO_MINUS:
        amps[int(t, 2)] = -0.25
    return amps


_L0 = _amps_logical_zero()


def _x_all(amps: np.ndarray) -> np.ndarray:
    out = amps.reshape([2] * 5)
    out = out[::-1, ::-1, ::-1, ::-1, ::-1]
    return out.reshape(-1)


_L1 = _x_all(_L0)


def logical_zero() -> StateVector:
    return StateVector(5, _L0.copy())


def logical_one() -> StateVector:
    return StateVector(5, _L1.copy())


def logical_plus() -> StateVector:
    return StateVector(5, (_L0 + _L1) / np.sqrt(2))


def logical_minus() -> StateVector:
    return StateVector(5, (_L0 - _L1) / np.sqrt(2))


def encode_amplitudes(alpha: complex, beta: complex) -> StateVector:
    """alpha |0L> + beta |1L>, assembled directly from the code words."""
    v = alpha * _L0 + beta * _L1
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1) <= 1e-8:  # also rejects a nan norm
        raise ValueError("(alpha, beta) must be normalized")
    return StateVector(5, v / nrm)


def logical_x() -> PauliString:
    return PauliString.from_label("+XXXXX")


def logical_z() -> PauliString:
    return PauliString.from_label("+ZZZZZ")


def code_stabilizers() -> list[PauliString]:
    return [PauliString.from_label(s) for s in STABILIZER_GENERATORS]


# -- circuits -----------------------------------------------------------------


def encoder_layers(offset: int = 0) -> list[list[Gate]]:
    """The encoder on qubits offset..offset+4 as five layers, each of
    commuting self-inverse gates: H on all five, the star CZs, H on the
    centre, Z on all five (together E1), then the pentagon (E2)."""
    reg = range(offset, offset + 5)
    return [[H(q) for q in reg],
            [CZ(offset, q) for q in reg[1:]],
            [H(offset)],
            [Z(q) for q in reg],
            [CZ(offset + a, offset + b) for a, b in PENTAGON_EDGES]]


def build_E2(offset: int = 0) -> list[Gate]:
    """Pentagon of CZ gates (the five-cycle entangler)."""
    return encoder_layers(offset)[4]


def build_encoder(offset: int = 0) -> list[Gate]:
    return [g for layer in encoder_layers(offset) for g in layer]


def build_decoder(offset: int = 0) -> list[Gate]:
    """Adjoint of the encoder: its layers in reverse order.  A layer of
    commuting self-inverse gates is its own adjoint."""
    return [g for layer in reversed(encoder_layers(offset)) for g in layer]


def encode(psi: tuple[complex, complex]) -> StateVector:
    """Run the E2 E1 circuit on |psi>|0000>."""
    state = svsim.from_amplitudes(svsim.init(5, [StateVector(1, psi)] + ["0"] * 4).amps)
    svsim.run_circuit(state, build_encoder())
    return state


# -- decoding and correction ---------------------------------------------------


def decode_and_syndrome(state: StateVector):
    """Apply the decoder, read the syndrome, return the residual qubit.

    Returns (syndrome string, 1-qubit StateVector).  Any 5-qubit state is
    accepted; for states one Pauli away from the code space the syndrome
    bits are deterministic.
    """
    if state.n != 5:
        raise ValueError("decoder expects a 5-qubit register")
    svsim.run_circuit(state, build_decoder())
    syndrome, _ = read_syndrome(lambda q: svsim.measure(state, q, "Z")[0].outcome)
    return syndrome, svsim.extract_pure(state, [0])


_CORRECTION_FOR_RESIDUAL = {
    "I": PauliString.identity(1),
    "X": PauliString.single(1, 0, "X"),
    "XZ": compose_pauli(PauliString.single(1, 0, "X"), PauliString.single(1, 0, "Z")),
    "Z": PauliString.single(1, 0, "Z"),
}


_RESIDUAL_FOR_SYNDROME = dict(SYNDROME_TABLE.values())


def read_syndrome(measure_z) -> tuple[str, PauliString]:
    """The syndrome of a decoded register and the correction for its qubit 0.

    ``measure_z(q)`` gives the Z outcome, 0 or 1, of qubit q; it is called
    for q = 1, 2, 3, 4, the table's (a, b, c, d) order, once each.  Returns
    the syndrome string, such as '1010', and its table correction.
    """
    syndrome = "".join(str(measure_z(q)) for q in range(1, 5))
    return syndrome, correction_for(syndrome)


def correction_label_for(syndrome: str) -> str:
    """Outcome-column letter ('I', 'X', 'XZ' or 'Z') for a syndrome string."""
    if syndrome not in _RESIDUAL_FOR_SYNDROME:
        raise ValueError(f"bad syndrome {syndrome!r}")
    return _RESIDUAL_FOR_SYNDROME[syndrome]


def correction_for(syndrome: str) -> PauliString:
    """Table lookup: the single-qubit operator restoring |psi> on qubit 1."""
    return _CORRECTION_FOR_RESIDUAL[correction_label_for(syndrome)]


def error_operator(label: str) -> PauliString:
    """Five-qubit Pauli for a table label like 'X3', 'Z1', 'X4Z4' (1-based qubits)."""
    if label == "I":
        return PauliString.identity(5)
    match = re.fullmatch(r"[XYZ]([1-5])|X([1-5])Z\2", label)
    if match is None:
        raise ValueError(f"bad error label {label!r}: expected I, X/Y/Z on a qubit "
                         "1..5, or XqZq")
    q = int(match[1] or match[2]) - 1
    p = PauliString.single(5, q, label[0])
    if len(label) == 4:
        p = compose_pauli(p, PauliString.single(5, q, "Z"))
    return p


def syndrome_table_rows() -> list[tuple[str, str, str]]:
    """(error label, syndrome, outcome column) rows in table order."""
    out = []
    for label, (syn, residual) in SYNDROME_TABLE.items():
        shown = "None" if label == "I" else label
        out.append((shown, syn, residual))
    return out


def simulated_syndrome_table(seed: int = 0) -> list[tuple[str, str, str]]:
    """Re-derive the table by simulation: encode, corrupt, decode, classify."""
    psi = svsim.random_state(np.random.default_rng(seed), 1)
    rows = []
    for label in SYNDROME_TABLE:
        state = encode(psi.amps)
        err = error_operator(label)
        svsim.apply_pauli(state, err)
        syn, residual = decode_and_syndrome(state)
        which = "?"
        for name, corr in _CORRECTION_FOR_RESIDUAL.items():
            fixed = svsim.apply_pauli(residual.copy(), corr)
            if svsim.fidelity(psi, fixed) > 1 - 1e-9:
                which = name
                break
        shown = "None" if label == "I" else label
        rows.append((shown, syn, which))
    return rows
