"""Signed Pauli strings and Clifford conjugation rules.

A Pauli operator on n qubits is stored in the phased X/Z binary form

    P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}

with ``x`` and ``z`` kept as integer bitmasks (bit q = qubit q) and ``phase``
an exponent of i modulo 4.  In this normal form Y appears as the bit pair
(1, 1) with the factor i folded into the global phase: Y = i * XZ.

The Clifford gate rules are written here once: ``clifford_kind`` reads an
RZ angle and ``LOCAL_RULES`` updates the bits of a single-qubit gate's
target, for a PauliString and for the bit columns of a tableau alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PHASE_LABELS = ("+", "+i", "-", "-i")
_LETTER_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

CLIFFORD_ANGLE_TOL = 1e-12


class NonCliffordGateError(ValueError):
    """Raised when a Clifford-only routine receives a non-Clifford gate."""


@dataclass(frozen=True)
class PauliString:
    """Immutable signed Pauli operator on ``n`` qubits."""

    n: int
    x: int = 0
    z: int = 0
    phase: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit vectors longer than qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """Single-qubit X, Y or Z embedded in an n-qubit identity."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        xb, zb = _BITS_FOR_LETTER[kind]
        ph = 1 if kind == "Y" else 0
        return cls(n, xb << qubit, zb << qubit, ph)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse e.g. '+XZIIY', '-ZZ', '+iY', 'XI' (leading sign optional)."""
        s = label.strip()
        phase = 0
        for pre, k in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if s.startswith(pre):
                phase = k
                s = s[len(pre):]
                break
        x = z = 0
        for q, ch in enumerate(s):
            if ch not in _BITS_FOR_LETTER:
                raise ValueError(f"bad Pauli letter {ch!r} in {label!r}")
            xb, zb = _BITS_FOR_LETTER[ch]
            x |= xb << q
            z |= zb << q
            if ch == "Y":
                phase += 1
        return cls(len(s), x, z, phase % 4)

    # -- queries -----------------------------------------------------------

    def x_bit(self, q: int) -> int:
        return (self.x >> q) & 1

    def z_bit(self, q: int) -> int:
        return (self.z >> q) & 1

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def to_label(self) -> str:
        """Render as sign prefix plus letters, e.g. '+XZIIY'."""
        letters = []
        n_y = 0
        for q in range(self.n):
            letter = _LETTER_FOR_BITS[(self.x_bit(q), self.z_bit(q))]
            if letter == "Y":
                n_y += 1
            letters.append(letter)
        k = (self.phase - n_y) % 4
        return PHASE_LABELS[k] + "".join(letters)

    def __str__(self) -> str:
        return self.to_label()

    def matrix(self):
        """Dense matrix (qubit 0 = most significant factor).  Test helper."""
        import numpy as np

        if self.n > 12:
            raise ValueError("dense matrix limited to n <= 12")
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        label = self.to_label()
        sign = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}
        pre = "+i" if label.startswith("+i") else "-i" if label.startswith("-i") else label[0]
        out = np.array([[sign[pre]]], dtype=complex)
        for ch in label[len(pre):]:
            out = np.kron(out, single[ch])
        return out


def compose_pauli(p: PauliString, q: PauliString) -> PauliString:
    """Operator product p*q with the symplectic phase rule."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


# -- Clifford conjugation ---------------------------------------------------

_QUARTER_TURNS = ("NOP", "S", "Z", "SDG")


def clifford_kind(gate) -> str:
    """The kind of a circuit.Gate, with an RZ at a multiple of pi/2 read as
    NOP, S, Z or SDG; raises NonCliffordGateError at any other angle."""
    if gate.kind != "RZ":
        return gate.kind
    k = gate.xi / (math.pi / 2)
    r = round(k)
    if abs(k - r) > CLIFFORD_ANGLE_TOL / (math.pi / 2):
        raise NonCliffordGateError(f"Rz({gate.xi}) is not Clifford")
    return _QUARTER_TURNS[r % 4]


# Single-qubit Clifford kind -> rule mapping the target's x and z bits to
# (x flip, z flip, phase gain), None for a bit the gate never flips.  The
# bits are ints for a PauliString and numpy columns for a tableau.
LOCAL_RULES = {
    "H": lambda x, z: (x ^ z, x ^ z, 2 * (x & z)),
    "S": lambda x, z: (None, x, x),
    "SDG": lambda x, z: (None, x, 3 * x),
    "X": lambda x, z: (None, None, 2 * z),
    "Y": lambda x, z: (None, None, 2 * (x ^ z)),
    "Z": lambda x, z: (None, None, 2 * x),
}


def conjugate_cz_layer(p: PauliString, pairs) -> PauliString:
    """Return ``p`` conjugated by CZ on every qubit pair (a, b) in ``pairs``.

    CZ maps X_a to X_a Z_b and reads only X bits, which it never changes,
    so the CZs of a list commute: z_a ^= x_b, z_b ^= x_a and the phase
    gains 2 x_a x_b per pair, in any order.
    """
    x, z, phase = p.x, p.z, p.phase
    for a, b in pairs:
        xa, xb = (x >> a) & 1, (x >> b) & 1
        z ^= (xb << a) | (xa << b)
        phase += 2 * (xa & xb)
    return PauliString(p.n, x, z, phase % 4)


def conjugate_pauli(p: PauliString, gate) -> PauliString:
    """Return g p g^dagger for a Clifford gate ``g`` (a circuit.Gate)."""
    kind = clifford_kind(gate)
    if kind == "NOP":
        return p
    if kind == "CZ":
        return conjugate_cz_layer(p, (gate.targets,))
    (t,) = gate.targets
    fx, fz, d = LOCAL_RULES[kind]((p.x >> t) & 1, (p.z >> t) & 1)
    return PauliString(p.n, p.x ^ ((fx or 0) << t), p.z ^ ((fz or 0) << t),
                       (p.phase + d) % 4)
