"""Signed Pauli strings and Clifford conjugation rules.

A Pauli operator on n qubits is stored in the phased X/Z binary form

    P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}

with ``x`` and ``z`` kept as integer bitmasks (bit q = qubit q) and ``phase``
an exponent of i modulo 4.  In this normal form Y appears as the bit pair
(1, 1) with the factor i folded into the global phase: Y = i * XZ.
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


def _popcount(v: int) -> int:
    return bin(v).count("1")


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
        return _popcount(self.x | self.z)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def is_hermitian(self) -> bool:
        return (self.phase - _popcount(self.x & self.z)) % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator (sign in front of the letters)."""
        k = (self.phase - _popcount(self.x & self.z)) % 4
        if k == 0:
            return 1
        if k == 2:
            return -1
        raise ValueError("operator is not Hermitian, sign undefined")

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        anti = _popcount(self.x & other.z) + _popcount(self.z & other.x)
        return anti % 2 == 0

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
    phase = (p.phase + q.phase + 2 * _popcount(p.z & q.x)) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


# -- Clifford conjugation ---------------------------------------------------

def _clifford_angle_index(xi: float) -> int:
    """Map an Rz angle to a quarter-turn index 0..3, or raise."""
    k = xi / (math.pi / 2)
    r = round(k)
    if abs(k - r) > CLIFFORD_ANGLE_TOL / (math.pi / 2):
        raise NonCliffordGateError(f"Rz({xi}) is not Clifford")
    return r % 4


def conjugate_pauli(p: PauliString, gate) -> PauliString:
    """Return g p g^dagger for a Clifford gate ``g`` (a circuit.Gate)."""
    kind = gate.kind
    x, z, phase = p.x, p.z, p.phase

    if kind == "RZ":
        idx = _clifford_angle_index(gate.xi)
        kind = ("NOP", "S", "Z", "SDG")[idx]

    if kind == "NOP":
        return p

    if kind == "CZ":
        a, b = gate.targets
        xa, xb = (x >> a) & 1, (x >> b) & 1
        z ^= (xb << a) | (xa << b)
        phase += 2 * (xa & xb)
        return PauliString(p.n, x, z, phase % 4)

    (t,) = gate.targets
    xt, zt = (x >> t) & 1, (z >> t) & 1
    if kind == "H":
        x ^= (xt ^ zt) << t
        z ^= (xt ^ zt) << t
        phase += 2 * (xt & zt)
    elif kind == "S":
        z ^= xt << t
        phase += xt
    elif kind == "SDG":
        z ^= xt << t
        phase += 3 * xt
    elif kind == "X":
        phase += 2 * zt
    elif kind == "Z":
        phase += 2 * xt
    elif kind == "Y":
        phase += 2 * (xt ^ zt)
    else:
        raise NonCliffordGateError(f"cannot conjugate by gate kind {kind!r}")
    return PauliString(p.n, x, z, phase % 4)
