"""Gates and circuits.

A circuit is a gate list: the code builders and protocols emit one, and the
dense simulator, the tableau simulator and the lattice verifier run it.
Measurement and feed-forward belong to the protocols, which call the
simulators directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

GATE_KINDS = ("H", "X", "Y", "Z", "S", "SDG", "RZ", "CZ")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    xi: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CZ":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("CZ needs two distinct targets")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} takes exactly one target")
        if self.kind == "RZ":
            if self.xi is None or not math.isfinite(self.xi):
                raise ValueError("RZ needs a finite angle")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.targets) == 2


def H(q: int) -> Gate:
    return Gate("H", (q,))


def X(q: int) -> Gate:
    return Gate("X", (q,))


def Y(q: int) -> Gate:
    return Gate("Y", (q,))


def Z(q: int) -> Gate:
    return Gate("Z", (q,))


def S(q: int) -> Gate:
    return Gate("S", (q,))


def SDG(q: int) -> Gate:
    return Gate("SDG", (q,))


def RZ(q: int, xi: float) -> Gate:
    return Gate("RZ", (q,), xi)


def CZ(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


@dataclass
class Circuit:
    """Gates on qubits ``0..n-1``, applied in list order."""

    n: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        # constructor gates get the same range check as appended ones
        gates, self.gates = self.gates, []
        self.extend(gates)

    def append(self, gate: Gate) -> "Circuit":
        for t in gate.targets:
            if not 0 <= t < self.n:
                raise ValueError(f"gate target {t} out of range")
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def two_qubit_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)
