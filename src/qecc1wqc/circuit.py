"""Gates and circuits.

A circuit is a plain ``list[Gate]``: the code builders and protocols emit
one, and the dense simulator, the tableau simulator and the lattice verifier
run it, each checking every target against the width of the state it runs
on.  Measurement and feed-forward belong to the protocols, which call the
simulators directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def two_qubit_gate_count(gates: list[Gate]) -> int:
    return sum(1 for g in gates if g.is_two_qubit)
