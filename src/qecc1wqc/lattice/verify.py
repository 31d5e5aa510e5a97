"""Schedule verification against circuit-built reference tableaux.

Decide by membership, explain by elimination.  The Pauli frame F changes
only signs, so the data register is in the reference state exactly when
the live tableau holds F times that state there, F read on the data qubits
alone.  The verdict runs that part of F on a copy of the reference, maps
each of its stabilizer generators onto the lattice qubits of the data
labels, in label order, and asks whether the live tableau has it, sign
included, in its stabilizer group (:meth:`Tableau.stabilizes`).  Only a
failed verdict extracts the data register by row reduction, to say why:
labels sharing a cell, the lowest cell still entangled with the data, or
the first canonical generator that differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import code5, protocols
from ..pauli import PauliString
from ..tableau import Tableau, run_gates
from .engine import Lattice, LatticeError
from .layouts import build_schedule, run_schedule


def _labels(first: int, last: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(first, last + 1))


# Reference states: schedule name -> (initial symbols, circuit, data-label
# order).  The circuits are the protocol builders the schedules compile.
REFERENCES = {
    "E1_lattice": ("+++++", code5.encoder_layers()[1], _labels(1, 5)),
    "E2_lattice": ("+++++", code5.build_E2(), _labels(1, 5)),
    "GHZ6_lattice": ("++++++", protocols.fan(0, 5), _labels(1, 6)),
    "LP_full": ("+00000", protocols.build_logical_physical_circuit(), _labels(1, 6)),
    "horseshoe_lattice": ("+0000" + "0" * 10 + "+0000",
                          protocols.build_horseshoe_fig_order_circuit(), _labels(1, 20)),
    # the hop teleports |+> with xi = 0, leaving H|+> = |0> encoded on B
    "hop": ("00000", code5.build_encoder(), _labels(6, 10)),
}


def target_tableau(name: str) -> tuple[Tableau, list[str]]:
    """Reference tableau and the data-label order it is expressed in."""
    if name not in REFERENCES:
        raise LatticeError(f"no target defined for schedule {name!r}")
    init, circuit, order = REFERENCES[name]
    return run_gates(Tableau.initialized(len(init), init), circuit), list(order)


@dataclass
class VerifyResult:
    name: str
    ok: bool
    global_cz_steps: int
    measured_ancillae: int
    diagnostic: str | None = None


def _on_qubits(p: PauliString, qubits: list[int], n: int) -> PauliString:
    """``p``, with its qubit j moved to ``qubits[j]``, on n qubits.  The
    factors on distinct qubits commute, so the phase carries over."""
    x = z = 0
    for j, q in enumerate(qubits):
        x |= p.x_bit(j) << q
        z |= p.z_bit(j) << q
    return PauliString(n, x, z, p.phase)


def data_register_holds(state: Tableau, qubits: list[int], target: Tableau) -> bool:
    """Are ``qubits`` of ``state``, in that order, unentangled from the rest
    and in the state ``target``?  They are exactly when the qubits are
    distinct, one per target qubit, and every target generator moved onto
    them is in the stabilizer group of ``state``, sign included."""
    return (len(set(qubits)) == len(qubits) == target.n
            and all(state.stabilizes(_on_qubits(g, qubits, state.n))
                    for g in target.stabilizer_rows()))


def verify_lattice_against(lat: Lattice, target: Tableau,
                           label_order: list[str], name: str) -> VerifyResult:
    counts = lat.counts.global_cz_steps, lat.counts.measured_ancillae
    try:
        qubits = lat.data_qubits(label_order)
        # a reference of another width never holds; the slice keeps the
        # frame gates on it
        framed = run_gates(target.copy(), lat.frame_gates(qubits[:target.n]))
        if data_register_holds(lat.tab, qubits, framed):
            return VerifyResult(name, True, *counts)
        sub = lat.data_subtableau(label_order)
    except LatticeError as exc:
        return VerifyResult(name, False, *counts, str(exc))
    if sub.stab_equal(target):
        raise AssertionError(
            f"{name}: data register matches the target, but a target generator "
            "is not in the lattice's stabilizer group")
    return VerifyResult(name, False, *counts, sub.first_difference(target))


def verify_schedule(name: str, seed=None) -> VerifyResult:
    """Run a named schedule and compare, frame-corrected, with its target."""
    lat = run_schedule(build_schedule(name), seed=seed)
    target, order = target_tableau(name)
    return verify_lattice_against(lat, target, order, name)
