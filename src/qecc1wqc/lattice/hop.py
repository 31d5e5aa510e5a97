"""Full teleportation hop on the lattice: decode A while encoding B.

The hop runs LP_full, which encodes A and fans it onto B's centre, then
the wheel stages.  In the simultaneous mode each shared stage is one
:func:`wheel_stage` call over both wheels: the pentagon layer of A's
decoder shares its two global layers with B's E1, and A's E1 adjoint
shares the next two with B's E2.  The adjoint is E1's layers reversed,
compiled like any other stage, so it has the same chain geometry with the
single-qubit dressing reversed.  The sequential mode runs the same stages
one wheel at a time, which costs four extra global layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import code5
from .layouts import (E1, E1_ADJOINT, E2, GRID_ROWS, Schedule, register_cells,
                      run_schedule, schedule_LP_full, wheel_stage)
from .verify import target_tableau, verify_lattice_against

HOP_GRID = (GRID_ROWS, 35)
A_BASE = 0
B_BASE = 18


@dataclass
class HopReport:
    mode: str
    prep_global_cz: int
    hop_global_cz: int
    syndrome: str
    correction: str
    m: int
    verified: bool
    # always True, kept for the pinned report schema: both modes use the
    # same two wheels, which the simultaneous mode could not run if they overlapped
    regions_disjoint: bool
    diagnostic: str | None = None


def run_hop(mode: str = "simultaneous", seed=None) -> HopReport:
    """Teleport |+> from register A to B with xi = 0 (a logical Hadamard).

    Counts the global layers of the hop itself (fan + shared E stages);
    preparing the already-encoded A register is reported separately.
    """
    if mode not in ("simultaneous", "sequential"):
        raise ValueError("mode must be 'simultaneous' or 'sequential'")

    data = register_cells([A_BASE, B_BASE])
    if mode == "simultaneous":
        stages = [[(E2, A_BASE, ""), (E1, B_BASE, ".0000")],
                  [(E1_ADJOINT, A_BASE, ""), (E2, B_BASE, "")]]
    else:
        stages = [[(E2, A_BASE, "")], [(E1_ADJOINT, A_BASE, "")],
                  [(E1, B_BASE, ".0000")], [(E2, B_BASE, "")]]
    hop_steps = [step for wheels in stages for step in wheel_stage(wheels)]

    sched = Schedule(f"hop_{mode}", HOP_GRID, data,
                     schedule_LP_full().steps + hop_steps,
                     4 + (7 if mode == "simultaneous" else 11))
    lat = run_schedule(sched, seed=seed)
    prep_ops = 4
    hop_ops = lat.counts.global_cz_steps - prep_ops

    # syndrome on A's qubits 2..5, then the teleporting X measurement
    syndrome, corr = code5.read_syndrome(lambda q: lat.measure_data(data[str(q + 1)], "Z"))
    lat.add_frame_pauli(data["1"], x=corr.x & 1, z=corr.z & 1)
    m = lat.measure_data(data["1"], "X")
    if m:
        for rc in list(data.values())[5:]:   # B's data cells
            lat.add_frame_pauli(rc, x=1)

    target, order = target_tableau("hop")
    res = verify_lattice_against(lat, target, order, "hop")
    return HopReport(mode, prep_ops, hop_ops, syndrome,
                     code5.correction_label_for(syndrome), m, res.ok,
                     True, res.diagnostic)
