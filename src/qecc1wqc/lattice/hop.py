"""Full teleportation hop on the lattice: decode A while encoding B.

The hop runs LP_full, which encodes A and fans it onto B's centre, then
the wheel stages: the pentagon layer of A's decoder shares its two global
layers with B's E1, and A's E1 adjoint shares the next two with B's E2.
The adjoint is E1's layers reversed, compiled like any other stage, so it
has the same chain geometry with the single-qubit dressing reversed.  The
sequential mode runs the same stages without sharing, which costs four
extra global layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import code5
from .engine import LatticeError
from .layouts import (E1, E1_ADJOINT, E2, GRID_ROWS, Chains, GlobalCZ, Local,
                      Prepare, Schedule, run_schedule, schedule_LP_full, wheel_cells,
                      wheel_stage)
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
    regions_disjoint: bool
    diagnostic: str | None = None


def _steps_cells(steps) -> set[tuple[int, int]]:
    cells = set()
    for step in steps:
        match step:
            case Prepare(entries) | Local(entries):
                cells.update(rc for rc, _ in entries)
            case Chains(chains):
                cells.update(rc for ch in chains for rc in ch.interior)
    return cells


def _segments(steps) -> list[list]:
    """A stage split before each of its global layers."""
    segments = [[]]
    for step in steps:
        if isinstance(step, GlobalCZ):
            segments.append([])
        segments[-1].append(step)
    return segments


def _merge_stages(a_steps: list, b_steps: list) -> list:
    """Share the global layers of two stages over disjoint regions; after
    each shared layer, A's other steps run before B's."""
    a_segs, b_segs = _segments(a_steps), _segments(b_steps)
    if [s[0] for s in a_segs[1:]] != [s[0] for s in b_segs[1:]]:
        raise LatticeError("cannot merge stages with different layer skeletons")
    merged = a_segs[0] + b_segs[0]
    for a_seg, b_seg in zip(a_segs[1:], b_segs[1:]):
        merged += a_seg + b_seg[1:]
    return merged


def run_hop(mode: str = "simultaneous", seed=None) -> HopReport:
    """Teleport |+> from register A to B with xi = 0 (a logical Hadamard).

    Counts the global layers of the hop itself (fan + shared E stages);
    preparing the already-encoded A register is reported separately.
    """
    if mode not in ("simultaneous", "sequential"):
        raise ValueError("mode must be 'simultaneous' or 'sequential'")

    a_cells = wheel_cells(A_BASE)
    b_cells = wheel_cells(B_BASE)
    data = {k: a_cells[k] for k in a_cells}
    data.update({str(int(k) + 5): b_cells[k] for k in b_cells})

    lp = schedule_LP_full()
    a_dec_e2 = wheel_stage(E2, [A_BASE])
    a_dec_e1 = wheel_stage(E1_ADJOINT, [A_BASE])
    b_enc_e1 = wheel_stage(E1, [B_BASE], ".0000")
    b_enc_e2 = wheel_stage(E2, [B_BASE])

    regions_disjoint = True
    for sa, sb in ((a_dec_e2, b_enc_e1), (a_dec_e1, b_enc_e2)):
        if _steps_cells(sa) & _steps_cells(sb):
            regions_disjoint = False

    if mode == "simultaneous":
        if not regions_disjoint:
            raise LatticeError(
                "decode and encode ancilla regions overlap; registers must "
                "be well-separated to share global layers")
        hop_steps = (_merge_stages(a_dec_e2, b_enc_e1)
                     + _merge_stages(a_dec_e1, b_enc_e2))
    else:
        hop_steps = a_dec_e2 + a_dec_e1 + b_enc_e1 + b_enc_e2

    sched = Schedule(f"hop_{mode}", HOP_GRID, data, lp.steps + hop_steps,
                     4 + (7 if mode == "simultaneous" else 11))
    lat = run_schedule(sched, seed=seed)
    prep_ops = 4
    hop_ops = lat.counts.global_cz_steps - prep_ops

    # syndrome on A's qubits 2..5, then the teleporting X measurement
    syndrome = code5.syndrome_string(lat.measure_data(a_cells[k], "Z") for k in "2345")
    corr = code5.correction_for(syndrome)
    lat.add_frame_pauli(a_cells["1"], x=corr.x & 1, z=corr.z & 1)
    m = lat.measure_data(a_cells["1"], "X")
    if m:
        for k in b_cells:
            lat.add_frame_pauli(b_cells[k], x=1)

    target, order = target_tableau("hop")
    res = verify_lattice_against(lat, target, order, "hop")
    return HopReport(mode, prep_ops, hop_ops, syndrome,
                     code5.correction_label_for(syndrome), m, res.ok,
                     regions_disjoint, res.diagnostic)
