"""Full teleportation hop on the lattice: decode A while encoding B.

The hop reuses the wheel stages: after the hub fan, the pentagon layer of
A's decoder shares its two global layers with B's E1, and A's E1 adjoint
shares the next two with B's E2.  Both E layers are CZ chains, so the
adjoint stages use the same chain geometry with the single-qubit dressing
reversed.  The sequential mode runs the same stages without sharing, which
costs four extra global layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import code5
from .engine import LatticeError
from .layouts import (GRID_ROWS, e1_adjoint_stage_steps, e1_stage_steps,
                      e2_stage_steps, fan_stage_steps, run_schedule,
                      wheel_cells)
from .verify import target_tableau, verify_lattice_against

HOP_GRID = [GRID_ROWS, 35]
A_BASE = 0
B_BASE = 18
HUB = (8, 26)  # = B register center


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
        for key in ("prepare", "local"):
            for entry in step.get(key, []):
                cells.add((entry[0], entry[1]))
        for obj in step.get("chains", []):
            cells.update(tuple(rc) for rc in obj["interior"])
    return cells


def _merge_stages(a_steps: list[dict], b_steps: list[dict]) -> list[dict]:
    """Share the global layers of two stages over disjoint regions.

    Both stage step lists must have the same global-layer skeleton; prepare,
    local and chain steps are concatenated around the shared layers.
    """
    def skeleton(steps):
        return [s["global_cz"] for s in steps if "global_cz" in s]

    if skeleton(a_steps) != skeleton(b_steps):
        raise LatticeError("cannot merge stages with different layer skeletons")
    merged: list[dict] = []
    ia = ib = 0

    def drain(steps, i, merged):
        while i < len(steps) and "global_cz" not in steps[i]:
            merged.append(steps[i])
            i += 1
        return i

    while ia < len(a_steps) or ib < len(b_steps):
        ia = drain(a_steps, ia, merged)
        ib = drain(b_steps, ib, merged)
        if ia < len(a_steps):
            merged.append(a_steps[ia])
            ia += 1
            ib += 1  # identical global step on the b side
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

    prep_steps = (e1_stage_steps([A_BASE], fresh=[A_BASE])
                  + e2_stage_steps([A_BASE]))

    fan = fan_stage_steps(HUB, -1, prep_hub=True)
    a_dec_e2 = e2_stage_steps([A_BASE])
    a_dec_e1 = e1_adjoint_stage_steps([A_BASE])
    b_enc_e1 = e1_stage_steps([B_BASE])
    b_enc_e2 = e2_stage_steps([B_BASE])

    regions_disjoint = True
    for sa, sb in ((a_dec_e2, b_enc_e1), (a_dec_e1, b_enc_e2)):
        if _steps_cells(sa) & _steps_cells(sb):
            regions_disjoint = False

    if mode == "simultaneous":
        if not regions_disjoint:
            raise LatticeError(
                "decode and encode ancilla regions overlap; registers must "
                "be well-separated to share global layers")
        hop_steps = (fan + _merge_stages(a_dec_e2, b_enc_e1)
                     + _merge_stages(a_dec_e1, b_enc_e2))
    else:
        hop_steps = fan + a_dec_e2 + a_dec_e1 + b_enc_e1 + b_enc_e2

    sched = {"name": f"hop_{mode}", "grid": HOP_GRID,
             "data_cells": {k: list(v) for k, v in data.items()},
             "steps": prep_steps + hop_steps,
             "expected_global_cz": 4 + (7 if mode == "simultaneous" else 11)}
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
