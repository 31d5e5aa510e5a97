"""Schedule verification against circuit-built reference tableaux."""

from __future__ import annotations

from dataclasses import dataclass

from .. import code5, protocols
from ..circuit import CZ, Circuit
from ..tableau import Tableau, run_gates
from .engine import Lattice, LatticeError
from .layouts import build_schedule, run_schedule


def _star(n: int, hub: int) -> Circuit:
    return Circuit(n).extend(CZ(hub, q) for q in range(n) if q != hub)


def _labels(first: int, last: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(first, last + 1))


# Reference states: schedule name -> (initial symbols, circuit, data-label
# order).  The circuits are the protocol builders the schedules compile.
REFERENCES = {
    "E1_lattice": ("+++++", _star(5, 0), _labels(1, 5)),
    "E2_lattice": ("+++++", code5.build_E2(), _labels(1, 5)),
    "GHZ6_lattice": ("++++++", _star(6, 5), _labels(1, 6)),
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
    return run_gates(Tableau.initialized(circuit.n, init), circuit.gates()), list(order)


@dataclass
class VerifyResult:
    name: str
    ok: bool
    global_cz_steps: int
    measured_ancillae: int
    diagnostic: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "global_cz_steps": self.global_cz_steps,
            "measured_ancillae": self.measured_ancillae,
            "diagnostic": self.diagnostic,
        }


def verify_lattice_against(lat: Lattice, target: Tableau,
                           label_order: list[str], name: str) -> VerifyResult:
    try:
        sub = lat.data_subtableau(label_order)
    except LatticeError as exc:
        return VerifyResult(name, False, lat.counts.global_cz_steps,
                            lat.counts.measured_ancillae, str(exc))
    if sub.stab_equal(target):
        return VerifyResult(name, True, lat.counts.global_cz_steps,
                            lat.counts.measured_ancillae)
    return VerifyResult(name, False, lat.counts.global_cz_steps,
                        lat.counts.measured_ancillae,
                        sub.first_difference(target))


def verify_schedule(name: str, seed=None) -> VerifyResult:
    """Run a named schedule and compare, frame-corrected, with its target."""
    lat = run_schedule(build_schedule(name), seed=seed)
    target, order = target_tableau(name)
    return verify_lattice_against(lat, target, order, name)
