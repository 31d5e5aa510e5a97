from .engine import Chain, Lattice, LatticeError, OpCountReport
from .hop import HopReport, run_hop
from .layouts import NAMED_SCHEDULES, build_schedule, load_schedule, run_schedule
from .verify import (VerifyResult, target_tableau,
                     verify_lattice_against, verify_schedule)

__all__ = [
    "Chain", "Lattice", "LatticeError", "OpCountReport",
    "HopReport", "run_hop",
    "NAMED_SCHEDULES", "build_schedule", "load_schedule", "run_schedule",
    "VerifyResult", "target_tableau",
    "verify_lattice_against", "verify_schedule",
]
