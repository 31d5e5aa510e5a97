from .engine import Chain, Lattice, LatticeError, OpCountReport
from .hop import HopReport, run_hop
from .layouts import (NAMED_SCHEDULES, audit_schedule, build_schedule,
                      load_schedule, run_schedule, write_schedule_files)
from .verify import (VerifyResult, target_tableau,
                     verify_lattice_against, verify_schedule)

__all__ = [
    "Chain", "Lattice", "LatticeError", "OpCountReport",
    "HopReport", "run_hop",
    "NAMED_SCHEDULES", "audit_schedule", "build_schedule", "load_schedule",
    "run_schedule", "write_schedule_files",
    "VerifyResult", "target_tableau",
    "verify_lattice_against", "verify_schedule",
]
