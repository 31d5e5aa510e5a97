"""The JSON form of a lattice schedule, as ``load_schedule`` reads it.

The package reads schedule files but never writes one, so the writer lives
with the tests: they pin the bytes of the named schedules and feed written
files back to the reader.
"""

import json

from qecc1wqc.lattice.layouts import Chains, GlobalCZ, Local, Prepare


def _step(step) -> dict:
    match step:
        case Prepare(cells):
            return {"prepare": [[*rc, sym] for rc, sym in cells]}
        case Local(ops):
            return {"local": [[*rc, gates] for rc, gates in ops]}
        case GlobalCZ(axis):
            return {"global_cz": axis}
        case Chains(chains):
            return {"chains": [{"u": ch.u, "v": ch.v, "interior": ch.interior}
                               for ch in chains]}


def schedule_json(sched) -> dict:
    """A fresh JSON object for ``sched``, free to mutate."""
    obj = {"name": sched.name, "grid": sched.grid, "data_cells": sched.data_cells,
           "steps": [_step(step) for step in sched.steps],
           "expected_global_cz": sched.expected_global_cz}
    return json.loads(json.dumps(obj))
