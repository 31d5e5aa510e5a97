"""Named schedule construction: wheel registers, hub fans, and stage lists.

Geometry.  Each five-qubit register is a "wheel": the information qubit at
the center of a 17x17 neighborhood with the other four data qubits at the
ends of length-5 arms (west, north, east, south).  All entangling links are
chains routed through ancilla corridors; no two live cells are ever grid
adjacent, so a global layer never links data directly.  Wheels repeat every
18 columns; the hub of a register doubles as the fan target of its western
neighbor.

Stage structure per the global-layer budget:

  E1   vertical + horizontal     (4 star chains, all even interior)
  E2   vertical + horizontal     (5 pentagon chains; the three arm-to-arm
                                  chains have odd interior and finish with
                                  a Y measurement)
  fan  horizontal + vertical + vertical
       (three chains measured after the second layer, then the two
       remaining chains re-enter through the freed vertical ports of the
       hub and are completed by the third layer; pre-built single-row
       stubs supply their horizontal segments)

The fan's port shortage is structural: a hub must link to five registers
but has four neighbors, hence the extra vertical layer and the
re-initialization between layers.
"""

from __future__ import annotations

import json
from importlib import resources

from .engine import Chain, Lattice, LatticeError

GRID_ROWS = 18

CENTER = (8, 8)          # relative to a wheel base column
ARM_W = (8, 3)
ARM_N = (3, 8)
ARM_E = (8, 13)
ARM_S = (13, 8)

NAMED_SCHEDULES = ("E1_lattice", "E2_lattice", "GHZ6_lattice", "LP_full",
                   "horseshoe_lattice")


def wheel_cells(base: int) -> dict[str, tuple[int, int]]:
    """Data cells of one register; keys are register-local labels 1..5."""
    return {
        "1": (CENTER[0], base + CENTER[1]),
        "2": (ARM_W[0], base + ARM_W[1]),
        "3": (ARM_N[0], base + ARM_N[1]),
        "4": (ARM_E[0], base + ARM_E[1]),
        "5": (ARM_S[0], base + ARM_S[1]),
    }


def _straight(u: tuple[int, int], v: tuple[int, int]) -> list[tuple[int, int]]:
    """Interior cells strictly between two cells sharing a row or column."""
    (r1, c1), (r2, c2) = u, v
    cells = []
    if r1 == r2:
        step = 1 if c2 > c1 else -1
        for c in range(c1 + step, c2, step):
            cells.append((r1, c))
    elif c1 == c2:
        step = 1 if r2 > r1 else -1
        for r in range(r1 + step, r2, step):
            cells.append((r, c1))
    else:
        raise ValueError("cells do not share an axis")
    return cells


def _col(r_from: int, r_to: int, c: int) -> list[tuple[int, int]]:
    step = 1 if r_to >= r_from else -1
    return [(r, c) for r in range(r_from, r_to + step, step)]


def _row(r: int, c_from: int, c_to: int) -> list[tuple[int, int]]:
    step = 1 if c_to >= c_from else -1
    return [(r, c) for c in range(c_from, c_to + step, step)]


def e1_chains(base: int) -> list[Chain]:
    w = wheel_cells(base)
    center = w["1"]
    return [Chain(center, w["2"], _straight(center, w["2"])),
            Chain(center, w["3"], _straight(center, w["3"])),
            Chain(center, w["4"], _straight(center, w["4"])),
            Chain(center, w["5"], _straight(center, w["5"]))]


def e2_chains(base: int) -> list[Chain]:
    w = wheel_cells(base)
    b = base
    return [
        Chain(w["1"], w["2"], _straight(w["1"], w["2"])),
        Chain(w["2"], w["3"], _col(7, 3, b + 3) + _row(3, b + 4, b + 7)),
        Chain(w["3"], w["4"], _row(3, b + 9, b + 13) + _col(4, 7, b + 13)),
        Chain(w["4"], w["5"], _col(9, 13, b + 13) + _row(13, b + 12, b + 9)),
        Chain(w["5"], w["1"], _straight(w["5"], w["1"])),
    ]


def fan_geometry(hub: tuple[int, int], direction: int):
    """Five hub-to-register chains plus the fan's prep bookkeeping.

    ``direction`` is -1 for a register 18 columns west of the hub and +1
    for one to the east.  Returns (chains_first, chains_second, early,
    late): the first three chains complete after the second global layer;
    the last two re-use the hub's vertical ports and complete after the
    third.  ``early`` cells must be alive from the first layer on (single
    row stubs and the final approach cells), ``late`` cells join for the
    third layer only.
    """
    hr, hc = hub

    def c(offset: int) -> int:
        return hc + direction * offset

    center = (hr, c(18))
    near_arm = (hr, c(13))
    north = (3, c(18))
    south = (13, c(18))
    far_arm = (hr, c(23))

    to_north = Chain(hub, north,
                     [(7, hc), (6, hc)] + _row(6, c(1), c(17))
                     + [(5, c(17)), (4, c(17)), (3, c(17))])
    to_near = Chain(hub, near_arm, _row(8, c(1), c(12)))
    to_south = Chain(hub, south,
                     [(9, hc), (10, hc), (11, hc), (12, hc)]
                     + _row(12, c(1), c(17)) + [(12, c(18))])
    to_center = Chain(hub, center,
                      _col(7, 0, hc) + _row(0, c(1), c(17))
                      + _col(1, 7, c(17)) + [(8, c(17))])
    to_far = Chain(hub, far_arm,
                   _col(9, 16, hc) + _row(16, c(1), c(22))
                   + _col(15, 9, c(22)) + [(8, c(22))])

    early = ([(0, hc)] + _row(0, c(1), c(17)) + [(8, c(17))]
             + [(16, hc)] + _row(16, c(1), c(22)) + [(8, c(22))])
    late = (_col(1, 7, hc) + _col(1, 7, c(17))
            + _col(9, 15, hc) + _col(9, 15, c(22)))
    return [to_north, to_near, to_south], [to_center, to_far], early, late


def _chain_obj(chain: Chain) -> dict:
    return {"u": list(chain.u), "v": list(chain.v),
            "interior": [list(rc) for rc in chain.interior]}


def _prep(cells, sym: str):
    return [[r, c, sym] for (r, c) in cells]


def _interiors(chains: list[Chain]) -> list[tuple[int, int]]:
    out = []
    for ch in chains:
        out.extend(ch.interior)
    return out


def e1_stage_steps(bases: list[int], dressing: bool,
                   fresh: dict[int, str] | None) -> list[dict]:
    """E1 layer for one or more registers sharing the two global layers.

    ``fresh`` maps a base to the center-cell init symbol when the register
    is newly prepared; omit a base to keep its (live) center untouched.
    """
    steps: list[dict] = []
    prep: list = []
    chains: list[Chain] = []
    locals_pre = []
    locals_post = []
    for base in bases:
        w = wheel_cells(base)
        if fresh is not None and base in fresh:
            prep += _prep([w["1"]], fresh[base])
            prep += _prep([w[k] for k in "2345"], "0")
        else:
            prep += _prep([w[k] for k in "2345"], "0")
        chs = e1_chains(base)
        chains += chs
        prep += _prep(_interiors(chs), "+")
        if dressing:
            locals_pre += [[*w[k], ["H"]] for k in "12345"]
            locals_post += [[*w["1"], ["H", "Z"]]]
            locals_post += [[*w[k], ["Z"]] for k in "2345"]
    steps.append({"prepare": prep})
    if dressing:
        steps.append({"local": locals_pre})
    steps.append({"global_cz": "vertical"})
    steps.append({"global_cz": "horizontal"})
    steps.append({"chains": [_chain_obj(c) for c in chains]})
    if dressing:
        steps.append({"local": locals_post})
    return steps


def e1_adjoint_stage_steps(bases: list[int]) -> list[dict]:
    """Adjoint of the dressed E1 layer (decoder half)."""
    steps: list[dict] = []
    locals_pre = []
    locals_post = []
    prep: list = []
    chains: list[Chain] = []
    for base in bases:
        w = wheel_cells(base)
        locals_pre += [[*w[k], ["Z"]] for k in "2345"]
        locals_pre += [[*w["1"], ["Z", "H"]]]
        locals_post += [[*w[k], ["H"]] for k in "12345"]
        chs = e1_chains(base)
        chains += chs
        prep += _prep(_interiors(chs), "+")
    steps.append({"local": locals_pre})
    steps.append({"prepare": prep})
    steps.append({"global_cz": "vertical"})
    steps.append({"global_cz": "horizontal"})
    steps.append({"chains": [_chain_obj(c) for c in chains]})
    steps.append({"local": locals_post})
    return steps


def e2_stage_steps(bases: list[int], extra_chains: list[Chain] = (),
                   extra_prep: list = ()) -> list[dict]:
    steps: list[dict] = []
    prep: list = list(extra_prep)
    chains: list[Chain] = []
    for base in bases:
        chs = e2_chains(base)
        chains += chs
        prep += _prep(_interiors(chs), "+")
    chains = chains + list(extra_chains)
    for ch in extra_chains:
        prep += _prep(ch.interior, "+")
    steps.append({"prepare": prep})
    steps.append({"global_cz": "vertical"})
    steps.append({"global_cz": "horizontal"})
    steps.append({"chains": [_chain_obj(c) for c in chains]})
    return steps


def fan_stage_steps(hub: tuple[int, int], direction: int,
                    prep_hub: bool, more_fans=()) -> list[dict]:
    """Three-layer fan stage; ``more_fans`` merges additional (hub,
    direction) fans into the same global layers."""
    fans = [(hub, direction)] + list(more_fans)
    first: list[Chain] = []
    second: list[Chain] = []
    early: list = []
    late: list = []
    prep: list = []
    for h, d in fans:
        f1, f2, e, l = fan_geometry(h, d)
        first += f1
        second += f2
        early += e
        late += l
        prep += _prep(_interiors(f1), "+")
    if prep_hub:
        for h, _ in fans:
            prep += _prep([h], "+")
    prep += _prep(early, "+")
    return [
        {"prepare": prep},
        {"global_cz": "horizontal"},
        {"global_cz": "vertical"},
        {"chains": [_chain_obj(c) for c in first]},
        {"prepare": _prep(late, "+")},
        {"global_cz": "vertical"},
        {"chains": [_chain_obj(c) for c in second]},
    ]


# -- named schedules ---------------------------------------------------------


def schedule_E1() -> dict:
    w = wheel_cells(0)
    chains = e1_chains(0)
    steps = [
        {"prepare": _prep(w.values(), "+") + _prep(_interiors(chains), "+")},
        {"global_cz": "vertical"},
        {"global_cz": "horizontal"},
        {"chains": [_chain_obj(c) for c in chains]},
    ]
    return {"name": "E1_lattice", "grid": [GRID_ROWS, 17],
            "data_cells": {k: list(v) for k, v in w.items()},
            "steps": steps, "expected_global_cz": 2}


def schedule_E2() -> dict:
    w = wheel_cells(0)
    chains = e2_chains(0)
    steps = [
        {"prepare": _prep(w.values(), "+") + _prep(_interiors(chains), "+")},
        {"global_cz": "vertical"},
        {"global_cz": "horizontal"},
        {"chains": [_chain_obj(c) for c in chains]},
    ]
    return {"name": "E2_lattice", "grid": [GRID_ROWS, 17],
            "data_cells": {k: list(v) for k, v in w.items()},
            "steps": steps, "expected_global_cz": 2}


def schedule_GHZ6() -> dict:
    w = wheel_cells(0)
    hub = (8, 26)
    cells = {k: list(v) for k, v in w.items()}
    cells["6"] = list(hub)
    steps = [{"prepare": _prep(w.values(), "+")}]
    steps += fan_stage_steps(hub, -1, prep_hub=True)
    return {"name": "GHZ6_lattice", "grid": [GRID_ROWS, 29],
            "data_cells": cells, "steps": steps, "expected_global_cz": 3}


def schedule_LP_full() -> dict:
    w = wheel_cells(0)
    hub = (8, 26)
    cells = {k: list(v) for k, v in w.items()}
    cells["6"] = list(hub)
    steps: list[dict] = []
    steps += e1_stage_steps([0], dressing=True, fresh={0: "+"})
    steps += e2_stage_steps([0])
    steps += fan_stage_steps(hub, -1, prep_hub=True)
    return {"name": "LP_full", "grid": [GRID_ROWS, 29],
            "data_cells": cells, "steps": steps, "expected_global_cz": 7}


def schedule_horseshoe() -> dict:
    bases = {"A": 0, "B": 18, "C": 36, "D": 54}
    cells: dict[str, list[int]] = {}
    for reg, offset in (("A", 0), ("B", 5), ("C", 10), ("D", 15)):
        for k, rc in wheel_cells(bases[reg]).items():
            cells[str(int(k) + offset)] = list(rc)
    hub_b = (8, 26)
    hub_c = (8, 44)
    bridge = Chain(hub_b, hub_c,
                   [(9, 26), (10, 26)] + _row(10, 27, 43) + [(10, 44), (9, 44)])
    steps: list[dict] = []
    steps += e1_stage_steps([bases["A"], bases["D"]], dressing=True,
                            fresh={bases["A"]: "+", bases["D"]: "+"})
    steps += e2_stage_steps([bases["A"], bases["D"]],
                            extra_chains=[bridge],
                            extra_prep=_prep([hub_b, hub_c], "+"))
    steps += fan_stage_steps(hub_b, -1, prep_hub=False,
                             more_fans=[(hub_c, +1)])
    steps += e1_stage_steps([bases["B"], bases["C"]], dressing=True, fresh=None)
    steps += e2_stage_steps([bases["B"], bases["C"]])
    return {"name": "horseshoe_lattice", "grid": [GRID_ROWS, 72],
            "data_cells": cells, "steps": steps, "expected_global_cz": 11}


_BUILDERS = {
    "E1_lattice": schedule_E1,
    "E2_lattice": schedule_E2,
    "GHZ6_lattice": schedule_GHZ6,
    "LP_full": schedule_LP_full,
    "horseshoe_lattice": schedule_horseshoe,
}


def _with_cells_manifest(sched: dict) -> dict:
    """Attach the per-cell manifest: data cells with their first-prepared
    initial symbol, plus every ancilla cell any step prepares."""
    first_init: dict[tuple[int, int], str] = {}
    for step in sched["steps"]:
        for r, c, sym in step.get("prepare", []):
            first_init.setdefault((r, c), sym)
    cells = []
    data_set = {tuple(v): k for k, v in sched["data_cells"].items()}
    for rc, label in sorted(data_set.items()):
        cells.append({"rc": list(rc), "role": "data", "label": label,
                      "init": first_init.get(rc, "0")})
    for rc in sorted(set(first_init) - set(data_set)):
        cells.append({"rc": list(rc), "role": "ancilla",
                      "init": first_init[rc]})
    sched["cells"] = cells
    return sched


def build_schedule(name: str) -> dict:
    if name not in _BUILDERS:
        raise LatticeError(f"unknown schedule {name!r}")
    return _with_cells_manifest(_BUILDERS[name]())


_SCHEDULE_KEYS = ("name", "grid", "steps", "expected_global_cz")


def load_schedule(name_or_path: str) -> dict:
    """Load a shipped named schedule or a JSON schedule file."""
    if name_or_path in _BUILDERS:
        ref = resources.files("qecc1wqc.lattice") / "data" / f"{name_or_path}.json"
        with ref.open("r") as fh:
            sched = json.load(fh)
    else:
        try:
            with open(name_or_path) as fh:
                sched = json.load(fh)
        except OSError as exc:
            raise LatticeError(
                f"cannot read schedule {name_or_path!r}: {exc.strerror}") from exc
    if not isinstance(sched, dict):
        raise LatticeError(f"{name_or_path}: a schedule must be a JSON object")
    missing = [k for k in _SCHEDULE_KEYS if k not in sched]
    if "data_cells" not in sched and "cells" not in sched:
        missing.append("data_cells or cells")
    if missing:
        raise LatticeError(f"{name_or_path}: schedule lacks {', '.join(missing)}")
    return sched


# -- execution and static audit ------------------------------------------------


def run_schedule(sched: dict, seed=None) -> Lattice:
    rows, cols = sched["grid"]
    if "data_cells" in sched:
        data = {k: tuple(v) for k, v in sched["data_cells"].items()}
    else:
        data = {c["label"]: tuple(c["rc"]) for c in sched["cells"]
                if c.get("role") == "data"}
    lat = Lattice(rows, cols, data)
    if seed is not None:
        lat.seed(seed)
    for step in sched["steps"]:
        if "prepare" in step:
            lat.prepare([((r, c), sym) for r, c, sym in step["prepare"]])
        elif "local" in step:
            lat.local_ops([((r, c), kinds) for r, c, kinds in step["local"]])
        elif "global_cz" in step:
            lat.global_cz(step["global_cz"])
        elif "chains" in step:
            for obj in step["chains"]:
                lat.measure_chain(Chain(tuple(obj["u"]), tuple(obj["v"]),
                                        [tuple(rc) for rc in obj["interior"]]))
        else:
            raise LatticeError(f"unknown step {step!r}")
    return lat


def audit_schedule(sched: dict) -> dict:
    """Static replay checking that global layers create exactly the chain
    edges: every chain edge appears exactly once before its chain is
    consumed, interior cells see no stray edges, and nothing is left over.
    """
    rows, cols = sched["grid"]
    active: set[tuple[int, int]] = set()
    pending: dict[tuple, int] = {}
    n_global = 0

    def edge(a, b):
        return (a, b) if a <= b else (b, a)

    for step in sched["steps"]:
        if "prepare" in step:
            for r, c, _sym in step["prepare"]:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LatticeError(f"cell {(r, c)} outside grid")
                if (r, c) in active:
                    raise LatticeError(f"cell {(r, c)} prepared while active")
                active.add((r, c))
        elif "global_cz" in step:
            n_global += 1
            dr, dc = (1, 0) if step["global_cz"].startswith("v") else (0, 1)
            for (r, c) in active:
                nb = (r + dr, c + dc)
                if nb in active:
                    e = edge((r, c), nb)
                    pending[e] = pending.get(e, 0) + 1
        elif "chains" in step:
            for obj in step["chains"]:
                ch = Chain(tuple(obj["u"]), tuple(obj["v"]),
                           [tuple(rc) for rc in obj["interior"]])
                ch.validate_geometry()
                for a, b in ch.edges():
                    e = edge(a, b)
                    if pending.get(e, 0) != 1:
                        raise LatticeError(
                            f"{sched['name']}: chain edge {e} created "
                            f"{pending.get(e, 0)} times")
                    del pending[e]
                for rc in ch.interior:
                    for e in list(pending):
                        if rc in e:
                            raise LatticeError(
                                f"{sched['name']}: stray edge {e} touches "
                                f"measured interior {rc}")
                    active.discard(rc)
        elif "local" in step:
            for r, c, _kinds in step["local"]:
                if (r, c) not in active:
                    raise LatticeError(f"local op on inactive {(r, c)}")
    if pending:
        raise LatticeError(f"{sched['name']}: unconsumed edges {sorted(pending)[:4]}")
    if n_global != sched["expected_global_cz"]:
        raise LatticeError(
            f"{sched['name']}: {n_global} global layers, expected "
            f"{sched['expected_global_cz']}")
    return {"global_cz": n_global, "ok": True}


def write_schedule_files(directory) -> list[str]:
    """Regenerate the shipped JSON schedule files (development helper)."""
    import pathlib

    out = []
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in NAMED_SCHEDULES:
        sched = build_schedule(name)
        audit_schedule(sched)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(sched, indent=1, sort_keys=True) + "\n")
        out.append(str(path))
    return out
