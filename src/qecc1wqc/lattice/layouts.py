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


def e1_stage_steps(bases: list[int], fresh=()) -> list[dict]:
    """Dressed E1 layer for one or more registers sharing the two global layers.

    The centers of the registers in ``fresh`` are newly prepared in |+>;
    the other centers are live and kept untouched.
    """
    steps: list[dict] = []
    prep: list = []
    chains: list[Chain] = []
    locals_pre = []
    locals_post = []
    for base in bases:
        w = wheel_cells(base)
        if base in fresh:
            prep += _prep([w["1"]], "+")
        prep += _prep([w[k] for k in "2345"], "0")
        chs = e1_chains(base)
        chains += chs
        prep += _prep(_interiors(chs), "+")
        locals_pre += [[*w[k], ["H"]] for k in "12345"]
        locals_post += [[*w["1"], ["H", "Z"]]]
        locals_post += [[*w[k], ["Z"]] for k in "2345"]
    steps.append({"prepare": prep})
    steps.append({"local": locals_pre})
    steps.append({"global_cz": "vertical"})
    steps.append({"global_cz": "horizontal"})
    steps.append({"chains": [_chain_obj(c) for c in chains]})
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
    return {"name": "E2_lattice", "grid": [GRID_ROWS, 17],
            "data_cells": {k: list(v) for k, v in w.items()},
            "steps": e2_stage_steps([0], extra_prep=_prep(w.values(), "+")),
            "expected_global_cz": 2}


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
    steps += e1_stage_steps([0], fresh=[0])
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
    steps += e1_stage_steps([bases["A"], bases["D"]],
                            fresh=[bases["A"], bases["D"]])
    steps += e2_stage_steps([bases["A"], bases["D"]],
                            extra_chains=[bridge],
                            extra_prep=_prep([hub_b, hub_c], "+"))
    steps += fan_stage_steps(hub_b, -1, prep_hub=False,
                             more_fans=[(hub_c, +1)])
    steps += e1_stage_steps([bases["B"], bases["C"]])
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


def build_schedule(name: str) -> dict:
    if name not in _BUILDERS:
        raise LatticeError(f"unknown schedule {name!r}")
    return _BUILDERS[name]()


def load_schedule(name_or_path: str) -> dict:
    """Build a named schedule, or read a JSON schedule file."""
    if name_or_path in _BUILDERS:
        return build_schedule(name_or_path)
    try:
        with open(name_or_path) as fh:
            sched = json.load(fh)
    except OSError as exc:
        raise LatticeError(
            f"cannot read schedule {name_or_path!r}: {exc.strerror}") from exc
    if not isinstance(sched, dict):
        raise LatticeError(f"{name_or_path}: a schedule must be a JSON object")
    missing = [k for k in ("name", *_FIELDS) if k not in sched]
    if missing:
        raise LatticeError(f"{name_or_path}: schedule lacks {', '.join(missing)}")
    return sched


# -- execution -----------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_cell(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_int, obj))


def _cell_entries(kind: str, entries) -> list:
    """[[row, col, x], ...] -> [((row, col), x), ...]; a local x is a gate list."""
    out = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                and _is_cell(entry[:2])
                and (kind == "prepare" or isinstance(entry[2], list))):
            shape = "symbol" if kind == "prepare" else "[gates]"
            raise LatticeError(f"{kind} entry {entry!r} is not [row, col, {shape}]")
        out.append((tuple(entry[:2]), entry[2]))
    return out


def _chain(obj) -> Chain:
    if not isinstance(obj, dict):
        raise LatticeError(f"chain {obj!r} is not an object")
    for key in ("u", "v"):
        if not _is_cell(obj.get(key)):
            raise LatticeError(f"chain {key} must be [row, col], got {obj.get(key)!r}")
    interior = obj.get("interior")
    if not (isinstance(interior, list) and all(map(_is_cell, interior))):
        raise LatticeError(f"chain interior must be a list of [row, col], got {interior!r}")
    return Chain(tuple(obj["u"]), tuple(obj["v"]), [tuple(rc) for rc in interior])


def _run_step(lat: Lattice, step) -> None:
    if not (isinstance(step, dict) and len(step) == 1):
        raise LatticeError(f"a step must be an object with one key, got {step!r}")
    (kind, body), = step.items()
    if kind == "global_cz":
        lat.global_cz(body)
    elif kind not in ("prepare", "local", "chains"):
        raise LatticeError(f"unknown step {step!r}")
    elif not isinstance(body, list):
        raise LatticeError(f"{kind} must be a list, got {body!r}")
    elif kind == "prepare":
        lat.prepare(_cell_entries(kind, body))
    elif kind == "local":
        lat.local_ops(_cell_entries(kind, body))
    else:
        for obj in body:
            lat.measure_chain(_chain(obj))


_FIELDS = {
    "grid": (lambda g: isinstance(g, list) and len(g) == 2
             and all(_is_int(x) and x > 0 for x in g), "[rows, cols]"),
    "data_cells": (lambda d: isinstance(d, dict) and all(map(_is_cell, d.values())),
                   "an object of label: [row, col]"),
    "steps": (lambda steps: isinstance(steps, list), "a list"),
    "expected_global_cz": (_is_int, "an integer"),
}


def run_schedule(sched: dict, seed=None) -> Lattice:
    """Execute a schedule on a fresh lattice, checking it as it runs.

    Every step entry is type-checked, and the lattice enforces the edge
    rule: each chain edge is created by exactly one global layer before its
    chain is measured.  After the last step no edge may be left over and
    the global-layer count must equal ``expected_global_cz``.  Failures
    raise ``LatticeError`` naming the schedule and, within the run, the
    step index.
    """
    name = sched.get("name")
    if not isinstance(name, str):
        raise LatticeError(f"schedule name must be a string, got {name!r}")
    for key, (ok, shape) in _FIELDS.items():
        if not ok(sched.get(key)):
            raise LatticeError(f"{name}: {key} must be {shape}, got {sched.get(key)!r}")
    data = {k: tuple(v) for k, v in sched["data_cells"].items()}
    try:
        lat = Lattice(*sched["grid"], data)
    except LatticeError as exc:
        raise LatticeError(f"{name}: data_cells: {exc}") from None
    if seed is not None:
        lat.seed(seed)
    for i, step in enumerate(sched["steps"]):
        try:
            _run_step(lat, step)
        except LatticeError as exc:
            raise LatticeError(f"{name} step {i}: {exc}") from None
    if lat.pending:
        raise LatticeError(f"{name}: unconsumed edges {sorted(lat.pending)[:4]}")
    if lat.counts.global_cz_steps != sched["expected_global_cz"]:
        raise LatticeError(f"{name}: {lat.counts.global_cz_steps} global layers, "
                           f"expected {sched['expected_global_cz']}")
    return lat
