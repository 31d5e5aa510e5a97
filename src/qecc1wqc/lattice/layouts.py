"""Schedules: typed steps, named builders, the JSON reader and the interpreter.

Geometry.  Each five-qubit register is a "wheel": the information qubit at
the center of a 17x17 neighborhood with the other four data qubits at the
ends of length-5 arms (west, north, east, south).  All entangling links are
chains routed through ancilla corridors; no two live cells are ever grid
adjacent, so a global layer never links data directly.  Wheels repeat every
18 columns; the hub of a register doubles as the fan target of its western
neighbor.  A route is written as its two ends and the corners where it
turns: one path primitive (:func:`_path`) lays out every cell between, so a
chain with no corners is straight.

Every stage compiles through :func:`stage`, which derives each ancilla
prepare from the stage's chains and global layers: an interior cell is
prepared in |+> when the round that makes its first chain edge opens.  The
encoder stages are compiled from ``code5.encoder_layers`` by
:func:`wheel_stage`: each CZ becomes a chain, each run of single-qubit
layers one local step.  Wheels that share a stage's global layers are
compiled by one call, as are fans by :func:`fan_stage`.  Stage structure
per the global-layer budget:

  E1   vertical + horizontal     (4 star chains, all even interior)
  E2   vertical + horizontal     (5 pentagon chains; the three arm-to-arm
                                  chains have odd interior and finish with
                                  a Y measurement)
  fan  horizontal + vertical, then vertical
       (three chains measured after the second layer, then the two
       remaining chains re-enter through the freed vertical ports of the
       hub and are completed by the third layer; their horizontal
       segments are made by the first layer, so those cells are prepared
       with the first round)

The fan's port shortage is structural: a hub must link to five registers
but has four neighbors, hence the extra vertical layer and the
re-initialization between layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .. import code5
from .engine import Chain, Lattice, LatticeError

GRID_ROWS = 18

CENTER = (8, 8)          # relative to a wheel base column
ARM_W = (8, 3)
ARM_N = (3, 8)
ARM_E = (8, 13)
ARM_S = (13, 8)

# The encoder on register qubits 0..4 (``code5.encoder_layers``): E1 is
# the dressed star, E2 the pentagon.  Each layer holds commuting
# self-inverse gates, so E1's adjoint is its layers in reverse order.
_ENCODER = code5.encoder_layers()
E1, E2 = _ENCODER[:4], _ENCODER[4:]
E1_ADJOINT = E1[::-1]

Cell = tuple[int, int]


@dataclass(frozen=True)
class Prepare:
    cells: list[tuple[Cell, str]]          # (cell, "0" | "1" | "+" | "-")


@dataclass(frozen=True)
class Local:
    ops: list[tuple[Cell, list[str]]]      # (cell, gates applied in order)


@dataclass(frozen=True)
class GlobalCZ:
    axis: str                              # "vertical" or "horizontal"


@dataclass(frozen=True)
class Chains:
    chains: list[Chain]                    # measured out in order


Step = Prepare | Local | GlobalCZ | Chains


@dataclass(frozen=True)
class Schedule:
    name: str
    grid: tuple[int, int]                  # (rows, cols)
    data_cells: dict[str, Cell]
    steps: list[Step]
    expected_global_cz: int


def wheel_cells(base: int) -> dict[str, tuple[int, int]]:
    """Data cells of one register; keys are register-local labels 1..5."""
    return {
        "1": (CENTER[0], base + CENTER[1]),
        "2": (ARM_W[0], base + ARM_W[1]),
        "3": (ARM_N[0], base + ARM_N[1]),
        "4": (ARM_E[0], base + ARM_E[1]),
        "5": (ARM_S[0], base + ARM_S[1]),
    }


def register_cells(bases: list[int]) -> dict[str, Cell]:
    """Data cells of the wheels at ``bases``, labelled 1..5, 6..10, ...
    in order."""
    return {str(5 * i + j): rc for i, base in enumerate(bases)
            for j, rc in enumerate(wheel_cells(base).values(), start=1)}


def _path(*corners: Cell) -> list[Cell]:
    """Every cell of the axis-aligned path through ``corners``, in order;
    a repeated corner adds no cell."""
    cells = list(corners[:1])
    for (r1, c1), (r2, c2) in zip(corners, corners[1:]):
        if r1 != r2 and c1 != c2:
            raise ValueError(f"corners {(r1, c1)} and {(r2, c2)} share no row or column")
        dr, dc = (r2 > r1) - (r2 < r1), (c2 > c1) - (c2 < c1)
        cells += [(r1 + k * dr, c1 + k * dc)
                  for k in range(1, abs(r2 - r1) + abs(c2 - c1) + 1)]
    return cells


def _route(u: Cell, *bends: Cell, v: Cell) -> Chain:
    """The chain from ``u`` to ``v`` that turns at ``bends``."""
    return Chain(u, v, _path(u, *bends, v)[1:-1])


# Corners of the three arm-to-arm pentagon chains of the wheel at base
# column 0, keyed by register qubits as in ``code5``; each bends round a
# corner of the square of arms.
_BENDS = {(1, 2): [(3, 3)], (2, 3): [(3, 13)], (3, 4): [(13, 13)]}


def wheel_chain(base: int, a: int, b: int) -> Chain:
    """The chain that carries CZ(a, b) between register qubits a and b
    (0-based, as in ``code5``) of the wheel at ``base``: straight when
    their cells share a row or column, else a bent pentagon route."""
    cells = list(wheel_cells(base).values())
    bends = [(r, base + c) for r, c in _BENDS.get((a, b), [])]
    return _route(cells[a], *bends, v=cells[b])


def fan_geometry(hub: tuple[int, int], direction: int) -> tuple[list[Chain], list[Chain]]:
    """The five hub-to-register routes of a fan, for a register 18 columns
    west (``direction`` -1) or east (+1) of the hub: three that complete in
    the fan's first round, then two that re-enter through the hub's freed
    vertical ports and complete in its second."""
    hr, hc = hub

    def c(offset: int) -> int:
        return hc + direction * offset

    first = [_route(hub, (6, hc), (6, c(17)), (3, c(17)), v=(3, c(18))),     # north arm
             _route(hub, v=(hr, c(13))),                                     # near arm
             _route(hub, (12, hc), (12, c(18)), v=(13, c(18)))]              # south arm
    second = [_route(hub, (0, hc), (0, c(17)), (8, c(17)), v=(hr, c(18))),   # centre
              _route(hub, (16, hc), (16, c(22)), (8, c(22)), v=(hr, c(23)))]  # far arm
    return first, second


def _prep(cells, sym: str) -> list[tuple[Cell, str]]:
    return [(rc, sym) for rc in cells]


def _local_ops(layers, cells) -> list[tuple[Cell, list[str]]]:
    """Single-qubit gate layers as the ops of one ``Local`` step: each
    cell's gates in layer order."""
    ops: dict[Cell, list[str]] = {}
    for layer in layers:
        for g in layer:
            ops.setdefault(cells[g.targets[0]], []).append(g.kind)
    return list(ops.items())


def _axis(a: Cell, b: Cell) -> str:
    return "vertical" if a[1] == b[1] else "horizontal"


def stage(prepare, rounds, pre=(), post=()) -> list[Step]:
    """One stage: the endpoint ``prepare`` list, the ``Local`` ops ``pre``
    and ``post`` around it, and its rounds, each (axes, chains): a global
    layer per axis, then the chains measured out.

    Every ancilla prepare is derived, just in advance of its use: a chain
    edge along an axis is made by the last layer of that axis in the
    chain's round or an earlier one, and each interior cell is prepared in
    |+> when the round that makes its first edge opens.  A chain with an
    edge that no such layer makes is a ``LatticeError``.
    """
    preps = [list(prepare)] + [[] for _ in rounds[1:]]
    last: dict[str, int] = {}
    for k, (axes, chains) in enumerate(rounds):
        last.update(dict.fromkeys(axes, k))
        for ch in chains:
            p = ch.path
            edge_axes = [_axis(a, b) for a, b in zip(p, p[1:])]
            missing = sorted(set(edge_axes) - last.keys())
            if missing:
                raise LatticeError(
                    f"round {k}: chain {ch.u}-{ch.v} has a {missing[0]} edge, "
                    "which no layer of this round or an earlier one makes")
            for i in range(1, len(p) - 1):
                made = min(last[edge_axes[i - 1]], last[edge_axes[i]])
                preps[made].append((p[i], "+"))
    steps: list[Step] = []
    for k, (axes, chains) in enumerate(rounds):
        steps += [Prepare(preps[k])] if preps[k] else []
        steps += [Local(pre)] if k == 0 and pre else []
        steps += [*map(GlobalCZ, axes), Chains(chains)]
    return steps + ([Local(post)] if post else [])


def wheel_stage(wheels, prepare=(), chains=()) -> list[Step]:
    """Gate layers compiled onto wheels that share the stage's two global
    layers; ``wheels`` holds one (layers, base, data) per wheel.

    Each wheel's ``layers`` act on its register qubits 0..4, as
    ``code5.encoder_layers`` gives them, and hold one CZ layer: each of its
    CZs becomes a chain (:func:`wheel_chain`), and the single-qubit layers
    before and after it join the stage's two ``Local`` steps.  ``data``
    holds prepare symbols for the register qubits in order, "." leaving a
    live qubit alone; ``prepare`` and ``chains`` add endpoints and chains
    that share the stage.  Wheels that overlap fail when the stage runs: a
    cell is prepared twice, or a global layer links two wheels.
    """
    prep, chs, pre, post = list(prepare), [], [], []
    for layers, base, data in wheels:
        cz = next(i for i, layer in enumerate(layers) if len(layer[0].targets) == 2)
        cells = list(wheel_cells(base).values())
        prep += [(rc, sym) for rc, sym in zip(cells, data) if sym != "."]
        chs += [wheel_chain(base, *g.targets) for g in layers[cz]]
        pre += _local_ops(layers[:cz], cells)
        post += _local_ops(layers[cz + 1:], cells)
    return stage(prep, [(("vertical", "horizontal"), chs + list(chains))], pre, post)


def fan_stage(fans, prepare=()) -> list[Step]:
    """Three-layer fan stage of the (hub, direction) ``fans``, which share
    its global layers (see :func:`fan_geometry`); ``prepare`` holds the
    endpoints that start here, such as a fresh hub."""
    first, second = zip(*(fan_geometry(h, d) for h, d in fans))
    return stage(prepare, [(("horizontal", "vertical"), sum(first, [])),
                           (("vertical",), sum(second, []))])


# -- named schedules ---------------------------------------------------------


def schedule_E1() -> Schedule:
    """The star alone: E1's CZ layer on |+>^5."""
    return Schedule("E1_lattice", (GRID_ROWS, 17), wheel_cells(0),
                    wheel_stage([(E1[1:2], 0, "+++++")]), 2)


def schedule_E2() -> Schedule:
    """The pentagon on |+>^5."""
    return Schedule("E2_lattice", (GRID_ROWS, 17), wheel_cells(0),
                    wheel_stage([(E2, 0, "+++++")]), 2)


def schedule_GHZ6() -> Schedule:
    w = wheel_cells(0)
    hub = wheel_cells(18)["1"]          # B's centre
    steps = [Prepare(_prep(w.values(), "+"))]
    steps += fan_stage([(hub, -1)], _prep([hub], "+"))
    return Schedule("GHZ6_lattice", (GRID_ROWS, 29), {**w, "6": hub}, steps, 3)


def schedule_LP_full() -> Schedule:
    w = wheel_cells(0)
    hub = wheel_cells(18)["1"]          # B's centre
    steps: list[Step] = []
    steps += wheel_stage([(E1, 0, "+0000")])
    steps += wheel_stage([(E2, 0, "")])
    steps += fan_stage([(hub, -1)], _prep([hub], "+"))
    return Schedule("LP_full", (GRID_ROWS, 29), {**w, "6": hub}, steps, 7)


def schedule_horseshoe() -> Schedule:
    a, b, c, d = 0, 18, 36, 54
    cells = register_cells([a, b, c, d])
    hub_b, hub_c = cells["6"], cells["11"]
    bridge = _route(hub_b, (10, hub_b[1]), (10, hub_c[1]), v=hub_c)
    steps: list[Step] = []
    steps += wheel_stage([(E1, a, "+0000"), (E1, d, "+0000")])
    # the hub-to-hub bridge shares the two global layers of A's and D's E2
    steps += wheel_stage([(E2, a, ""), (E2, d, "")],
                         _prep([hub_b, hub_c], "+"), [bridge])
    steps += fan_stage([(hub_b, -1), (hub_c, +1)])
    steps += wheel_stage([(E1, b, ".0000"), (E1, c, ".0000")])
    steps += wheel_stage([(E2, b, ""), (E2, c, "")])
    return Schedule("horseshoe_lattice", (GRID_ROWS, 72), cells, steps, 11)


_BUILDERS = {
    "E1_lattice": schedule_E1,
    "E2_lattice": schedule_E2,
    "GHZ6_lattice": schedule_GHZ6,
    "LP_full": schedule_LP_full,
    "horseshoe_lattice": schedule_horseshoe,
}

NAMED_SCHEDULES = tuple(_BUILDERS)


def build_schedule(name: str) -> Schedule:
    if name not in _BUILDERS:
        raise LatticeError(f"unknown schedule {name!r}")
    return _BUILDERS[name]()


def load_schedule(name_or_path: str) -> Schedule:
    """Build a named schedule, or read a JSON schedule file: the one reader
    of the JSON step format (see the README), which checks its shape once."""
    if name_or_path in _BUILDERS:
        return build_schedule(name_or_path)
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            sched = json.load(fh)
    except OSError as exc:
        raise LatticeError(
            f"cannot read schedule {name_or_path!r}: {exc.strerror}") from exc
    except ValueError as exc:   # not JSON, or not UTF-8
        raise LatticeError(f"cannot parse schedule {name_or_path!r}: {exc}") from exc
    if not isinstance(sched, dict):
        raise LatticeError(f"{name_or_path}: a schedule must be a JSON object")
    missing = [k for k in ("name", *_FIELDS) if k not in sched]
    if missing:
        raise LatticeError(f"{name_or_path}: schedule lacks {', '.join(missing)}")
    name = sched["name"]
    if not isinstance(name, str):
        raise LatticeError(f"schedule name must be a string, got {name!r}")
    for key, (ok, shape) in _FIELDS.items():
        if not ok(sched[key]):
            raise LatticeError(f"{name}: {key} must be {shape}, got {sched[key]!r}")
    steps = []
    for i, step in enumerate(sched["steps"]):
        try:
            steps.append(_step(step))
        except LatticeError as exc:
            raise LatticeError(f"{name} step {i}: {exc}") from None
    return Schedule(name, tuple(sched["grid"]),
                    {k: tuple(v) for k, v in sched["data_cells"].items()},
                    steps, sched["expected_global_cz"])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_cell(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_int, obj))


def _cell_entries(kind: str, entries) -> list:
    """[[row, col, x], ...] -> [((row, col), x), ...]; a local x is a list
    of gate names."""
    out = []
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                and _is_cell(entry[:2])
                and (kind == "prepare" or (isinstance(entry[2], list)
                                           and all(isinstance(g, str) for g in entry[2])))):
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


def _step(step) -> Step:
    if not (isinstance(step, dict) and len(step) == 1):
        raise LatticeError(f"a step must be an object with one key, got {step!r}")
    (kind, body), = step.items()
    if kind == "global_cz":
        return GlobalCZ(body)
    if kind not in ("prepare", "local", "chains"):
        raise LatticeError(f"unknown step {step!r}")
    if not isinstance(body, list):
        raise LatticeError(f"{kind} must be a list, got {body!r}")
    if kind == "prepare":
        return Prepare(_cell_entries(kind, body))
    if kind == "local":
        return Local(_cell_entries(kind, body))
    return Chains([_chain(obj) for obj in body])


_FIELDS = {
    "grid": (lambda g: isinstance(g, list) and len(g) == 2
             and all(_is_int(x) and x > 0 for x in g), "[rows, cols]"),
    "data_cells": (lambda d: isinstance(d, dict) and all(map(_is_cell, d.values())),
                   "an object of label: [row, col]"),
    "steps": (lambda steps: isinstance(steps, list), "a list"),
    "expected_global_cz": (_is_int, "an integer"),
}


# -- execution -----------------------------------------------------------------


def run_schedule(sched: Schedule, seed=None) -> Lattice:
    """Execute a schedule on a fresh lattice, checking it as it runs.

    The lattice enforces the edge rule: each chain edge is created by
    exactly one global layer before its chain is measured.  After the last
    step no edge may be left over (the error names the step of the earliest
    layer that made a leftover one) and the global-layer count must equal
    ``expected_global_cz``.  Failures raise ``LatticeError`` naming the
    schedule and, within the run, the step index.  Steps are typed, so
    their shapes need no check here (:func:`load_schedule` checks files).
    """
    if not isinstance(sched, Schedule):
        raise TypeError(f"run_schedule takes a Schedule, not a {type(sched).__name__}"
                        " (load_schedule reads a JSON schedule file)")
    try:
        lat = Lattice(*sched.grid, sched.data_cells)
    except LatticeError as exc:
        raise LatticeError(f"{sched.name}: data_cells: {exc}") from None
    if seed is not None:
        lat.seed(seed)
    for i, step in enumerate(sched.steps):
        try:
            match step:
                case Prepare(cells):
                    lat.prepare(cells)
                case Local(ops):
                    lat.local_ops(ops)
                case GlobalCZ(axis):
                    lat.global_cz(axis)
                case Chains(chains):
                    for chain in chains:
                        lat.measure_chain(chain)
        except LatticeError as exc:
            raise LatticeError(f"{sched.name} step {i}: {exc}") from None
    if lat.pending:
        layer_steps = [i for i, step in enumerate(sched.steps) if isinstance(step, GlobalCZ)]
        first = layer_steps[min(layers[0] for layers in lat.pending.values())]
        raise LatticeError(f"{sched.name}: unconsumed edges {sorted(lat.pending)[:4]} "
                           f"(first created by step {first})")
    if lat.counts.global_cz_steps != sched.expected_global_cz:
        raise LatticeError(f"{sched.name}: {lat.counts.global_cz_steps} global layers, "
                           f"expected {sched.expected_global_cz}")
    return lat
