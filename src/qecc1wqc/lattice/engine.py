"""Lattice engine: global CZ layers, chain gadgets, and frame bookkeeping.

A cell of the 2D grid gets a tableau qubit when it is first prepared and
keeps it, so the tableau is as wide as the number of cells ever prepared,
not the grid; ``MAX_CELLS`` bounds it.  Entangling happens only
through axis-wise global CZ steps acting on every pair of adjacent active
cells; selectivity comes entirely from which cells are prepared active.
Distant CZ links are chains: a path of |+> ancillas entangled by the global
layers and then measured out.  An even number of interior ancillas measured
in X implements CZ between the endpoints up to Z byproducts:

    Z_u ^= m_2 xor m_4 xor ...      Z_v ^= m_1 xor m_3 xor ...

(positions counted from u).  An odd interior is contracted to length one by
X measurements and finished by a Y measurement of the last ancilla, a
deterministic S^dag on both endpoints, and Z_u Z_v when the Y outcome is 1.

Each step is as few tableau operations as the physics allows.  The CZs of
a global layer commute, so a layer is one ``Tableau.apply_cz_layer`` call;
the cells a step prepares start in |0>, fresh or reset after a
measurement, and take their symbol gates in one masked pass; chain cells
are measured in X and Y directly, without conjugating gates.

Global layers are the only way to make an edge.  Every created edge is
recorded, with the global layer that created it,
until a chain consumes it.  A chain edge must have been created exactly
once, and a measured interior cell may carry no other edge, so a schedule
whose layers link the wrong cells fails as it runs instead of leaving a
wrong state behind.

The byproduct frame is one Pauli string over the tableau qubits and maps
ideal = frame * actual, up to a global phase that nothing reads.  Every
applied gate conjugates the frame (``pauli.conjugate_pauli``, and
``pauli.conjugate_cz_layer`` for a CZ layer); measurements never change it
but their raw outcomes are reinterpreted (X flips with the Z bit, Z with
the X bit, Y with both).  It changes only signs, so a data register is
read with the frame's part there alone, as X and Z gates (``frame_gates``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import Gate
from ..pauli import LOCAL_RULES, PauliString, conjugate_cz_layer, conjugate_pauli
from ..tableau import INIT_SYMBOLS, EntangledError, Tableau, run_gates

# Most cells one lattice may give a qubit (the largest named schedule uses
# 397).  Tableau memory grows with the square of this count.
MAX_CELLS = 4096


@dataclass
class OpCountReport:
    global_cz_steps: int = 0
    measured_ancillae: int = 0
    local_layers: int = 0
    distant_cz_ops: int = 0   # always 0, kept for the pinned report schema


@dataclass
class Chain:
    u: tuple[int, int]
    v: tuple[int, int]
    interior: list[tuple[int, int]]

    @property
    def path(self) -> list[tuple[int, int]]:
        return [self.u] + list(self.interior) + [self.v]

    def edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        p = self.path
        return [(p[i], p[i + 1]) for i in range(len(p) - 1)]

    def validate_geometry(self) -> None:
        p = self.path
        if len(set(p)) != len(p):
            raise LatticeError("chain revisits a cell")
        for a, b in self.edges():
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                raise LatticeError(f"chain cells {a} and {b} are not adjacent")


class LatticeError(ValueError):
    pass


def _edge(a: tuple[int, int], b: tuple[int, int]) -> tuple:
    return (a, b) if a <= b else (b, a)


def _check_forced(forced: list[int] | None, k: int) -> None:
    """A forced outcome list gives one 0 or 1 per interior cell."""
    if forced is None:
        return
    if len(forced) != k:
        raise LatticeError(f"forced has {len(forced)} outcomes for {k} interior cells")
    bad = [m for m in forced if m not in (0, 1)]
    if bad:
        raise LatticeError(f"forced outcomes must be 0 or 1, got {bad[0]!r}")


def _alternating_parities(outcomes: list[int]) -> tuple[int, int]:
    """Z byproducts (near end, far end) of X-measured chain cells: the near
    end takes the outcomes at even positions 2, 4, ... counted from it, the
    far end those at odd positions 1, 3, ...."""
    return sum(outcomes[1::2]) & 1, sum(outcomes[0::2]) & 1


class Lattice:
    """Grid of cells backed by one stabilizer tableau."""

    def __init__(self, rows: int, cols: int,
                 data_cells: dict[str, tuple[int, int]] | None = None):
        self.rows = rows
        self.cols = cols
        self.tab = Tableau.initialized(0)
        self.cells: list[tuple[int, int]] = []   # tableau qubit -> cell
        self._qubits: dict[tuple[int, int], int] = {}
        self.data_cells = {lbl: tuple(rc) for lbl, rc in (data_cells or {}).items()}
        for rc in self.data_cells.values():
            self._check_cell(rc)
        self.active: set[tuple[int, int]] = set()
        self.frame = PauliString(0)   # byproducts on the tableau qubits
        # created edges not yet consumed by a chain -> the global layers
        # (0-based) that created them
        self.pending: dict[tuple, list[int]] = {}
        self.counts = OpCountReport()
        self._rng = np.random.default_rng()

    def seed(self, seed_value) -> "Lattice":
        self._rng = np.random.default_rng(seed_value)
        return self

    # -- helpers ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Tableau width: the number of cells that have a qubit."""
        return self.tab.n

    def _in_grid(self, rc) -> bool:
        r, c = rc
        return 0 <= r < self.rows and 0 <= c < self.cols

    def _check_cell(self, rc) -> None:
        if not self._in_grid(rc):
            raise LatticeError(f"cell {tuple(rc)} outside the grid")

    def qubit(self, rc: tuple[int, int]) -> int:
        """Tableau qubit of a cell; only ``prepare`` gives a cell one."""
        rc = tuple(rc)
        if rc not in self._qubits:
            raise LatticeError(f"cell {rc} was never prepared")
        return self._qubits[rc]

    def data_qubits(self, labels: list[str]) -> list[int]:
        """Tableau qubits of the cells of data labels, in label order."""
        qubits = []
        for lbl in labels:
            if lbl not in self.data_cells:
                raise LatticeError(f"no data cell is labelled {lbl!r}")
            rc = self.data_cells[lbl]
            if rc not in self._qubits:
                raise LatticeError(f"data label {lbl!r}: cell {rc} was never prepared")
            qubits.append(self._qubits[rc])
        return qubits

    def _apply(self, gate: Gate) -> None:
        """Apply a gate to the state and conjugate the frame by it."""
        self.tab.apply(gate)
        self.frame = conjugate_pauli(self.frame, gate)

    def _flip_frame(self, q: int, x: int = 0, z: int = 0) -> None:
        if x or z:
            f = self.frame
            self.frame = PauliString(f.n, f.x ^ (x << q), f.z ^ (z << q), f.phase)

    def _clear_frame(self, q: int) -> None:
        f = self.frame
        if ((f.x | f.z) >> q) & 1:  # most clears find no bit; keep the frame
            self._flip_frame(q, f.x_bit(q), f.z_bit(q))

    # -- steps ------------------------------------------------------------------

    def prepare(self, cells: list[tuple[tuple[int, int], str]]) -> None:
        """Activate cells in |0>, |1>, |+> or |->.

        Re-preparing a cell that is still active (entangled or not) is an
        error; only fresh or measured cells may be prepared.
        Fresh cells get a |0> qubit and measured cells are reset to |0>;
        then the symbol gates of all the cells are applied in one pass.
        """
        cells = [(tuple(rc), sym) for rc, sym in cells]
        seen = set()
        for rc, sym in cells:
            if rc in self.active or rc in seen:
                raise LatticeError(f"cell {rc} is active; measure it before re-preparing")
            self._check_cell(rc)
            if str(sym) not in INIT_SYMBOLS:
                raise LatticeError(f"cell {rc}: unknown prepare symbol {sym!r}")
            seen.add(rc)
        # only a measurement releases a cell, so a cell with a qubit was measured
        measured = [self._qubits[rc] for rc, _ in cells if rc in self._qubits]
        new = [rc for rc, _ in cells if rc not in self._qubits]
        if self.n + len(new) > MAX_CELLS:
            raise LatticeError(
                f"lattice would use {self.n + len(new)} cells; the limit is {MAX_CELLS}")
        if new:  # one tableau resize for all the fresh cells
            for rc, q in zip(new, self.tab.add_qubits(len(new))):
                self._qubits[rc] = q
                self.cells.append(rc)
            f = self.frame
            self.frame = PauliString(self.n, f.x, f.z, f.phase)
        for q in measured:
            self.tab.reset_to_zero(q, rng=self._rng)
        self.tab.apply_symbol_gates([self._qubits[rc] for rc, _ in cells],
                                    [sym for _, sym in cells])
        for rc, _ in cells:
            self.active.add(rc)
            self._clear_frame(self._qubits[rc])

    def local_ops(self, ops: list[tuple[tuple[int, int], list[str]]]) -> None:
        for rc, kinds in ops:
            rc = tuple(rc)
            if rc not in self.active:
                raise LatticeError(f"local op on inactive cell {rc}")
            for kind in kinds:
                if kind not in LOCAL_RULES:
                    raise LatticeError(f"unsupported local gate {kind!r}")
                self._apply(Gate(kind, (self.qubit(rc),)))
        self.counts.local_layers += 1

    def adjacent_active_pairs(self, axis: str):
        dr, dc = (1, 0) if axis.startswith("v") else (0, 1)
        pairs = []
        for (r, c) in self.active:
            nb = (r + dr, c + dc)
            if nb in self.active:
                pairs.append(((r, c), nb))
        return sorted(pairs)

    def global_cz(self, axis: str) -> list:
        """One global entangling layer along an axis: CZ on every pair of
        adjacent active cells at once, on the state and the frame.  Each
        edge is recorded as created by this layer; returns the edges."""
        if axis not in ("vertical", "horizontal", "v", "h"):
            raise LatticeError(f"bad axis {axis!r}")
        pairs = self.adjacent_active_pairs(axis)
        qubit_pairs = [(self.qubit(a), self.qubit(b)) for a, b in pairs]
        self.tab.apply_cz_layer(qubit_pairs)
        self.frame = conjugate_cz_layer(self.frame, qubit_pairs)
        for a, b in pairs:
            self.pending.setdefault(_edge(a, b), []).append(self.counts.global_cz_steps)
        self.counts.global_cz_steps += 1
        return pairs

    # -- measurements --------------------------------------------------------------

    def measure_data(self, rc, basis: str, forced: int | None = None) -> int:
        """Measure a cell in X, Y or Z and release it, so that it may be
        prepared again; returns the frame-corrected outcome.  ``forced``
        forces the raw tableau outcome."""
        q, rc = self.qubit(rc), tuple(rc)
        if rc not in self.active:
            raise LatticeError(f"measurement of inactive cell {rc}")
        raw, _ = self.tab.measure(q, basis, rng=self._rng, forced=forced)
        if basis == "X":
            flip = self.frame.z_bit(q)
        elif basis == "Z":
            flip = self.frame.x_bit(q)
        else:
            flip = self.frame.z_bit(q) ^ self.frame.x_bit(q)
        self.active.discard(rc)
        self._clear_frame(q)
        return raw ^ flip

    def measure_chain(self, chain: Chain, forced: list[int] | None = None) -> list[int]:
        """Consume a chain: measure its interior, which releases it, and
        record byproducts.

        Returns the frame-corrected interior outcomes.  ``forced`` forces the
        raw tableau outcomes, one 0 or 1 per interior cell (for exhaustive
        byproduct tests).  Each chain
        edge must have been created exactly once, and no other edge may touch
        an interior cell; a chain that fails a check changes nothing.
        """
        chain.validate_geometry()
        u, v = tuple(chain.u), tuple(chain.v)
        interior = [tuple(rc) for rc in chain.interior]
        _check_forced(forced, len(interior))
        for rc in interior:
            if rc not in self.active:
                raise LatticeError(f"chain interior {rc} is not active")
        edges = [_edge(tuple(a), tuple(b)) for a, b in chain.edges()]
        for e in edges:
            created = len(self.pending.get(e, ()))
            if created != 1:
                raise LatticeError(f"chain edge {e} created {created} times")
        for r, c in interior:
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                e = _edge((r, c), nb)
                if e in self.pending and e not in edges:
                    raise LatticeError(
                        f"stray edge {e} touches measured interior {(r, c)}")
        for e in edges:   # every check passed: consume the chain's edges
            del self.pending[e]
        k = len(interior)
        if k == 0:
            return []

        def f(i):
            return None if forced is None else forced[i]

        # An odd interior first contracts to its head cell, which the Y
        # measurement below consumes; the X-measured run then starts at
        # interior[1] and its near end is the head instead of u.
        odd = k % 2
        near = interior[0] if odd else u
        outcomes = [self.measure_data(rc, "X", f(i))
                    for i, rc in enumerate(interior[odd:], start=odd)]
        zn, zv = _alternating_parities(outcomes)
        self._flip_frame(self.qubit(near), z=zn)
        self._flip_frame(self.qubit(v), z=zv)
        if odd:
            mu = self.measure_data(near, "Y", f(0))
            for rc in (u, v):
                self._apply(Gate("SDG", (self.qubit(rc),)))
                self._flip_frame(self.qubit(rc), z=mu)
            outcomes = [mu] + outcomes
        self.counts.measured_ancillae += k
        return outcomes

    def add_frame_pauli(self, rc, x: int = 0, z: int = 0) -> None:
        self._flip_frame(self.qubit(rc), bool(x), bool(z))

    # -- extraction ------------------------------------------------------------------

    def frame_gates(self, qubits: list[int]) -> list[Gate]:
        """The byproducts on ``qubits`` as X and Z gates on positions
        0..m-1: run on a register that holds those qubits in that order,
        they take its actual state to the ideal one."""
        f = self.frame
        return ([Gate("X", (j,)) for j, q in enumerate(qubits) if f.x_bit(q)]
                + [Gate("Z", (j,)) for j, q in enumerate(qubits) if f.z_bit(q)])

    def data_subtableau(self, label_order: list[str]) -> Tableau:
        """Extract the data-cell state as a small tableau.

        Requires every generator of the state to be supported either
        entirely on the data cells or entirely off them; raises naming the
        lowest leftover entangled cell otherwise.  The frame changes only
        signs, so it is applied to the extracted register alone.
        """
        data_qubits = self.data_qubits(label_order)
        distinct = list(dict.fromkeys(data_qubits))   # two labels may share a cell
        try:
            sub = self.tab.restricted(distinct)
        except EntangledError as exc:
            rc = min(self.cells[q] for q in exc.qubits)
            raise LatticeError(
                f"cell {rc} is still entangled with the data register") from None
        if len(distinct) != len(data_qubits):
            raise LatticeError(
                f"expected {len(data_qubits)} data generators, found {len(distinct)}")
        return run_gates(sub, self.frame_gates(distinct))
