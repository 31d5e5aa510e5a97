"""Lattice engine: global CZ layers, chain gadgets, and frame bookkeeping.

Cells of a 2D grid back one tableau qubit each.  Entangling happens only
through axis-wise global CZ steps acting on every pair of adjacent active
cells; selectivity comes entirely from which cells are prepared active.
Distant CZ links are chains: a path of |+> ancillas entangled by the global
layers and then measured out.  An even number of interior ancillas measured
in X implements CZ between the endpoints up to Z byproducts:

    Z_u ^= m_2 xor m_4 xor ...      Z_v ^= m_1 xor m_3 xor ...

(positions counted from u).  An odd interior is contracted to length one by
X measurements and finished by a Y measurement of the last ancilla, a
deterministic S^dag on both endpoints, and Z_u Z_v when the Y outcome is 1.

Every created edge is counted until a chain consumes it.  A chain edge must
have been created exactly once, and a measured interior cell may carry no
other edge, so a schedule whose layers link the wrong cells fails as it
runs instead of leaving a wrong state behind.

The byproduct frame maps ideal = frame * actual.  Every applied gate
conjugates the frame; measurements never change it but their raw outcomes
are reinterpreted (X flips with the Z bit, Z with the X bit, Y with both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import CZ, Gate
from ..pauli import PauliString
from ..tableau import Tableau

_SYMBOL_GATES = {"0": [], "1": ["X"], "+": ["H"], "-": ["X", "H"]}


@dataclass
class OpCountReport:
    global_cz_steps: int = 0
    measured_ancillae: int = 0
    local_layers: int = 0
    distant_cz_ops: int = 0

    def to_json_obj(self) -> dict:
        return {
            "global_cz_steps": self.global_cz_steps,
            "measured_ancillae": self.measured_ancillae,
            "local_layers": self.local_layers,
            "distant_cz_ops": self.distant_cz_ops,
        }


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


class Lattice:
    """Grid of cells backed by one stabilizer tableau."""

    def __init__(self, rows: int, cols: int,
                 data_cells: dict[str, tuple[int, int]] | None = None):
        self.rows = rows
        self.cols = cols
        self.n = rows * cols
        self.tab = Tableau.initialized(self.n)
        self.data_cells = dict(data_cells or {})
        for rc in self.data_cells.values():
            self.qubit(rc)
        self.active: set[tuple[int, int]] = set()
        self.ever_measured: set[tuple[int, int]] = set()
        self.frame_x: dict[tuple[int, int], int] = {}
        self.frame_z: dict[tuple[int, int], int] = {}
        # created edges not yet consumed by a chain -> times created
        self.pending: dict[tuple, int] = {}
        self.counts = OpCountReport()
        self.slots: dict[str, int] = {}
        self._rng = np.random.default_rng()

    def seed(self, seed_value) -> "Lattice":
        self._rng = np.random.default_rng(seed_value)
        return self

    # -- helpers ---------------------------------------------------------------

    def qubit(self, rc: tuple[int, int]) -> int:
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise LatticeError(f"cell {rc} outside the grid")
        return r * self.cols + c

    def fx(self, rc) -> int:
        return self.frame_x.get(tuple(rc), 0)

    def fz(self, rc) -> int:
        return self.frame_z.get(tuple(rc), 0)

    # -- steps ------------------------------------------------------------------

    def prepare(self, cells: list[tuple[tuple[int, int], str]]) -> None:
        """Activate cells in |0>, |1>, |+> or |->.

        Re-preparing a cell that is still active (entangled or not) is an
        error; only fresh or measured-and-released cells may be prepared.
        """
        for rc, sym in cells:
            rc = tuple(rc)
            if rc in self.active:
                raise LatticeError(f"cell {rc} is active; measure it before re-preparing")
            q = self.qubit(rc)
            gates = _SYMBOL_GATES.get(str(sym))
            if gates is None:
                raise LatticeError(f"cell {rc}: unknown prepare symbol {sym!r}")
            if rc in self.ever_measured:
                self.tab.reset_to_zero(q, rng=self._rng)
            for kind in gates:
                self.tab.apply(Gate(kind, (q,)))
            self.active.add(rc)
            self.frame_x.pop(rc, None)
            self.frame_z.pop(rc, None)

    def _conjugate_frame_gate(self, rc: tuple[int, int], kind: str) -> None:
        x, z = self.fx(rc), self.fz(rc)
        if kind == "H":
            x, z = z, x
        elif kind in ("S", "SDG"):
            z ^= x
        elif kind in ("X", "Y", "Z"):
            pass
        else:
            raise LatticeError(f"unsupported local gate {kind!r}")
        self.frame_x[rc] = x
        self.frame_z[rc] = z

    def local_ops(self, ops: list[tuple[tuple[int, int], list[str]]]) -> None:
        for rc, kinds in ops:
            rc = tuple(rc)
            if rc not in self.active:
                raise LatticeError(f"local op on inactive cell {rc}")
            for kind in kinds:
                self._conjugate_frame_gate(rc, kind)
                self.tab.apply(Gate(kind, (self.qubit(rc),)))
        self.counts.local_layers += 1

    def _apply_cz(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        self.tab.apply(CZ(self.qubit(a), self.qubit(b)))
        e = _edge(a, b)
        self.pending[e] = self.pending.get(e, 0) + 1
        za = self.fz(a) ^ self.fx(b)
        zb = self.fz(b) ^ self.fx(a)
        self.frame_z[a] = za
        self.frame_z[b] = zb

    def adjacent_active_pairs(self, axis: str):
        dr, dc = (1, 0) if axis.startswith("v") else (0, 1)
        pairs = []
        for (r, c) in self.active:
            nb = (r + dr, c + dc)
            if nb in self.active:
                pairs.append(((r, c), nb))
        return sorted(pairs)

    def global_cz(self, axis: str) -> list:
        """One global entangling layer along an axis; returns created edges."""
        if axis not in ("vertical", "horizontal", "v", "h"):
            raise LatticeError(f"bad axis {axis!r}")
        pairs = self.adjacent_active_pairs(axis)
        for a, b in pairs:
            self._apply_cz(a, b)
        self.counts.global_cz_steps += 1
        return pairs

    # -- measurements --------------------------------------------------------------

    def _measure_frame_corrected(self, rc: tuple[int, int], basis: str,
                                 forced: int | None = None) -> int:
        q = self.qubit(rc)
        raw, _ = self.tab.measure(q, basis, rng=self._rng, forced=forced)
        if basis == "X":
            flip = self.fz(rc)
        elif basis == "Z":
            flip = self.fx(rc)
        else:
            flip = self.fz(rc) ^ self.fx(rc)
        return raw ^ flip

    def measure_chain(self, chain: Chain, forced: list[int] | None = None) -> list[int]:
        """Consume a chain: measure its interior, record byproducts, release.

        Returns the frame-corrected interior outcomes.  ``forced`` forces the
        raw tableau outcomes (for exhaustive byproduct tests).  Each chain
        edge must have been created exactly once, and no other edge may touch
        an interior cell.
        """
        chain.validate_geometry()
        u, v = tuple(chain.u), tuple(chain.v)
        interior = [tuple(rc) for rc in chain.interior]
        for rc in interior:
            if rc not in self.active:
                raise LatticeError(f"chain interior {rc} is not active")
        for a, b in chain.edges():
            e = _edge(tuple(a), tuple(b))
            created = self.pending.pop(e, 0)
            if created != 1:
                raise LatticeError(f"chain edge {e} created {created} times")
        for r, c in interior:
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                e = _edge((r, c), nb)
                if e in self.pending:
                    raise LatticeError(
                        f"stray edge {e} touches measured interior {(r, c)}")
        k = len(interior)
        if k == 0:
            return []

        def f(i):
            return None if forced is None else forced[i]

        outcomes: list[int] = []
        if k % 2 == 0:
            for i, rc in enumerate(interior):
                m = self._measure_frame_corrected(rc, "X", f(i))
                outcomes.append(m)
            zu = 0
            zv = 0
            for i, m in enumerate(outcomes):  # position i+1 from u
                if (i + 1) % 2 == 0:
                    zu ^= m
                else:
                    zv ^= m
            self.frame_z[u] = self.fz(u) ^ zu
            self.frame_z[v] = self.fz(v) ^ zv
        else:
            head = interior[0]
            tail = interior[1:]
            tail_out: list[int] = []
            for j, rc in enumerate(tail):
                m = self._measure_frame_corrected(rc, "X", f(j + 1))
                tail_out.append(m)
            zh = 0
            zv = 0
            for j, m in enumerate(tail_out):  # position j+1 from the head cell
                if (j + 1) % 2 == 0:
                    zh ^= m
                else:
                    zv ^= m
            self.frame_z[head] = self.fz(head) ^ zh
            self.frame_z[v] = self.fz(v) ^ zv
            mu = self._measure_frame_corrected(head, "Y", f(0))
            for rc in (u, v):
                self.tab.apply(Gate("SDG", (self.qubit(rc),)))
                self._conjugate_frame_gate(rc, "SDG")
            self.frame_z[u] = self.fz(u) ^ mu
            self.frame_z[v] = self.fz(v) ^ mu
            outcomes = [mu] + tail_out

        for rc in interior:
            self.active.discard(rc)
            self.ever_measured.add(rc)
            self.frame_x.pop(rc, None)
            self.frame_z.pop(rc, None)
        self.counts.measured_ancillae += k
        return outcomes

    def distant_cz(self, u, v, path_interior, forced: list[int] | None = None) -> list[int]:
        """Self-contained distant CZ: entangle a fresh |+> path, measure it.

        The interior must have even length; the odd-interior alternative
        needs a manual Hadamard on an endpoint and is not supported here.
        """
        interior = [tuple(rc) for rc in path_interior]
        if len(interior) % 2 != 0:
            raise LatticeError("distant CZ requires an even number of interior ancillae")
        chain = Chain(tuple(u), tuple(v), interior)
        chain.validate_geometry()
        self.prepare([(rc, "+") for rc in interior])
        for a, b in chain.edges():
            self._apply_cz(a, b)
        self.counts.distant_cz_ops += 1
        return self.measure_chain(chain, forced=forced)

    def measure_data(self, rc, basis: str, slot: str,
                     forced: int | None = None) -> int:
        m = self._measure_frame_corrected(tuple(rc), basis, forced)
        self.slots[slot] = m
        return m

    def add_frame_pauli(self, rc, x: int = 0, z: int = 0) -> None:
        rc = tuple(rc)
        if x:
            self.frame_x[rc] = self.fx(rc) ^ 1
        if z:
            self.frame_z[rc] = self.fz(rc) ^ 1

    # -- extraction ------------------------------------------------------------------

    def frame_applied_tableau(self) -> Tableau:
        """Copy of the tableau with all pending frame corrections applied."""
        t = self.tab.copy()
        for rc, bit in self.frame_x.items():
            if bit:
                t.apply(Gate("X", (self.qubit(rc),)))
        for rc, bit in self.frame_z.items():
            if bit:
                t.apply(Gate("Z", (self.qubit(rc),)))
        return t

    def data_subtableau(self, label_order: list[str]) -> Tableau:
        """Extract the data-cell state as a small tableau.

        Requires every generator of the (frame-corrected) state to be
        supported either entirely on the data cells or entirely off them;
        raises naming a leftover entangled cell otherwise.
        """
        t = self.frame_applied_tableau()
        data_qubits = [self.qubit(self.data_cells[lbl]) for lbl in label_order]
        data_set = set(data_qubits)
        kept: list[PauliString] = []
        for gen in t.canonical_stabilizers():
            support = {q for q in range(self.n)
                       if gen.x_bit(q) or gen.z_bit(q)}
            if not support:
                continue
            inside = support & data_set
            if not inside:
                continue
            if support - data_set:
                cell = sorted(support - data_set)[0]
                rc = divmod(cell, self.cols)
                raise LatticeError(
                    f"cell {rc} is still entangled with the data register")
            kept.append(gen)
        if len(kept) != len(data_qubits):
            raise LatticeError(
                f"expected {len(data_qubits)} data generators, found {len(kept)}")
        m = len(data_qubits)
        sub = Tableau.initialized(m)
        for i, gen in enumerate(kept):
            x = z = 0
            for j, q in enumerate(data_qubits):
                x |= gen.x_bit(q) << j
                z |= gen.z_bit(q) << j
            sub.xs[m + i] = x
            sub.zs[m + i] = z
            sub.ph[m + i] = gen.phase
        return sub
