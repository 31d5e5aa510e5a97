"""Stabilizer tableau simulator (destabilizer/stabilizer generator rows).

Every row is a bit-packed Pauli in the phased X/Z normal form of
:mod:`.pauli`:

    row = i^phase * prod_q X_q^{x_q} Z_q^{z_q}

``x`` and ``z`` are ``uint64`` arrays of shape (2n, ceil(n/64)); bit q of a
row is bit q % 64 of word q // 64.  ``ph`` holds the phases, one ``uint8``
per row, kept in 0..3.  Rows 0..n-1 are destabilizers, rows n..2n-1
stabilizers.  A gate on qubit q reads and rewrites one bit column of all
rows at once, as in Stim (arXiv:2103.02202); a list of commuting CZs and
the gates that prepare product-state symbols are each one pass.
Measurement follows Aaronson and Gottesman (quant-ph/0406196) in the
measured basis itself: a random outcome replaces the pivot stabilizer with
+/-X_q, +/-Y_q or +/-Z_q, a deterministic outcome is read off by
multiplying the stabilizer partners of the anticommuting destabilizers.

The same product decides membership without elimination.  Destabilizer i
anticommutes with stabilizer i and commutes with every other generator, so
a Pauli P in the stabilizer group is the product of the stabilizers whose
destabilizer partners anticommute with P.  That product always lies in the
group, so P, sign included, is in the group exactly when the product equals
it (:meth:`Tableau.stabilizes`); a qubit is unentangled exactly when the
product for X_q, Y_q or Z_q equals it up to sign.  Row-reduced echelon form
(:meth:`Tableau.canonical_stabilizers`) is kept for what needs a unique
generator list: group equality, extracting a subsystem, and diagnostics.

Every distinct numpy kernel maps more of numpy's code into memory the first
time it runs, so tests for zero and equality reuse ``count_nonzero``,
``flatnonzero`` and byte comparison rather than adding comparison ufuncs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import Gate
from .pauli import LOCAL_RULES, PauliString, clifford_kind


class ForcedOutcomeError(ValueError):
    """Raised when a forced outcome contradicts a deterministic measurement."""


class EntangledError(ValueError):
    """Raised when a subsystem to extract is entangled with other qubits;
    ``qubits`` lists those other qubits."""

    def __init__(self, qubits: list[int]):
        super().__init__(f"subsystem is entangled with qubits {qubits}")
        self.qubits = qubits


INIT_SYMBOLS = ("0", "1", "+", "-")


def _words(n: int) -> int:
    return (n + 63) // 64


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """(rows, m) array of 0/1 -> (rows, ceil(m/64)) packed ``uint64`` rows."""
    rows, m = bits.shape
    packed = np.zeros((rows, 8 * _words(m)), dtype=np.uint8)
    packed[:, :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _unpack_bits(words: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: (rows, words) -> (rows, m) of 0/1."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=m, bitorder="little")


def _check_qubits(n: int, qubits) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")


def _qubit_mask(n: int, qubits) -> np.ndarray:
    """Packed row, ceil(n/64) words, with the bits of ``qubits`` set."""
    _check_qubits(n, qubits)
    bits = np.zeros((1, n), dtype=np.uint8)
    bits[0, list(qubits)] = 1
    return _pack_bits(bits)[0]


def _row_int(row: np.ndarray) -> int:
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


def _int_row(v: int, w: int) -> np.ndarray:
    """Inverse of :func:`_row_int`: a Python bitmask as w packed words."""
    return np.frombuffer(v.to_bytes(8 * w, "little"), dtype="<u8").astype(np.uint64)


def _sign_flips(zs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per row, popcount(z & x) mod 2: moving the X part of one Pauli past
    the Z part of another flips the sign once per shared qubit."""
    return np.bitwise_count(np.bitwise_xor.reduce(zs & xs, axis=-1)) & 1


@dataclass(eq=False)
class Tableau:
    n: int
    x: np.ndarray
    z: np.ndarray
    ph: np.ndarray

    # -- construction --------------------------------------------------------

    @classmethod
    def initialized(cls, n: int, assignment=None) -> "Tableau":
        """Product state; per-qubit symbols in {'0', '1', '+', '-'} (default
        all '0'), prepared by :meth:`apply_symbol_gates` on |0...0>."""
        t = cls(0, np.zeros((0, 0), dtype=np.uint64), np.zeros((0, 0), dtype=np.uint64),
                np.zeros(0, dtype=np.uint8))
        t.add_qubits(n)
        if assignment is not None:
            if len(assignment) != n:
                raise ValueError("assignment length must equal qubit count")
            t.apply_symbol_gates(range(n), assignment)
        return t

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.x.copy(), self.z.copy(), self.ph.copy())

    def add_qubits(self, k: int) -> range:
        """Append k qubits in |0>; returns their indices."""
        n, m = self.n, self.n + k
        w_old, w = self.x.shape[1], _words(m)
        grown = []
        for block in (self.x, self.z):
            new = np.zeros((2 * m, w), dtype=np.uint64)
            new[:n, :w_old] = block[:n]
            new[m:m + n, :w_old] = block[n:]
            grown.append(new)
        x, z = grown
        ph = np.zeros(2 * m, dtype=np.uint8)
        ph[:n] = self.ph[:n]
        ph[m:m + n] = self.ph[n:]
        added = range(n, m)
        for q in added:
            word, bit = q >> 6, np.uint64(1 << (q & 63))
            x[q, word] = bit          # destabilizer X_q
            z[m + q, word] = bit      # stabilizer   Z_q
        self.n, self.x, self.z, self.ph = m, x, z, ph
        return added

    # -- row helpers ----------------------------------------------------------

    def _multiply_rows(self, rows: np.ndarray, i: int) -> None:
        """row[h] <- row[h] * row[i] for every h in ``rows``, with phases."""
        x, z, ph = self.x, self.z, self.ph
        zs = z[rows]
        ph[rows] = (ph[rows] + ph[i] + 2 * _sign_flips(zs, x[i])) & 3
        x[rows] ^= x[i]
        z[rows] = zs ^ z[i]

    def row_pauli(self, i: int) -> PauliString:
        return PauliString(self.n, _row_int(self.x[i]), _row_int(self.z[i]), int(self.ph[i]))

    def stabilizer_rows(self) -> list[PauliString]:
        return [self.row_pauli(i) for i in range(self.n, 2 * self.n)]

    # -- gates ----------------------------------------------------------------

    def apply(self, g: Gate) -> "Tableau":
        """One Clifford gate: a CZ is a one-pair layer, a single-qubit gate
        rewrites the bit columns its rule in ``pauli.LOCAL_RULES`` flips."""
        kind = clifford_kind(g)
        if kind == "CZ":
            return self.apply_cz_layer([g.targets])
        (t,) = g.targets
        if not 0 <= t < self.n:
            raise ValueError(f"gate target {t} out of range")
        if kind not in LOCAL_RULES:  # an RZ by a whole number of turns
            return self
        # bit t of a row is bit t % 8 of its byte t // 8 (see apply_cz_layer);
        # byte columns keep the phase arithmetic in uint8
        byte, s = t >> 3, t & 7
        x, z = self.x.view(np.uint8)[:, byte], self.z.view(np.uint8)[:, byte]
        fx, fz, d = LOCAL_RULES[kind]((x >> s) & 1, (z >> s) & 1)
        if fx is not None:
            x ^= fx << s
        if fz is not None:
            z ^= fz << s
        self.ph += d
        self.ph &= 3
        return self

    def apply_cz_layer(self, pairs) -> "Tableau":
        """CZ on every (a, b) in the list ``pairs``, in one pass over the rows.

        CZ leaves the X block alone and its update reads only X, so the CZs
        of a list commute: z_a ^= x_b, z_b ^= x_a and the phase gains
        2 x_a x_b per pair, in any order.  The pass reads and writes only
        the bytes that hold paired qubits (on a little-endian host, bit q of
        a row is bit q % 8 of its byte q // 8); the writes are XOR-reduced
        per target byte, so targets that share a byte cannot overwrite each
        other.
        """
        for a, b in pairs:
            for t in (a, b):
                if not 0 <= t < self.n:
                    raise ValueError(f"gate target {t} out of range")
            if a == b:
                raise ValueError(f"CZ needs two distinct qubits, got {a} twice")
        if not pairs:
            return self
        a, b = np.array(pairs, dtype=np.int64).T
        x8 = self.x.view(np.uint8)
        xa = (x8[:, a >> 3] >> (a & 7).astype(np.uint8)) & 1
        xb = (x8[:, b >> 3] >> (b & 7).astype(np.uint8)) & 1
        self.ph ^= np.bitwise_xor.reduce(xa & xb, axis=1) << 1
        # z_a ^= x_b and z_b ^= x_a, as shifted bits grouped by target byte
        t = np.concatenate([a, b])
        order = np.argsort(t >> 3, kind="stable")
        t = t[order]
        writes = np.concatenate([xb, xa], axis=1)[:, order] << (t & 7).astype(np.uint8)
        cols, starts = np.unique(t >> 3, return_index=True)
        self.z.view(np.uint8)[:, cols] ^= np.bitwise_xor.reduceat(writes, starts, axis=1)
        return self

    def apply_symbol_gates(self, qubits, symbols) -> "Tableau":
        """The gates that take |0> to each symbol ('1': X, '+': H, '-': X
        then H) on every qubit at once, as masked column updates."""
        qubits, symbols = list(qubits), [str(sym) for sym in symbols]
        if len(symbols) != len(qubits):
            raise ValueError("one symbol per qubit")
        _check_qubits(self.n, qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {qubits}")
        for sym in symbols:
            if sym not in INIT_SYMBOLS:
                raise ValueError(f"unsupported init symbol {sym!r}")
        xs = [q for q, sym in zip(qubits, symbols) if sym in "1-"]
        hs = [q for q, sym in zip(qubits, symbols) if sym in "+-"]
        if xs:
            self.ph ^= _sign_flips(self.z, _qubit_mask(self.n, xs)) << 1
        if hs:
            mask = _qubit_mask(self.n, hs)
            self.ph ^= _sign_flips(self.x & mask, self.z) << 1
            flip = (self.x ^ self.z) & mask
            self.x ^= flip
            self.z ^= flip
        return self

    # -- measurement ------------------------------------------------------------

    def _partner_product(self, destabilizers: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Packed (x, z, phase) of the product, in row order, of the
        stabilizer partners of the destabilizer rows ``destabilizers``.

        The k-th factor picks up the sign of moving its X part past the Z
        parts of the factors before it.  For the destabilizers that
        anticommute with a Pauli P, the product is the element of the
        stabilizer group that equals P if P is in the group at all.
        """
        rows = destabilizers + self.n
        xs, zs = self.x[rows], self.z[rows]
        before = np.bitwise_xor.accumulate(zs, axis=0)[:-1]
        phase = (int(self.ph[rows].sum(dtype=np.int64))
                 + 2 * int(np.count_nonzero(_sign_flips(before, xs[1:])))) % 4
        return np.bitwise_xor.reduce(xs, axis=0), np.bitwise_xor.reduce(zs, axis=0), phase

    def measure(self, q: int, basis: str, rng=None, forced: int | None = None):
        """Measure the Pauli ``basis`` (X, Y or Z) on qubit q.  Returns
        (outcome, deterministic); outcome 0 is the +1 eigenstate (|+i> for Y).

        The rows that anticommute with it are those with bit q set in z
        (X), x (Z) or x ^ z (Y).  A random outcome o turns the pivot
        stabilizer into the measured Pauli with phase 2o (plus 1 for Y, as
        Y = i XZ); a deterministic outcome is read off the product of the
        stabilizer partners of the anticommuting destabilizers.
        """
        if basis not in ("Z", "X", "Y"):
            raise ValueError(f"tableau measurement supports Z/X/Y, not {basis!r}")
        n = self.n
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
        if forced is not None and forced not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced!r}")
        w, bit = q >> 6, np.uint64(1 << (q & 63))
        px, pz = basis in "XY", basis in "ZY"
        col = self.x[:, w] if basis == "Z" else self.z[:, w]
        if basis == "Y":
            col = col ^ self.x[:, w]
        anti = col & bit
        stab_hits = anti[n:].nonzero()[0]

        if stab_hits.size:
            pivot = n + int(stab_hits[0])
            anti[pivot] = 0
            self._multiply_rows(anti.nonzero()[0], pivot)
            # old stabilizer becomes the destabilizer partner
            d = pivot - n
            self.x[d], self.z[d], self.ph[d] = self.x[pivot], self.z[pivot], self.ph[pivot]
            if forced is not None:
                outcome = int(forced)
            else:
                if rng is None:
                    rng = np.random.default_rng()
                outcome = int(rng.integers(0, 2))
            self.x[pivot] = 0
            self.z[pivot] = 0
            if px:
                self.x[pivot, w] = bit
            if pz:
                self.z[pivot, w] = bit
            self.ph[pivot] = 2 * outcome + (px and pz)
            return outcome, False

        x, z, phase = self._partner_product(anti.nonzero()[0])
        sp = (phase - (px and pz)) % 4
        if (_row_int(x), _row_int(z)) != (px << q, pz << q) or sp % 2:
            raise AssertionError(
                f"deterministic measurement did not reduce to +/-{basis}")
        outcome = sp // 2
        if forced is not None and int(forced) != outcome:
            raise ForcedOutcomeError(
                f"forced outcome {forced} contradicts deterministic value {outcome}")
        return outcome, True

    def reset_to_zero(self, q: int, rng=None) -> None:
        """Collapse qubit q and leave it in |0>.  Caller must ensure it is
        disentangled (e.g. just measured); the collapse itself is projective."""
        outcome, _ = self.measure(q, "Z", rng=rng)
        if outcome == 1:
            self.apply(Gate("X", (q,)))

    # -- canonical form and equality ----------------------------------------------

    def _canonical_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packed (x, z, phase) of the row-reduced echelon generators.

        Columns are eliminated x-block first, then z, each in qubit order;
        the result is unique for the signed stabilizer group.
        """
        n, w = self.n, self.x.shape[1]
        rows = np.concatenate([self.x[n:], self.z[n:]], axis=1)
        ph = self.ph[n:].copy()
        rank = 0
        for base in (0, w):
            for q in range(n):
                if rank == n:
                    break
                col = base + (q >> 6)
                bits = (rows[:, col] >> (q & 63)) & 1
                below = np.flatnonzero(bits[rank:])
                if not below.size:
                    continue
                pivot = rank + int(below[0])
                if pivot != rank:
                    rows[[rank, pivot]] = rows[[pivot, rank]]
                    ph[[rank, pivot]] = ph[[pivot, rank]]
                    bits[[rank, pivot]] = bits[[pivot, rank]]
                bits[rank] = 0
                hits = np.flatnonzero(bits)
                if hits.size:
                    ph[hits] = (ph[hits] + ph[rank]
                                + 2 * _sign_flips(rows[hits, w:], rows[rank, :w])) & 3
                    rows[hits] ^= rows[rank]
                rank += 1
        return rows[:, :w], rows[:, w:], ph

    def canonical_stabilizers(self) -> list[PauliString]:
        """Row-reduced echelon generators (x-block first, then z), signed."""
        x, z, ph = self._canonical_rows()
        return [PauliString(self.n, _row_int(x[i]), _row_int(z[i]), int(ph[i]))
                for i in range(self.n)]

    def stab_equal(self, other: "Tableau") -> bool:
        """Equality of signed stabilizer groups."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return all(a.tobytes() == b.tobytes()
                   for a, b in zip(self._canonical_rows(), other._canonical_rows()))

    def restricted(self, qubits: list[int]) -> "Tableau":
        """The state of ``qubits``, in that order, as its own tableau.

        Every canonical generator must act on ``qubits`` only or not at all;
        otherwise raises :class:`EntangledError` naming the other qubits of
        the generators that act on both sides.
        """
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {qubits}")
        mask = _qubit_mask(self.n, qubits)
        x, z, ph = self._canonical_rows()
        support = x | z
        inside = support & mask
        touching = np.flatnonzero(np.bitwise_or.reduce(inside, axis=1))
        stray = np.bitwise_or.reduce(support[touching] ^ inside[touching], axis=0)
        if np.count_nonzero(stray):
            raise EntangledError(np.flatnonzero(_unpack_bits(stray[None], self.n)[0]).tolist())
        # a pure state split into two unentangled parts has exactly
        # len(qubits) generators touching ``qubits``
        m = len(qubits)
        sx, sz = (_unpack_bits(b[touching], self.n)[:, qubits] for b in (x, z))
        # Each echelon generator has a pivot qubit where it alone has an X
        # bit or, having no X bits, a Z bit: Z or X there is its partner.
        # Multiplying a partner by the generator of an earlier one that it
        # anticommutes with makes the two commute and changes nothing else.
        d = np.zeros((2, m, m), dtype=np.uint8)       # partners' x and z bits
        for i in range(m):
            bits = sx if sx[i].any() else sz
            d[int(bits is sx), i, np.flatnonzero(bits[i] & (bits.sum(axis=0) == 1))[0]] = 1
        sub = Tableau(m, _pack_bits(np.concatenate([d[0], sx])),
                      _pack_bits(np.concatenate([d[1], sz])),
                      np.concatenate([np.zeros(m, dtype=np.uint8), ph[touching]]))
        for j in range(m):
            for i in range(j):
                if _sign_flips(sub.x[i], sub.z[j]) ^ _sign_flips(sub.z[i], sub.x[j]):
                    sub._multiply_rows(np.array([j]), m + i)
        return sub

    def first_difference(self, other: "Tableau") -> str | None:
        """Label of the first differing canonical generator, for diagnostics."""
        a = self.canonical_stabilizers()
        b = other.canonical_stabilizers()
        for pa, pb in zip(a, b):
            if (pa.x, pa.z, pa.phase) != (pb.x, pb.z, pb.phase):
                return f"{pa.to_label()} != {pb.to_label()}"
        return None

    def stabilizes(self, p: PauliString) -> bool:
        """Is the signed Pauli ``p`` in the stabilizer group?  It is exactly
        when the product of the stabilizers whose destabilizers anticommute
        with ``p`` equals ``p``, phase included."""
        if p.n != self.n:
            raise ValueError(f"Pauli on {p.n} qubits for a {self.n}-qubit tableau")
        n, w = self.n, self.x.shape[1]
        px, pz = _int_row(p.x, w), _int_row(p.z, w)
        anti = np.flatnonzero(_sign_flips(self.x[:n], pz) ^ _sign_flips(self.z[:n], px))
        x, z, phase = self._partner_product(anti)
        return (phase == p.phase and x.tobytes() == px.tobytes()
                and z.tobytes() == pz.tobytes())


def run_gates(t: Tableau, gates) -> Tableau:
    """Apply ``gates`` in order, each run of consecutive CZs as one
    :meth:`Tableau.apply_cz_layer` call."""
    for is_cz, run in groupby(gates, key=lambda g: g.kind == "CZ"):
        if is_cz:
            t.apply_cz_layer([g.targets for g in run])
        else:
            for g in run:
                t.apply(g)
    return t
