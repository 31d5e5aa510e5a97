import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecc1wqc import code5, svsim
from qecc1wqc.circuit import CZ, Gate, H, S
from qecc1wqc.pauli import PauliString, compose_pauli, conjugate_pauli
from qecc1wqc.tableau import EntangledError, ForcedOutcomeError, Tableau, run_gates


def _labels(t: Tableau) -> list[str]:
    return [p.to_label() for p in t.stabilizer_rows()]


def test_init_zero_and_plus():
    t = Tableau.initialized(1, ["0"])
    assert _labels(t) == ["+Z"]
    t = Tableau.initialized(2, ["+", "+"])
    assert _labels(t) == ["+XI", "+IX"]
    t = Tableau.initialized(5, ["+"] * 5)
    assert _labels(t)[0] == "+XIIII"


def test_two_qubit_graph_state_stabilizers():
    t = Tableau.initialized(2, "++")
    t.apply(CZ(0, 1))
    labels = set(_labels(t))
    assert labels == {"+XZ", "+ZX"}


def test_pentagon_stabilizers_match_neighbor_pattern():
    t = Tableau.initialized(5, "+++++")
    for a, b in code5.PENTAGON_EDGES:
        t.apply(CZ(a, b))
    for a in range(5):
        want = PauliString.identity(5)
        from qecc1wqc.pauli import compose_pauli
        want = compose_pauli(want, PauliString.single(5, a, "X"))
        want = compose_pauli(want, PauliString.single(5, (a - 1) % 5, "Z"))
        want = compose_pauli(want, PauliString.single(5, (a + 1) % 5, "Z"))
        assert t.stabilizes(want)


def test_hadamard_all_swaps_graph_stabilizers():
    t = Tableau.initialized(2, "++")
    t.apply(CZ(0, 1))
    t.apply(H(0))
    t.apply(H(1))
    # X Z -> Z X pattern swapped
    assert t.stabilizes(PauliString.from_label("+ZX"))
    assert t.stabilizes(PauliString.from_label("+XZ"))


def test_measure_plus_in_x_is_deterministic():
    t = Tableau.initialized(1, ["+"])
    outcome, deterministic = t.measure(0, "X")
    assert outcome == 0 and deterministic


def test_bell_pair_z_measurement_collapses_consistently():
    t = Tableau.initialized(2, "0+")
    # Bell-type: H on 1 then CZ then H gives CNOT-ish; use graph state + H
    t = Tableau.initialized(2, "++")
    t.apply(CZ(0, 1))
    t.apply(H(1))  # now |00> + |11>
    rng = np.random.default_rng(5)
    o1, det1 = t.measure(0, "Z", rng=rng)
    assert not det1
    o2, det2 = t.measure(1, "Z", rng=rng)
    assert det2 and o2 == o1


def test_forced_contradiction_raises():
    t = Tableau.initialized(1, ["+"])
    with pytest.raises(ForcedOutcomeError):
        t.measure(0, "X", forced=1)


def test_path_interior_measurement_vs_dense():
    """X-measuring both interior qubits of the 4-path graph state leaves the
    outer pair in a CZ|++> state up to the recorded byproducts, for every
    outcome pair."""
    for m1, m2 in itertools.product([0, 1], repeat=2):
        t = Tableau.initialized(4, "++++")
        for a, b in ((0, 1), (1, 2), (2, 3)):
            t.apply(CZ(a, b))
        o1, _ = t.measure(1, "X", forced=m1)
        o2, _ = t.measure(2, "X", forced=m2)
        # byproduct: Z_u^{m2} Z_v^{m1} relative to plain CZ on (0, 3)
        if o2:
            t.apply(Gate("Z", (0,)))
        if o1:
            t.apply(Gate("Z", (3,)))

        s = svsim.init(4, "++++")
        for a, b in ((0, 1), (1, 2), (2, 3)):
            svsim.apply(s, CZ(a, b))
        svsim.measure(s, 1, "X", forced=m1)
        svsim.measure(s, 2, "X", forced=m2)
        if m2:
            svsim.apply(s, Gate("Z", (0,)))
        if m1:
            svsim.apply(s, Gate("Z", (3,)))
        expect = svsim.init(2, "++")
        svsim.apply(expect, CZ(0, 1))
        got = svsim.extract_pure(s, [0, 3])
        assert svsim.fidelity(got, expect) > 1 - 1e-10
        # tableau agrees: outer pair stabilized like a two-qubit graph state
        assert t.stabilizes(_embed("XZ", t.n))
        assert t.stabilizes(_embed("ZX", t.n))


def _embed(two_label: str, n: int) -> PauliString:
    """Two-qubit label on qubits (0, 3) of a 4-qubit register."""
    from qecc1wqc.pauli import compose_pauli
    p = PauliString.identity(n)
    lookup = {"X": "X", "Z": "Z"}
    p = compose_pauli(p, PauliString.single(n, 0, lookup[two_label[0]]))
    p = compose_pauli(p, PauliString.single(n, 3, lookup[two_label[1]]))
    return p


def test_canonical_equality_and_sign_sensitivity():
    a = Tableau.initialized(1, ["0"])
    assert a.stab_equal(a.copy())
    b = Tableau.initialized(1, ["0"])
    b.apply(Gate("X", (0,)))  # |1>, stabilizer -Z
    assert not a.stab_equal(b)
    assert a.first_difference(b) is not None


def test_canonical_stabilizers_are_reduced_and_equivalent():
    t = Tableau.initialized(3, "+++")
    t.apply(CZ(0, 1))
    t.apply(CZ(1, 2))
    rows = t.canonical_stabilizers()
    assert len(rows) == 3 and all(t.stabilizes(row) for row in rows)
    leads = []
    for row in rows:
        for col in range(6):
            kind, q = divmod(col, 3)
            vec = row.x if kind == 0 else row.z
            if (vec >> q) & 1:
                leads.append(col)
                break
    assert leads == sorted(leads) and len(set(leads)) == len(leads)


def test_measure_y_eigenstate():
    t = Tableau.initialized(1, ["+"])
    t.apply(S(0))  # |+i>
    outcome, deterministic = t.measure(0, "Y")
    assert deterministic and outcome == 0


def test_z_parity_statistics_match_dense(rng):
    """Measuring all qubits of a graph state in Z: parity statistics agree
    with the dense simulator on small instances."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    n = 4
    counts_tab = np.zeros(2)
    counts_sv = np.zeros(2)
    trials = 400
    for k in range(trials):
        t = Tableau.initialized(n, "+" * n)
        s = svsim.init(n, "+" * n)
        for a, b in edges:
            t.apply(CZ(a, b))
            svsim.apply(s, CZ(a, b))
        pt = 0
        ps = 0
        seed_rng = np.random.default_rng((7, k))
        sv_rng = np.random.default_rng((7, k))
        for q in range(n):
            o, _ = t.measure(q, "Z", rng=seed_rng)
            pt ^= o
            rec, _ = svsim.measure(s, q, "Z", rng=sv_rng)
            ps ^= rec.outcome
        counts_tab[pt] += 1
        counts_sv[ps] += 1
    # both should be near 50/50 and within 5 sigma of each other
    sigma = np.sqrt(trials * 0.25)
    assert abs(counts_tab[0] - trials / 2) < 5 * sigma
    assert abs(counts_sv[0] - trials / 2) < 5 * sigma


def test_tableau_agreement_random_clifford_circuits(rng):
    """200 random Clifford circuits, n <= 5, <= 30 gates: every tableau
    generator stabilizes the dense state.  Since a pure stabilizer state's
    dense stabilizer group has exactly 2^n elements, containment of the n
    generators implies group equality."""
    for _ in range(200):
        n = int(rng.integers(2, 6))
        init = "".join(rng.choice(["0", "+"], size=n))
        t = Tableau.initialized(n, list(init))
        s = svsim.init(n, init)
        for _ in range(30):
            kind = rng.choice(["H", "S", "SDG", "CZ", "X", "Z"])
            if kind == "CZ":
                if n < 2:
                    continue
                a, b = rng.choice(n, size=2, replace=False)
                g = CZ(int(a), int(b))
            else:
                g = Gate(kind, (int(rng.integers(0, n)),))
            t.apply(g)
            svsim.apply(s, g)
        for row in t.stabilizer_rows():
            assert np.allclose(row.matrix() @ s.amps, s.amps, atol=1e-8)


# -- differential checks --------------------------------------------------------

_ONE_QUBIT = ("H", "S", "SDG", "X", "Y", "Z")


@st.composite
def clifford_programs(draw):
    """A qubit count n <= 8, product-state symbols, and a list of steps:
    Clifford gates (including Clifford-angle RZ) and Z/X/Y measurements,
    each measurement carrying the outcome to force when it is random."""
    n = draw(st.integers(1, 8))
    init = draw(st.text(alphabet="0+", min_size=n, max_size=n))
    qubit = st.integers(0, n - 1)
    one = st.builds(lambda k, q: ("gate", Gate(k, (q,))), st.sampled_from(_ONE_QUBIT), qubit)
    rz = st.builds(lambda k, q: ("gate", Gate("RZ", (q,), xi=k * math.pi / 2)),
                   st.integers(-3, 3), qubit)
    meas = st.tuples(st.just("measure"), qubit, st.sampled_from("ZXY"), st.integers(0, 1))
    steps = [one, rz, meas]
    if n >= 2:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        steps.append(st.builds(lambda ab: ("gate", CZ(*ab)), pair))
    program = draw(st.lists(st.one_of(steps), max_size=40))
    return n, init, program


def _dense_measure(s, q, basis, outcome):
    if basis == "Y":  # outcome 0 is the +i eigenstate, as in the tableau
        return svsim.measure(s, q, "XY", xi=math.pi / 2, forced=outcome)[0]
    return svsim.measure(s, q, basis, forced=outcome)[0]


@settings(max_examples=300, deadline=None)
@given(prog=clifford_programs())
def test_tableau_matches_dense_on_random_programs(prog):
    """Gates and forced measurements on the tableau and on the state vector:
    deterministic outcomes agree, random ones have probability 1/2, and
    every tableau generator stabilizes the dense state after every step."""
    n, init, program = prog
    t = Tableau.initialized(n, list(init))
    s = svsim.init(n, init)
    for step in program:
        if step[0] == "gate":
            t.apply(step[1])
            svsim.apply(s, step[1])
        else:
            _, q, basis, bit = step
            probe, deterministic = t.copy().measure(q, basis, rng=np.random.default_rng(0))
            outcome = probe if deterministic else bit
            got, det = t.measure(q, basis, forced=outcome)
            assert (got, det) == (outcome, deterministic)
            rec = _dense_measure(s, q, basis, outcome)
            assert rec.probability == pytest.approx(1.0 if det else 0.5, abs=1e-9)
        for row in t.stabilizer_rows():
            assert np.allclose(svsim.apply_pauli(s.copy(), row).amps, s.amps, atol=1e-9)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_rows_follow_conjugate_pauli_across_word_boundaries(n):
    """Every destabilizer and stabilizer row after every gate equals the
    previous row conjugated by that gate, with targets on both sides of
    each 64-qubit word boundary."""
    rng = np.random.default_rng(n)
    t = Tableau.initialized(n, list(rng.choice(["0", "+"], size=n)))
    rows = [t.row_pauli(i) for i in range(2 * n)]
    edge = sorted({0, 1, 62, 63, 64, 65, n - 2, n - 1} & set(range(n)))
    for _ in range(60):
        pick = [int(rng.choice(edge)) if rng.random() < 0.6 else int(rng.integers(n))
                for _ in range(2)]
        kind = rng.choice(["CZ", "RZ", *_ONE_QUBIT])
        if kind == "CZ":
            if pick[0] == pick[1]:
                continue
            g = CZ(*pick)
        elif kind == "RZ":
            g = Gate("RZ", (pick[0],), xi=int(rng.integers(-3, 4)) * math.pi / 2)
        else:
            g = Gate(str(kind), (pick[0],))
        t.apply(g)
        rows = [conjugate_pauli(p, g) for p in rows]
        assert [t.row_pauli(i) for i in range(2 * n)] == rows, g


def test_long_path_measurement_crosses_words():
    """A 130-qubit path graph state with all interior qubits measured in X
    leaves CZ|++> on the endpoints up to the chain byproducts; re-measuring
    an interior qubit is deterministic and repeats its outcome."""
    n = 130
    rng = np.random.default_rng(3)
    t = Tableau.initialized(n, "+" * n)
    for a in range(n - 1):
        t.apply(CZ(a, a + 1))
    outs = []
    for q in range(1, n - 1):
        o, det = t.measure(q, "X", forced=int(rng.integers(0, 2)))
        assert not det
        outs.append(o)
    if sum(outs[1::2]) % 2:
        t.apply(Gate("Z", (0,)))
    if sum(outs[0::2]) % 2:
        t.apply(Gate("Z", (n - 1,)))
    for a, b in (("X", "Z"), ("Z", "X")):
        p = compose_pauli(PauliString.single(n, 0, a), PauliString.single(n, n - 1, b))
        assert t.stabilizes(p)
    for q in (1, 63, 64, 65, 128):
        t.restricted([q])  # raises EntangledError if q is not disentangled
        assert t.measure(q, "X") == (outs[q - 1], True)


def _random_clifford_program(n, rng, gates=200):
    """Random initial symbols and a random gate list on n >= 2 qubits."""
    init = list(rng.choice(["0", "+"], size=n))
    prog = []
    for _ in range(gates):
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        prog.append(CZ(a, b) if rng.random() < 0.4 else Gate(str(rng.choice(_ONE_QUBIT)), (a,)))
    return init, prog


def _random_clifford_tableau(n, rng, gates=200):
    init, prog = _random_clifford_program(n, rng, gates)
    t = Tableau.initialized(n, init)
    for g in prog:
        t.apply(g)
    return t


def _reference_canonical(rows: list[PauliString]) -> list[PauliString]:
    """Row reduction one Python-int row at a time: x columns, then z."""
    rows = list(rows)
    rank = 0
    for block in ("x", "z"):
        for q in range(rows[0].n):
            hit = [i for i in range(rank, len(rows)) if (getattr(rows[i], block) >> q) & 1]
            if not hit:
                continue
            rows[rank], rows[hit[0]] = rows[hit[0]], rows[rank]
            for i in range(len(rows)):
                if i != rank and (getattr(rows[i], block) >> q) & 1:
                    rows[i] = compose_pauli(rows[i], rows[rank])
            rank += 1
    return rows


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_canonical_rows_match_reference_elimination(n):
    """Vectorized elimination equals the row-at-a-time reference, signs
    included, after gates and random measurements."""
    rng = np.random.default_rng(100 + n)
    t = _random_clifford_tableau(n, rng)
    for q in rng.choice(n, size=8, replace=False):
        t.measure(int(q), str(rng.choice(["X", "Y", "Z"])), rng=rng)
    assert t.canonical_stabilizers() == _reference_canonical(t.stabilizer_rows())


def test_add_qubits_matches_wider_initial_tableau():
    """Growing past a word boundary keeps every row, and the new qubits are
    |0> with destabilizer X_q."""
    rng = np.random.default_rng(9)
    init = list(rng.choice(["0", "+"], size=60))
    gates = [CZ(2 * k, 2 * k + 1) for k in range(30)] + [H(q) for q in range(0, 60, 7)]
    grown = run_gates(Tableau.initialized(60, init), gates)
    assert grown.add_qubits(10) == range(60, 70)
    wide = run_gates(Tableau.initialized(70, init + ["0"] * 10), gates)
    assert ([grown.row_pauli(i) for i in range(140)]
            == [wide.row_pauli(i) for i in range(140)])


def test_restricted_extracts_unentangled_subsystem():
    n = 70
    t = Tableau.initialized(n, "+" * n)
    t.apply(CZ(2, 66))           # a pair across the word boundary
    t.apply(S(66))
    bell = Tableau.initialized(2, "++")
    bell.apply(CZ(0, 1))
    bell.apply(S(0))
    assert t.restricted([66, 2]).stab_equal(bell)
    with pytest.raises(EntangledError) as exc:
        t.restricted([2, 5])
    assert exc.value.qubits == [66]


def _answers(t: Tableau, q: int, basis: str) -> tuple[int, bool]:
    """(outcome, deterministic) of measuring q on a copy; a random outcome
    is forced to 0."""
    try:
        return t.copy().measure(q, basis, forced=0)
    except ForcedOutcomeError:
        return 1, True


def _assert_answers_like(sub: Tableau, fresh: Tableau, paulis) -> None:
    for p in paulis:
        assert sub.stabilizes(p) == fresh.stabilizes(p), p.to_label()
    for q, basis in itertools.product(range(sub.n), "XYZ"):
        assert _answers(sub, q, basis) == _answers(fresh, q, basis), (q, basis)


def test_restricted_answers_like_a_fresh_preparation():
    """The extracted pair of a CZ on |+++> stabilizes its own first
    generator +XZ and measures like a CZ on a fresh |++>."""
    t = Tableau.initialized(3, "+++").apply(CZ(0, 1))
    sub = t.restricted([0, 1])
    fresh = Tableau.initialized(2, "++").apply(CZ(0, 1))
    assert [p.to_label() for p in sub.stabilizer_rows()] == ["+XZ", "+ZX"]
    assert sub.stabilizes(PauliString.from_label("+XZ"))
    labels = ["+XZ", "-XZ", "+ZX", "+YY", "-YY", "+XI", "+ZZ", "+II"]
    _assert_answers_like(sub, fresh, [PauliString.from_label(lb) for lb in labels])


def _unentangled_split(n, rng):
    """A random state on n >= 4 qubits whose random subset ``part`` (in a
    random order) is unentangled from the rest, and the state of ``part``
    prepared on its own.  Both sides get random programs; random
    measurements, repeated on the fresh copy, make the rows generic."""
    order = [int(q) for q in rng.permutation(n)]
    cut = int(rng.integers(2, n - 1))
    part, rest = order[:cut], order[cut:]
    programs = [_random_clifford_program(len(qs), rng, gates=3 * len(qs)) for qs in (part, rest)]
    t = Tableau.initialized(n)
    for qubits, (init, prog) in zip((part, rest), programs):
        t.apply_symbol_gates(qubits, init)
        run_gates(t, [Gate(g.kind, tuple(qubits[q] for q in g.targets)) for g in prog])
    fresh = run_gates(Tableau.initialized(cut, programs[0][0]), programs[0][1])
    for q in rng.choice(n, size=4, replace=False):
        basis = str(rng.choice(["X", "Y", "Z"]))
        outcome, _ = t.measure(int(q), basis, rng=rng)
        if int(q) in part:
            fresh.measure(part.index(int(q)), basis, forced=outcome)
    return t, part, fresh


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 70), seed=st.integers(0, 2**32 - 1))
def test_restricted_matches_fresh_preparation_on_random_splits(n, seed):
    """``restricted`` keeps the canonical generators that touch the part,
    as they were, and its destabilizers make ``stabilizes`` and ``measure``
    answer as on the part prepared on its own."""
    rng = np.random.default_rng(seed)
    t, part, fresh = _unentangled_split(n, rng)
    sub = t.restricted(part)
    m = len(part)
    expected = [PauliString(m, sum(g.x_bit(q) << j for j, q in enumerate(part)),
                            sum(g.z_bit(q) << j for j, q in enumerate(part)), g.phase)
                for g in t.canonical_stabilizers()
                if any(g.x_bit(q) or g.z_bit(q) for q in part)]
    assert sub.stabilizer_rows() == expected
    assert sub.stab_equal(fresh)
    members = []
    for _ in range(6):
        p = PauliString.identity(m)
        for row in fresh.stabilizer_rows():
            if rng.random() < 0.5:
                p = compose_pauli(p, row)
        members.append(p)
    flipped = [PauliString(m, p.x, p.z, p.phase + 2) for p in members]
    bits = [PauliString(m, p.x ^ (1 << int(rng.integers(0, m))), p.z, p.phase) for p in members]
    _assert_answers_like(sub, fresh, members + flipped + bits)


@pytest.mark.parametrize("gate", [Gate("Z", (128,)), CZ(0, 128), S(128)],
                         ids=["sign_of_last_row", "z_bit_in_third_word", "y_on_last_qubit"])
def test_stab_equal_sees_every_row_and_word(gate):
    t = Tableau.initialized(129, "+" * 129)
    u = t.copy().apply(gate)
    assert t.stab_equal(t.copy())
    assert not t.stab_equal(u) and not u.stab_equal(t)
    assert t.first_difference(u) is not None


@pytest.mark.parametrize("n,gate", [(3, H(-1)), (70, CZ(0, 100)), (3, CZ(0, 40)), (3, H(200))],
                         ids=["negative", "past_n_in_second_word", "padding_bit",
                              "past_last_word"])
def test_apply_rejects_out_of_range_target(n, gate):
    t = Tableau.initialized(n, "+" * n)
    before = t.copy()
    with pytest.raises(ValueError, match="out of range"):
        t.apply(gate)
    for got, want in ((t.x, before.x), (t.z, before.z), (t.ph, before.ph)):
        assert got.tobytes() == want.tobytes()
    assert _labels(t) == _labels(before)


# -- one-pass layers, native X/Y measurement, born symbols -------------------------


def _rows_bytes(t: Tableau) -> tuple[bytes, bytes, bytes]:
    return t.x.tobytes(), t.z.tobytes(), t.ph.tobytes()


def _measured_clifford_tableau(n, seed):
    """A dense random stabilizer state with mixed phases: three rounds of n
    random CZs and a random one-qubit gate on every qubit, then a few random
    measurements so the destabilizers are generic too."""
    rng = np.random.default_rng(seed)
    t = Tableau.initialized(n, list(rng.choice(["0", "+"], size=n)))
    for _ in range(3):
        t.apply_cz_layer([tuple(int(q) for q in rng.choice(n, size=2, replace=False))
                          for _ in range(n)])
        for q in range(n):
            t.apply(Gate(str(rng.choice(_ONE_QUBIT)), (q,)))
    for q in rng.choice(n, size=4, replace=False):
        t.measure(int(q), str(rng.choice(["X", "Y", "Z"])), rng=rng)
    return t


@st.composite
def cz_layers(draw):
    """A stabilizer state on 60..130 qubits and a CZ pair list mixing pairs
    inside one 64-qubit word, pairs across words and repeated qubits."""
    n = draw(st.integers(60, 130))
    qubit = st.integers(0, n - 1)
    near = st.builds(lambda a, d: (a, (a + d) % n), qubit, st.integers(1, 3))
    far = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(st.one_of(near, far), max_size=150))
    return n, draw(st.integers(0, 2**32 - 1)), pairs


@settings(max_examples=40, deadline=None)
@given(case=cz_layers())
def test_cz_layer_matches_per_pair_apply(case):
    """The layer kernel against every row conjugated one CZ at a time by
    ``conjugate_pauli``, whose CZ rule is separate integer code."""
    n, seed, pairs = case
    t = _measured_clifford_tableau(n, seed)
    want = [t.row_pauli(i) for i in range(2 * n)]
    for a, b in pairs:
        want = [conjugate_pauli(p, CZ(a, b)) for p in want]
    t.apply_cz_layer(pairs)
    assert [t.row_pauli(i) for i in range(2 * n)] == want


@pytest.mark.parametrize("pairs,message", [
    ([(0, 1), (2, 70)], "out of range"), ([(3, -1)], "out of range"),
    ([(0, 1), (4, 4)], "distinct")], ids=["past_n", "negative", "same_qubit"])
def test_cz_layer_rejects_bad_pairs_before_any_change(pairs, message):
    t = _measured_clifford_tableau(70, 5)
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match=message):
        t.apply_cz_layer(pairs)
    assert _rows_bytes(t) == before


def _conjugated_measure(t: Tableau, q: int, basis: str, rng, forced):
    """X and Y measurement by rotating the basis to Z: H for X, S^dag then H
    for Y, a Z measurement, and the inverse rotation."""
    rotate = [H(q)] if basis == "X" else [Gate("SDG", (q,)), H(q)]
    run_gates(t, rotate)
    out = t.measure(q, "Z", rng=rng, forced=forced)
    run_gates(t, [H(q)] if basis == "X" else [H(q), S(q)])
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(60, 130), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from("XY"),
                                st.sampled_from([None, 0, 1])), min_size=1, max_size=12))
def test_native_xy_measurement_matches_conjugated_reference(n, seed, steps):
    """Outcome, deterministic flag, every row and the RNG state afterwards
    agree with the rotated Z measurement, for random and forced outcomes and
    for the deterministic repeat of each measurement."""
    t = _measured_clifford_tableau(n, seed)
    ref = t.copy()
    rng_t, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for pick, basis, forced in steps:
        q = pick % n
        if forced is not None:
            value, det = t.copy().measure(q, basis, rng=np.random.default_rng(0))
            forced = value if det else forced
        got = t.measure(q, basis, rng=rng_t, forced=forced)
        assert got == _conjugated_measure(ref, q, basis, rng_ref, forced)
        assert _rows_bytes(t) == _rows_bytes(ref)
        assert rng_t.bit_generator.state == rng_ref.bit_generator.state
        # measuring again is deterministic, repeats the outcome, keeps the rows
        rows = _rows_bytes(t)
        again = t.measure(q, basis, rng=rng_t)
        assert again == (got[0], True) == _conjugated_measure(ref, q, basis, rng_ref, None)
        assert _rows_bytes(t) == rows == _rows_bytes(ref)


@pytest.mark.parametrize("q,basis,forced,message", [
    (3, "Q", None, "supports Z/X/Y, not 'Q'"),
    (70, "X", None, "qubit 70 out of range for n=70"),
    (-1, "Z", None, "qubit -1 out of range"),
    (3, "Y", 2, "forced outcome must be 0 or 1, got 2"),
], ids=["basis", "qubit_n", "qubit_negative", "forced"])
def test_measure_rejects_bad_input_before_any_change(q, basis, forced, message):
    t = _measured_clifford_tableau(70, 4)
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match=message):
        t.measure(q, basis, rng=np.random.default_rng(0), forced=forced)
    assert _rows_bytes(t) == before


def test_native_xy_measurement_applies_no_gate(monkeypatch):
    t = _measured_clifford_tableau(70, 2)
    monkeypatch.setattr(Tableau, "apply", lambda self, g: pytest.fail(f"applied {g}"))
    for q in range(0, 70, 7):
        t.measure(q, "X", rng=np.random.default_rng(q))
        t.measure(q + 1, "Y", rng=np.random.default_rng(q))


_SYMBOL_GATES = {"0": [], "1": ["X"], "+": ["H"], "-": ["X", "H"]}


def _symbol_gates(qubits, symbols):
    return [Gate(k, (q,)) for q, sym in zip(qubits, symbols) for k in _SYMBOL_GATES[sym]]


@pytest.mark.parametrize("n", [1, 64, 130])
def test_symbol_preparation_matches_gates(n):
    """``initialized`` and ``apply_symbol_gates`` write the rows that X and
    H, applied gate by gate, leave."""
    rng = np.random.default_rng(n)
    syms = [str(s) for s in rng.choice(list("01+-"), size=n)]
    want = run_gates(Tableau.initialized(n), _symbol_gates(range(n), syms))
    assert _rows_bytes(Tableau.initialized(n, syms)) == _rows_bytes(want)

    t = _measured_clifford_tableau(70, n)
    t.add_qubits(n)
    ref = t.copy()
    qubits = [int(q) for q in rng.choice(70 + n, size=min(n, 40), replace=False)]
    qubits += [q for q in range(70, 70 + n) if q not in qubits]
    mixed = [str(s) for s in rng.choice(list("01+-"), size=len(qubits))]
    masked = t.apply_symbol_gates(qubits, mixed)
    run_gates(ref, _symbol_gates(qubits, mixed))
    assert _rows_bytes(masked) == _rows_bytes(ref)


def test_unknown_init_symbol_rejected():
    with pytest.raises(ValueError, match="unsupported init symbol 'y'"):
        Tableau.initialized(2, "0y")


def test_symbol_count_must_match_qubits():
    with pytest.raises(ValueError, match="assignment length"):
        Tableau.initialized(3, "0+")
    with pytest.raises(ValueError, match="one symbol per qubit"):
        Tableau.initialized(3).apply_symbol_gates([0, 1], "+")


@pytest.mark.parametrize("init,basis", [("+", "Z"), ("0", "Z"), ("0", "X"), ("+", "Y")],
                         ids=["random_z", "deterministic_z", "random_x", "random_y"])
@pytest.mark.parametrize("forced", [2, -1])
def test_forced_outcome_outside_bits_rejected(init, basis, forced):
    """A forced outcome must be 0 or 1; anything else raises before a row
    changes (it used to write phase 4 or 2 * forced into the pivot row)."""
    t = Tableau.initialized(1, [init])
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        t.measure(0, basis, forced=forced)
    assert _rows_bytes(t) == before


# -- qubit range checks --------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 3, -1], ids=["past_n", "n", "negative"])
@pytest.mark.parametrize("basis", ["Z", "X", "Y"])
def test_measure_rejects_out_of_range_qubit(q, basis):
    """It used to fail with 'deterministic measurement did not reduce to
    +/-Z', or read the padding bits of the last word."""
    t = Tableau.initialized(3, "+00")
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match=f"qubit {q} out of range"):
        t.measure(q, basis, rng=np.random.default_rng(0))
    assert _rows_bytes(t) == before


@pytest.mark.parametrize("qubits", [[-1], [0, 5]], ids=["negative", "past_n"])
def test_restricted_rejects_out_of_range_qubit(qubits):
    """``restricted([-1])`` used to return the state of qubit 2."""
    with pytest.raises(ValueError, match="out of range"):
        Tableau.initialized(3, "+00").restricted(qubits)


@pytest.mark.parametrize("qubits,symbols", [([9], ["+"]), ([1, 3], ["0", "0"]), ([-1], ["1"])],
                         ids=["past_n", "identity_symbol", "negative"])
def test_symbol_gates_reject_out_of_range_qubit(qubits, symbols):
    t = Tableau.initialized(3, "+00")
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match="out of range"):
        t.apply_symbol_gates(qubits, symbols)
    assert _rows_bytes(t) == before


@pytest.mark.parametrize("symbols", [["+", "+"], ["1", "1"], ["+", "-"]])
def test_symbol_gates_reject_repeated_qubit(symbols):
    """A repeated qubit used to take one symbol's gates, not both: ["+", "+"]
    left |+>, not H H|0> = |0>."""
    t = Tableau.initialized(3, "+00")
    before = _rows_bytes(t)
    with pytest.raises(ValueError, match=r"repeated qubit in \[0, 0\]"):
        t.apply_symbol_gates([0, 0], symbols)
    assert _rows_bytes(t) == before


@pytest.mark.parametrize("label", ["+IIIZ", "+XI"], ids=["wider", "narrower"])
def test_stabilizes_rejects_wrong_width(label):
    with pytest.raises(ValueError, match="3-qubit tableau"):
        Tableau.initialized(3, "+00").stabilizes(PauliString.from_label(label))


# -- membership by destabilizer product ----------------------------------------------


def _reference_stabilizes(t: Tableau, p: PauliString) -> bool:
    """Reduce ``p`` by the reference echelon rows, leading bit by leading
    bit; it is in the group when the remainder is +I."""
    cur = p
    for row in _reference_canonical(t.stabilizer_rows()):
        for block in ("x", "z"):
            bits = getattr(row, block)
            if bits:
                if (getattr(cur, block) >> ((bits & -bits).bit_length() - 1)) & 1:
                    cur = compose_pauli(cur, row)
                break
    return cur == PauliString.identity(cur.n)


@st.composite
def states_and_paulis(draw):
    """A random stabilizer state on 2..130 qubits (some qubits measured last,
    so some are unentangled), and a Pauli that is a product of stabilizer
    rows, that product with its sign flipped or one bit flipped, or random."""
    n = draw(st.integers(2, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _random_clifford_tableau(n, rng, gates=3 * n)
    for q in rng.choice(n, size=min(n, 4), replace=False):
        t.measure(int(q), str(rng.choice(["X", "Y", "Z"])), rng=rng)
    p = PauliString.identity(n)
    for row in t.stabilizer_rows():
        if rng.random() < 0.5:
            p = compose_pauli(p, row)
    kind = draw(st.sampled_from(["member", "sign", "bit", "random"]))
    if kind == "sign":
        p = PauliString(n, p.x, p.z, p.phase + 2)
    elif kind == "bit":
        q = int(rng.integers(0, n))
        p = PauliString(n, p.x ^ (1 << q), p.z, p.phase)
    elif kind == "random":
        bits = st.integers(0, 2**n - 1)
        p = PauliString(n, draw(bits), draw(bits), draw(st.integers(0, 3)))
    return t, p


@settings(max_examples=40, deadline=None)
@given(case=states_and_paulis())
def test_stabilizes_matches_reference_reduction(case):
    t, p = case
    before = _rows_bytes(t)
    assert t.stabilizes(p) == _reference_stabilizes(t, p)
    assert _rows_bytes(t) == before

