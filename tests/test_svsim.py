import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state_vector
from qecc1wqc import code5, svsim
from qecc1wqc.circuit import CZ, GATE_KINDS, Gate, H, RZ
from qecc1wqc.pauli import PauliString
from qecc1wqc.svsim import StateVector
from qecc1wqc.tableau import Tableau


def test_init_plus():
    s = svsim.init(1, "+")
    assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_init_two_plus_then_cz():
    s = svsim.init(2, "++")
    svsim.apply(s, CZ(0, 1))
    # (|0+> + |1->)/sqrt(2)
    expect = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.allclose(s.amps, expect)


def test_init_basis_state():
    s = svsim.init(5, "00000")
    assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1


def test_qubit0_is_most_significant():
    s = svsim.init(2, "10")
    assert s.amps[2] == 1  # |10> -> index 2


def test_budget_guard():
    with pytest.raises(ValueError):
        svsim.init(25, "0" * 25)


def test_init_takes_state_vector_factors_as_np_kron_does(rng):
    """Symbols and StateVector factors, a two-qubit one between symbols,
    give the bytes of np.kron over the same factors."""
    psi, pair = svsim.random_state(rng, 1), svsim.random_state(rng, 2)
    factors = [psi, "+", pair, "1", "-"]
    expect = psi.amps
    for f in factors[1:]:
        expect = np.kron(expect, f.amps if isinstance(f, StateVector) else svsim.init(1, f).amps)
    assert svsim.init(6, factors).amps.tobytes() == expect.tobytes()
    whole = svsim.init(6, [svsim.init(6, factors)])
    assert whole.amps.tobytes() == expect.tobytes()


def test_init_copies_a_lone_factor():
    psi = svsim.init(1, "+")
    svsim.init(1, [psi]).amps[0] = 0
    assert psi.amps[0] != 0


@pytest.mark.parametrize("n, assignment", [
    (3, ["0", StateVector(1, [1, 0])]),
    (3, ["0", svsim.init(3, "000")]),
    (2, "000"),
])
def test_init_rejects_factor_widths_that_miss_n(n, assignment):
    with pytest.raises(ValueError, match=f"assignment covers .* qubits, not {n}$"):
        svsim.init(n, assignment)


def test_init_rejects_an_unknown_symbol():
    with pytest.raises(ValueError, match="symbol 'x' is not one of"):
        svsim.init(2, ["0", "x"])


def test_random_state_is_the_normalized_gaussian_draw():
    rng = np.random.default_rng(4)
    real, imag = rng.normal(size=8), rng.normal(size=8)
    v = real + 1j * imag
    state = svsim.random_state(np.random.default_rng(4), 3)
    assert state.n == 3
    assert state.amps.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_dense_horseshoe_start_state_stays_under_20_mb():
    """The 2^20 amplitudes take 16 MB.  The build starts from register A and
    joins register D last, as one product of the 2^15 state and D's 32
    amplitudes, so no 2^19 fold intermediate or second 2^20 array is alive
    next to the result, and no phase table is 2^20 wide."""
    import tracemalloc

    from qecc1wqc import protocols

    tracemalloc.start()
    try:
        _, state = protocols.build_horseshoe_logical("dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.n == 20
    assert peak < 20 * 2**20


def test_apply_h():
    s = svsim.init(1, "0")
    svsim.apply(s, H(0))
    assert svsim.fidelity(s, svsim.init(1, "+")) > 1 - 1e-12


def test_pentagon_gives_logical_minus():
    s = svsim.init(5, "+++++")
    for a, b in code5.PENTAGON_EDGES:
        svsim.apply(s, CZ(a, b))
    assert svsim.fidelity(s, code5.logical_minus()) > 1 - 1e-10


def test_rz_on_plus():
    s = svsim.init(1, "+")
    svsim.apply(s, RZ(0, np.pi / 2))
    expect = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    assert abs(np.vdot(expect, s.amps)) > 1 - 1e-12


def test_measure_plus_in_x_deterministic():
    s = svsim.init(1, "+")
    rec, _ = svsim.measure(s, 0, "X")
    assert rec.outcome == 0 and abs(rec.probability - 1) < 1e-10


def test_measure_xy_eigenstate():
    xi = 0.83
    amps = np.array([1, np.exp(1j * xi)], dtype=complex) / np.sqrt(2)
    s = StateVector(1, amps)
    rec, _ = svsim.measure(s, 0, "XY", xi=xi)
    assert rec.outcome == 0 and abs(rec.probability - 1) < 1e-10


def test_forced_zero_probability_rejected():
    s = svsim.init(1, "0")
    with pytest.raises(ValueError):
        svsim.measure(s, 0, "Z", forced=1)


def test_teleported_gate_from_physical_logical_state(rng):
    """Measuring the hub of the physical-logical state at angle -xi leaves
    (X^L)^m H^L Rz^L(xi) |psi^L> on the register."""
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = v / np.linalg.norm(v)
        xi = float(rng.uniform(0, 2 * np.pi))
        for m in (0, 1):
            state = StateVector(6, np.kron(
                np.array([alpha, beta]), svsim.init(5, "00000").amps))
            # physical-logical: qubit 0 physical, 1..5 logical
            # build it as alpha|0>|+L> + beta|1>|-L>
            lp = np.kron(np.array([1, 0]), code5.logical_plus().amps)
            lm = np.kron(np.array([0, 1]), code5.logical_minus().amps)
            state = StateVector(6, alpha * lp + beta * lm)
            rec, _ = svsim.measure(state, 0, "XY", forced=m, xi=-xi)
            out = svsim.extract_pure(state, [1, 2, 3, 4, 5])
            target = protocols_target(alpha, beta, xi, m)
            assert svsim.fidelity(out, target) > 1 - 1e-9


def protocols_target(alpha, beta, xi, m):
    from qecc1wqc.protocols import teleport_target
    return teleport_target((alpha, beta), xi, m)


def test_fidelity_basics():
    s0 = svsim.init(1, "0")
    s1 = svsim.init(1, "1")
    assert svsim.fidelity(s0, s0) == pytest.approx(1)
    assert svsim.fidelity(s0, s1) == pytest.approx(0)
    with pytest.raises(ValueError):
        svsim.fidelity(s0, svsim.init(2, "00"))


def test_partial_trace_pure_product(rng):
    sub = random_state_vector(rng, 2)
    amps = np.kron(np.array([1, 0]), sub)
    ok, got = svsim.partial_trace_is_pure(StateVector(3, amps), [1, 2])
    assert ok
    assert abs(np.vdot(sub, got.amps)) > 1 - 1e-10


def test_partial_trace_rejects_entangled_cut():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    ok, got = svsim.partial_trace_is_pure(StateVector(2, bell), [0])
    assert not ok and got is None
    with pytest.raises(ValueError):
        svsim.extract_pure(StateVector(2, bell), [0])


def test_norm_preserved_through_random_circuit(rng):
    s = svsim.init(4, "+0+0")
    for _ in range(60):
        kind = rng.choice(["H", "S", "RZ", "CZ"])
        if kind == "CZ":
            a, b = rng.choice(4, size=2, replace=False)
            svsim.apply(s, CZ(int(a), int(b)))
        elif kind == "RZ":
            svsim.apply(s, RZ(int(rng.integers(0, 4)), float(rng.uniform(0, 7))))
        else:
            svsim.apply(s, Gate(kind, (int(rng.integers(0, 4)),)))
    assert abs(np.linalg.norm(s.amps) - 1) < 1e-10
    for q in range(4):
        svsim.measure(s, q, "Z", rng=rng)
        assert abs(np.linalg.norm(s.amps) - 1) < 1e-10


def test_measurement_statistics_within_5_sigma(rng):
    zeros = 0
    trials = 10_000
    for _ in range(trials):
        s = svsim.init(1, "0")
        rec, _ = svsim.measure(s, 0, "X", rng=rng)
        zeros += rec.outcome == 0
    sigma = np.sqrt(trials * 0.25)
    assert abs(zeros - trials / 2) < 5 * sigma


def test_replay_with_recorded_outcomes_is_bitwise(rng):
    def run(forced):
        s = svsim.run_circuit(svsim.init(3, "0+0"), [H(0), CZ(0, 1), H(1)])
        first, _ = svsim.measure(s, 1, "Z", rng=rng, forced=forced[0])
        svsim.apply(s, CZ(1, 2))
        second, _ = svsim.measure(s, 0, "X", rng=rng, forced=forced[1])
        return (first.outcome, second.outcome), s

    outcomes, s1 = run((None, None))
    again, s2 = run(outcomes)
    assert again == outcomes
    assert np.array_equal(s1.amps, s2.amps)


def _dense_stabilizer_group(state: StateVector):
    """All signed Pauli strings stabilizing a dense state (n <= 5)."""
    found = set()
    n = state.n
    for x in range(2**n):
        for z in range(2**n):
            for phase in (0, 1, 2, 3):
                p = PauliString(n, x, z, phase)
                if (phase - bin(x & z).count("1")) % 2:  # not Hermitian
                    continue
                if np.allclose(p.matrix() @ state.amps, state.amps, atol=1e-8):
                    found.add((x, z, phase))
    return found


def test_clifford_cross_check_with_tableau(rng):
    """Random Clifford circuits: the dense stabilizer group, extracted by
    testing every signed Pauli string, equals the tableau's group."""
    for n in (2, 2, 3, 3, 4, 5):
        init = "".join(rng.choice(["0", "+"], size=n))
        s = svsim.init(n, init)
        t = Tableau.initialized(n, list(init))
        for _ in range(15):
            kind = rng.choice(["H", "S", "CZ"])
            if kind == "CZ" and n >= 2:
                a, b = rng.choice(n, size=2, replace=False)
                g = CZ(int(a), int(b))
            else:
                g = Gate(kind if kind != "CZ" else "H", (int(rng.integers(0, n)),))
            svsim.apply(s, g)
            t.apply(g)
        dense_group = _dense_stabilizer_group(s)
        # every group element generated by the tableau rows must stabilize
        members = set()
        rows = t.stabilizer_rows()
        from qecc1wqc.pauli import compose_pauli
        for bits in itertools.product([0, 1], repeat=n):
            acc = PauliString.identity(n)
            for take, row in zip(bits, rows):
                if take:
                    acc = compose_pauli(acc, row)
            members.add((acc.x, acc.z, acc.phase))
        assert members == dense_group


def test_apply_pauli_matches_pauli_matrix(rng):
    """apply_pauli is i^phase X^x Z^z, the operator PauliString.matrix() builds."""
    for n in range(1, 5):
        for phase in range(4):
            for _ in range(4):
                p = PauliString(n, int(rng.integers(0, 2**n)),
                                int(rng.integers(0, 2**n)), phase)
                s = svsim.from_amplitudes(random_state_vector(rng, n))
                want = p.matrix() @ s.amps
                assert np.allclose(svsim.apply_pauli(s, p).amps, want, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda s: svsim.measure(s, -1, "Z"),
    lambda s: svsim.measure(s, 3, "Z"),
    lambda s: svsim.measure(s, 0, "Q", xi=0.3),
    lambda s: svsim.measure(s, 0, "Y"),
    lambda s: svsim.measure(s, 0, "Z", forced=-1),
    lambda s: svsim.measure(s, 0, "Z", forced=2),
    lambda s: svsim.measure(s, 0, "XY", xi=math.nan),
    lambda s: svsim.measure(s, 0, "XY", xi=math.inf),
], ids=["qubit-1", "qubit-n", "basis-Q", "basis-Y", "forced-1", "forced2",
        "xi-nan", "xi-inf"])
def test_measure_rejects_bad_input(call, rng):
    s = svsim.from_amplitudes(random_state_vector(rng, 3))
    before = s.amps.tobytes()
    with pytest.raises(ValueError):
        call(s)
    assert s.amps.tobytes() == before


def test_state_vector_rejects_amplitude_count():
    with pytest.raises(ValueError, match="2 qubits need 4 amplitudes"):
        StateVector(2, np.ones(8) / math.sqrt(8))


def test_init_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="0, 1, \\+, -"):
        svsim.init(2, "0x")


# The tensordot/moveaxis formulas the reshaped-view kernels replaced.  The
# kernels must reproduce their bits exactly, not merely to rounding: pinned
# reports compare fidelities with ==.  The random states have no exact zeros,
# whose sign alone the two formulations may set differently.
_REF_U = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
_REF_U["SDG"] = _REF_U["S"].conj()


def _ref_apply(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    v = amps.copy().reshape([2] * n)
    if g.kind == "CZ":
        idx = [slice(None)] * n
        for t in g.targets:
            idx[t] = 1
        v[tuple(idx)] *= -1
        return v.reshape(-1)
    (q,) = g.targets
    if g.kind == "RZ":
        idx0 = [slice(None)] * n
        idx0[q] = 0
        idx1 = [slice(None)] * n
        idx1[q] = 1
        v[tuple(idx0)] *= np.exp(-1j * g.xi / 2)
        v[tuple(idx1)] *= np.exp(1j * g.xi / 2)
        return v.reshape(-1)
    v = np.tensordot(_REF_U[g.kind], v, axes=(1, q))
    return np.moveaxis(v, 0, q).reshape(-1)


def _ref_measure(amps, n, q, basis, xi, outcome):
    """(collapsed amplitudes, probability of ``outcome``)."""
    if basis == "Z":
        kets = np.eye(2, dtype=complex)
    else:
        theta = 0.0 if basis == "X" else float(xi)
        kets = (np.array([1, np.exp(1j * theta)], dtype=complex) / math.sqrt(2),
                np.array([1, -np.exp(1j * theta)], dtype=complex) / math.sqrt(2))
    v = amps.reshape([2] * n)
    part = np.tensordot(kets[outcome].conj(), v, axes=(0, q))
    prob = float(np.vdot(part, part).real)
    collapsed = np.moveaxis(np.tensordot(kets[outcome], part, axes=0), 0, q)
    return (collapsed / math.sqrt(prob)).reshape(-1), prob


def _assert_gate_bitwise(amps, n, g):
    got = svsim.apply(StateVector(n, amps.copy()), g).amps
    assert got.tobytes() == _ref_apply(amps, n, g).tobytes(), g


def _assert_measure_bitwise(amps, n, q, basis, xi, outcome):
    s = StateVector(n, amps.copy())
    rec, _ = svsim.measure(s, q, basis, forced=outcome, xi=xi)
    want, prob = _ref_measure(amps, n, q, basis, xi, outcome)
    assert rec.probability == prob, (q, basis, outcome)
    assert s.amps.tobytes() == want.tobytes(), (q, basis, outcome)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       xi=st.floats(-10, 10, allow_nan=False))
def test_kernels_match_tensordot_reference_bitwise(n, seed, xi):
    amps = random_state_vector(np.random.default_rng(seed), n)
    for q in range(n):
        for kind in GATE_KINDS:
            if kind != "CZ":
                _assert_gate_bitwise(amps, n, Gate(kind, (q,), xi if kind == "RZ" else None))
        for b in range(n):
            if b != q:
                _assert_gate_bitwise(amps, n, CZ(q, b))
        for basis in ("Z", "X", "XY"):
            for outcome in (0, 1):
                _assert_measure_bitwise(amps, n, q, basis, xi, outcome)


def test_kernels_match_tensordot_reference_bitwise_at_20_qubits():
    """Here H runs slab by slab, in every form: column slabs of one block
    (q = 0, 3), slabs of whole blocks (10), gathers (15, 17, 18), pairs (19)."""
    n = 20
    amps = random_state_vector(np.random.default_rng(20), n)
    for q in (0, 3, 10, 15, 17, 18, 19):
        _assert_gate_bitwise(amps, n, H(q))
        _assert_measure_bitwise(amps, n, q, "XY", 0.61, q % 2)


# -- runs of diagonal gates ---------------------------------------------------------


def _gate_matrix(n: int, g: Gate) -> np.ndarray:
    """The explicit 2^n x 2^n matrix of ``g``, qubit 0 most significant."""
    if g.kind == "CZ":
        a, b = g.targets
        bits = np.arange(1 << n)
        both = ((bits >> (n - 1 - a)) & (bits >> (n - 1 - b)) & 1).astype(bool)
        return np.diag(np.where(both, -1, 1).astype(complex))
    if g.kind == "RZ":
        u = np.diag([np.exp(-1j * g.xi / 2), np.exp(1j * g.xi / 2)])
    else:
        u = _REF_U[g.kind]
    (q,) = g.targets
    return np.kron(np.kron(np.eye(1 << q), u), np.eye(1 << (n - q - 1)))


@st.composite
def _circuits(draw):
    """(n, gates) with n <= 6 over all eight kinds, diagonal ones drawn more
    often so that runs of them are long."""
    n = draw(st.integers(1, 6))
    kinds = [k for k in GATE_KINDS if n > 1 or k != "CZ"]
    kinds += [k for k in ("CZ", "Z", "S", "SDG") if k in kinds] * 3
    qubit = st.integers(0, n - 1)
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CZ":
            gates.append(CZ(*draw(st.lists(qubit, min_size=2, max_size=2, unique=True))))
        elif kind == "RZ":
            gates.append(RZ(draw(qubit), draw(st.floats(-7, 7))))
        else:
            gates.append(Gate(kind, (draw(qubit),)))
    return n, gates


def _run_as_one_by_one(n: int, amps: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """run_circuit's amplitudes, checked equal to applying the gates one at
    a time, with every phase table it multiplies by within its run's qubits."""
    built, build = [], svsim._phase_table

    def recording(width, run):
        table = build(width, run)
        built.append((width, run, table))
        return table

    with mock.patch.object(svsim, "_phase_table", recording):
        run = svsim.run_circuit(StateVector(n, amps.copy()), gates).amps
    one_by_one = StateVector(n, amps.copy())
    for g in gates:
        svsim.apply(one_by_one, g)
    assert np.array_equal(run, one_by_one.amps)
    assert sum(len(r) for _, r, _ in built) == sum(g.kind in ("CZ", "Z", "S", "SDG") for g in gates)
    for width, key, table in built:
        touched = {t for g in key for t in g.targets}
        assert len(touched) <= svsim._RUN_QUBITS
        assert table.size <= 2 ** len(touched)
        assert table.ndim == width
    return run


@settings(max_examples=80, deadline=None)
@given(circuit=_circuits(), seed=st.integers(0, 2**32 - 1))
def test_run_circuit_matches_gate_matrices_and_single_gates(circuit, seed):
    """run_circuit, which multiplies each run of diagonal gates at once,
    matches the product of explicit gate matrices to 1e-12 and gives the
    values of applying the gates one at a time."""
    n, gates = circuit
    amps = random_state_vector(np.random.default_rng(seed), n)
    want = amps.copy()
    for g in gates:
        want = _gate_matrix(n, g) @ want
    assert np.allclose(_run_as_one_by_one(n, amps, gates), want, rtol=0, atol=1e-12)


def test_a_run_wider_than_its_bound_is_split(rng):
    """A CZ ring and a Z layer over 13 qubits form one diagonal run, which
    runs as tables of at most _RUN_QUBITS qubits each."""
    n = 13
    gates = [CZ(q, (q + 1) % n) for q in range(n)] + [Gate("Z", (q,)) for q in range(n)]
    _run_as_one_by_one(n, random_state_vector(rng, n), gates)


def test_run_circuit_checks_every_target():
    """A target out of range anywhere in the list raises before any gate
    runs, so the state is left untouched."""
    state = svsim.init(3, "+0+")
    before = state.amps.copy()
    with pytest.raises(ValueError, match="gate target 3 out of range"):
        svsim.run_circuit(state, [H(1), CZ(0, 1), Gate("S", (2,)), CZ(1, 3), H(0)])
    assert state.amps.tobytes() == before.tobytes()
