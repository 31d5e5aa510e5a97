import re

import numpy as np
import pytest

from conftest import apply_K5_reduction, logical_zero_from_K5, random_qubit
from qecc1wqc import code5, svsim
from qecc1wqc.circuit import CZ
from qecc1wqc.graphs import tableau_to_graph
from qecc1wqc.pauli import PauliString, compose_pauli
from qecc1wqc.tableau import Tableau

PLUS_TERMS = {"00000", "10010", "01001", "10100", "01010", "00101"}
MINUS_TERMS = {"11011", "00110", "11000", "11101", "00011",
               "11110", "01111", "10001", "01100", "10111"}

# the first four encoder layers, E1
E1 = [g for layer in code5.encoder_layers()[:4] for g in layer]


def test_logical_zero_amplitude_pattern():
    amps = code5.logical_zero().amps
    nonzero = {format(i, "05b"): amps[i] for i in range(32) if abs(amps[i]) > 1e-12}
    assert set(nonzero) == PLUS_TERMS | MINUS_TERMS
    for term, value in nonzero.items():
        expect = 0.25 if term in PLUS_TERMS else -0.25
        assert value == pytest.approx(expect)


def test_logical_one_is_transversal_x_of_zero():
    direct = code5.logical_one()
    flipped = code5.logical_zero()
    svsim.apply_pauli(flipped, code5.logical_x())
    assert np.allclose(direct.amps, flipped.amps)


def test_pentagon_identities_exact():
    pent_plus = svsim.init(5, "+++++")
    pent_minus = svsim.init(5, "-----")
    for a, b in code5.PENTAGON_EDGES:
        svsim.apply(pent_plus, CZ(a, b))
        svsim.apply(pent_minus, CZ(a, b))
    assert svsim.fidelity(pent_plus, code5.logical_minus()) > 1 - 1e-10
    assert svsim.fidelity(pent_minus, code5.logical_plus()) > 1 - 1e-10


def test_k5_construction():
    built = logical_zero_from_K5()
    assert svsim.fidelity(built, code5.logical_zero()) > 1 - 1e-10


def test_k5_intermediate_is_complete_graph():
    t = Tableau.initialized(5, "+++++")
    for a in range(5):
        for b in range(a + 1, 5):
            t.apply(CZ(a, b))
    g, _ = tableau_to_graph(t)
    assert len(g.edges) == 10


def test_k5_reduction_not_involutive():
    once = logical_zero_from_K5()
    twice = apply_K5_reduction(once.copy())
    k5 = svsim.init(5, "+++++")
    for a in range(5):
        for b in range(a + 1, 5):
            svsim.apply(k5, CZ(a, b))
    assert svsim.fidelity(twice, k5) < 0.99


def test_e1_contract(rng):
    """E1 maps |psi>|0000> to ((a-b)|+>^5 + (a+b)|->^5)/sqrt(2), exactly."""
    for _ in range(5):
        alpha, beta = random_qubit(rng)
        amps = np.zeros(32, dtype=complex)
        amps[0], amps[16] = alpha, beta
        state = svsim.from_amplitudes(amps)
        svsim.run_circuit(state, E1)
        plus5 = svsim.init(5, "+++++").amps
        minus5 = svsim.init(5, "-----").amps
        target = ((alpha - beta) * plus5 + (alpha + beta) * minus5) / np.sqrt(2)
        assert np.allclose(state.amps, target, atol=1e-10)


def test_e1_alone_on_basis_zero():
    state = code5.encode((1, 0))
    # E2 E1 |0>|0000> must be |0L>; E1 alone gives (|+>^5+|->^5)/sqrt(2)
    amps = np.zeros(32, dtype=complex)
    amps[0] = 1
    mid = svsim.from_amplitudes(amps)
    svsim.run_circuit(mid, E1)
    plus5 = svsim.init(5, "+++++").amps
    minus5 = svsim.init(5, "-----").amps
    assert np.allclose(mid.amps, (plus5 + minus5) / np.sqrt(2), atol=1e-10)
    assert svsim.fidelity(state, code5.logical_zero()) > 1 - 1e-10


def test_encoder_on_plus_gives_logical_plus():
    state = code5.encode((1 / np.sqrt(2), 1 / np.sqrt(2)))
    assert svsim.fidelity(state, code5.logical_plus()) > 1 - 1e-10
    # |+L> equals Z^L applied to the pentagon state
    pent = svsim.init(5, "+++++")
    for a, b in code5.PENTAGON_EDGES:
        svsim.apply(pent, CZ(a, b))
    svsim.apply_pauli(pent, code5.logical_z())
    assert svsim.fidelity(state, pent) > 1 - 1e-10


def test_encode_decode_roundtrip_identity(rng):
    from conftest import random_state_vector
    for _ in range(5):
        amps = random_state_vector(rng, 5)
        state = svsim.from_amplitudes(amps.copy())
        svsim.run_circuit(state, code5.build_encoder())
        svsim.run_circuit(state, code5.build_decoder())
        assert abs(np.vdot(amps, state.amps)) > 1 - 1e-10


def test_decode_without_error(rng):
    alpha, beta = random_qubit(rng)
    state = code5.encode((alpha, beta))
    syn, residual = code5.decode_and_syndrome(state)
    assert str(syn) == "0000"
    assert abs(np.vdot(np.array([alpha, beta]), residual.amps)) > 1 - 1e-10


@pytest.mark.parametrize("label", [lbl for lbl in code5.SYNDROME_TABLE])
def test_syndrome_table_exhaustive(label, rng):
    """Every table row: exact syndrome and exact recovery, random (a, b)."""
    alpha, beta = random_qubit(rng)
    state = code5.encode((alpha, beta))
    svsim.apply_pauli(state, code5.error_operator(label))
    syn, residual = code5.decode_and_syndrome(state)
    expect_syn, expect_out = code5.SYNDROME_TABLE[label]
    assert str(syn) == expect_syn
    # applying the table correction restores |psi>
    corr = code5.correction_for(syn)
    fixed = residual.copy()
    svsim.apply_pauli(fixed, corr)
    assert abs(np.vdot(np.array([alpha, beta]), fixed.amps)) > 1 - 1e-9
    assert code5.correction_label_for(syn) == expect_out


def test_all_sixteen_syndromes_distinct():
    syndromes = [syn for syn, _ in code5.SYNDROME_TABLE.values()]
    assert len(set(syndromes)) == 16


def test_correction_examples():
    assert code5.correction_for("0000") == PauliString.identity(1)
    xz = code5.correction_for("1101")
    assert xz == compose_pauli(PauliString.single(1, 0, "X"),
                               PauliString.single(1, 0, "Z"))
    z = code5.correction_for("1111")
    assert z == PauliString.single(1, 0, "Z")


@pytest.mark.parametrize("syndrome", [syn for syn, _ in code5.SYNDROME_TABLE.values()])
def test_read_syndrome_reads_qubits_1_to_4_once_in_order(syndrome):
    """The reader's call order fixes the random draws of the dense hop."""
    asked = []

    def measure_z(q):
        asked.append(q)
        return int(syndrome[q - 1])

    assert code5.read_syndrome(measure_z) == (syndrome, code5.correction_for(syndrome))
    assert asked == [1, 2, 3, 4]


def test_read_syndrome_rejects_an_outcome_that_is_not_a_bit():
    with pytest.raises(ValueError, match="bad syndrome '2222'"):
        code5.read_syndrome(lambda q: 2)


@pytest.mark.parametrize("bad", ["", "000", "00000", "0x00"])
def test_correction_rejects_unknown_syndrome(bad):
    with pytest.raises(ValueError, match=repr(bad)):
        code5.correction_label_for(bad)


@pytest.mark.parametrize("bad", ["X3Z4", "Q1", "X", "", "X0", "X6", "Y3Z3", "Z3X3", "X1 "])
def test_error_operator_rejects_bad_labels(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        code5.error_operator(bad)


def test_transversal_logical_operators():
    for base, target in ((code5.logical_zero(), code5.logical_one()),
                         (code5.logical_one(), code5.logical_zero())):
        moved = base.copy()
        svsim.apply_pauli(moved, code5.logical_x())
        assert svsim.fidelity(moved, target) > 1 - 1e-10
    minus = code5.logical_plus()
    svsim.apply_pauli(minus, code5.logical_z())
    assert svsim.fidelity(minus, code5.logical_minus()) > 1 - 1e-10


def test_code_stabilizers_fix_both_basis_states():
    for gen in code5.code_stabilizers():
        for state in (code5.logical_zero(), code5.logical_one()):
            assert np.allclose(gen.matrix() @ state.amps, state.amps, atol=1e-10)


def test_simulated_table_matches_builtin():
    expected = [("None" if k == "I" else k, v0, v1)
                for k, (v0, v1) in code5.SYNDROME_TABLE.items()]
    assert code5.simulated_syndrome_table(seed=3) == expected
