import numpy as np
import pytest

from qecc1wqc import circuit
from qecc1wqc.circuit import CZ, Gate, H, RZ, S
from qecc1wqc.pauli import (NonCliffordGateError, PauliString, compose_pauli,
                            conjugate_pauli)


def test_identity_and_self_inverse():
    x = PauliString.from_label("XI")
    assert compose_pauli(x, x).to_label() == "+II"
    ident = PauliString.identity(2)
    assert compose_pauli(ident, x) == x
    assert compose_pauli(x, ident) == x


def test_xz_squared_is_minus_identity():
    xz = compose_pauli(PauliString.from_label("X"), PauliString.from_label("Z"))
    sq = compose_pauli(xz, xz)
    assert sq.to_label() == "-I"


def test_zl_xl_composition_matches_dense():
    zl = PauliString.from_label("ZZZZZ")
    xl = PauliString.from_label("XXXXX")
    composed = compose_pauli(zl, xl)
    # Y-type string on all five qubits with the phase folded in
    assert all(composed.x_bit(q) and composed.z_bit(q) for q in range(5))
    dense = zl.matrix() @ xl.matrix()
    assert np.allclose(dense, composed.matrix())


def test_compose_matches_dense_matrices(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        a = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                        int(rng.integers(0, 4)))
        b = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                        int(rng.integers(0, 4)))
        assert np.allclose(a.matrix() @ b.matrix(), compose_pauli(a, b).matrix())


def test_compose_associative(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        ps = [PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                          int(rng.integers(0, 4))) for _ in range(3)]
        left = compose_pauli(compose_pauli(ps[0], ps[1]), ps[2])
        right = compose_pauli(ps[0], compose_pauli(ps[1], ps[2]))
        assert left == right


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        compose_pauli(PauliString.identity(2), PauliString.identity(3))


def test_hadamard_exchange():
    p = PauliString.single(1, 0, "X")
    assert conjugate_pauli(p, H(0)).to_label() == "+Z"


def test_cz_conjugation_examples():
    x0 = PauliString.from_label("XI")
    assert conjugate_pauli(x0, CZ(0, 1)).to_label() == "+XZ"
    z0 = PauliString.from_label("ZI")
    assert conjugate_pauli(z0, CZ(0, 1)).to_label() == "+ZI"


_GATE_MATS = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "S": np.array([[1, 0], [0, 1j]]),
    "SDG": np.array([[1, 0], [0, -1j]]),
}


def _gate_matrix(g, n):
    if g.kind == "CZ":
        d = np.ones(2**n, dtype=complex)
        a, b = g.targets
        for idx in range(2**n):
            if (idx >> (n - 1 - a)) & 1 and (idx >> (n - 1 - b)) & 1:
                d[idx] = -1
        return np.diag(d)
    if g.kind == "RZ":
        u = np.diag([np.exp(-1j * g.xi / 2), np.exp(1j * g.xi / 2)])
    else:
        u = _GATE_MATS[g.kind]
    mats = [np.eye(2, dtype=complex)] * n
    mats[g.targets[0]] = u
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def test_conjugation_matches_dense_for_all_cliffords(rng):
    """g p g^dagger equals the dense conjugation exactly, n <= 3."""
    n = 3
    gates = [H(0), H(2), S(1), Gate("SDG", (0,)), Gate("X", (1,)),
             Gate("Y", (2,)), Gate("Z", (0,)), CZ(0, 1), CZ(1, 2), CZ(0, 2),
             RZ(1, np.pi / 2), RZ(2, np.pi), RZ(0, 3 * np.pi / 2), RZ(1, 0.0)]
    for g in gates:
        u = _gate_matrix(g, n)
        for _ in range(25):
            p = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                            int(rng.integers(0, 4)))
            expect = u @ p.matrix() @ u.conj().T
            got = conjugate_pauli(p, g).matrix()
            assert np.allclose(expect, got), (g, p.to_label())


def test_double_conjugation_by_self_inverse_gates(rng):
    for g in (H(0), Gate("X", (1,)), Gate("Z", (0,)), CZ(0, 1)):
        for _ in range(20):
            p = PauliString(2, int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                            int(rng.integers(0, 4)))
            assert conjugate_pauli(conjugate_pauli(p, g), g) == p


def test_non_clifford_rotation_rejected():
    with pytest.raises(NonCliffordGateError):
        conjugate_pauli(PauliString.single(1, 0, "X"), RZ(0, 0.3))


def test_label_round_trip(rng):
    for _ in range(30):
        n = int(rng.integers(1, 7))
        p = PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                        int(rng.integers(0, 4)))
        assert PauliString.from_label(p.to_label()) == p
