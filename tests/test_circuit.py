import pytest

from qecc1wqc import protocols
from qecc1wqc.circuit import CZ, Circuit, Gate, H, RZ
from qecc1wqc.pauli import NonCliffordGateError, clifford_kind


def test_empty_circuit_has_no_two_qubit_gates():
    assert Circuit(3).two_qubit_gate_count() == 0


def test_teleport_circuit_gate_count():
    assert protocols.build_teleport_circuit().two_qubit_gate_count() == 23


def test_horseshoe_circuit_gate_count():
    assert protocols.build_horseshoe_circuit().two_qubit_gate_count() == 51


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CZ", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("RZ", (0,))
    with pytest.raises(ValueError):
        Gate("RZ", (0,), float("nan"))


def test_clifford_angle_classification():
    import math
    assert clifford_kind(RZ(0, math.pi / 2)) == "S"
    assert clifford_kind(RZ(0, -math.pi)) == "Z"
    assert clifford_kind(RZ(0, -math.pi / 2)) == "SDG"
    assert clifford_kind(H(0)) == "H"
    with pytest.raises(NonCliffordGateError):
        clifford_kind(RZ(0, 0.4))


def test_out_of_range_target_rejected():
    c = Circuit(2)
    c.append(CZ(0, 1))
    for bad in (H(5), H(-1), CZ(0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            c.append(bad)
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, [H(2)])
    assert c.gates == [CZ(0, 1)]
