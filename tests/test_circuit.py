import pytest

from qecc1wqc import protocols, svsim
from qecc1wqc.circuit import CZ, Gate, H, RZ, two_qubit_gate_count
from qecc1wqc.pauli import NonCliffordGateError, clifford_kind
from qecc1wqc.tableau import Tableau, run_gates


def test_empty_circuit_has_no_two_qubit_gates():
    assert two_qubit_gate_count([]) == 0


def test_teleport_circuit_gate_count():
    assert two_qubit_gate_count(protocols.build_teleport_circuit()) == 23


def test_horseshoe_circuit_gate_count():
    assert two_qubit_gate_count(protocols.build_horseshoe_circuit()) == 51


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
    """The dense and the tableau simulator check every target against the
    width of the state they run on."""
    for bad in (H(2), H(5), H(-1), CZ(0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            svsim.run_circuit(svsim.init(2, "00"), [CZ(0, 1), bad])
        with pytest.raises(ValueError, match="out of range"):
            run_gates(Tableau.initialized(2), [CZ(0, 1), bad])
