import numpy as np
import pytest

from qecc1wqc import svsim
from qecc1wqc.circuit import CZ, Gate, H
from qecc1wqc.svsim import StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state_vector(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def logical_zero_from_K5() -> StateVector:
    """|0L> built from the complete-graph state (up to an overall sign)."""
    state = svsim.init(5, "+++++")
    for a in range(5):
        for b in range(a + 1, 5):
            svsim.apply(state, CZ(a, b))
    return apply_K5_reduction(state)


def apply_K5_reduction(state: StateVector) -> StateVector:
    """H1, X on 2..5, and the three CZ gates that map |K5> to |0L>."""
    for a, b in ((1, 2), (1, 4), (3, 4)):
        svsim.apply(state, CZ(a, b))
    for q in range(1, 5):
        svsim.apply(state, Gate("X", (q,)))
    svsim.apply(state, H(0))
    return state
