"""The Pauli-propagation failure oracle against dense encoded teleportation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qecc1wqc import harness, protocols, svsim
from qecc1wqc.pauli import PauliString

PATTERNS = ["".join(p) for p in itertools.product(harness.PATTERN_LETTERS, repeat=5)]


def dense_entry(psi, xi, stage, index):
    label = PATTERNS[index]
    err = None if set(label) == {"I"} else PauliString.from_label(label)
    rep = protocols.encoded_teleport(psi, xi, injected_error=err, error_stage=stage,
                                     rng=np.random.default_rng(index))
    return rep.syndrome, rep.fidelity


def assert_entry_matches(entry, dense):
    (syn, fid), (dense_syn, dense_fid) = entry, dense
    assert syn == dense_syn
    assert (fid >= harness.SUCCESS_FIDELITY) == (dense_fid >= harness.SUCCESS_FIDELITY)
    assert abs(fid - dense_fid) <= 1e-9


def test_table_is_indexed_in_product_order():
    oracle = harness.exhaustive_failure_oracle(seed=3)
    assert len(oracle["table"]) == len(PATTERNS) == 1024
    assert "cache" not in oracle
    assert oracle["table"][0] == ("0000", pytest.approx(1.0))
    # weight-1 entries follow the syndrome lookup table
    assert oracle["table"][PATTERNS.index("XIIII")][0] == "1001"
    assert oracle["table"][PATTERNS.index("ZIIII")][0] == "1111"
    assert oracle["table"][PATTERNS.index("IYIII")][0] == "0011"


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        harness.exhaustive_failure_oracle(stage="before_everything")


@pytest.mark.parametrize("xi", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_xi_rejected(xi):
    with pytest.raises(ValueError, match="xi must be finite"):
        harness.exhaustive_failure_oracle(xi=xi)


@pytest.mark.parametrize("psi", [(3, 4), (float("nan"), 0), (0, 0), (0.6, 0.8, 0.1), (1,)],
                         ids=["norm_5", "nan", "zero", "three_amplitudes", "one_amplitude"])
def test_malformed_psi_rejected(psi):
    """These used to give 0 failures at every weight, every pattern failing,
    a silently dropped amplitude or an IndexError."""
    with pytest.raises(ValueError, match="psi must be two finite amplitudes of norm 1"):
        harness.exhaustive_failure_oracle(psi=psi)


@pytest.mark.slow
@pytest.mark.parametrize("stage", protocols.ERROR_STAGES)
def test_oracle_matches_dense_teleport_on_every_pattern(stage):
    seed, xi = 11, -1.9
    psi = svsim.random_state(np.random.default_rng(seed), 1).amps
    oracle = harness.exhaustive_failure_oracle(xi=xi, seed=seed, stage=stage)
    for index in range(len(PATTERNS)):
        assert_entry_matches(oracle["table"][index], dense_entry(psi, xi, stage, index))


finite = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(re=st.tuples(finite, finite), im=st.tuples(finite, finite),
       xi=st.floats(-math.pi, math.pi), stage=st.sampled_from(protocols.ERROR_STAGES),
       index=st.integers(0, len(PATTERNS) - 1))
def test_random_oracle_entry_matches_dense_teleport(re, im, xi, stage, index):
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    psi = tuple(complex(c) for c in v / norm)
    oracle = harness.exhaustive_failure_oracle(psi=psi, xi=xi, stage=stage)
    assert_entry_matches(oracle["table"][index], dense_entry(psi, xi, stage, index))
