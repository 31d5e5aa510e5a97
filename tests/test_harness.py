import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qecc1wqc import harness, protocols


@pytest.fixture(scope="module")
def oracle():
    return harness.exhaustive_failure_oracle(seed=77)


def test_exhaustive_sweep_all_corrected():
    rep = harness.run_exhaustive_correction_sweep(seed=5)
    assert rep.trials == 16
    assert rep.success_count == 16
    assert rep.details["all_corrected"]
    syndromes = {t.injected: t.syndrome for t in rep.per_trial}
    assert syndromes["None"] == "0000"
    assert syndromes["X1"] == "1001"
    assert syndromes["Z1"] == "1111"


def test_oracle_weights(oracle):
    weights = oracle["weights"]
    assert weights["0"]["failures"] == 0
    assert weights["1"]["failures"] == 0
    assert weights["2"]["failures"] > 0  # distance-3 limit
    assert weights["2"]["patterns"] == 90


def test_depolarizing_p_zero(oracle):
    rep = harness.run_depolarizing(0.0, 500, seed=1, oracle=oracle)
    assert rep.details["failure_rate"] == 0
    assert rep.success_count == 500


def test_depolarizing_matches_prediction(oracle):
    for p in (1e-3, 1e-2):
        rep = harness.run_depolarizing(p, 10_000, seed=2, oracle=oracle)
        assert rep.details["within_5_sigma"]
        assert rep.details["weight_le1_failures"] == 0


def test_depolarizing_p_one_matches_weight5(oracle):
    rep = harness.run_depolarizing(1.0, 400, seed=3, oracle=oracle)
    f5 = oracle["weights"]["5"]["failure_fraction"]
    sigma = np.sqrt(f5 * (1 - f5) / 400)
    assert abs(rep.details["failure_rate"] - f5) <= 5 * sigma


def test_report_determinism(oracle):
    a = dataclasses.asdict(harness.run_depolarizing(1e-3, 1500, seed=9, oracle=oracle))
    b = dataclasses.asdict(harness.run_depolarizing(1e-3, 1500, seed=9, oracle=oracle))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == "1"


def test_two_column_single_hop_is_hadamard():
    rep = harness.run_two_column_computation([0.0], seed=4, psi=(1, 0),
                                             forced_ms=[0])
    assert rep.details["final_fidelity"] > 1 - 1e-9


def test_two_column_three_hops_forced_zero(rng):
    xis = [0.3, 1.1, 2.0]
    rep = harness.run_two_column_computation(xis, seed=6, forced_ms=[0, 0, 0])
    assert rep.details["final_fidelity"] > 1 - 1e-9
    assert rep.details["ms"] == [0, 0, 0]


def test_two_column_all_outcome_patterns():
    """Every outcome pattern over three hops matches the frame-corrected
    oracle product."""
    xis = [0.4, 0.9, 1.7]
    for pattern in itertools.product([0, 1], repeat=3):
        rep = harness.run_two_column_computation(
            xis, seed=8, psi=(0.6, 0.8), forced_ms=list(pattern))
        assert rep.details["final_fidelity"] > 1 - 1e-9, pattern


def test_two_column_random_outcomes_many_seeds():
    for seed in range(20):
        rep = harness.run_two_column_computation([0.5, 1.3], seed=seed)
        assert rep.details["final_fidelity"] > 1 - 1e-9


@pytest.mark.parametrize("forced_ms", [[0], [0, 1, 0]])
def test_two_column_forced_ms_length_checked(forced_ms):
    with pytest.raises(ValueError, match="forced_ms has"):
        harness.run_two_column_computation([0.1, 0.2], forced_ms=forced_ms)


def test_depolarizing_validates_arguments():
    with pytest.raises(ValueError):
        harness.run_depolarizing(0.1, 0)
    for p in (2, -0.1, float("nan")):
        with pytest.raises(ValueError):
            harness.run_depolarizing(p, 10)


@pytest.mark.parametrize("xi", [float("nan"), float("inf")])
def test_depolarizing_rejects_non_finite_xi(xi):
    with pytest.raises(ValueError, match="xi must be finite"):
        harness.run_depolarizing(0.05, 2000, xi=xi)


def test_depolarizing_reports_the_oracles_xi():
    """The report's xi is the one the oracle was built at, not the 0.7
    default."""
    oracle = harness.exhaustive_failure_oracle(xi=0.3, seed=3)
    rep = harness.run_depolarizing(0.05, 200, oracle=oracle)
    assert rep.details["xi"] == 0.3
    assert harness.run_depolarizing(0.05, 200, xi=0.3, oracle=oracle).details["xi"] == 0.3


@pytest.mark.parametrize("xi", [0.1, float("nan")])
def test_depolarizing_rejects_xi_other_than_the_oracles(oracle, xi):
    with pytest.raises(ValueError, match="differs from the oracle's xi=0.7"):
        harness.run_depolarizing(0.05, 200, xi=xi, oracle=oracle)


def _brute_p_value(k, n, q):
    pmf = [math.comb(n, j) * q**j * (1 - q)**(n - j) for j in range(n + 1)]
    return min(1.0, 2 * min(sum(pmf[:k + 1]), sum(pmf[k:])))


@pytest.mark.parametrize("n", [1, 7, 60])
@pytest.mark.parametrize("q", [0.002, 0.1, 0.5, 0.93])
def test_binomial_p_value_matches_direct_sum(n, q):
    for k in range(n + 1):
        exact = _brute_p_value(k, n, q)
        assert math.isclose(harness.binomial_p_value(k, n, q), exact,
                            rel_tol=1e-9, abs_tol=1e-300)


def test_binomial_p_value_degenerate_rates():
    assert harness.binomial_p_value(0, 100, 0.0) == 1.0
    assert harness.binomial_p_value(1, 100, 0.0) == 0.0
    assert harness.binomial_p_value(100, 100, 1.0) == 1.0
    assert harness.binomial_p_value(99, 100, 1.0) == 0.0


def test_five_sigma_check_has_no_false_alarm_at_small_p():
    """Seed 275 at p = 1e-3 sees 2 failures where about 0.1 are expected;
    the normal approximation called that a 5-sigma excursion."""
    rep = harness.run_depolarizing(1e-3, 10_000, seed=275)
    assert rep.trials - rep.success_count == 2
    assert rep.details["within_5_sigma"]
    assert rep.details["weight_le1_failures"] == 0


def test_five_sigma_check_detects_a_wrong_prediction(oracle):
    """Zeroing the weight-2 failure fraction makes the prediction wrong by
    far more than chance allows; the check must say so."""
    wrong = copy.deepcopy(oracle)
    wrong["weights"]["2"]["failure_fraction"] = 0.0
    rep = harness.run_depolarizing(0.05, 10_000, seed=4, oracle=wrong)
    assert not rep.details["within_5_sigma"]
    assert harness.run_depolarizing(0.05, 10_000, seed=4,
                                    oracle=oracle).details["within_5_sigma"]


def test_targeted_error_in_each_stage():
    from qecc1wqc.pauli import PauliString
    rep = protocols.encoded_teleport((0.6, 0.8), 0.7,
                                     injected_error=PauliString.single(5, 2, "Y"),
                                     rng=np.random.default_rng(2))
    assert rep.fidelity >= harness.SUCCESS_FIDELITY
    assert rep.syndrome == code5_syndrome("X3Z3")

    rep = protocols.encoded_teleport((0.6, 0.8), 0.7,
                                     injected_error=PauliString.single(5, 2, "X"),
                                     error_stage="after_encode_a",
                                     rng=np.random.default_rng(2))
    assert rep.fidelity < harness.SUCCESS_FIDELITY


def code5_syndrome(label):
    from qecc1wqc import code5
    return code5.SYNDROME_TABLE[label][0]


def test_unprotected_window_is_weakly_tolerant():
    """In the unprotected window even single-qubit errors can break the
    output, so the failure rate at weight <= 1 is nonzero."""
    oracle = harness.exhaustive_failure_oracle(seed=21, stage="after_encode_a")
    assert oracle["weights"]["1"]["failures"] > 0
    rep = harness.run_depolarizing(0.05, 3000, seed=22, oracle=oracle)
    assert rep.details["within_5_sigma"]
