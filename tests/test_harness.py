import copy
import dataclasses
import itertools
import json
import math
import time

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
    assert rep.details["weight_histogram"] == [500, 0, 0, 0, 0, 0]


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
    assert rep.details["weight_histogram"] == [0, 0, 0, 0, 0, 400]


def test_report_determinism(oracle):
    a = dataclasses.asdict(harness.run_depolarizing(1e-3, 1500, seed=9, oracle=oracle))
    b = dataclasses.asdict(harness.run_depolarizing(1e-3, 1500, seed=9, oracle=oracle))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == "2"


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


def test_five_sigma_check_has_no_false_alarm_at_small_p(oracle):
    """At p = 1e-3 about 0.1 of 10^4 trials fail; 2 failures is a 6-sigma
    excursion to the normal approximation but well within the exact
    binomial tail."""
    predicted = harness.predicted_failure_rate(1e-3, oracle)
    sigma = math.sqrt(predicted * (1 - predicted) / 10_000)
    assert (2 / 10_000 - predicted) / sigma > 5
    assert harness.binomial_p_value(2, 10_000, predicted) >= harness.FIVE_SIGMA_P_VALUE


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


# -- the multinomial draw against per-trial sampling --------------------------


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 1.0])
def test_pattern_probabilities_are_the_per_letter_products(p):
    letter = {"I": 1 - p, "X": p / 3, "Y": p / 3, "Z": p / 3}
    w, probs = harness.pattern_probabilities(p)
    patterns = list(itertools.product(harness.PATTERN_LETTERS, repeat=5))
    assert list(w) == [5 - pattern.count("I") for pattern in patterns]
    assert probs == pytest.approx([math.prod(letter[c] for c in pattern)
                                   for pattern in patterns], rel=1e-12, abs=0)
    assert math.fsum(probs) == pytest.approx(1.0, rel=1e-14)


def _per_trial_counts(oracle, p, trials, rng):
    """Failures and weight counts of ``trials`` trials sampled one qubit at
    a time, as the sampler before the multinomial draw did: each letter is
    an error with probability p, then uniform over X, Y, Z.  Vectorized over
    trials."""
    fid = np.array([f for _, f in oracle["table"]])
    hit = rng.random((trials, 5)) < p
    letters = np.where(hit, rng.integers(1, 4, size=(trials, 5)), 0)
    index = letters @ (4 ** np.arange(4, -1, -1))
    weights = np.bincount(hit.sum(axis=1), minlength=6)
    return int((fid[index] < harness.SUCCESS_FIDELITY).sum()), weights


def test_per_trial_sampling_follows_the_multinomial_law(oracle):
    """10^6 trials sampled letter by letter fail, and fall into each weight
    class, as often as the law the multinomial draws from predicts."""
    p, trials = 0.05, 10**6
    failures, weights = _per_trial_counts(oracle, p, trials, np.random.default_rng(29))
    w, probs = harness.pattern_probabilities(p)
    fid = np.array([f for _, f in oracle["table"]])
    fail_prob = probs[fid < harness.SUCCESS_FIDELITY].sum()
    assert fail_prob == pytest.approx(harness.predicted_failure_rate(p, oracle), rel=1e-12)
    assert harness.binomial_p_value(failures, trials, fail_prob) >= harness.FIVE_SIGMA_P_VALUE
    for k in range(6):
        q = probs[w == k].sum()
        assert harness.binomial_p_value(int(weights[k]), trials, q) \
            >= harness.FIVE_SIGMA_P_VALUE, k
    rep = harness.run_depolarizing(p, trials, seed=29, oracle=oracle)
    assert sum(rep.details["weight_histogram"]) == trials
    assert rep.details["within_5_sigma"]


def test_depolarizing_cost_does_not_grow_with_trials(oracle):
    """The draw is over the 4^5 patterns, whatever the trial count."""
    start = time.perf_counter()
    rep = harness.run_depolarizing(1e-3, 10**12, seed=5, oracle=oracle)
    assert time.perf_counter() - start < 0.1
    assert sum(rep.details["weight_histogram"]) == 10**12
    assert rep.details["within_5_sigma"]
    assert rep.details["weight_le1_failures"] == 0


def test_depolarizing_rejects_more_trials_than_int64_counts(oracle):
    with pytest.raises(ValueError, match=r"^trials must be <= 2\*\*63 - 1$"):
        harness.run_depolarizing(0.01, 2**63, oracle=oracle)
