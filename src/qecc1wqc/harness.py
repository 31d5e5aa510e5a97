"""Error injection, Monte Carlo sweeps, and the multi-hop compute driver.

Every run draws from generators seeded by the run's seed, so a report
serialized twice from the same seed and configuration is byte-identical.
The depolarizing Monte Carlo draws its trials as one multinomial over the
failure oracle's 4^5 Pauli patterns, so its cost does not grow with the
trial count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import code5, protocols, svsim
from .pauli import PauliString, conjugate_pauli
from .svsim import StateVector

SCHEMA = "1"
SUCCESS_FIDELITY = 1 - 1e-6


@dataclass
class TrialResult:
    injected: str
    syndrome: str
    m: int
    fidelity: float  # rounded to 12 digits


@dataclass
class RunReport:
    kind: str
    seed: int
    trials: int
    success_count: int
    mean_fidelity: float  # rounded to 12 digits
    op_counts: dict
    details: dict = field(default_factory=dict)
    per_trial: list[TrialResult] = field(default_factory=list)
    schema: str = SCHEMA


def _random_qubit(rng) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def _op_counts() -> dict:
    return {"two_qubit_gates": protocols.TELEPORT_TWO_QUBIT_GATES}


WEIGHT1_LABELS = tuple(lbl for lbl in code5.SYNDROME_TABLE if lbl != "I")


def run_exhaustive_correction_sweep(seed: int = 0, xi: float = 0.7) -> RunReport:
    """No-error case plus all fifteen single-qubit Paulis in the protected
    window; asserts every syndrome matches the lookup table."""
    rng = np.random.default_rng(seed)
    psi = _random_qubit(rng)
    trials = []
    fids = []
    successes = 0
    for label in ("I",) + WEIGHT1_LABELS:
        err = None if label == "I" else code5.error_operator(label)
        label_key = int.from_bytes(label.encode(), "big")
        rep = protocols.encoded_teleport(
            psi, xi, injected_error=err, rng=np.random.default_rng((seed, label_key)))
        expected_syn = code5.SYNDROME_TABLE[label][0]
        if rep.syndrome != expected_syn:
            raise AssertionError(
                f"{label}: syndrome {rep.syndrome}, table says {expected_syn}")
        ok = rep.fidelity >= SUCCESS_FIDELITY
        successes += ok
        fids.append(rep.fidelity)
        trials.append(TrialResult("None" if label == "I" else label,
                                  rep.syndrome, rep.m, round(rep.fidelity, 12)))
    mean = float(np.mean(fids))
    return RunReport("exhaustive-single-pauli", seed, len(trials), successes,
                     round(mean, 12), _op_counts(),
                     details={"xi": xi, "all_corrected": successes == len(trials)},
                     per_trial=trials)


# -- depolarizing Monte Carlo ----------------------------------------------------

# Five letters per pattern; a pattern's index in the oracle table is its
# base-4 number in these digits, qubit 0 most significant (the order of
# itertools.product("IXYZ", repeat=5)).
PATTERN_LETTERS = "IXYZ"
FIVE_SIGMA_P_VALUE = math.erfc(5 / math.sqrt(2))  # two-sided normal tail, 5.733e-7
MAX_TRIALS = 2**63 - 1  # the multinomial draw counts in int64
# The depolarizing report's schema: "2" since its trials are one multinomial
# draw, which reads a different random stream than the per-trial
# generators of schema "1".
DEPOLARIZING_SCHEMA = "2"

_CODE_STABILIZERS = code5.code_stabilizers()
_LOGICAL_X, _LOGICAL_Z = code5.logical_x(), code5.logical_z()


def _propagate(p: PauliString, tail: list) -> PauliString:
    for g in tail:
        p = conjugate_pauli(p, g)
    return p


def _propagated_patterns(stage: str) -> list[tuple[int, int]]:
    """(x, z) bits of every pattern pushed through the tail, in table order.

    Conjugation is linear in the bits, so each pattern is the XOR of the
    images of its X_q and Z_q generators; phases are dropped.
    """
    if stage not in protocols.HOP_TAILS:
        raise ValueError(f"unknown error stage {stage!r}")
    tail = protocols.HOP_TAILS[stage]
    frames = [(0, 0)]
    for q in range(5):
        px = _propagate(PauliString.single(10, q, "X"), tail)
        pz = _propagate(PauliString.single(10, q, "Z"), tail)
        choices = ((0, 0), (px.x, px.z), (px.x ^ pz.x, px.z ^ pz.z), (pz.x, pz.z))
        frames = [(fx ^ cx, fz ^ cz) for fx, fz in frames for cx, cz in choices]
    return frames


def _output_overlaps(psi, xi: float) -> dict[tuple[int, int, int, int], float]:
    """|<phi| X^lx Z^lz X^b phi_a>| for every residual X^a Z^b on qubit 0
    and logical Pauli X^lx Z^lz carried onto register B.

    phi = H Rz(xi) psi is the ideal output; phi_a = H Rz((-1)^a xi) psi.
    The overlap does not depend on the measurement outcome m.
    """
    phi = protocols.h_rz_product(psi, [xi])
    out = {}
    for a in (0, 1):
        phi_a = protocols.h_rz_product(psi, [-xi if a else xi])
        for b, lx, lz in itertools.product((0, 1), repeat=3):
            v = phi_a[::-1] if b else phi_a
            if lz:
                v = v * np.array([1, -1])
            if lx:
                v = v[::-1]
            out[a, b, lx, lz] = float(abs(np.vdot(phi, v)))
    return out


def _anticommutes(x: int, z: int, p: PauliString) -> int:
    return ((x & p.z).bit_count() + (z & p.x).bit_count()) & 1


def _read_pattern(x: int, z: int, overlaps: dict) -> tuple[str, float]:
    """Syndrome and output fidelity of one propagated error (x, z bits).

    The syndrome is the X part on qubits 1..4; the table correction leaves
    X^a Z^b on qubit 0.  On register B the error either leaves the code
    space or acts as a logical X^lx Z^lz.
    """
    syndrome = code5.syndrome_string((x >> q) & 1 for q in range(1, 5))
    corr = code5.correction_for(syndrome)
    xb, zb = x >> 5, z >> 5
    if any(_anticommutes(xb, zb, s) for s in _CODE_STABILIZERS):
        return syndrome, 0.0
    key = ((x ^ corr.x) & 1, (z ^ corr.z) & 1,
           _anticommutes(xb, zb, _LOGICAL_Z), _anticommutes(xb, zb, _LOGICAL_X))
    return syndrome, overlaps[key]


def exhaustive_failure_oracle(psi=None, xi: float = 0.7, seed: int = 12345,
                              stage: str = "protected") -> dict:
    """Classify all 4^5 Pauli patterns by weight: failure fractions.

    In the protected window weight 0 and 1 always succeed and the weight-2
    fraction demonstrates the distance-3 limit.  Used as the analytic
    reference for the Monte Carlo.

    Everything from the injected error to the final XY measurement is
    Clifford, so each pattern is propagated through the rest of the hop
    (Gottesman-Knill) instead of simulated densely.  ``out["table"][i]`` is
    the (syndrome, fidelity) of the pattern with index ``i``.
    """
    rng = np.random.default_rng(seed)
    if psi is None:
        psi = _random_qubit(rng)
    overlaps = _output_overlaps(psi, xi)
    table = [_read_pattern(x, z, overlaps) for x, z in _propagated_patterns(stage)]
    patterns = [0] * 6
    failures = [0] * 6
    for pattern, (_, fid) in zip(itertools.product(PATTERN_LETTERS, repeat=5), table):
        w = 5 - pattern.count("I")
        patterns[w] += 1
        failures[w] += fid < SUCCESS_FIDELITY
    out = {"xi": xi, "weights": {}}
    for w in range(6):
        out["weights"][str(w)] = {
            "patterns": patterns[w],
            "failures": failures[w],
            "failure_fraction": failures[w] / patterns[w],
        }
    out["table"] = table
    return out


def predicted_failure_rate(p: float, oracle: dict) -> float:
    """Exact failure probability under iid single-qubit depolarizing noise."""
    total = 0.0
    for w_str, info in oracle["weights"].items():
        w = int(w_str)
        # probability of any specific weight-w pattern times pattern count
        # collapses to C(5,w) p^w (1-p)^(5-w) * failure fraction at weight w,
        # since each non-identity letter is uniform over {X, Y, Z}
        comb = math.comb(5, w)
        total += comb * p**w * (1 - p)**(5 - w) * info["failure_fraction"]
    return total


def _binomial_pmf(k: int, n: int, q: float) -> float:
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(q) + (n - k) * math.log1p(-q))


def binomial_p_value(k: int, n: int, q: float) -> float:
    """Exact two-sided p-value of the count k under Binomial(n, q).

    Twice the smaller tail, capped at 1.  The tail away from the mean is
    summed outward from k with the pmf ratio recurrence; its terms fall
    geometrically, so the sum stops once they no longer change it.
    """
    if q <= 0:
        return float(k == 0)
    if q >= 1:
        return float(k == n)
    odds = q / (1 - q)
    step = 1 if k >= n * q else -1
    term = pmf_k = _binomial_pmf(k, n, q)
    near = 0.0
    j = k
    while term > near * 1e-17:
        near += term
        if not 0 <= j + step <= n:
            break
        term *= (n - j) / (j + 1) * odds if step > 0 else j / (n - j + 1) / odds
        j += step
    far = 1.0 - near + pmf_k
    return min(1.0, 2 * min(near, far))


def pattern_probabilities(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Weight and probability of every pattern, in oracle table order.

    Under iid depolarizing noise of strength p a pattern with w non-I
    letters has probability (p/3)^w (1-p)^(5-w).
    """
    digits = np.arange(4**5)[:, None] >> np.arange(0, 10, 2) & 3
    w = np.count_nonzero(digits, axis=1)
    return w, (p / 3) ** w * (1 - p) ** (5 - w)


def run_depolarizing(p: float, trials: int, seed: int = 0,
                     xi: float | None = None, oracle: dict | None = None) -> RunReport:
    """Each protected qubit independently suffers a uniform X/Y/Z error with
    probability p; reports the empirical logical failure rate.

    The report reads only how often each of the oracle's 4^5 patterns
    struck, and those counts over ``trials`` independent trials are
    Multinomial(trials, pattern_probabilities(p)).  So the trials are one
    multinomial draw from ``np.random.default_rng(seed)``, at a cost that
    does not depend on ``trials``.

    The ``oracle``, by default the protected window's at ``xi`` (0.7 when
    not given), fixes where the errors strike and the reported xi; an
    explicit ``xi`` that differs from a given oracle's is an error.

    ``within_5_sigma`` holds when the exact two-sided binomial p-value of
    the failure count under the oracle prediction is at least the normal
    5-sigma tail; ``binomial_sigma`` is the standard error of the rate.
    """
    if not 0 <= p <= 1:  # also rejects nan
        raise ValueError("p must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be <= 2**63 - 1")
    if oracle is None:
        oracle = exhaustive_failure_oracle(xi=0.7 if xi is None else xi, seed=seed ^ 0x5EED)
    elif xi is not None and xi != oracle["xi"]:
        raise ValueError(f"xi={xi!r} differs from the oracle's xi={oracle['xi']!r}")
    fid = np.array([f for _, f in oracle["table"]])
    ok = fid >= SUCCESS_FIDELITY
    w, probs = pattern_probabilities(p)
    counts = np.random.default_rng(seed).multinomial(trials, probs)
    successes = int(counts[ok].sum())
    failure_rate = 1 - successes / trials
    predicted = predicted_failure_rate(p, oracle)
    sigma = math.sqrt(max(predicted * (1 - predicted), 1e-12) / trials)
    p_value = binomial_p_value(trials - successes, trials, predicted)
    details = {
        "p": p,
        "xi": oracle["xi"],
        "failure_rate": failure_rate,
        "predicted_failure_rate": predicted,
        "binomial_sigma": sigma,
        "within_5_sigma": p_value >= FIVE_SIGMA_P_VALUE,
        "weight_le1_failures": int(counts[(w <= 1) & ~ok].sum()),
        "weight_histogram": [int(counts[w == k].sum()) for k in range(6)],
        "weight2_failure_fraction": oracle["weights"]["2"]["failure_fraction"],
    }
    return RunReport("iid-depolarizing", seed, trials, successes,
                     round(float(counts @ fid) / trials, 12), _op_counts(),
                     details=details, schema=DEPOLARIZING_SCHEMA)


# -- multi-hop two-column computation ------------------------------------------


def run_two_column_computation(xis, seed: int = 0,
                               psi=None,
                               forced_ms: list[int] | None = None) -> RunReport:
    """Alternate teleport hops, adapting each angle to the running frame.

    Hop k measures at the frame-adapted angle (-1)^x xi_k; afterwards the
    frame updates as (x, z) <- (m xor z, x).  The final state equals the
    frame-corrected product of the programmed gates.
    """
    xis = list(xis)
    if forced_ms is not None and len(forced_ms) != len(xis):
        raise ValueError(f"forced_ms has {len(forced_ms)} entries for {len(xis)} hops")
    rng = np.random.default_rng(seed)
    if psi is None:
        psi = _random_qubit(rng)
    state = code5.encode(psi)
    fx = fz = 0
    trials = []
    for k, xi in enumerate(xis):
        hop_rng = np.random.default_rng((seed, k))
        xi_eff = xi if fx == 0 else -xi
        full = StateVector(10, np.kron(state.amps, svsim.init(5, "00000").amps))
        forced = None if forced_ms is None else forced_ms[k]
        syndrome, rec, state = protocols._teleport_hop(full, xi_eff, hop_rng, forced)
        if syndrome != "0000":
            raise AssertionError("noiseless hop produced a nonzero syndrome")
        m = rec.outcome
        fx, fz = m ^ fz, fx
        trials.append(TrialResult("None", syndrome, m, 1.0))

    # apply the leftover logical frame, then compare with the gate product
    corrected = state.copy()
    if fx:
        svsim.apply_pauli(corrected, code5.logical_x())
    if fz:
        svsim.apply_pauli(corrected, code5.logical_z())
    target_amp = protocols.h_rz_product(psi, xis)
    target = code5.encode_amplitudes(target_amp[0], target_amp[1])
    fid = svsim.fidelity(corrected, target)
    for t in trials:
        t.fidelity = round(fid, 12)
    details = {
        "hops": len(xis),
        "xis": [float(x) for x in xis],
        "final_frame": {"x": fx, "z": fz},
        "final_fidelity": fid,
        "ms": [t.m for t in trials],
    }
    return RunReport("two-column-computation", seed, len(xis),
                     len(trials) if fid >= SUCCESS_FIDELITY else 0,
                     round(fid, 12), _op_counts(), details=details, per_trial=trials)
