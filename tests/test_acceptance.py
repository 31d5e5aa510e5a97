"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts; tolerances and runtime budgets are asserted, not just printed.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import random_qubit
from qecc1wqc import code5, harness, protocols, svsim
from qecc1wqc.circuit import CZ
from qecc1wqc.lattice import run_hop, verify_schedule
from qecc1wqc.pauli import PauliString
from qecc1wqc.tableau import Tableau


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_code_state_identities():
    t0 = time.time()
    pent_plus = svsim.init(5, "+++++")
    pent_minus = svsim.init(5, "-----")
    for a, b in code5.PENTAGON_EDGES:
        svsim.apply(pent_plus, CZ(a, b))
        svsim.apply(pent_minus, CZ(a, b))
    f_minus = svsim.fidelity(code5.logical_minus(), pent_plus)
    f_plus = svsim.fidelity(code5.logical_plus(), pent_minus)
    f_k5 = svsim.fidelity(code5.logical_zero(), code5.logical_zero_from_K5())
    elapsed = time.time() - t0
    ok = (f_minus >= 1 - 1e-10 and f_plus >= 1 - 1e-10
          and f_k5 >= 1 - 1e-10 and elapsed < 1.0)
    _verdict(1, ok, f"pentagon/K5 identities: fidelities "
                    f"{f_minus:.12f}, {f_plus:.12f}, {f_k5:.12f} in {elapsed:.2f}s")


def test_criterion_2_syndrome_table_exact():
    t0 = time.time()
    worst = 1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        alpha, beta = random_qubit(rng)
        for label, (expect_syn, expect_out) in code5.SYNDROME_TABLE.items():
            state = code5.encode((alpha, beta))
            svsim.apply_pauli(state, code5.error_operator(label))
            syn, residual = code5.decode_and_syndrome(state)
            assert str(syn) == expect_syn, (label, str(syn))
            assert code5.correction_label_for(syn) == expect_out
            fixed = residual.copy()
            svsim.apply_pauli(fixed, code5.correction_for(syn))
            fid = abs(np.vdot(np.array([alpha, beta]), fixed.amps))
            worst = min(worst, fid)
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-9 and elapsed < 5.0
    _verdict(2, ok, f"16/16 table rows exact over 20 seeds, worst recovery "
                    f"{worst:.12f} in {elapsed:.2f}s")


def test_criterion_3_teleported_gate_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(50):
        psi = random_qubit(rng)
        xi = float(rng.uniform(0, 2 * np.pi))
        for m in (0, 1):
            rep = protocols.encoded_teleport(psi, xi, forced_m=m, rng=rng)
            worst = min(worst, rep.fidelity)
            assert rep.syndrome == "0000"  # independent of (psi, xi)
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-9 and elapsed < 30.0
    _verdict(3, ok, f"50 random (psi, xi), both outcomes: worst fidelity "
                    f"{worst:.12f} in {elapsed:.1f}s")


def test_criterion_4_push_through():
    rep = protocols.push_through_check(n_random=20, seed=42, tol=1e-9)
    worst = min(rep.fidelities)
    best_neg = min(rep.negative_control_fidelities)
    ok = rep.passed and worst >= 1 - 1e-9
    _verdict(4, ok, f"operator identity on 20 inputs, worst {worst:.12f}; "
                    f"negative control min {best_neg:.3e}")


def test_criterion_5_gate_counts():
    teleport = protocols.build_teleport_circuit().two_qubit_gate_count()
    horseshoe = protocols.build_horseshoe_circuit().two_qubit_gate_count()
    entangler = protocols.nine_gate_entangler()[1]
    ops = {name: verify_schedule(name, seed=5).global_cz_steps
           for name in ("E1_lattice", "E2_lattice", "GHZ6_lattice", "LP_full")}
    hop = run_hop("simultaneous", seed=5).hop_global_cz
    ok = (teleport == 23 and horseshoe == 51 and entangler == 9
          and ops["E1_lattice"] == 2 and ops["E2_lattice"] == 2
          and ops["GHZ6_lattice"] == 3 and ops["LP_full"] == 7 and hop == 7)
    _verdict(5, ok, f"two-qubit gates 23/51/9 = {teleport}/{horseshoe}/"
                    f"{entangler}; global layers E1={ops['E1_lattice']} "
                    f"E2={ops['E2_lattice']} GHZ6={ops['GHZ6_lattice']} "
                    f"LP={ops['LP_full']} hop={hop}")


def test_criterion_6_graph_structure():
    lcs2 = protocols.linear_cluster_graph(2)
    horseshoe = protocols.linear_cluster_graph(4)
    degs = horseshoe.degrees()
    endpoint_ok = all(degs[i] == 7 for i in list(range(5)) + list(range(15, 20)))
    interior_ok = all(degs[i] == 12 for i in range(5, 15))
    cert = protocols.entangler_equivalence_certificate()
    ok = (lcs2.degrees() == [7] * 10 and endpoint_ok and interior_ok
          and cert["verified"])
    _verdict(6, ok, f"ten-vertex graph degree 7; horseshoe endpoint 7 / "
                    f"interior 12; pivot certificate verified={cert['verified']}")


def test_criterion_7_lattice_schedules_and_distant_cz():
    results = {name: verify_schedule(name, seed=7)
               for name in ("E1_lattice", "E2_lattice", "GHZ6_lattice",
                            "LP_full", "horseshoe_lattice")}
    schedules_ok = all(r.ok for r in results.values())

    from qecc1wqc.lattice import Lattice
    target = Tableau.initialized(2, "++")
    target.apply(CZ(0, 1))
    gadget_ok = True
    for interior_len in (2, 4):
        cols = interior_len + 2
        for forced in itertools.product([0, 1], repeat=interior_len):
            lat = Lattice(1, cols, {"u": (0, 0), "v": (0, cols - 1)})
            lat.prepare([((0, 0), "+"), ((0, cols - 1), "+")])
            lat.distant_cz((0, 0), (0, cols - 1),
                           [(0, c) for c in range(1, cols - 1)],
                           forced=list(forced))
            if not lat.data_subtableau(["u", "v"]).stab_equal(target):
                gadget_ok = False
    ok = schedules_ok and gadget_ok
    bad = [n for n, r in results.items() if not r.ok]
    _verdict(7, ok, f"five schedules verified ({'all' if schedules_ok else bad}); "
                    f"distant-CZ exhaustive over interior 2 and 4 outcomes: "
                    f"{'exact' if gadget_ok else 'mismatch'}")


def test_criterion_8_distance_three_suite():
    t0 = time.time()
    sweep = harness.run_exhaustive_correction_sweep(seed=11)
    weight1_ok = sweep.details["all_corrected"]
    weight1_worst = min(t.fidelity for t in sweep.per_trial)

    rng = np.random.default_rng(3)
    w2 = protocols.encoded_teleport(
        random_qubit(rng), 0.7,
        injected_error=PauliString(5, 0b00011, 0, 0), rng=rng)
    weight2_fails = w2.fidelity <= 0.99

    oracle = harness.exhaustive_failure_oracle(seed=13)
    mc_ok = True
    rates = []
    for p in (1e-3, 1e-2):
        rep = harness.run_depolarizing(p, 10_000, seed=17, oracle=oracle)
        mc_ok = mc_ok and rep.details["within_5_sigma"]
        mc_ok = mc_ok and rep.details["weight_le1_failures"] == 0
        rates.append((p, rep.details["failure_rate"],
                      rep.details["predicted_failure_rate"]))
    elapsed = time.time() - t0
    ok = (weight1_ok and weight1_worst >= 1 - 1e-9 and weight2_fails
          and mc_ok and elapsed < 120.0)
    _verdict(8, ok, f"weight-1 corrected (worst {weight1_worst:.12f}); "
                    f"weight-2 X1X2 fidelity {w2.fidelity:.4f} <= 0.99; "
                    f"Monte Carlo {rates} within 5 sigma in {elapsed:.1f}s")
