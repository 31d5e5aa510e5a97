"""Benchmark workloads: seeded CLI argv generators and per-command invariants.

Every operation is a list of CLI commands.  The program sees only the
generated ``argv``; the workload seed and the operation index decide every
argument, so the same seed always yields the same commands and, because the
program is deterministic for a given ``--seed``, the same report bytes.

Each check returns a list of problems; an empty list means the command
exited 0 and its report holds the invariants the benchmark gates on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

FIDELITY_FLOOR = 1 - 1e-9
TELEPORT_GATES = 23
HORSESHOE_GATES = 51
ENTANGLER_GATES = 9
SYNDROME_ROWS = 16
DEPOLARIZE_TRIALS = 10000
# The CLI's 5-sigma agreement test uses a normal approximation that only
# holds when the expected failure count is large: below p = 1e-2 at 10000
# trials it exits 1 on a correct run with probability up to 0.5 % per call
# (exact binomial, p = 1e-3).  The range starts where that rate is < 2e-5.
DEPOLARIZE_P_RANGE = (1e-2, 1e-1)
COMPUTE_HOPS = 384
TELEPORTS_PER_PASS = 3
SCHEDULE_GLOBAL_LAYERS = {
    "E1_lattice": 2,
    "E2_lattice": 2,
    "GHZ6_lattice": 3,
    "LP_full": 7,
    "horseshoe_lattice": 11,
}
HOP_GLOBAL_LAYERS = {"simultaneous": 7, "sequential": 11}


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int, int], list[Command]]
    work_per_op: Callable[[list[Command]], int]
    work_unit: str
    operation: str


def _exit_ok(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit {rc}"]


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# -- mc_depolarize -------------------------------------------------------------


def _check_depolarize(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    details = json.loads(text)["report"]["details"]
    if details["weight_le1_failures"] != 0:
        problems.append(f"weight_le1_failures = {details['weight_le1_failures']}")
    return problems


def mc_depolarize_op(seed: int, k: int) -> list[Command]:
    rng = np.random.default_rng((seed, k))
    lo, hi = DEPOLARIZE_P_RANGE
    p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    argv = ["depolarize", "--p", f"{p:.6g}", "--trials", str(DEPOLARIZE_TRIALS),
            "--seed", _cli_seed(rng)]
    return [Command(argv, _check_depolarize)]


# -- lattice_verify ------------------------------------------------------------


def _check_schedule(name: str):
    def check(rc: int, text: str) -> list[str]:
        problems = _exit_ok(rc)
        payload = json.loads(text)
        expected = SCHEDULE_GLOBAL_LAYERS[name]
        got = payload["counts"]["global_cz_steps"]
        if got != expected:
            problems.append(f"{name}: {got} global layers, expected {expected}")
        if not payload["verify"]["ok"]:
            problems.append(f"{name}: not verified: {payload['verify']['diagnostic']}")
        return problems
    return check


def _check_hop(mode: str):
    def check(rc: int, text: str) -> list[str]:
        problems = _exit_ok(rc)
        hop = json.loads(text)["hop"]
        if hop["hop_global_cz"] != HOP_GLOBAL_LAYERS[mode]:
            problems.append(f"hop {mode}: {hop['hop_global_cz']} global layers")
        if not hop["verified"]:
            problems.append(f"hop {mode}: not verified: {hop['diagnostic']}")
        return problems
    return check


def lattice_verify_op(seed: int, k: int) -> list[Command]:
    rng = np.random.default_rng((seed, k))
    cmds = [Command(["lattice", "run", "--schedule", name, "--verify",
                     "--seed", _cli_seed(rng)], _check_schedule(name))
            for name in SCHEDULE_GLOBAL_LAYERS]
    cmds += [Command(["lattice", "run", "--schedule", "hop", "--hop-mode", mode,
                      "--seed", _cli_seed(rng)], _check_hop(mode))
             for mode in HOP_GLOBAL_LAYERS]
    return cmds


# -- dense_protocols -----------------------------------------------------------


def _check_compute(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    fid = json.loads(text)["report"]["details"]["final_fidelity"]
    if not fid >= FIDELITY_FLOOR:
        problems.append(f"compute: final_fidelity {fid}")
    return problems


def _check_sweep(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    gates = json.loads(text)["report"]["op_counts"]["two_qubit_gates"]
    if gates != TELEPORT_GATES:
        problems.append(f"sweep: {gates} two-qubit gates")
    return problems


def _check_teleport(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    rep = json.loads(text)["report"]
    if rep["two_qubit_gates"] != TELEPORT_GATES:
        problems.append(f"teleport: {rep['two_qubit_gates']} two-qubit gates")
    if not rep["fidelity"] >= FIDELITY_FLOOR:
        problems.append(f"teleport: fidelity {rep['fidelity']}")
    return problems


def _check_horseshoe(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    gates = json.loads(text)["two_qubit_gates"]
    if gates != HORSESHOE_GATES:
        problems.append(f"horseshoe: {gates} two-qubit gates")
    return problems


def _check_entangler(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    payload = json.loads(text)
    if payload["entangling_gates"] != ENTANGLER_GATES:
        problems.append(f"entangler: {payload['entangling_gates']} gates")
    if not payload["certificate"]["verified"]:
        problems.append("entangler: certificate not verified")
    return problems


def _check_syndrome_table(rc: int, text: str) -> list[str]:
    problems = _exit_ok(rc)
    rows = text.splitlines()[1:]  # first line is the column header
    if len(rows) != SYNDROME_ROWS:
        problems.append(f"syndrome-table: {len(rows)} rows")
    return problems


def _check_exit(rc: int, text: str) -> list[str]:
    json.loads(text)  # the report must parse
    return _exit_ok(rc)


def dense_protocols_op(seed: int, k: int) -> list[Command]:
    rng = np.random.default_rng((seed, k))
    xis = [f"{x:.6f}" for x in rng.uniform(-math.pi, math.pi, COMPUTE_HOPS)]
    cmds = [
        Command(["compute", "--xi", *xis, "--seed", _cli_seed(rng)], _check_compute),
        Command(["sweep", "--xi", f"{rng.uniform(-math.pi, math.pi):.6f}",
                 "--seed", _cli_seed(rng)], _check_sweep),
    ]
    for _ in range(TELEPORTS_PER_PASS):
        # full precision: the CLI accepts amplitudes whose norm is off by up
        # to 1e-6 but the simulator rejects more than 1e-8
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = (complex(x) for x in v / np.linalg.norm(v))
        pauli = ("X", "Z", "XZ", "Y")[int(rng.integers(0, 4))]
        cmds.append(Command(
            ["teleport", "--xi", f"{rng.uniform(-math.pi, math.pi):.6f}",
             f"--alpha-beta={a.real:.17g}{a.imag:+.17g}j,{b.real:.17g}{b.imag:+.17g}j",
             "--inject", f"{pauli}@{int(rng.integers(1, 6))}",
             "--seed", _cli_seed(rng)], _check_teleport))
    cmds += [
        Command(["horseshoe", "--mode", "dense"], _check_horseshoe),
        Command(["push-through", "--seed", _cli_seed(rng)], _check_exit),
        Command(["lcs2", "--verify"], _check_exit),
        Command(["horseshoe", "--mode", "tableau"], _check_horseshoe),
        Command(["entangler"], _check_entangler),
        Command(["syndrome-table", "--seed", _cli_seed(rng)], _check_syndrome_table),
    ]
    return cmds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mc_depolarize", mc_depolarize_op,
            lambda cmds: DEPOLARIZE_TRIALS, "MC trials",
            "depolarize --p P --trials 10000 --seed S, P log-uniform in "
            f"[{DEPOLARIZE_P_RANGE[0]}, {DEPOLARIZE_P_RANGE[1]}]"),
        Workload(
            "lattice_verify", lattice_verify_op,
            len, "lattice commands verified",
            "lattice run --verify for the five shipped schedules plus the "
            "simultaneous and sequential hop, one seed each"),
        Workload(
            "dense_protocols", dense_protocols_op,
            len, "protocol commands passed",
            f"compute ({COMPUTE_HOPS} hops), sweep, {TELEPORTS_PER_PASS} "
            "teleports, horseshoe dense and tableau, push-through, lcs2, "
            "entangler, syndrome-table"),
    )
}
