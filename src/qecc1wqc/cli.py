"""Command-line interface.

Exit status is 0 exactly when every property the invoked subcommand asserts
holds.  Reports are JSON with a top-level schema version; ``--json PATH``
writes the report to a file, ``--quiet`` suppresses stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import code5, harness, protocols, svsim
from .harness import SCHEMA
from .lattice import (load_schedule, run_hop, run_schedule, target_tableau,
                      verify_lattice_against)
from .lattice.layouts import NAMED_SCHEDULES
from .pauli import PauliString


def _fields(report) -> dict:
    """A report dataclass as a dict of its fields, for ``json.dumps`` to walk.

    Shallow: ``dataclasses.asdict`` deep-copies every value first, which
    costs time on long per-trial lists and raises peak memory.
    """
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _emit(args, payload: dict, ok: bool, stdout: str | None = None) -> int:
    """Write the report: to ``--json`` as JSON, to stdout as JSON or ``stdout``.

    Report dataclasses in ``payload`` serialize field by field.
    """
    payload = {"schema": SCHEMA, "ok": bool(ok), **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=_fields)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text if stdout is None else stdout)
    return 0 if ok else 1


def _global_options() -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS,
                        help="write the JSON report to PATH")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS)
    return common


def _parse_amplitudes(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated amplitudes")
    a, b = (complex(p.strip().replace("i", "j")) for p in parts)
    norm = math.hypot(abs(a), abs(b))
    if not (math.isfinite(norm) and norm > 0):
        raise argparse.ArgumentTypeError(
            f"amplitudes must be finite and not both zero, got {text!r}")
    return a / norm, b / norm


def _parse_injection(text: str) -> PauliString:
    """'X@3' or 'XZ@1' with 1-based qubit labels, as in the lookup table."""
    op, _, qubit = text.partition("@")
    op = op.upper()
    if op not in ("X", "Z", "XZ", "Y"):
        raise ValueError(f"bad Pauli {op!r} in --inject {text!r}")
    if qubit not in ("1", "2", "3", "4", "5"):
        raise ValueError(f"--inject qubit must be 1..5, got {text!r}")
    label = f"{op}{qubit}" if op in ("X", "Z") else f"X{qubit}Z{qubit}"
    return code5.error_operator(label)


def cmd_syndrome_table(args) -> int:
    simulated = code5.simulated_syndrome_table(seed=args.seed)
    ok = simulated == code5.syndrome_table_rows()
    table = "\n".join(["Error\tSyndrome\tOutcome"]
                      + [f"{err}\t{syn}\t{'' if out == 'I' else out}|psi>"
                         for err, syn, out in simulated])
    if not ok and not args.quiet:
        print("MISMATCH with built-in table", file=sys.stderr)
    return _emit(args, {"rows": simulated}, ok, stdout=table)


def cmd_teleport(args) -> int:
    rng = np.random.default_rng(args.seed)
    err = _parse_injection(args.inject) if args.inject else None
    rep = protocols.encoded_teleport(
        args.alpha_beta, args.xi, injected_error=err,
        forced_m=args.force_m, rng=rng)
    ok = rep.fidelity >= 1 - 1e-9 if err is None or err.weight <= 1 else True
    return _emit(args, {"report": rep}, ok)


def cmd_sweep(args) -> int:
    rep = harness.run_exhaustive_correction_sweep(seed=args.seed, xi=args.xi)
    ok = rep.details["all_corrected"]
    return _emit(args, {"report": rep}, ok)


def cmd_depolarize(args) -> int:
    rep = harness.run_depolarizing(args.p, args.trials, seed=args.seed)
    ok = rep.details["within_5_sigma"] and rep.details["weight_le1_failures"] == 0
    return _emit(args, {"report": rep}, ok)


def cmd_compute(args) -> int:
    xis = [float(x) for x in args.xi]
    rep = harness.run_two_column_computation(xis, seed=args.seed)
    ok = rep.details["final_fidelity"] >= 1 - 1e-9
    return _emit(args, {"report": rep}, ok)


def cmd_lcs2(args) -> int:
    circuit, state, graph = protocols.build_LCS2()
    fid = svsim.fidelity(state, protocols.assemble_lcs2_target())
    degrees = graph.degrees()
    payload = {
        "two_qubit_gates": circuit.two_qubit_gate_count(),
        "degrees": degrees,
        "target_fidelity": fid,
        "graph": graph.to_json_obj(),
    }
    ok = True
    if args.verify:
        ok = fid >= 1 - 1e-9 and all(d == 7 for d in degrees)
    return _emit(args, payload, ok)


def cmd_push_through(args) -> int:
    rep = protocols.push_through_check(seed=args.seed)
    return _emit(args, {"report": rep}, rep.passed)


def cmd_horseshoe(args) -> int:
    circuit, built = protocols.build_horseshoe_logical(mode=args.mode)
    graph = protocols.linear_cluster_graph(4)
    degrees = graph.degrees()
    endpoint = sorted(set(degrees[0:5] + degrees[15:20]))
    interior = sorted(set(degrees[5:15]))
    payload = {
        "mode": args.mode,
        "two_qubit_gates": circuit.two_qubit_gate_count(),
        "endpoint_degrees": endpoint,
        "interior_degrees": interior,
    }
    ok = (circuit.two_qubit_gate_count() == 51
          and endpoint == [7] and interior == [12])
    return _emit(args, payload, ok)


def cmd_entangler(args) -> int:
    circuit, count = protocols.nine_gate_entangler()
    cert = protocols.entangler_equivalence_certificate()
    payload = {"entangling_gates": count, "certificate": cert}
    return _emit(args, payload, cert["verified"] and count == 9)


def cmd_lattice(args) -> int:
    if args.schedule == "hop":
        rep = run_hop(mode=args.hop_mode, seed=args.seed)
        payload = {"hop": rep}
        ok = rep.verified and rep.regions_disjoint
        if args.hop_mode == "simultaneous":
            ok = ok and rep.hop_global_cz == 7
        return _emit(args, payload, ok)

    sched = load_schedule(args.schedule)
    lat = run_schedule(sched, seed=args.seed)
    payload = {"name": sched["name"], "counts": lat.counts}
    ok = True
    if args.verify:
        target, order = target_tableau(sched["name"])
        res = verify_lattice_against(lat, target, order, sched["name"])
        payload["verify"] = res
        ok = res.ok
    return _emit(args, payload, ok)


def build_parser() -> argparse.ArgumentParser:
    common = _global_options()
    parser = argparse.ArgumentParser(
        prog="qecc1wqc", parents=[common],
        description="Error-corrected one-way quantum computation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="exhaustive single-Pauli correction sweep")
    p.add_argument("--xi", type=float, default=0.7)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("depolarize", parents=[common],
                       help="iid depolarizing Monte Carlo")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_depolarize)

    p = sub.add_parser("compute", parents=[common],
                       help="multi-hop two-column computation")
    p.add_argument("--xi", nargs="+", required=True,
                   help="one rotation angle per hop (radians)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("syndrome-table", parents=[common],
                       help="print and check the lookup table")
    p.set_defaults(func=cmd_syndrome_table)

    p = sub.add_parser("teleport", parents=[common],
                       help="one encoded teleportation")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--alpha-beta", type=_parse_amplitudes, default=(1.0, 0.0),
                   help="input amplitudes, e.g. '0.6,0.8' or '0.6,0.8j'")
    p.add_argument("--inject", default=None, metavar="PAULI@QUBIT",
                   help="e.g. X@3, Z@1, XZ@5 (1-based qubit)")
    p.add_argument("--force-m", type=int, choices=(0, 1), default=None)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("lattice", parents=[common],
                       help="run or verify a lattice schedule")
    p.add_argument("run", nargs="?", default="run", choices=("run",))
    p.add_argument("--schedule", required=True,
                   help=f"one of {', '.join(NAMED_SCHEDULES)}, 'hop', or a JSON file")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--hop-mode", choices=("simultaneous", "sequential"),
                   default="simultaneous")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("lcs2", parents=[common],
                       help="logical two-qubit cluster state")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_lcs2)

    p = sub.add_parser("push-through", parents=[common],
                       help="encoder/fan push-through identity")
    p.set_defaults(func=cmd_push_through)

    p = sub.add_parser("horseshoe", parents=[common],
                       help="four-register linear cluster state")
    p.add_argument("--mode", choices=("tableau", "dense"), default="tableau")
    p.set_defaults(func=cmd_horseshoe)

    p = sub.add_parser("entangler", parents=[common],
                       help="nine-gate entangler certificate")
    p.set_defaults(func=cmd_entangler)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, fallback in (("seed", 0), ("json", None), ("quiet", False)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input the library rejected
        _emit(args, {"error": str(exc)}, False)
        return 2


if __name__ == "__main__":
    sys.exit(main())
