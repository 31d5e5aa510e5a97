import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from qecc1wqc.cli import main
from qecc1wqc.lattice import NAMED_SCHEDULES, build_schedule, load_schedule
from schedule_json import schedule_json


def test_syndrome_table_exit_zero(capsys):
    assert main(["--quiet", "syndrome-table"]) == 0


def test_teleport_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["--json", str(out), "--quiet", "teleport",
                 "--xi", "0.8", "--alpha-beta", "0.6,0.8", "--inject", "X@2"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "1"
    assert payload["report"]["syndrome"] == "1011"
    assert payload["report"]["fidelity"] > 1 - 1e-9


def test_sweep_exit_zero():
    assert main(["--quiet", "sweep"]) == 0


def test_lcs2_verify():
    assert main(["--quiet", "lcs2", "--verify"]) == 0


def test_push_through():
    assert main(["--quiet", "push-through"]) == 0


def test_entangler_certificate(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["--json", str(out), "--quiet", "entangler"]) == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["verified"]
    assert payload["entangling_gates"] == 9


def test_horseshoe_counts():
    assert main(["--quiet", "horseshoe", "--mode", "tableau"]) == 0


def test_lattice_verify_and_counts(tmp_path):
    out = tmp_path / "lat.json"
    code = main(["--json", str(out), "--quiet", "lattice", "run",
                 "--schedule", "E1_lattice", "--verify"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["counts"]["global_cz_steps"] == 2
    assert payload["verify"]["ok"]


def test_lattice_hop():
    assert main(["--quiet", "lattice", "run", "--schedule", "hop"]) == 0


def test_compute():
    assert main(["--quiet", "compute", "--xi", "0.3", "1.1"]) == 0


def test_depolarize_small():
    assert main(["--quiet", "--seed", "3", "depolarize", "--p", "0.001",
                 "--trials", "2000"]) == 0


def test_schedule_from_file(tmp_path):
    sched = schedule_json(build_schedule("E2_lattice"))
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    assert main(["--quiet", "lattice", "run", "--schedule", str(path),
                 "--verify"]) == 0


@pytest.mark.parametrize("name", NAMED_SCHEDULES)
def test_schedule_file_round_trip(name, tmp_path, capsys):
    """A named schedule written as JSON reads back equal to the generated
    one, and runs to the same report bytes: files and generators share one
    format."""
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(schedule_json(build_schedule(name))))
    assert load_schedule(str(path)) == build_schedule(name)
    reports = []
    for schedule in (name, str(path)):
        assert main(["lattice", "run", "--schedule", schedule, "--verify", "--seed", "5"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_schedule_without_layer_count_rejected(tmp_path, capsys):
    sched = schedule_json(build_schedule("E2_lattice"))
    del sched["expected_global_cz"]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", str(path)])
    assert code == 2
    assert not payload["ok"] and "expected_global_cz" in payload["error"]


def test_missing_schedule_file_rejected(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", str(path)])
    assert code == 2
    assert not payload["ok"] and "missing.json" in payload["error"]


@pytest.mark.parametrize("content, reason", [
    (b"[1,2", "Expecting ',' delimiter"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
])
def test_unparsable_schedule_file_rejected(tmp_path, capsys, content, reason):
    """A schedule file that is not JSON, or not UTF-8, is named in the error."""
    path = tmp_path / "sched.json"
    path.write_bytes(content)
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", str(path)])
    assert code == 2
    assert payload["error"].startswith(f"cannot parse schedule {str(path)!r}: {reason}")


def _set_step(index, step):
    def mutate(sched):
        sched["steps"][index] = step
    return mutate


def _insert_step(index, step):
    def mutate(sched):
        sched["steps"].insert(index, step)
    return mutate


def _drop_chain_v(sched):
    del sched["steps"][-1]["chains"][0]["v"]


def _bad_symbol(sched):
    sched["steps"][0]["prepare"][0][2] = "q"


@pytest.mark.parametrize("mutate,expected", [
    (lambda s: s.update(steps=5), "E2_lattice: steps must be a list, got 5"),
    (lambda s: s.update(grid=5), "E2_lattice: grid must be [rows, cols], got 5"),
    (_set_step(1, {"global_cz": 3}), "E2_lattice step 1: bad axis 3"),
    (_drop_chain_v, "E2_lattice step 3: chain v must be [row, col], got None"),
    (lambda s: s.update(data_cells=[[8, 8]]),
     "E2_lattice: data_cells must be an object of label: [row, col]"),
    (_bad_symbol, "E2_lattice step 0: cell (8, 8): unknown prepare symbol 'q'"),
    (_set_step(0, {"prepare": [[0, 0]]}),
     "E2_lattice step 0: prepare entry [0, 0] is not [row, col, symbol]"),
    (_insert_step(1, {"local": [[8, 8, [["H"]]]]}),
     "E2_lattice step 1: local entry [8, 8, [['H']]] is not [row, col, [gates]]"),
    (_insert_step(1, {"local": [[8, 8, [{"k": 1}]]]}),
     "E2_lattice step 1: local entry [8, 8, [{'k': 1}]] is not [row, col, [gates]]"),
    (lambda s: s.update(name=["E2"]), "schedule name must be a string, got ['E2']"),
    (lambda s: s["data_cells"].update({"1": [99, 0]}),
     "E2_lattice: data_cells: cell (99, 0) outside the grid"),
], ids=["steps", "grid", "global_cz", "chain_v", "data_cells", "symbol", "prepare_entry",
        "local_gate_list", "local_gate_object", "name", "data_cell_outside"])
def test_malformed_schedule_file_rejected(tmp_path, capsys, mutate, expected):
    sched = schedule_json(build_schedule("E2_lattice"))
    mutate(sched)
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", str(path)])
    assert code == 2
    assert not payload["ok"] and payload["error"].startswith(expected)


def test_schedule_over_cell_limit_rejected(tmp_path, capsys):
    from qecc1wqc.lattice import MAX_CELLS
    sched = {"name": "wide", "grid": [1000, 1000], "data_cells": {},
             "steps": [{"prepare": [[i // 1000, i % 1000, "+"]
                                    for i in range(MAX_CELLS + 1)]}],
             "expected_global_cz": 0}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(sched))
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", str(path)])
    assert code == 2
    assert payload["error"] == (f"wide step 0: lattice would use {MAX_CELLS + 1} cells; "
                                f"the limit is {MAX_CELLS}")


def test_lattice_rejects_unknown_action(capsys):
    code, payload = _error_report(capsys, ["lattice", "bogus", "--schedule", "E1_lattice"])
    assert code == 2
    assert not payload["ok"]
    assert payload["error"].startswith("qecc1wqc lattice: argument run: invalid choice")


@pytest.mark.parametrize("seed", ["x", "-1", "1.5"])
def test_bad_seed_named_in_json_error(capsys, seed):
    code, payload = _error_report(capsys, ["lattice", "run", "--schedule", "E1_lattice",
                                           "--seed", seed])
    assert code == 2
    assert payload == {"schema": "1", "ok": False,
                       "error": "qecc1wqc lattice: argument --seed: expected a "
                                f"non-negative integer, got '{seed}'"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "-h"])
    assert exc.value.code == 0
    assert "--schedule" in capsys.readouterr().out


def _error_report(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    payload = json.loads(out.out)
    return code, payload


def test_depolarize_rejects_p_outside_unit_interval(capsys):
    code, payload = _error_report(capsys, ["depolarize", "--p", "2"])
    assert code == 2
    assert payload == {"schema": "1", "ok": False, "error": "p must lie in [0, 1]"}


def test_depolarize_rejects_zero_trials(capsys):
    code, payload = _error_report(capsys, ["depolarize", "--p", "0.5", "--trials", "0"])
    assert code == 2
    assert not payload["ok"] and "trials" in payload["error"]


@pytest.mark.parametrize("trials", ["1000000001", "9223372036854775807",
                                    "100000000000000000000000"])
def test_depolarize_rejects_trials_past_the_limit(capsys, trials):
    code, payload = _error_report(capsys, ["depolarize", "--p", "0.01", "--trials", trials])
    assert code == 2
    assert payload == {"schema": "1", "ok": False, "error": "trials must be <= 1000000000"}


def test_depolarize_reports_at_the_trial_limit(capsys):
    """Used to end in an OverflowError traceback at its then limit, 2**63 - 1."""
    code = main(["depolarize", "--p", "0.03", "--trials", "1000000000", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0
    assert report["trials"] == 10**9 and report["details"]["within_5_sigma"]


def test_teleport_rejects_qubit_out_of_range(capsys):
    code, payload = _error_report(capsys, ["teleport", "--xi", "0.3", "--inject", "X@9"])
    assert code == 2
    assert not payload["ok"] and "X@9" in payload["error"]


def test_teleport_rejects_unknown_pauli(capsys):
    code, payload = _error_report(capsys, ["teleport", "--xi", "0.3", "--inject", "Q@1"])
    assert code == 2
    assert not payload["ok"]


def test_error_report_written_to_json_file(tmp_path):
    out = tmp_path / "err.json"
    assert main(["--json", str(out), "--quiet", "depolarize", "--p", "2"]) == 2
    assert json.loads(out.read_text())["ok"] is False


def test_usage_error_honours_output_flags_after_subcommand(tmp_path, capsys):
    """A usage error inside a subcommand still writes --json and obeys
    --quiet when both come after the subcommand."""
    out = tmp_path / "err.json"
    assert main(["lattice", "--schedule", "E1_lattice", "--json", str(out), "--quiet",
                 "--seed", "y"]) == 2
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {
        "schema": "1", "ok": False,
        "error": "qecc1wqc lattice: argument --seed: expected a non-negative integer, got 'y'"}


def test_unwritable_json_path_reported_after_run(tmp_path, capsys):
    """A report that cannot be written is an error report on stdout and
    exit 2, not a traceback and not a failed property (exit 1)."""
    code, payload = _error_report(capsys, ["lcs2", "--json", str(tmp_path)])
    assert code == 2
    assert payload == {"schema": "1", "ok": False,
                       "error": f"cannot write --json {tmp_path}: {os.strerror(errno.EISDIR)}"}


def test_unwritable_json_path_reported_after_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "err.json"
    code, payload = _error_report(capsys, ["--seed", "x", "--json", str(out), "lcs2"])
    assert code == 2
    assert payload == {"schema": "1", "ok": False,
                       "error": f"cannot write --json {out}: {os.strerror(errno.ENOENT)}"}
    assert not out.parent.exists()


def test_teleport_renormalises_slightly_off_amplitudes(capsys):
    assert main(["--quiet", "teleport", "--xi", "0.3",
                 "--alpha-beta", "0.6,0.8000001"]) == 0


@pytest.mark.parametrize("amps", ["0,0", "nan,1", "1e400,0", "1e-400,0", "x,y"])
def test_teleport_rejects_degenerate_amplitudes(capsys, amps):
    code, payload = _error_report(capsys, ["teleport", "--xi", "0.3", f"--alpha-beta={amps}"])
    assert code == 2
    assert not payload["ok"] and "--alpha-beta" in payload["error"]
    assert payload["error"].endswith(f"got '{amps}'")


@pytest.mark.parametrize("argv", [
    ["compute", "--xi", "0.3", "nan"],
    ["teleport", "--xi", "nan"],
    ["sweep", "--xi", "nan"],
    ["teleport", "--xi", "inf"],
])
def test_non_finite_xi_rejected(capsys, argv):
    code, payload = _error_report(capsys, argv)
    assert code == 2
    assert not payload["ok"] and "xi" in payload["error"]


def _pinned(name: str) -> dict:
    return json.loads((Path(__file__).parent / "data" / name).read_text())


def _assert_report(argv: str, want: dict, capsys) -> None:
    code = main(argv.split())
    assert code == want["exit"]
    assert json.loads(capsys.readouterr().out) == want["report"]


# Reports of the lattice commands for seeds 0..9, keyed by argv.  They were
# recorded with the earlier tableau (one Python-int bitmask per row, one
# qubit per grid cell), so they pin the reports across storage changes.
LATTICE_REPORTS = _pinned("lattice_reports.json")

# Reports of the dense-simulator and small tableau/graph commands, keyed by
# argv.  The first twelve were recorded while circuits still carried
# measurement and feed-forward instructions and apply_pauli still applied X
# before Z; the 60-angle compute, sweep --seed 9 and the two teleports with
# complex amplitudes were recorded while the dense kernels still ran
# numpy.tensordot.
DENSE_REPORTS = _pinned("dense_reports.json")


@pytest.mark.parametrize("argv", sorted(LATTICE_REPORTS))
def test_lattice_reports_pinned(argv, capsys):
    _assert_report(argv, LATTICE_REPORTS[argv], capsys)


@pytest.mark.parametrize("argv", sorted(DENSE_REPORTS))
def test_dense_reports_pinned(argv, capsys):
    _assert_report(argv, DENSE_REPORTS[argv], capsys)


# sha256 of the bytes each --json file holds.  The error report and the
# syndrome table were recorded while syndrome-table still wrote its file with
# its own json.dump; the table's file has since gained the trailing newline
# every other --json file ends with.
JSON_FILE_SHA256 = {
    "syndrome-table --seed 3":
        "64aa97349014deb059e807fa4a53f5b1ad75bda0867c0cd13ce20af1c59e3249",
    "depolarize --p 2":
        "ff9c35eeafea0b6d5e937c7a8c2c744390bde780c3f40e600e98106a97a77ad5",
}


@pytest.mark.parametrize("argv", sorted(JSON_FILE_SHA256))
def test_json_file_bytes_pinned(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["--json", str(out), *argv.split()])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == JSON_FILE_SHA256[argv]


def test_syndrome_table_stdout_is_the_table(tmp_path, capsys):
    assert main(["--json", str(tmp_path / "t.json"), "syndrome-table"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "Error\tSyndrome\tOutcome"
    assert len(rows) == 16
    assert all(len(row.split("\t")) == 3 for row in rows)


def test_syndrome_table_mismatch_is_reported(tmp_path, capsys, monkeypatch):
    """A simulated row the table does not name exits 1, not a traceback."""
    from qecc1wqc import code5
    rows = code5.syndrome_table_rows()
    rows[-1] = ("Z1", "1111", "?")
    monkeypatch.setattr(code5, "simulated_syndrome_table", lambda seed=0: rows)
    out = tmp_path / "t.json"
    assert main(["--json", str(out), "syndrome-table"]) == 1
    captured = capsys.readouterr()
    assert "MISMATCH with built-in table" in captured.err
    assert captured.out.splitlines()[-1] == "Z1\t1111\t?|psi>"
    assert json.loads(out.read_text())["ok"] is False
