import json

import pytest

from qecc1wqc.cli import main


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
    from qecc1wqc.lattice import build_schedule
    sched = build_schedule("E2_lattice")
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched))
    assert main(["--quiet", "lattice", "run", "--schedule", str(path),
                 "--verify"]) == 0


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


def test_teleport_renormalises_slightly_off_amplitudes(capsys):
    assert main(["--quiet", "teleport", "--xi", "0.3",
                 "--alpha-beta", "0.6,0.8000001"]) == 0


@pytest.mark.parametrize("amps", ["0,0", "nan,1", "1e400,0", "1e-400,0"])
def test_teleport_rejects_degenerate_amplitudes(capsys, amps):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--xi", "0.3", f"--alpha-beta={amps}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--alpha-beta" in err
