"""Self-tests of the benchmark: python3 -m pytest -q bench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI = bench.import_cli()
SEED = 7
COMPUTED = ("svsim.apply.amps", "tableau.apply.row_updates",
            "lattice.global_cz.cz_pairs", "lattice.live_cell_ratio")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def first_ops():
    """Operation 0 of every workload: plain, traced, and traced once more."""
    out = {}
    for name, workload in WORKLOADS.items():
        plain, traced, tracer = bench.traced_run(CLI, workload, SEED, 0)
        again, tracer2 = bench.Run(), tracing.Tracer()
        commands = workload.make_op(SEED, 0)
        tracer2.install(0)
        try:
            dt, outcomes = bench.execute(CLI, commands)
        finally:
            tracer2.uninstall()
        again.record(workload, commands, dt, outcomes)
        out[name] = (plain, traced, tracer, again, tracer2)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_plain_reports_agree(first_ops, name):
    plain, traced, _, again, _ = first_ops[name]
    assert plain.failed == traced.failed == again.failed == 0, plain.problems + traced.problems
    assert plain.digest.hexdigest() == traced.digest.hexdigest() == again.digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_call_and_computed_counts_repeat(first_ops, name):
    _, _, tracer, _, tracer2 = first_ops[name]
    assert tracer.call_counts() == tracer2.call_counts()
    computed = [{name: t.metrics(0.0)[name] for name in COMPUTED} for t in (tracer, tracer2)]
    assert computed[0] == computed[1]


def test_by_name_imports_are_traced(first_ops):
    assert not any(ops[2].missing for ops in first_ops.values())
    calls = {name: ops[2].call_counts() for name, ops in first_ops.items()}
    mc, lat, dense = calls["mc_depolarize"], calls["lattice_verify"], calls["dense_protocols"]
    assert mc["protocols.encoded_teleport"] == 1024
    assert mc["svsim.apply"] == 73728
    assert mc["harness.exhaustive_failure_oracle"] == 1
    # cli and lattice.hop import run_schedule by name: 5 schedules + 2 hops
    assert lat["lattice.run_schedule"] == 7
    assert lat["lattice.load_schedule"] == lat["lattice.audit_schedule"] == 5
    assert lat["lattice.verify_lattice_against"] == 5
    assert lat["lattice.run_hop"] == 2
    # protocols imports pivot, graph_to_tableau and tableau_to_graph by name
    assert dense["graphs.pivot"] == dense["graphs.tableau_to_graph"] == 1
    assert dense["graphs.graph_to_tableau"] >= 1
    assert dense["cli.main"] == len(WORKLOADS["dense_protocols"].make_op(SEED, 0))


def test_no_original_reachable_while_installed():
    originals = {}
    for target in tracing.TARGETS:
        owner = tracing._resolve(target.owner)
        originals[id(owner.__dict__[target.attr])] = target.key
    bindings = {(module.__name__, name): value
                for module in tracing.program_modules()
                for name, value in vars(module).items() if id(value) in originals}
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        for module in tracing.program_modules():
            for name, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{name}"
        for target in tracing.TARGETS:
            owner = tracing._resolve(target.owner)
            assert id(owner.__dict__[target.attr]) not in originals, target.key
    finally:
        tracer.uninstall()
    for target in tracing.TARGETS:
        owner = tracing._resolve(target.owner)
        assert originals[id(owner.__dict__[target.attr])] == target.key
    for (module_name, name), value in bindings.items():
        assert getattr(sys.modules[module_name], name) is value


def test_computed_counts_are_labelled():
    for name in COMPUTED:
        assert tracing.METRIC_UNITS[name].endswith(".computed"), name


def test_emitted_metrics_match_benchmark_json(first_ops):
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRIC_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for ops in first_ops.values():
        assert set(ops[2].metrics(0.0)) == set(tracing.METRIC_UNITS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert bench.tail_latency([float(i) for i in range(1, 8)]) == (50.0, 4.0, 3)


def _result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    spec = _spec()
    proc = subprocess.run(
        [*spec["command"], "--workload", "dense_protocols", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    proc = subprocess.run(
        [*spec["command"], "--workload", "mc_depolarize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
