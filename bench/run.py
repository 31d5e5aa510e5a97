"""Closed-loop benchmark of the qecc1wqc command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's operations back to back, in this process,
through ``qecc1wqc.cli.main(argv)``; the seed and the operation index
generate every ``argv`` (see ``workloads.py``).  Each command must exit 0
and hold its invariants.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics measured with nothing wrapped;
* ``--trace 1``: per-layer metrics.  Each operation runs twice, once plain
  and once with the tracer installed, alternating which goes first; the
  report digests of the two must match, and the time ratio is the tracing
  overhead.

A run record (environment, per-operation times, report digest, problems)
goes to stderr and to ``.bench_out/``; traced runs also write their spans
there as JSON lines.  Timing uses in-process ``perf_counter`` only: no
system-wide profiling and no cache dropping.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from tracer import METRIC_UNITS as LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "work/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import qecc1wqc.cli
qecc1wqc.cli.build_parser()
print(time.perf_counter() - t0)
"""


def import_cli():
    """Import ``qecc1wqc.cli`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import qecc1wqc.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qecc1wqc imported from {cli.__file__}, not {SRC}")
    return cli


# -- one operation ----------------------------------------------------------------


def execute(cli, commands: list[Command]) -> tuple[float, list]:
    """Run one operation's commands back to back; returns (seconds, outcomes).

    An outcome is (exit code, report text) or (None, exception text).
    """
    outcomes = []
    t0 = time.perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception as exc:  # a raising command fails its operation
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append((rc, buf.getvalue()))
    return time.perf_counter() - t0, outcomes


def check(commands: list[Command], outcomes: list, digest) -> list[str]:
    """Fold the reports into ``digest``; returns the invariant violations."""
    problems = []
    for cmd, (rc, text) in zip(commands, outcomes):
        digest.update(f"{rc}:{len(text)}:".encode())
        digest.update(text.encode())
        if rc is None:
            problems.append(f"{cmd.argv[0]} raised {text}")
            continue
        try:
            problems += cmd.check(rc, text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{cmd.argv[0]}: unreadable report ({exc!r})")
    return problems


# -- runs -----------------------------------------------------------------------------


class Run:
    """Tallies of one run: operation times, failures, work and digests."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def record(self, workload: Workload, commands, seconds: float, outcomes) -> None:
        problems = check(commands, outcomes, self.digest)
        self.times.append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]
        else:
            self.work += workload.work_per_op(commands)


def op_indices(seconds: float):
    """0, 1, 2, ... while ``seconds`` have not passed; 0 always runs."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        yield k
        k += 1


def plain_run(cli, workload: Workload, seed: int, seconds: float) -> Run:
    run = Run()
    for k in op_indices(seconds):
        commands = workload.make_op(seed, k)
        dt, outcomes = execute(cli, commands)
        run.record(workload, commands, dt, outcomes)
    return run


def traced_run(cli, workload: Workload, seed: int,
               seconds: float) -> tuple[Run, Run, Tracer]:
    """Pairs of plain and traced executions of the same operation."""
    plain, traced, tracer = Run(), Run(), Tracer()
    for k in op_indices(seconds):
        commands = workload.make_op(seed, k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(k)
                try:
                    dt, outcomes = execute(cli, commands)
                finally:
                    tracer.uninstall()
                traced.record(workload, commands, dt, outcomes)
            else:
                dt, outcomes = execute(cli, commands)
                plain.record(workload, commands, dt, outcomes)
    return plain, traced, tracer


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Fresh-process time to import ``qecc1wqc.cli`` and build its parser.

    One extra process runs first so the file cache is warm, as it is for a
    user's second command; its time is discarded.
    """
    samples = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(proc.stdout))
    return samples[1:]


# -- statistics and metrics ---------------------------------------------------------


def tail_latency(times: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with >= 10 samples beyond it.

    Returns (percentile, value, samples beyond).  With fewer than 20 samples
    no ladder percentile qualifies and the median is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def end_to_end_metrics(run: Run, setup: list[float]) -> tuple[dict, dict]:
    pct, tail, beyond = tail_latency(run.times)
    values = {
        "op_p50_s": statistics.median(run.times),
        "op_tail_s": tail,
        "work_per_s": run.work / sum(run.times),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
             "samples": len(run.times), "setup_samples_s": setup,
             "fail_ratio": run.failed / run.attempted}
    return values, notes


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- environment ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_revision() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu0_caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": _git_revision(),
        "method": ("in-process perf_counter timers and wrappers installed from "
                   "the benchmark's own files; no system-wide profiling, no "
                   "cache dropping"),
    }


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operation": workload.operation,
              "work_unit": workload.work_unit, "environment": environment()}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        plain, run, tracer = traced_run(cli, workload, args.seed, args.seconds)
        overhead = sum(run.times) / sum(plain.times) - 1
        metrics = with_units(tracer.metrics(overhead), LAYER_UNITS)
        digests_match = plain.digest.digest() == run.digest.digest()
        spans_path = OUT_DIR / f"{workload.name}.spans.jsonl"
        record.update(plain_times_s=plain.times, plain_digest=plain.digest.hexdigest(),
                      digests_match=digests_match, spans=tracer.write_spans(spans_path),
                      spans_file=str(spans_path.relative_to(ROOT)),
                      call_counts=tracer.call_counts(),
                      missing_targets=sorted(tracer.missing))
        correct = digests_match and plain.failed == 0 and run.failed == 0
        attempted, failed = plain.attempted + run.attempted, plain.failed + run.failed
    else:
        run = plain_run(cli, workload, args.seed, args.seconds)
        values, notes = end_to_end_metrics(run, measure_setup())
        metrics = with_units(values, E2E_UNITS)
        record.update(notes)
        correct = run.failed == 0
        attempted, failed = run.attempted, run.failed
    record.update(times_s=run.times, digest=run.digest.hexdigest(),
                  digest_ops=len(run.times), problems=run.problems[:10])

    text = json.dumps(record, sort_keys=True)
    (OUT_DIR / f"{workload.name}.trace{args.trace}.json").write_text(text + "\n")
    print(text, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
