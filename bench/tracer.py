"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the ``qecc1wqc``
modules with timing wrappers while it is installed, and restores the
originals when it is removed.  A function imported by name into another
module (``from .graphs import pivot``) is a second reference to the same
object, so installation rebinds every module global that refers to a
wrapped original; no call reaches an original while the tracer is on.

Spans (name, start, end, parent, operation) are kept in memory and written
as JSON lines by :meth:`Tracer.write_spans`.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

LAYERS = ("cli", "harness", "protocols", "code5", "circuit", "pauli", "svsim",
          "tableau", "graphs", "lattice")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, or ``module:Class``."""
    key: str
    owner: str
    attr: str
    timed: bool = True

    @property
    def layer(self) -> str:
        return self.key.split(".")[0]


TARGETS = (
    Target("cli.main", "qecc1wqc.cli", "main"),
    Target("harness.exhaustive_failure_oracle", "qecc1wqc.harness", "exhaustive_failure_oracle"),
    Target("harness.run_depolarizing", "qecc1wqc.harness", "run_depolarizing"),
    Target("harness.run_two_column_computation", "qecc1wqc.harness", "run_two_column_computation"),
    Target("protocols.encoded_teleport", "qecc1wqc.protocols", "encoded_teleport"),
    Target("protocols.build_teleport_circuit", "qecc1wqc.protocols", "build_teleport_circuit", False),
    Target("protocols.push_through_check", "qecc1wqc.protocols", "push_through_check"),
    Target("protocols.build_horseshoe_logical", "qecc1wqc.protocols", "build_horseshoe_logical"),
    Target("code5.build_encoder", "qecc1wqc.code5", "build_encoder"),
    Target("code5.build_decoder", "qecc1wqc.code5", "build_decoder"),
    Target("code5.encode_amplitudes", "qecc1wqc.code5", "encode_amplitudes"),
    Target("circuit.validate", "qecc1wqc.circuit:Circuit", "validate"),
    Target("pauli.compose_pauli", "qecc1wqc.pauli", "compose_pauli", False),
    Target("pauli.conjugate_pauli", "qecc1wqc.pauli", "conjugate_pauli", False),
    Target("svsim.apply", "qecc1wqc.svsim", "apply"),
    Target("svsim.measure", "qecc1wqc.svsim", "measure"),
    Target("svsim.extract_pure", "qecc1wqc.svsim", "extract_pure"),
    Target("svsim.run_circuit", "qecc1wqc.svsim", "run_circuit"),
    Target("svsim.apply_pauli", "qecc1wqc.svsim", "apply_pauli", False),
    Target("tableau.apply", "qecc1wqc.tableau:Tableau", "apply"),
    Target("tableau.measure", "qecc1wqc.tableau:Tableau", "measure"),
    Target("tableau.reset_to_zero", "qecc1wqc.tableau:Tableau", "reset_to_zero", False),
    Target("tableau.canonical_stabilizers", "qecc1wqc.tableau:Tableau", "canonical_stabilizers"),
    Target("graphs.pivot", "qecc1wqc.graphs", "pivot"),
    Target("graphs.graph_to_tableau", "qecc1wqc.graphs", "graph_to_tableau"),
    Target("graphs.tableau_to_graph", "qecc1wqc.graphs", "tableau_to_graph"),
    Target("lattice.load_schedule", "qecc1wqc.lattice.layouts", "load_schedule"),
    Target("lattice.audit_schedule", "qecc1wqc.lattice.layouts", "audit_schedule"),
    Target("lattice.run_schedule", "qecc1wqc.lattice.layouts", "run_schedule"),
    Target("lattice.prepare", "qecc1wqc.lattice.engine:Lattice", "prepare"),
    Target("lattice.global_cz", "qecc1wqc.lattice.engine:Lattice", "global_cz"),
    Target("lattice.measure_chain", "qecc1wqc.lattice.engine:Lattice", "measure_chain"),
    Target("lattice.data_subtableau", "qecc1wqc.lattice.engine:Lattice", "data_subtableau"),
    Target("lattice.frame_applied_tableau", "qecc1wqc.lattice.engine:Lattice", "frame_applied_tableau"),
    Target("lattice.verify_lattice_against", "qecc1wqc.lattice.verify", "verify_lattice_against"),
    Target("lattice.run_hop", "qecc1wqc.lattice.hop", "run_hop"),
)

# Per-layer metrics: name -> unit.  Values are per traced operation unless
# the unit says otherwise.  Units ending in ".computed" are counts derived
# from argument sizes (not measured), so they repeat exactly for a seed.
METRIC_UNITS = {
    "cli.main.self_s": "s/op",
    "harness.exhaustive_failure_oracle.calls": "calls/op",
    "harness.exhaustive_failure_oracle.self_s": "s/op",
    "harness.run_depolarizing.self_s": "s/op",
    "harness.trial_us": "us",
    "harness.run_two_column_computation.self_s": "s/op",
    "protocols.encoded_teleport.calls": "calls/op",
    "protocols.encoded_teleport.self_s": "s/op",
    "protocols.encoded_teleport.us_per_call": "us",
    "protocols.build_teleport_circuit.calls": "calls/op",
    "protocols.push_through_check.self_s": "s/op",
    "protocols.build_horseshoe_logical.self_s": "s/op",
    "code5.build_encoder.calls": "calls/op",
    "code5.build_encoder.self_s": "s/op",
    "code5.build_decoder.calls": "calls/op",
    "code5.build_decoder.self_s": "s/op",
    "code5.encode_amplitudes.calls": "calls/op",
    "code5.encode_amplitudes.self_s": "s/op",
    "circuit.validate.calls": "calls/op",
    "circuit.validate.self_s": "s/op",
    "pauli.compose_pauli.calls": "calls/op",
    "pauli.conjugate_pauli.calls": "calls/op",
    "svsim.apply.calls": "calls/op",
    "svsim.apply.self_s": "s/op",
    "svsim.apply.amps": "amps/op.computed",
    "svsim.apply.w10.us_per_call": "us",
    "svsim.apply.w20.us_per_call": "us",
    "svsim.measure.calls": "calls/op",
    "svsim.measure.self_s": "s/op",
    "svsim.extract_pure.calls": "calls/op",
    "svsim.extract_pure.self_s": "s/op",
    "svsim.run_circuit.self_s": "s/op",
    "svsim.apply_pauli.calls": "calls/op",
    "tableau.apply.calls": "calls/op",
    "tableau.apply.self_s": "s/op",
    "tableau.apply.row_updates": "rows/op.computed",
    "tableau.apply.ns_per_row": "ns",
    "tableau.measure.calls": "calls/op",
    "tableau.measure.self_s": "s/op",
    "tableau.reset_to_zero.calls": "calls/op",
    "tableau.canonical_stabilizers.calls": "calls/op",
    "tableau.canonical_stabilizers.self_s": "s/op",
    "tableau.n_max": "qubits",
    "graphs.pivot.calls": "calls/op",
    "graphs.pivot.self_s": "s/op",
    "graphs.graph_to_tableau.self_s": "s/op",
    "graphs.tableau_to_graph.self_s": "s/op",
    "lattice.load_schedule.self_s": "s/op",
    "lattice.audit_schedule.self_s": "s/op",
    "lattice.run_schedule.self_s": "s/op",
    "lattice.prepare.calls": "calls/op",
    "lattice.prepare.self_s": "s/op",
    "lattice.global_cz.calls": "calls/op",
    "lattice.global_cz.self_s": "s/op",
    "lattice.global_cz.cz_pairs": "cz/op.computed",
    "lattice.measure_chain.calls": "calls/op",
    "lattice.measure_chain.self_s": "s/op",
    "lattice.measure_chain.ancillas": "ancillas/op",
    "lattice.data_subtableau.self_s": "s/op",
    "lattice.frame_applied_tableau.self_s": "s/op",
    "lattice.verify_lattice_against.self_s": "s/op",
    "lattice.run_hop.self_s": "s/op",
    "lattice.live_cell_ratio": "ratio.computed",
    **{f"{layer}.errors": "errors/op" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Call :meth:`install` before one operation and :meth:`uninstall` after."""

    def __init__(self):
        self.spans: list = []
        self.names: list[str] = [target.key for target in TARGETS]
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.errors: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.amps = 0
        self.row_updates = 0
        self.n_max = 0
        self.cz_pairs = 0
        self.ancillas = 0
        self.trials = 0
        self.live_cells = 0
        self.lattice_qubits = 0
        self.ops = 0
        self.missing: set[str] = set()
        self._prepared: dict[int, tuple[object, set]] = {}
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self, op_id: int) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._op = op_id
        wrappers = {}
        for target in TARGETS:
            try:
                owner = _resolve(target.owner)
                original = owner.__dict__[target.attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(target.key)  # renamed or removed by the program
                continue
            wrapper = (self._timed(target, original) if target.timed
                       else self._counted(target, original))
            wrappers[id(original)] = (original, wrapper)
            self._restore.append((owner, target.attr, original))
            setattr(owner, target.attr, wrapper)
        for module in program_modules():
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for lat, cells in self._prepared.values():
            self.live_cells += len(cells)
            self.lattice_qubits += lat.n
        self._prepared.clear()
        self.ops += 1

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, target: Target, fn):
        key, layer = target.key, target.layer
        stat = self.stats[key]
        name_id = self.names.index(key)
        note = getattr(self, "_note_" + key.replace(".", "_"), None)
        spans, stack, child_ns, errors = self.spans, self._stack, self._child_ns, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                own = dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                spans[idx] = (name_id, t0, t1, parent, self._op)
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += own
            if note is not None:
                note(args, kwargs, result, dur)
            return result

        return wrapper

    def _counted(self, target: Target, fn):
        layer = target.layer
        stat = self.stats[target.key]
        errors = self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise

        return wrapper

    # -- computed counts, keyed by target ---------------------------------------------

    def _note_svsim_apply(self, args, kwargs, result, dur):
        n = result.n
        self.amps += 1 << n
        width = self.stats[f"svsim.apply.w{n}"]
        width.calls += 1
        width.total_ns += dur

    def _note_tableau_apply(self, args, kwargs, result, dur):
        n = args[0].n
        self.row_updates += 2 * n
        if n > self.n_max:
            self.n_max = n

    def _note_lattice_global_cz(self, args, kwargs, result, dur):
        self.cz_pairs += len(result)

    def _note_lattice_measure_chain(self, args, kwargs, result, dur):
        chain = args[1] if len(args) > 1 else kwargs["chain"]
        self.ancillas += len(chain.interior)

    def _note_lattice_prepare(self, args, kwargs, result, dur):
        lat = args[0]
        cells = args[1] if len(args) > 1 else kwargs["cells"]
        entry = self._prepared.setdefault(id(lat), (lat, set()))
        entry[1].update(tuple(rc) for rc, _sym in cells)

    def _note_harness_run_depolarizing(self, args, kwargs, result, dur):
        self.trials += result.trials

    # -- results -------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics averaged over the traced operations."""
        ops = max(self.ops, 1)
        stats = self.stats

        def calls(key):
            return stats[key].calls / ops

        def self_s(key):
            return stats[key].self_ns / 1e9 / ops

        def per_call_us(key, ns):
            n = stats[key].calls
            return ns / n / 1e3 if n else 0.0

        out = {}
        for name in METRIC_UNITS:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls(base)
            elif stat == "self_s":
                out[name] = self_s(base)
            elif stat == "errors":
                out[name] = self.errors[base] / ops
        teleport = stats["protocols.encoded_teleport"]
        rows = self.row_updates
        out.update({
            "harness.trial_us": (stats["harness.run_depolarizing"].self_ns / 1e3 / self.trials
                                 if self.trials else 0.0),
            "protocols.encoded_teleport.us_per_call": per_call_us(
                "protocols.encoded_teleport", teleport.total_ns),
            "svsim.apply.amps": self.amps / ops,
            "svsim.apply.w10.us_per_call": per_call_us(
                "svsim.apply.w10", stats["svsim.apply.w10"].total_ns),
            "svsim.apply.w20.us_per_call": per_call_us(
                "svsim.apply.w20", stats["svsim.apply.w20"].total_ns),
            "tableau.apply.row_updates": rows / ops,
            "tableau.apply.ns_per_row": (stats["tableau.apply"].self_ns / rows
                                         if rows else 0.0),
            "tableau.n_max": self.n_max,
            "lattice.global_cz.cz_pairs": self.cz_pairs / ops,
            "lattice.measure_chain.ancillas": self.ancillas / ops,
            "lattice.live_cell_ratio": (self.live_cells / self.lattice_qubits
                                        if self.lattice_qubits else 0.0),
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def call_counts(self) -> dict[str, int]:
        return {key: stat.calls for key, stat in sorted(self.stats.items())}

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns the number written."""
        names = self.names
        with open(path, "w") as fh:
            for name_id, t0, t1, parent, op in self.spans:
                fh.write(f'{{"name":"{names[name_id]}","start_ns":{t0},'
                         f'"end_ns":{t1},"parent":{parent},"op":{op}}}\n')
        return len(self.spans)


def program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qecc1wqc" or name.startswith("qecc1wqc."))]
