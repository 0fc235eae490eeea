"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public tpjc functions from outside the package. A
function imported by name into another module (``tpjc.dynamics.fidelity``
is a separate binding from ``tpjc.fock.fidelity``) is patched in every
namespace that holds it, and every binding is restored afterwards.

Each call records one span: layer, start, end, parent span and op id,
plus the matrix dimension for the pass layer. Counters record calls that
get no span of their own. Everything stays in memory until the run ends.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Layer -> (module, attribute) of each public function it covers. A
# function missing from the program under test is skipped, so the harness
# keeps running when a later version merges or renames functions.
LAYERS = {
    "cli.main": [("tpjc.cli", "main")],
    "experiment.load_config": [("tpjc.experiment", "load_config")],
    "experiment.run_experiment": [("tpjc.experiment", "run_experiment")],
    "experiment.emit": [
        ("tpjc.experiment", name)
        for name in (
            "emit_json",
            "emit_fidelity_csv",
            "emit_distribution_csv",
            "emit_approx_table_csv",
            "emit_oracle_report",
        )
    ],
    "experiment.oracle_check": [("tpjc.experiment", "oracle_check")],
    "dynamics.run_protocol": [("tpjc.dynamics", "run_protocol")],
    "dynamics.pass": [("tpjc.dynamics", "pass_add"), ("tpjc.dynamics", "pass_subtract")],
    "dynamics.evolve_oracle": [("tpjc.dynamics", "evolve_oracle")],
    "dynamics.evolve_closed_form": [("tpjc.dynamics", "evolve_closed_form")],
    "dynamics.build_hamiltonian": [("tpjc.dynamics", "build_hamiltonian")],
    "sg.ideal_state": [("tpjc.sg", "ideal_state")],
    "fock.make_coherent": [("tpjc.fock", "make_coherent")],
    "fock.pure_density": [("tpjc.fock", "pure_density")],
    "fock.fidelity": [("tpjc.fock", "fidelity")],
    "fock.moments": [
        ("tpjc.fock", "fock_distribution"),
        ("tpjc.fock", "mean_photon"),
        ("tpjc.fock", "photon_moment2"),
        ("tpjc.sg", "mandel_q"),
    ],
}

# Counted, not spanned: the oracle's eigendecompositions stay inside the
# evolve_oracle span, whose self time is the share the oracle costs.
COUNTERS = {"dynamics.eigh": [("numpy.linalg", "eigh")]}

# Layers whose spans record the dimension of their first argument.
SIZED_LAYERS = {"dynamics.pass"}

ROOT = "op"


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self) -> None:
        # [layer, start, end, parent index, op id, dim]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, layer: str, dim: int = 0) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [layer, 0.0, 0.0, parent, self._op, dim]
        self.spans.append(record)
        return record

    def _wrap(self, layer: str, fn):
        sized = layer in SIZED_LAYERS

        def traced(*args, **kwargs):
            record = self._open(layer, getattr(args[0], "dim", 0) if sized and args else 0)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[(self._op, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; the wrapped functions are patched only
        inside it, so plain ops run the untouched program."""
        self._op = op_id
        with _patched(self):
            record = self._open(ROOT)
            record[1] = perf_counter()
            try:
                yield
            finally:
                record[2] = perf_counter()
                self._stack.pop()
                self._op = -1

    def dump(self) -> list[dict]:
        keys = ("layer", "start", "end", "parent", "op", "dim")
        return [dict(zip(keys, span)) for span in self.spans]


def _namespaces(home: str) -> list:
    mods = [m for name, m in list(sys.modules.items()) if name == "tpjc" or name.startswith("tpjc.")]
    if home in sys.modules and sys.modules[home] not in mods:
        mods.append(sys.modules[home])
    return mods


@contextmanager
def _patched(tracer: Tracer):
    saved = []
    try:
        for table, make in ((LAYERS, tracer._wrap), (COUNTERS, tracer._count)):
            for name, targets in table.items():
                for home, attr in targets:
                    original = getattr(sys.modules.get(home), attr, None)
                    if original is None:
                        continue
                    replacement = make(name, original)
                    for ns in _namespaces(home):
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                saved.append((ns, key, original))
                                setattr(ns, key, replacement)
        yield
    finally:
        for ns, key, original in reversed(saved):
            setattr(ns, key, original)


def op_layers(tracer: Tracer) -> dict[int, dict]:
    """Per traced op: its duration and, per layer, calls, self time and
    the dimensions of its sized spans."""
    child_time = [0.0] * len(tracer.spans)
    for layer, start, end, parent, _, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    ops: dict[int, dict] = {}
    for i, (layer, start, end, _, op_id, dim) in enumerate(tracer.spans):
        entry = ops.setdefault(op_id, {"duration": 0.0, "layers": {}})
        if layer == ROOT:
            entry["duration"] = end - start
        calls, self_s, dims = entry["layers"].get(layer, (0, 0.0, []))
        if dim:
            dims.append(dim)
        entry["layers"][layer] = (calls + 1, self_s + (end - start) - child_time[i], dims)
    return ops


def layer_metrics(tracer: Tracer, work: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics, each the median of its per-op value over the ops
    in ``work``, which maps the id of each good traced op to the work it
    did (oracle comparisons, on the oracle workload)."""
    ops = op_layers(tracer)
    per_op: dict[str, list[float]] = {}

    def put(name: str, value: float) -> None:
        per_op.setdefault(name, []).append(float(value))

    for op_id in work:
        entry = ops[op_id]
        duration = entry["duration"]
        for layer in (ROOT, *LAYERS):
            calls, self_s, dims = entry["layers"].get(layer, (0, 0.0, []))
            put(f"{layer}.calls", calls)
            put(f"{layer}.self_s", self_s)
            put(f"{layer}.share", self_s / duration if duration > 0 else 0.0)
            if layer == "dynamics.pass":
                # One read and one write of an N x N complex128 matrix per
                # pass; computed from sizes, cache misses not included.
                moved = sum(2 * d * d * 16 for d in dims)
                put("dynamics.pass.s_per_pass", self_s / calls if calls else 0.0)
                put("dynamics.pass.bytes_computed", moved)
                put("dynamics.pass.gbps", moved / self_s / 1e9 if self_s > 0 else 0.0)
        for name in COUNTERS:
            put(f"{name}.calls", tracer.counts[(op_id, name)])
        eighs = tracer.counts[(op_id, "dynamics.eigh")]
        put("dynamics.decomps_per_comparison", eighs / work[op_id] if work[op_id] else 0.0)
    return {name: statistics.median(values) for name, values in per_op.items()}
