#!/usr/bin/env python3
"""The tpjc benchmark: one command per workload, end-to-end metrics and a
per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scale_add --seed 1 --seconds 10 --trace 0

It imports tpjc from ``src/`` of the checkout and drives its public API
from this one process, with BLAS limited to ``nproc`` threads. Each op's
outputs are checked; a failed check counts in ``failed``. With
``--trace 0`` it reports the end-to-end metrics: set-up and first-op time
in fresh interpreters, warm op time (median and tail), work per second and
the tracemalloc peak of one op. With ``--trace 1`` it alternates plain
and traced ops and reports per-layer calls, self time and share, and the
tracing overhead. The last line of standard output is one JSON object;
the lines above it are a readable report. Reports and spans go to
``.perfbench/`` in the checkout.

Nothing here imports numpy or tpjc before the set-up timer starts.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Workload name -> spec; harness.py builds each kind.
WORKLOADS = {
    # What users run today: the CLI on both shipped configs (N = 256 / 320,
    # m = 50). The matrices stay in cache; sg.ideal_state's rebuild shows.
    "configs": {
        "kind": "configs",
        "configs": ["configs/add_alpha5.json", "configs/subtract_alpha12.json"],
    },
    # Large alpha, N from the sizing policy (2519): ~100 MB matrices leave
    # the last-level cache, and the pass kernel dominates.
    "scale_add": {"kind": "protocol", "alpha": 45.0, "mode": "add", "m": 10},
    # The same layer in the other direction (N = 2499), so a change that
    # helps one direction and costs the other shows.
    "scale_subtract": {"kind": "protocol", "alpha": 45.0, "mode": "subtract", "m": 10},
    # The `tpjc oracle-check` default; the only workload that runs the
    # dense eigendecomposition oracle.
    "oracle": {"kind": "oracle", "dim": 64, "trials": 100},
}

# Child interpreters that set up afresh; every COLD_EVERY-th also runs
# the cold op. With this process that gives 10 set-ups and 4 cold ops.
FRESH_CHILDREN = 9
COLD_EVERY = 3
# Warm ops run even when --seconds has passed, so the median has support.
MIN_WARM_OPS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_op_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "1/s",
    "peak_alloc_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".share", "decomps_per_comparison")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("gbps"):
        return "GB/s"
    return "s"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def set_up(spec: dict, seed: int, scratch: Path):
    """Import tpjc from the checkout and build the workload's inputs.
    Returns the workload and the seconds both took."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import tpjc
    import tpjc.cli  # noqa: F401  (the configs op enters through the CLI)

    imported = perf_counter() - start
    if not Path(tpjc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported tpjc from {tpjc.__file__}, not from {SRC}")
    import harness

    start = perf_counter()
    workload = harness.build(spec, seed, ROOT, scratch)
    return workload, imported + perf_counter() - start


class Tally:
    """Ops attempted and failed, and the quality figures of the last good op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.quality: dict = {}

    def attempt(self, workload, around=nullcontext):
        """Run one op inside ``around()`` and check it. Returns (seconds,
        work) or None when the op raised or failed its check."""
        workload.prepare()
        gc.collect()
        self.attempted += 1
        try:
            with around():
                start = perf_counter()
                out = workload.op()
                elapsed = perf_counter() - start
            self.quality = workload.check(out)
            return elapsed, workload.work_done(out)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            print(f"perfbench: op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def fresh_interpreter(spec: dict, seed: int, cold_op: bool) -> dict:
    """Set up, and run one cold op if asked, in a new interpreter."""
    argv = ["--fresh", json.dumps(spec), "--seed", str(seed)] + ([] if cold_op else ["--setup-only"])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"fresh interpreter exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it. Below
    twenty samples no percentile above the median has ten beyond it, and
    the maximum stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    q = 1.0 - 10.0 / n
    pos = q * (n - 1)
    lo = int(pos)
    value = ordered[lo] + (pos - lo) * (ordered[min(lo + 1, n - 1)] - ordered[lo])
    return value, f"p{100 * q:.0f} of {n}"


@contextmanager
def peak_memory(into: list):
    tracemalloc.start()
    try:
        yield
        into.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def run_plain(workload, tally: Tally, spec: dict, seed: int, seconds: float,
              setup_s: float, cold_s: float | None) -> tuple[dict, dict]:
    setups, colds = [setup_s], [cold_s]
    durations, work, tries = [], 0, 0
    # The children run between warm ops, evenly over the warm time, so
    # their medians sample the host's speed over the same span the warm
    # ops do; their own time is not counted as warm time.
    gap = seconds / FRESH_CHILDREN
    children = 0
    start, child_s = perf_counter(), 0.0
    while True:
        warm = perf_counter() - start - child_s
        if children < FRESH_CHILDREN and warm >= children * gap:
            began = perf_counter()
            cold_op = children % COLD_EVERY == 0
            child = fresh_interpreter(spec, seed, cold_op)
            child_s += perf_counter() - began
            children += 1
            setups.append(child["setup_s"])
            if cold_op:
                colds.append(child["cold_op_s"])
                tally.attempted += child["attempted"]
                tally.failed += child["failed"]
            continue
        if warm >= seconds and tries >= MIN_WARM_OPS:
            break
        tries += 1
        done = tally.attempt(workload)
        if done:
            durations.append(done[0])
            work += done[1]
    colds = [c for c in colds if c is not None]

    peaks: list[int] = []
    tally.attempt(workload, lambda: peak_memory(peaks))
    if not (durations and colds and peaks):
        raise RuntimeError("no successful op to measure")
    tail_s, tail_label = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_op_s": statistics.median(colds),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "work_per_s": work / sum(durations),
        "peak_alloc_mb": peaks[0] / 1e6,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "cold_op_s": f"median of {len(colds)} first ops",
        "op_s_p50": f"{len(durations)} warm ops",
        "op_s_tail": tail_label,
        "work_per_s": f"{workload.work_unit} per second",
        "peak_alloc_mb": "tracemalloc, one warm op",
        "samples": {"setup_s": setups, "cold_op_s": colds, "op_s": durations},
    }
    return metrics, notes


def run_traced(workload, tally: Tally, seconds: float, out_prefix: Path) -> tuple[dict, list[str]]:
    from spans import Tracer, layer_metrics, op_layers

    tracer = Tracer()
    plain, traced, work = [], [], {}
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < 2 * MIN_WARM_OPS:
        if i % 2 == 0:
            done = tally.attempt(workload, lambda: tracer.op(i))
            if done:
                traced.append(done[0])
                work[i] = done[1]
        else:
            done = tally.attempt(workload)
            if done:
                plain.append(done[0])
        i += 1
    if not (plain and traced):
        raise RuntimeError("no successful op to measure")

    ops = op_layers(tracer)
    warnings = []
    for op_id in work:
        for layer, expected in workload.expected_calls.items():
            calls = ops[op_id]["layers"].get(layer, (0,))[0]
            if calls != expected:
                warnings.append(f"op {op_id}: {layer} ran {calls} times, expected {expected}")
    metrics = layer_metrics(tracer, work)
    metrics["trace.op_s_p50"] = statistics.median(traced)
    metrics["trace.plain_op_s_p50"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - metrics["trace.plain_op_s_p50"]
    out_prefix.with_name(out_prefix.name + "-spans.json").write_text(json.dumps(tracer.dump()))
    return metrics, warnings


def environment(threads: int) -> dict:
    import numpy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads_requested": threads,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads(numpy)
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def _blas_threads(numpy) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fresh", metavar="SPEC", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.fresh is None:
        parser.error("--workload is required")
    return args


def main(argv=None, spec: dict | None = None) -> int:
    """Run one workload and print the report; ``spec`` overrides the named
    workload's spec (the smoke test runs tiny ones)."""
    args = parse_args(argv)
    if not (SRC / "tpjc" / "__init__.py").is_file():
        print(f"perfbench: no tpjc source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    if args.fresh is not None:
        spec = json.loads(args.fresh)
    elif spec is None:
        spec = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="scratch-"))
    try:
        workload, setup_s = set_up(spec, args.seed, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        first = tally.attempt(workload)
        cold_s = first[0] if first else None
        if args.fresh is not None:
            print(json.dumps({"setup_s": setup_s, "cold_op_s": cold_s,
                              "attempted": tally.attempted, "failed": tally.failed}))
            return 0
        prefix = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, warnings = run_traced(workload, tally, args.seconds, prefix)
            notes = {}
        else:
            metrics, notes = run_plain(workload, tally, spec, args.seed, args.seconds, setup_s, cold_s)
            warnings = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(threads)
    units = {k: END_TO_END_UNITS.get(k) or layer_unit(k) for k in metrics}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs": workload.info,
        "fail_rate": tally.failed / tally.attempted,
        "quality": tally.quality,
        "metrics": metrics,
        "notes": notes,
        "trace_warnings": warnings,
    }
    prefix.with_name(prefix.name + ".json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, units)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_report(report: dict, units: dict) -> None:
    print(f"tpjc benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print("env:    " + "  ".join(f"{k}={v}" for k, v in report["env"].items()))
    print("inputs: " + "  ".join(f"{k}={v}" for k, v in report["inputs"].items()))
    print(f"fail_rate={report['fail_rate']:.6g}  "
          + "  ".join(f"{k}={v:.6g}" for k, v in report["quality"].items()))
    metrics = report["metrics"]
    if report["trace"]:
        print(f"{'layer':32} {'calls':>8} {'self_s':>12} {'share':>8}")
        for key in metrics:
            if key.endswith(".calls") and key[: -len(".calls")] + ".self_s" in metrics:
                layer = key[: -len(".calls")]
                print(f"{layer:32} {metrics[key]:8.0f} {metrics[layer + '.self_s']:12.6f} "
                      f"{metrics[layer + '.share']:8.2%}")
        for key in metrics:
            if not key.endswith((".calls", ".self_s", ".share")):
                print(f"{key:40} {metrics[key]:.6g} {units[key]}")
        for line in report["trace_warnings"]:
            print(f"trace check: {line}")
        if not report["trace_warnings"]:
            print("trace check: span counts match the expected calls")
    else:
        for key, value in metrics.items():
            print(f"{key:16} {value:14.6g} {units[key]:6} {report['notes'][key]}")


if __name__ == "__main__":
    sys.exit(main())
