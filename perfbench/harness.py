"""Runs one workload: set-up, the timed closed loop, the checks and the report.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics, or with `--trace 1` the per-layer metrics.
Human-readable notes go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from spans import NO_SPANS, TRACED, Tracer
from workloads import WORKLOADS, BenchmarkError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PACKAGE = "reductionlab"
MODULES = tuple(TRACED) + ("errors",)
MIN_SETUPS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# A run goes on past --seconds until it has MIN_OPS operations, so that the
# tail is at least the 75th percentile, but not past STRETCH x --seconds.
MIN_OPS = 4 * TAIL_BEYOND
STRETCH = 3


def import_program() -> SimpleNamespace:
    """Import the program afresh from the checkout's src directory (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / PACKAGE:
        raise BenchmarkError(f"imported {lib.cli.__file__}, not the program under {SRC}")
    return lib


class Setups:
    """Times the program's own preparation: a fresh import, then the workload's set-up.

    `timed_loop` repeats it after every round, so that the repeats are spread
    over the whole run and their median does not hang on the machine's speed
    during one fraction of it.
    """

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.run()

    def run(self):
        t0 = time.perf_counter()
        self.lib = import_program()
        self.workload.setup(self.lib)
        self.times.append(time.perf_counter() - t0)


class Loop:
    """Operations of one workload, each timed alone; the checks run between them, untimed."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def round(self, spans=NO_SPANS):
        """One whole round of operations."""
        for j in range(self.workload.round_size):
            spans.begin_op()
            t0 = time.perf_counter()
            try:
                out = self.workload.op(j, spans)
            except Exception as exc:  # an unexpected failure: record it and go on
                out = exc
            dt = time.perf_counter() - t0
            spans.end_op()
            self.latencies.append(dt)
            if isinstance(out, Exception):
                self.failed += 1
                self.problems.append(f"op {self.attempted} raised {out!r}")
                continue
            problems, failed = self.workload.check(j, out)
            self.failed += failed
            self.problems += [f"op {self.attempted}: {p}" for p in problems]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Operations over the loop's wall time, the checks between operations left out."""
        return self.attempted / sum(self.latencies)

    def tail_ms(self) -> tuple[float, float]:
        """Latency at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
        ordered = sorted(self.latencies)
        i = max(len(ordered) - TAIL_BEYOND - 1, 0)
        return ordered[i] * 1e3, 100.0 * (i + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup_s: float) -> dict:
    tail, pct = loop.tail_ms()
    note(f"{loop.attempted} ops, {loop.failed} failed; tail is p{pct:.1f}")
    return {
        "ops_per_s": metric(loop.ops_per_s(), "1/s"),
        "op_ms.p50": metric(statistics.median(loop.latencies) * 1e3, "ms"),
        "op_ms.tail": metric(tail, "ms"),
        "setup_s": metric(setup_s, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def timed_loop(workload, setups: Setups, seconds: float) -> Loop:
    """Whole rounds until `seconds` have passed, with a set-up repeat after each round."""
    loop = Loop(workload)
    gc.collect()
    start = time.perf_counter()
    while True:
        loop.round()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (loop.attempted >= MIN_OPS or elapsed >= STRETCH * seconds):
            break
        setups.run()
    while len(setups.times) < MIN_SETUPS:
        setups.run()
    return loop


def traced_loop(workload, lib, seconds: float, trace_path: Path) -> tuple[dict, Loop, Loop]:
    """Untraced and traced rounds in turn, so that the machine's drift hits both alike.

    Returns the per-operation layer metrics of the traced rounds and both loops.
    """
    plain, traced, tracer = Loop(workload), Loop(workload), Tracer()
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.round()
        tracer.install(lib)
        try:
            traced.round(tracer)
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    values = tracer.totals()
    overhead = plain.ops_per_s() / traced.ops_per_s() - 1.0
    values["trace.overhead_pct"] = overhead * 100
    note(f"tracing overhead: {plain.ops_per_s():.4g} ops/s untraced, "
         f"{traced.ops_per_s():.4g} traced ({overhead:+.1%})")
    note(f"program and benchmark spans account for {tracer.accounted_share():.2%} "
         f"of the traced operations' wall time; spans of the first one in {trace_path}")
    units = {"calls": "count", "self_ms": "ms", "residual_ms": "ms", "out_mib": "MiB",
             "overhead_pct": "%"}
    return ({name: metric(v, units[name.rsplit(".", 1)[1]]) for name, v in values.items()},
            plain, traced)


def note(text: str):
    print(text, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        note(f"error: the program's source {SRC / PACKAGE} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = Setups(workload)
        if args.trace:
            metrics, *loops = traced_loop(workload, setups.lib, args.seconds,
                                          OUT / f"trace-{stem}.jsonl")
        else:
            loops = [timed_loop(workload, setups, args.seconds)]
            metrics = end_to_end(loops[0], statistics.median(setups.times))
    except BenchmarkError as exc:
        note(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for loop in loops for p in loop.problems]
    for p in problems[:10]:
        note(f"WRONG: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0
