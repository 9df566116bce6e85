"""Span recording from outside the program.

`Tracer.install` replaces each traced public function with a timing
wrapper in every `reductionlab` module namespace that holds it, because
modules import these names with `from .linalg import tensor` and similar
lines; a wrapper placed only on the defining module would miss those
calls.  Classes are traced through their `__init__`.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# layer -> traced public names
TRACED = {
    "linalg": ("tensor", "partial_trace", "permute_factors", "herm_expm", "spectral_decompose"),
    "quantum": ("DensityOperator", "Observable", "born_distribution"),
    "measurement": ("effects", "verify_measures", "outcome_probability", "nonselective_state",
                    "state_reduction", "state_reduction_sandwiched", "mixture_identity_check",
                    "satisfies_projection_postulate", "statistics_deviation"),
    "bayes": ("joint_distribution_formula", "joint_distribution_oracle", "posterior_state",
              "prior_state", "bayes_mixture_check"),
    "modelio": ("load_json", "model_from_dict"),
    "zoo": ("random_indirect_model",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
BYTES_PER_ENTRY = 16  # complex128
RECORDED_OPS = 1  # operations whose every span is written out


def kron_bytes(factors) -> int:
    """Computed size of the Kronecker products tensor(*factors) builds, one per extra factor."""
    total, dim = 0, 1
    for i, f in enumerate(factors):
        dim *= len(f)
        if i:
            total += BYTES_PER_ENTRY * dim * dim
    return total


class NoSpans:
    """Stand-in used when tracing is off: marks cost nothing."""

    def bench(self, name):
        return contextlib.nullcontext()

    def begin_op(self):
        pass

    def end_op(self):
        pass


NO_SPANS = NoSpans()


class Tracer(NoSpans):
    """Keeps per-name call counts and self times, and the full spans of the first ops."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.tensor_bytes = 0
        self.ops = 0
        self.records: list[tuple] = []
        self._stack: list[list] = []  # frames: [span id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _push(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, name: str, frame: list, start: float, end: float):
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if self.ops < RECORDED_OPS:
            parent = self._stack[-1][0] if self._stack else None
            self.records.append((self.ops, frame[0], parent, name, start, dur, dur - frame[1]))

    def _wrap(self, name: str, fn):
        measure_kron = name == "linalg.tensor"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_kron:
                    self.tensor_bytes += kron_bytes(args)
                self._pop(name, frame, start, end)

        return traced

    @contextlib.contextmanager
    def bench(self, name):
        """A span around the benchmark's own work inside an operation."""
        frame = self._push()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._pop(f"bench.{name}", frame, start, time.perf_counter())

    def begin_op(self):
        self._op_frame = self._push()
        self._op_start = time.perf_counter()

    def end_op(self):
        self._pop("op", self._op_frame, self._op_start, time.perf_counter())
        self.ops += 1

    # -- installation --------------------------------------------------------
    def install(self, lib):
        """Wrap every traced name of the imported program `lib`."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "reductionlab" or name.startswith("reductionlab.")]
        for layer, fns in TRACED.items():
            module = getattr(lib, layer)
            for fn in fns:
                original = getattr(module, fn)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    original.__init__ = self._wrap(f"{layer}.{fn}", init)
                    self._restore.append((original, "__init__", init))
                    continue
                wrapped = self._wrap(f"{layer}.{fn}", original)
                for ns in namespaces:
                    if ns.__dict__.get(fn) is original:
                        setattr(ns, fn, wrapped)
                        self._restore.append((ns, fn, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def totals(self) -> dict:
        """Per-operation calls, self time and Kronecker bytes; program vs benchmark vs rest."""
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3 / ops
        out["linalg.tensor.out_mib"] = self.tensor_bytes / 2**20 / ops
        bench = sum(s for name, s in self.self_s.items() if name.startswith("bench."))
        out["bench.self_ms"] = bench * 1e3 / ops
        out["trace.residual_ms"] = self.self_s["op"] * 1e3 / ops
        return out

    def accounted_share(self) -> float:
        """Share of the operations' wall time covered by program and benchmark spans."""
        wall = sum(s for s in self.self_s.values())
        return 1.0 - self.self_s["op"] / wall if wall else 0.0

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, dur, self_dur in self.records:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_us": round(start * 1e6, 1),
                                     "dur_us": round(dur * 1e6, 1),
                                     "self_us": round(self_dur * 1e6, 1)}) + "\n")
