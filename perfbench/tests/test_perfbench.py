"""Tests of the benchmark itself: its reference checks, its tracer and its entry point.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from checks import check_sweep, check_verify
from conftest import BENCH
from spans import NO_SPANS, TRACED, Tracer, kron_bytes
from workloads import WORKLOADS, ReduceLarge, SweepOracle, VerifyZoo


def make(cls, lib, tmp_path, seed=1):
    w = cls(seed, Path(tempfile.mkdtemp(dir=tmp_path)))
    w.setup(lib)
    return w


def traced_ops(w, lib, ops):
    tracer = Tracer()
    tracer.install(lib)
    try:
        outs = []
        for j in ops:
            tracer.begin_op()
            outs.append(w.op(j, tracer))
            tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer, outs


@pytest.fixture
def reduce(lib, tmp_path):
    return make(ReduceLarge, lib, tmp_path)


def bump(m):
    out = m.copy()
    out[0, 0] += 1e-6
    return out


# -- reduce-large ------------------------------------------------------------

def test_reduce_check_accepts_the_program(reduce):
    assert reduce.check(0, reduce.op(0, NO_SPANS)) == ([], False)


def test_reduce_check_rejects_answers_off_by_1e_6(reduce):
    results = reduce.op(0, NO_SPANS)
    for model in range(len(results)):
        rho, probs, reds, rho_ns = results[model]
        first = min(probs)
        wrong = [
            (rho, {**probs, first: probs[first] + 1e-6}, reds, rho_ns),
            (rho, probs, {**reds, first: bump(reds[first])}, rho_ns),
            (rho, probs, reds, bump(rho_ns)),
        ]
        for answer in wrong:
            bad = list(results)
            bad[model] = answer
            assert reduce.check(0, bad)[0], (model, answer)


def test_reduce_check_rejects_swapped_outcome_labels(reduce):
    results = reduce.op(0, NO_SPANS)
    rho, probs, reds, rho_ns = results[0]  # a projective model
    a, b = sorted(probs)[:2]
    for answer in ((rho, {**probs, a: probs[b], b: probs[a]}, reds, rho_ns),
                   (rho, probs, {**reds, a: reds[b], b: reds[a]}, rho_ns)):
        assert reduce.check(0, [answer] + results[1:])[0]


def test_reduce_check_rejects_the_lueders_state_for_swap_replace(reduce):
    results = reduce.op(0, NO_SPANS)
    model = next(i for i, (_, g) in enumerate(reduce.generated) if not g.projective)
    g = reduce.generated[model][1]
    rho, probs, reds, rho_ns = results[model]
    lueders = {}
    for a in reds:
        proj = g.projections[int(round(a))]
        lueders[a] = proj @ rho @ proj / np.trace(proj @ rho).real
    bad = list(results)
    bad[model] = (rho, probs, lueders, rho_ns)
    assert reduce.check(0, bad)[0]


def test_kept_failure_is_counted_and_a_correct_fix_passes(lib, reduce):
    assert reduce.check(0, reduce.op(0, NO_SPANS)) == ([], False)
    j = reduce.round_size - 1
    results = reduce.op(j, NO_SPANS)
    problems, failed = reduce.check(j, results)
    assert problems == []
    assert failed
    fixed = copy.deepcopy(results)
    for (model, g, _), (rho, probs, reds, _) in zip(reduce.inputs(j), fixed):
        comp = model.composite_after(lib.quantum.DensityOperator(rho))
        for a in reds:
            eb = lib.linalg.tensor(lib.linalg.identity(g.object_dim), model.probe_projection(a))
            selected = eb @ comp
            num = lib.linalg.partial_trace(selected, (g.object_dim, g.apparatus_dim), [0])
            reds[a] = (num + num.conj().T) / 2 / np.trace(selected).real
    assert reduce.check(j, fixed) == ([], False)
    # the tolerance widened by 1/P(a) still rejects an answer 1e-6 off
    rho, probs, reds, rho_ns = fixed[0]
    weak = next(a for a, p in probs.items() if p < 1e-6)
    fixed[0] = (rho, probs, {**reds, weak: bump(reds[weak])}, rho_ns)
    assert reduce.check(j, fixed)[0]


# -- verify-zoo --------------------------------------------------------------

def edit_report(out: str, **changes) -> str:
    doc = json.loads(out)
    doc.update(changes)
    return json.dumps(doc)


def test_verify_check_accepts_the_program_and_rejects_wrong_reports(lib, tmp_path):
    w = make(VerifyZoo, lib, tmp_path)
    results = w.op(0, NO_SPANS)
    assert w.check(0, results) == ([], False)
    names = [p.rsplit("/", 1)[-1] for p, _ in w.files]
    cnot, swap = names.index("cnot.json"), names.index("swap_replace.json")
    rc, out = results[cnot]
    doc = json.loads(out)
    doc["checks"][0]["max_deviation"] += 1e-6
    assert check_verify(rc, json.dumps(doc), "projective")
    swapped = list(results)
    swapped[cnot] = (rc, edit_report(out, classification="non-projective"))
    swapped[swap] = (0, edit_report(results[swap][1], classification="projective"))
    assert w.check(0, swapped)[0]
    # the Lueders (projective) claim for swap-replace alone
    assert check_verify(0, edit_report(results[swap][1], classification="projective"),
                        "non-projective")
    assert check_verify(4, out, "projective")


# -- sweep-oracle ------------------------------------------------------------

def test_sweep_check_accepts_the_program_and_rejects_wrong_reports(lib, tmp_path):
    w = make(SweepOracle, lib, tmp_path)
    seed = w.trial_seed
    rc, out = w.op(0, NO_SPANS)
    assert check_sweep(rc, out, seed, 1, [6, 8]) == []
    doc = json.loads(out)
    doc["checks"][0]["max_deviation"] += 1e-6
    assert check_sweep(rc, json.dumps(doc), seed, 1, [6, 8])
    assert check_sweep(rc, out, seed, 1, [8, 6])
    assert check_sweep(rc, out, seed + 1, 1, [6, 8])
    assert check_sweep(rc, edit_report(out, ok=False), seed, 1, [6, 8])
    assert w.check(0, (rc, out)) == ([], False)
    assert w.trial_seed > seed


# -- tracer --------------------------------------------------------------------

def test_traced_op_returns_the_same_outputs(lib, tmp_path):
    plain = make(ReduceLarge, lib, tmp_path, seed=3).op(0, NO_SPANS)
    tracer, (traced,) = traced_ops(make(ReduceLarge, lib, tmp_path, seed=3), lib, [0])
    for (rho1, p1, r1, ns1), (rho2, p2, r2, ns2) in zip(plain, traced):
        assert np.array_equal(rho1, rho2) and p1 == p2 and np.array_equal(ns1, ns2)
        assert r1.keys() == r2.keys()
        assert all(np.array_equal(r1[a], r2[a]) for a in r1)
    assert tracer.calls["measurement.state_reduction"] == 16 * ReduceLarge.COPIES
    verify = make(VerifyZoo, lib, tmp_path)
    assert traced_ops(verify, lib, [0])[1][0] == verify.op(0, NO_SPANS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_call_counts_repeat_across_runs(lib, tmp_path, name):
    counts = []
    for seed in (1, 2):
        w = make(WORKLOADS[name], lib, tmp_path, seed)
        tracer, _ = traced_ops(w, lib, range(w.round_size))
        counts.append(dict(tracer.calls))
        assert tracer.accounted_share() > 0.95
    assert counts[0] == counts[1]


def test_install_wraps_every_namespace_and_uninstall_restores(lib):
    originals = {fn: getattr(getattr(lib, layer), fn)
                 for layer, fns in TRACED.items() for fn in fns
                 if not isinstance(getattr(getattr(lib, layer), fn), type)}
    namespaces = [m for n, m in sys.modules.items()
                  if isinstance(m, types.ModuleType) and n.startswith("reductionlab")]
    init = lib.quantum.DensityOperator.__init__
    tracer = Tracer()
    tracer.install(lib)
    try:
        for ns in namespaces:
            for fn, original in originals.items():
                assert ns.__dict__.get(fn) is not original, (ns.__name__, fn)
        assert lib.quantum.DensityOperator.__init__ is not init
    finally:
        tracer.uninstall()
    assert all(ns.__dict__.get(fn) in (None, original)
               for ns in namespaces for fn, original in originals.items())
    assert lib.quantum.DensityOperator.__init__ is init


def test_kron_bytes():
    assert kron_bytes([np.eye(2)]) == 0
    assert kron_bytes([np.eye(2), np.eye(3)]) == 16 * 36
    assert kron_bytes([np.eye(2), np.eye(3), np.eye(4)]) == 16 * (36 + 576)


# -- entry point ---------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
