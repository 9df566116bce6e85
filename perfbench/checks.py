"""Reference checks on the program's outputs.

Each check returns a list of problems; an empty list means the answer is
right.  Expected values come from plain numpy and the generator's own
construction (models.py), or from properties the method must have, never
from a recorded run of the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

from models import GeneratedModel

# The program's documented tolerances: probabilities and operators.
TOL_PROB = 1e-10
TOL_OP = 1e-9
# Absolute rounding error allowed in an unnormalized reduction before it is
# divided by P(a).  Dividing amplifies it by 1/P(a): at P(a) = 1e-8 the
# allowance is 1e-7, which a reduction computed correctly stays well inside
# (about 1e-9 measured at (12, 13)) and a wrong one (1e-6 off) does not.
ROUNDING = 1e-15
# A reduction may fail with the known conditioning fault only on an outcome
# this unlikely.
FAULT_P_MAX = 1e-6


def outcome_index(label: float, n: int) -> int | None:
    """Outcome labels are the integers 0..n-1 by construction."""
    k = int(round(label))
    return k if 0 <= k < n and abs(label - k) <= 1e-6 else None


def reduction_tolerance(p: float) -> float:
    return TOL_OP + ROUNDING / p


def check_reduction(model: GeneratedModel, rho: np.ndarray, probabilities: dict,
                    reductions: dict, nonselective: np.ndarray,
                    fault: tuple = ()) -> tuple[list[str], int]:
    """Check P(a), rho_a and rho' of one state through one model.

    `probabilities` and `reductions` are keyed by the program's outcome
    labels; a reduction may be an exception instance.  An exception of a
    type in `fault`, on an outcome with reference P(a) <= FAULT_P_MAX, is
    the known fault: it is counted, not treated as a wrong answer.
    Returns (problems, number of faults).
    """
    n = len(model.projections)
    problems: list[str] = []
    p_ref = [float(np.trace(proj @ rho).real) for proj in model.projections]
    ref_states = [
        (proj @ rho @ proj / p if p > 0 else None) if model.projective else model.sigma_out
        for proj, p in zip(model.projections, p_ref)
    ]
    by_index = {}
    for label, p in probabilities.items():
        k = outcome_index(label, n)
        if k is None or k in by_index:
            return [f"{model.name}: unexpected outcome label {label!r}"], 0
        by_index[k] = label
        if not abs(p - p_ref[k]) <= TOL_PROB:
            problems.append(f"{model.name}: P({k}) = {p!r}, expected {p_ref[k]!r}")
    if sorted(by_index) != list(range(n)):
        return [f"{model.name}: outcomes {sorted(by_index)}, expected 0..{n - 1}"], 0
    wanted = {label for label, p in probabilities.items() if p > TOL_PROB}
    if set(reductions) != wanted:
        problems.append(f"{model.name}: reduced outcomes {sorted(reductions)}, expected {sorted(wanted)}")
    faults = 0
    for label in wanted & set(reductions):
        k, got = outcome_index(label, n), reductions[label]
        if isinstance(got, BaseException):
            if isinstance(got, fault) and p_ref[k] <= FAULT_P_MAX:
                faults += 1
            else:
                problems.append(f"{model.name}: reduction of outcome {k} raised {got!r}")
            continue
        dev = float(np.max(np.abs(got - ref_states[k])))
        if not dev <= reduction_tolerance(p_ref[k]):
            problems.append(f"{model.name}: rho_{k} deviates by {dev:.3g}")
    mixture = sum(p * s for p, s in zip(p_ref, ref_states) if s is not None)
    dev = float(np.max(np.abs(nonselective - mixture)))
    if not dev <= TOL_OP:
        problems.append(f"{model.name}: rho' deviates from sum_a P(a) rho_a by {dev:.3g}")
    return problems, faults


def _report(rc: int, stdout: str) -> tuple[dict | None, list[str]]:
    """Parse a `--json` report and check what every report must satisfy."""
    if rc != 0:
        return None, [f"exit code {rc}: {stdout.strip()[-300:]}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    problems = []
    if doc.get("ok") is not True:
        problems.append("ok is not true")
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        return doc, problems + ["no checks reported"]
    for c in checks:
        dev, tol = c.get("max_deviation"), c.get("tolerance")
        if c.get("pass") is not True:
            problems.append(f"check {c.get('name')} did not pass")
        if not (isinstance(dev, (int, float)) and isinstance(tol, (int, float))
                and math.isfinite(dev) and 0 <= dev <= tol):
            problems.append(f"check {c.get('name')}: deviation {dev!r} not within {tol!r}")
    return doc, problems


def check_verify(rc: int, stdout: str, expected_class: str) -> list[str]:
    """`verify --json`: exit 0, every check passes, and the known classification."""
    doc, problems = _report(rc, stdout)
    if doc is not None and doc.get("classification") != expected_class:
        problems.append(f"classification {doc.get('classification')!r}, expected {expected_class!r}")
    return problems


def check_sweep(rc: int, stdout: str, seed: int, trials: int, dims: list[int]) -> list[str]:
    """`sweep --json`: exit 0, every deviation within tolerance, the request echoed back."""
    doc, problems = _report(rc, stdout)
    if doc is not None:
        sent = {"seed": seed, "trials": trials, "dims": list(dims)}
        echoed = {key: doc.get(key) for key in sent}
        if echoed != sent:
            problems.append(f"echoed {echoed}, sent {sent}")
    return problems
