"""Command-line front end: verify, reduce, entangled, sweep, export-zoo.

Exit codes: 0 ok, 1 usage error, 2 a named path the system cannot open or
create, 3 parse error, 4 validation error, 5 zero-probability outcome.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import checks
from .bayes import bayes_condition
from .errors import (
    DimensionMismatchError,
    ParseError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import TOL_OP, TOL_PROB, identity
from .measurement import outcome_probability, state_reduction
from .modelio import (
    load_json,
    matrix_to_pairs,
    model_from_dict,
    model_to_dict,
    pairs_to_matrix,
    save_json,
    scenario_from_dict,
)
from .quantum import DensityOperator, pure
from .zoo import KET_0, KET_1, KET_MINUS, KET_PLUS, standard_models

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING_FILE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_ZERO_PROBABILITY = 5

TOL_ENV_VAR = "REDUCTIONLAB_TOL"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # a word that names no option here is a value, so `--state -i` and
        # `--outcome -inf` keep theirs; argparse would read either as an option.
        # argparse gives one (action, ...) tuple, from Python 3.12.7 a list of them
        parsed = super()._parse_optional(arg_string)
        action = parsed and (parsed[0][0] if isinstance(parsed, list) else parsed[0])
        return parsed if action else None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _deviation(x: float) -> float | None:
    return x if math.isfinite(x) else None  # null: strict JSON has no NaN or infinity


def _dump(doc: dict):
    json.dump(doc, sys.stdout, indent=1, allow_nan=False)
    sys.stdout.write("\n")


def _print_reports(reports: list[checks.Report], as_json: bool, extra: dict):
    if as_json:
        doc = dict(extra)
        # timing excluded: fixed seeds must reproduce byte-identical JSON
        doc["checks"] = [{"name": r.name, "pass": r.passed,
                          "max_deviation": _deviation(r.max_deviation),
                          "tolerance": r.tolerance} for r in reports]
        doc["ok"] = all(r.passed for r in reports)
        _dump(doc)
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name} max_deviation={_fmt(r.max_deviation)} "
                  f"tolerance={_fmt(r.tolerance)} ({r.elapsed_ms:.1f} ms)")
        for key, value in extra.items():
            print(f"{key}: {value}")


def cmd_verify(args) -> int:
    model = model_from_dict(load_json(args.model))
    reports, classification = checks.verify(model, args.tolerance)
    _print_reports(reports, args.json, {"classification": classification})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VALIDATION


_NAMED_QUBIT_STATES = {
    "0": KET_0,
    "1": KET_1,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "i": np.array([1, 1j]) / np.sqrt(2),
    "-i": np.array([1, -1j]) / np.sqrt(2),
}


def _parse_state(spec: str, dim: int) -> DensityOperator:
    if spec in _NAMED_QUBIT_STATES:
        if dim != 2:
            raise ValidationError(f"named state '{spec}' requires a qubit object, dim is {dim}")
        return pure(_NAMED_QUBIT_STATES[spec])
    if spec == "mixed":
        return DensityOperator(identity(dim) / dim)
    doc = load_json(spec)
    pairs = doc.get("matrix", doc) if isinstance(doc, dict) else doc
    return DensityOperator(pairs_to_matrix(pairs, "state"))


def cmd_reduce(args) -> int:
    model = model_from_dict(load_json(args.model))
    rho = _parse_state(args.state, model.object_dim)
    p = outcome_probability(model, rho).probability(args.outcome)
    reduced = state_reduction(model, rho, args.outcome)
    _dump({"probability": p, "matrix": matrix_to_pairs(reduced.matrix)})
    return EXIT_OK


def _joint_to_list(j) -> list:
    return [[a, x, p] for (a, x), p in sorted(j.entries.items())]


def cmd_entangled(args) -> int:
    scenario, apparatus = scenario_from_dict(load_json(args.scenario))
    evaluated = checks.evaluate_scenario(scenario, apparatus)
    formula = evaluated.formula
    doc: dict = {"joint_formula": _joint_to_list(formula)}
    if apparatus is not None:
        report = checks.LOCAL_MEASUREMENT.run(args.tolerance, scenario, evaluated)
        doc["joint_oracle"] = _joint_to_list(evaluated.oracle)
        doc["formula_oracle_deviation"] = _deviation(report.max_deviation)
    doc["prior"] = matrix_to_pairs(evaluated.prior.matrix)
    doc["posteriors"] = {_fmt(a): matrix_to_pairs(post.matrix)
                         for a, _, post in evaluated.posteriors}
    marg_x = formula.marginal_x()
    doc["independent"] = not any(bayes_condition(formula, a).max_deviation(marg_x) > TOL_PROB
                                 for a, _, _ in evaluated.posteriors)
    mixture = checks.BAYES_MIXTURE.run(args.tolerance, scenario, evaluated)
    doc["bayes_mixture_deviation"] = _deviation(mixture.max_deviation)
    doc["ok"] = ok = mixture.passed and (apparatus is None or report.passed)
    if args.json:
        _dump(doc)
    else:
        print("joint (formula):")
        for a, x, p in doc["joint_formula"]:
            print(f"  A={_fmt(a)} X={_fmt(x)}  {_fmt(p)}")
        if apparatus is not None:
            print(f"formula vs oracle deviation: {_fmt(report.max_deviation)}")
        print(f"independent: {doc['independent']}")
        print(f"bayes mixture deviation: {_fmt(mixture.max_deviation)}")
        print("ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    reports = checks.sweep(args.seed, args.trials, args.dims, args.tolerance)
    extra = {"seed": args.seed, "trials": args.trials, "dims": list(args.dims)}
    _print_reports(reports, args.json, extra)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VALIDATION


def cmd_export_zoo(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    for name, model in standard_models().items():
        path = os.path.join(args.outdir, f"{name}.json")
        save_json(path, model_to_dict(model))
        print(path)
    return EXIT_OK


def _parse_dims(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse dims {text!r}") from None
    if not dims:
        raise UsageError(f"dims range {text} is empty")
    if any(d < 2 for d in dims):
        raise UsageError(f"dims must all be >= 2, got {dims}")
    return dims


def _tolerance(text: str, source: str = "--tolerance") -> float:
    """An operator tolerance: a finite number >= 0, from the flag or the environment."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"{source} must be a finite number >= 0, got {text!r}")
    return tol


# one parser per process and default tolerance: parse_args leaves it unchanged, and a
# build takes about 1 ms, paid on every call by a process that runs many commands
@functools.lru_cache(maxsize=None)
def build_parser(default_tol: float) -> argparse.ArgumentParser:
    parser = _Parser(prog="reductionlab",
                     description="Measurement-model verification and state reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=_tolerance, default=default_tol,
                       help="operator tolerance for pass/fail judgments")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="run the verification suite on a model file")
    p.add_argument("model")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="print P(a) and the reduced state")
    p.add_argument("model")
    p.add_argument("--state", required=True,
                   help="named qubit state (0,1,+,-,i,-i), 'mixed', or a JSON matrix file")
    p.add_argument("--outcome", type=float, required=True)
    p.add_argument("--json", action="store_true", help="accepted; reduce always prints JSON")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("entangled", help="joint distribution, prior and posterior states")
    p.add_argument("scenario")
    common(p)
    p.set_defaults(fn=cmd_entangled)

    p = sub.add_parser("sweep", help="random-model invariant sweep")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--dims", type=_parse_dims, default=[2, 3, 4],
                   help="object/partner dimensions, e.g. 2..4 or 2,3,4")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("export-zoo", help="write the canonical zoo models as JSON files")
    p.add_argument("outdir")
    p.set_defaults(fn=cmd_export_zoo)

    return parser


def main(argv=None) -> int:
    try:
        env = os.environ.get(TOL_ENV_VAR)
        default_tol = TOL_OP if env is None else _tolerance(env, TOL_ENV_VAR)
        args = build_parser(default_tol).parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not about a path the user named (a closed pipe, say)
            raise
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_PROBABILITY
    except (ValidationError, DimensionMismatchError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
