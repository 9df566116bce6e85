"""JSON model and scenario files.

Format version "1": complex numbers are two-element [re, im] arrays,
matrices are flat row-major lists of such pairs.  A model file may carry
an `object_hamiltonian`; it is checked for shape and hermiticity and then
dropped, since a model is (sigma, U, B, A) and is never written with one.
A scenario's dim1 and dim2 are the dimensions of its a_matrix and
x_matrix; its optional `apparatus` is a model, returned as it is and
checked against the scenario by `bayes.joint_distribution_oracle`.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from .bayes import EntangledScenario
from .errors import DimensionMismatchError, ParseError, ValidationError
from .linalg import is_hermitian
from .measurement import MeasurementModel
from .quantum import DensityOperator, Observable

FORMAT_VERSION = "1"


def matrix_to_pairs(m) -> list[list[float]]:
    a = np.asarray(m, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in a.ravel(order="C")]


def pairs_to_matrix(pairs, field: str) -> np.ndarray:
    if not isinstance(pairs, list):
        raise ParseError(f"{field}: expected a list of [re, im] pairs")
    n = len(pairs)
    dim = math.isqrt(n)
    if dim * dim != n or dim == 0:
        raise ParseError(f"{field}: {n} entries is not a positive square")
    flat = _pairs_array(pairs)
    if flat is None or not (np.abs(flat) < sys.float_info.max).all():
        # name the first bad entry; an int above the float maximum converts to it, so an entry
        # at the maximum is judged here too
        for i, p in enumerate(pairs):
            if not (isinstance(p, list) and len(p) == 2 and _finite(p[0]) and _finite(p[1])):
                raise ParseError(f"{field}: entry {i} is not a [re, im] pair")
        flat = np.array(pairs, dtype=float)
    return flat.view(complex).reshape(dim, dim)  # the bits of each part, signed zeros included


def _pairs_array(pairs: list) -> np.ndarray | None:
    """The pairs as an (n, 2) float array in one conversion, or None unless every entry is a
    two-element list of exact ints and floats (JSON's numbers; bool is neither)."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        return None
    try:
        return np.array(pairs, dtype=float)
    except OverflowError:  # an int too large for a float
        return None


def _finite(v) -> bool:
    """A number that fits a finite float. JSON true and false load as bool, an int subclass."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _require(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"missing required field '{field}'")
    return doc[field]


def _matrix(doc: dict, field: str) -> np.ndarray:
    return pairs_to_matrix(_require(doc, field), field)


def _check_version(doc: dict):
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"format_version: expected '{FORMAT_VERSION}', got {version!r}")


def _int_field(doc: dict, field: str) -> int:
    v = _require(doc, field)
    if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
        raise ParseError(f"{field}: expected a positive integer, got {v!r}")
    return v


def _number_field(doc: dict, field: str) -> float:
    v = _require(doc, field)
    if not _finite(v):
        raise ParseError(f"{field}: expected a finite number, got {v!r}")
    return float(v)


def _validated(field: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValidationError prefixed by the field it came from."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def model_to_dict(model: MeasurementModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "object_dim": model.object_dim,
        "apparatus_dim": model.apparatus_dim,
        "sigma": matrix_to_pairs(model.sigma.matrix),
        "u": matrix_to_pairs(model.u),
        "a_matrix": matrix_to_pairs(model.measured.matrix),
        "b_matrix": matrix_to_pairs(model.probe.matrix),
    }


def model_from_dict(doc: dict) -> MeasurementModel:
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    _check_version(doc)
    object_dim = _int_field(doc, "object_dim")
    apparatus_dim = _int_field(doc, "apparatus_dim")
    expected = {
        "sigma": apparatus_dim,
        "u": object_dim * apparatus_dim,
        "a_matrix": object_dim,
        "b_matrix": apparatus_dim,
        "object_hamiltonian": object_dim,  # optional: checked, then dropped
    }
    mats = {field: _matrix(doc, field) for field in expected
            if field != "object_hamiltonian" or field in doc}
    for field, m in mats.items():
        dim = expected[field]
        if len(m) != dim:
            raise ParseError(f"{field}: expected a {dim}x{dim} matrix, got {len(m)}x{len(m)}")
    model = MeasurementModel(
        sigma=_validated("sigma", DensityOperator, mats["sigma"]),
        u=mats["u"],
        probe=_validated("b_matrix", Observable, mats["b_matrix"]),
        measured=_validated("a_matrix", Observable, mats["a_matrix"]),
    )
    if "object_hamiltonian" in mats and not is_hermitian(mats["object_hamiltonian"]):
        raise ValidationError("object_hamiltonian: must be Hermitian")
    return model


def scenario_to_dict(s: EntangledScenario, apparatus: MeasurementModel | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "dim1": s.dims[0],
        "dim2": s.dims[1],
        "rho12": matrix_to_pairs(s.rho12.matrix),
        "a_matrix": matrix_to_pairs(s.a_obs.matrix),
        "x_matrix": matrix_to_pairs(s.x_obs.matrix),
        "h1": matrix_to_pairs(s.h1),
        "h2": matrix_to_pairs(s.h2),
        "t": s.t,
        "tau": s.tau,
    }
    if apparatus is not None:
        doc["apparatus"] = model_to_dict(apparatus)
    return doc


def scenario_from_dict(doc: dict) -> tuple[EntangledScenario, MeasurementModel | None]:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_version(doc)
    d1 = _int_field(doc, "dim1")
    d2 = _int_field(doc, "dim2")
    rho12 = _matrix(doc, "rho12")
    if rho12.shape[0] != d1 * d2:
        raise ParseError(f"rho12: expected dimension {d1 * d2}, got {rho12.shape[0]}")
    rho = _validated("rho12", DensityOperator, rho12)
    a_obs = _validated("a_matrix", Observable, _matrix(doc, "a_matrix"))
    x_obs = _validated("x_matrix", Observable, _matrix(doc, "x_matrix"))
    # the observables give the scenario its factors, so they must be dim1 and dim2
    for field, obs, dim_field, dim in (("a_matrix", a_obs, "dim1", d1),
                                       ("x_matrix", x_obs, "dim2", d2)):
        if obs.dim != dim:
            raise DimensionMismatchError(f"{field}: dimension {obs.dim} != {dim_field} {dim}")
    h1, h2 = _matrix(doc, "h1"), _matrix(doc, "h2")
    t, tau = _number_field(doc, "t"), _number_field(doc, "tau")
    scenario = EntangledScenario(rho, a_obs, x_obs, h1=h1, h2=h2, t=t, tau=tau)
    return scenario, model_from_dict(doc["apparatus"]) if "apparatus" in doc else None


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def save_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
