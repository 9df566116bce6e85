"""Canonical measurement models used as fixtures.

Each constructor returns a validated MeasurementModel: the apparatus
triple (sigma, U, B) and the observable it claims to measure.
standard_models() maps the names `export-zoo` writes to the fixed models.

All randomness comes from numpy's default_rng (PCG64, a portable 64-bit
generator): the same seed reproduces the same model matrices bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import dagger, identity, tensor
from .measurement import MeasurementModel
from .quantum import DensityOperator, Observable, pure

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def cnot_qubit_model() -> MeasurementModel:
    """Qubit indirect model: pointer at |0>, object-controlled NOT, Pauli-Z probe."""
    cnot = np.zeros((4, 4), dtype=complex)
    for s in range(2):
        for p in range(2):
            cnot[s * 2 + (p ^ s), s * 2 + p] = 1.0
    return MeasurementModel(
        sigma=pure(KET_0),
        u=cnot,
        probe=Observable(PAULI_Z),
        measured=Observable(PAULI_Z),
    )


def swap_replace_model(sigma_out: DensityOperator, a_obs: Observable) -> MeasurementModel:
    """Measure-and-replace: SWAP the object with a fresh apparatus state.

    The outcome statistics are exactly those of a_obs, but the object is
    left in sigma_out regardless of the outcome.
    """
    d = a_obs.dim
    if sigma_out.dim != d:
        raise DimensionMismatchError(
            f"sigma_out dim {sigma_out.dim} != observable dim {d}"
        )
    # |i, j> -> |j, i>
    swap = identity(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return MeasurementModel(
        sigma=sigma_out,
        u=swap,
        probe=Observable(a_obs.matrix),
        measured=a_obs,
    )


def _controlled_shift(a_obs: Observable, apparatus_dim: int | None) -> tuple:
    """(sigma, U, B) of the controlled-shift model as matrices, not yet judged: the one
    builder of `controlled_shift_model` and `random_indirect_model`."""
    spectrum = a_obs.spectrum
    n = len(spectrum)
    na = n if apparatus_dim is None else int(apparatus_dim)
    if na < n:
        raise DimensionMismatchError(
            f"apparatus dim {na} smaller than outcome count {n}"
        )
    shift = np.roll(identity(na), 1, axis=0)  # |j> -> |j + 1 mod na>
    u = np.zeros((a_obs.dim * na, a_obs.dim * na), dtype=complex)
    for k, (_, proj) in enumerate(spectrum):
        u += tensor(proj, np.linalg.matrix_power(shift, k))
    values = [a for a, _ in spectrum]
    b = np.diag(values + values[:1] * (na - n)).astype(complex)
    rest = identity(na)[:, 0]
    return np.outer(rest, rest.conj()), u, b


def controlled_shift_model(a_obs: Observable,
                           apparatus_dim: int | None = None) -> MeasurementModel:
    """Finite pointer model: eigenspace k of A shifts a rest pointer by k steps.

    The pointer observable copies A's sorted spectrum; surplus pointer
    levels (if apparatus_dim exceeds the outcome count) join the lowest
    outcome's eigenspace and are never populated.
    """
    sigma, u, b = _controlled_shift(a_obs, apparatus_dim)
    return MeasurementModel(
        sigma=DensityOperator(sigma),
        u=u,
        probe=Observable(b),
        measured=a_obs,
    )


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fixing."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_observable(rng: np.random.Generator, dim: int,
                      n_outcomes: int | None = None) -> Observable:
    """Random-basis observable with an integer-separated spectrum."""
    if n_outcomes is None:
        n_outcomes = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    if not 1 <= n_outcomes <= dim:
        raise ValidationError(f"need 1 <= outcomes <= {dim}, got {n_outcomes}")
    values = np.arange(n_outcomes, dtype=float)
    # random multiplicities, each eigenvalue used at least once
    assignment = list(range(n_outcomes))
    assignment += [int(rng.integers(0, n_outcomes)) for _ in range(dim - n_outcomes)]
    diag = np.sort(np.array([values[k] for k in assignment]))
    v = haar_unitary(rng, dim)
    return Observable(v @ np.diag(diag).astype(complex) @ dagger(v))


def random_indirect_model(seed: int, object_dim: int, apparatus_dim: int,
                          a_obs: Observable | None = None) -> MeasurementModel:
    """Seeded random model that provably measures its observable.

    Starts from the controlled-shift matrices and conjugates the apparatus
    side by a Haar-random unitary W: u -> (1 (x) W) u (1 (x) W^dag),
    sigma -> W sigma W^dag, B -> W B W^dag.  The effects (and reductions)
    are invariant under this substitution, so the measuring condition
    still holds and the model stays Lueders-projective.  Only the
    conjugated model is built and validated; the controlled-shift
    matrices are never judged as a model of their own.
    """
    rng = np.random.default_rng(seed)
    if a_obs is None:
        a_obs = random_observable(rng, object_dim)
    elif a_obs.dim != object_dim:
        raise DimensionMismatchError(f"a_obs dim {a_obs.dim} != object dim {object_dim}")
    sigma, u, b = _controlled_shift(a_obs, apparatus_dim)  # refuses too few apparatus levels
    w = haar_unitary(rng, apparatus_dim)
    one_w = tensor(identity(object_dim), w)
    return MeasurementModel(
        sigma=DensityOperator(w @ sigma @ dagger(w)),
        u=one_w @ u @ dagger(one_w),
        probe=Observable(w @ b @ dagger(w)),
        measured=a_obs,
    )


def standard_models() -> dict[str, MeasurementModel]:
    """The fixed fixtures exercised by the verification and CLI suites, by
    the file name `export-zoo` gives each."""
    return {
        "cnot": cnot_qubit_model(),
        "swap_replace": swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z)),
        "controlled_shift": controlled_shift_model(
            Observable(np.diag([0.0, 1.0, 2.0]).astype(complex))),
        "controlled_shift_degenerate": controlled_shift_model(
            Observable(np.diag([0.0, 0.0, 1.0]).astype(complex))),
        "random_indirect_42": random_indirect_model(seed=42, object_dim=3, apparatus_dim=4),
    }
