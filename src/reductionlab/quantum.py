"""Physical-layer objects: observables, density operators, Born statistics
and unitary evolution.

An outcome is named by its label, a clustered eigenvalue; `outcome_index`
is the one rule that matches a queried label to an outcome.  A state is
its matrix alone: the tensor factors of a composite state are those of
the observables measured on it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    TOL_EIG,
    TOL_OP,
    TOL_PROB,
    as_matrix,
    dagger,
    herm_expm,
    is_hermitian,
    max_abs,
    spectral_decompose,
)


def outcome_index(labels, a: float) -> int:
    """Position of the label nearest `a`, which must lie within TOL_EIG of it.

    Raises KeyError when no label is that close; a NaN or infinite `a`
    matches nothing.
    """
    gaps = [abs(val - a) for val in labels]
    gap = min(gaps)
    if not gap <= TOL_EIG:  # also refuses a NaN gap
        raise KeyError(f"{a} is not an outcome in {list(labels)}")
    return gaps.index(gap)


class Observable:
    """Hermitian operator carrying its spectral decomposition eagerly: `bases[i]` holds
    orthonormal columns spanning the eigenspace of `spectrum[i]`, its projection b b^dag."""

    def __init__(self, matrix):
        m = as_matrix(matrix)
        if not is_hermitian(m):
            raise ValidationError("observable matrix must be Hermitian")
        self.matrix = m
        decomposition = spectral_decompose(m)
        self.bases = [b for _, b in decomposition]
        self.spectrum = [(a, b @ dagger(b)) for a, b in decomposition]
        if not all(np.isfinite(a) for a in self.eigenvalues):  # eigh overflows near the float limit
            raise ValidationError(f"observable has a non-finite eigenvalue: {self.eigenvalues}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> list[float]:
        return [a for a, _ in self.spectrum]

    def projection(self, a: float) -> np.ndarray:
        """Spectral projection for the outcome `a` names (see `outcome_index`)."""
        return self.spectrum[outcome_index(self.eigenvalues, a)][1]


class DensityOperator:
    """Positive unit-trace operator."""

    def __init__(self, matrix):
        m = as_matrix(matrix)
        if not is_hermitian(m):
            raise ValidationError("density operator must be Hermitian")
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < -TOL_OP:
            raise ValidationError(f"density operator has negative eigenvalue {lo}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL_PROB:
            raise ValidationError(f"density operator trace is {tr}, expected 1")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Distribution:
    """Map from outcome to probability, normalized to 1 within TOL_PROB.

    An outcome is a float, or a tuple of floats for a joint outcome.
    """

    def __init__(self, entries: dict):
        total = 0.0
        clean = {}
        for key, p in entries.items():
            p = float(p)
            if not -TOL_PROB <= p <= 1.0 + TOL_PROB:  # also rejects NaN
                raise ValidationError(f"probability {p} for outcome {key} out of range")
            clean[tuple(map(float, key)) if isinstance(key, tuple) else float(key)] = p
            total += p
        if abs(total - 1.0) > TOL_PROB:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
        self.entries = clean

    def max_deviation(self, other: "Distribution") -> float:
        keys = sorted(self.entries)
        if keys != sorted(other.entries):
            raise DimensionMismatchError(
                f"distributions have different outcome sets: {keys} vs {sorted(other.entries)}")
        return max(abs(self.entries[k] - other.entries[k]) for k in keys)


class OutcomeDistribution(Distribution):
    """Map from outcome value to probability."""

    def probability(self, a: float) -> float:
        """P(a) for the outcome `a` names (see `outcome_index`)."""
        return list(self.entries.values())[outcome_index(self.entries, a)]


def ket(*amplitudes) -> np.ndarray:
    """Normalized column vector from amplitudes."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValidationError("zero vector cannot be normalized")
    return v / n


def pure(vector) -> DensityOperator:
    """|v><v| for a (normalized) state vector."""
    v = ket(*np.asarray(vector, dtype=complex).reshape(-1))
    return DensityOperator(np.outer(v, v.conj()))


def born_distribution(a: Observable, rho: DensityOperator) -> OutcomeDistribution:
    """P(a) = Tr[E^A(a) rho]."""
    if a.dim != rho.dim:
        raise DimensionMismatchError(f"observable dim {a.dim} != state dim {rho.dim}")
    return OutcomeDistribution(
        {val: float(np.trace(proj @ rho.matrix).real) for val, proj in a.spectrum}
    )


def evolve(rho: DensityOperator, h, tau: float) -> DensityOperator:
    """Unitary evolution e^{-i h tau} rho e^{+i h tau}."""
    hm = as_matrix(h)
    if hm.shape[0] != rho.dim:
        raise DimensionMismatchError(f"hamiltonian dim {hm.shape[0]} != state dim {rho.dim}")
    u = herm_expm(hm, tau)
    return DensityOperator(u @ rho.matrix @ dagger(u))


def rule1_distribution(rho: DensityOperator, h, x: Observable, tau: float) -> OutcomeDistribution:
    """Outcome distribution of measuring x after free evolution under h for time tau."""
    return born_distribution(x, evolve(rho, h, tau))


def operator_deviation(a, b) -> float:
    """Max-entry distance between two operators (or DensityOperators)."""
    ma = a.matrix if isinstance(a, DensityOperator) else as_matrix(a)
    mb = b.matrix if isinstance(b, DensityOperator) else as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return max_abs(ma - mb)


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Full-rank random state from a complex Wishart draw."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def spanning_states(dim: int) -> list[DensityOperator]:
    """dim^2 states whose span is all Hermitian matrices (symmetrized matrix units)."""
    out = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1.0
        out.append(DensityOperator(e))
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, j] = m[k, k] = 0.5
            m[j, k] = m[k, j] = 0.5
            out.append(DensityOperator(m))
            m = np.zeros((dim, dim), dtype=complex)
            m[j, j] = m[k, k] = 0.5
            m[j, k] = -0.5j
            m[k, j] = 0.5j
            out.append(DensityOperator(m))
    return out
