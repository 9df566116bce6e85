"""Physical-layer objects: observables, density operators, Born statistics
and unitary evolution.

An outcome is named by its label, a clustered eigenvalue; `outcome_index` is the one
rule that matches a queried label to an outcome.  `linalg.hermitian_eigh` judges and
diagonalizes an observable, and `evolve`'s Hamiltonian, once.  A state is its matrix
alone: the tensor factors of a composite state are those of the observables measured
on it.  `density_operators` is the one judge of a state, on a stack of matrices in one
batched call; `DensityOperator(m)` is that judge on a stack of one, and
`conditional_state` conditions and judges a stack.  `distributions` is the one Born
product Tr[F(a) rho], over a stack of states; `born_distribution` is its stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError, ZeroProbabilityError
from .linalg import (
    TOL_EIG,
    TOL_OP,
    TOL_PROB,
    as_matrix,
    dagger,
    herm_expm,
    max_abs,
    spectral_decompose,
    within_rounding,
)


def outcome_index(labels, a: float) -> int:
    """Position of the label nearest `a`, within TOL_EIG of it at the labels' scale max|label|.

    Raises ValidationError when no label is that close; a NaN or infinite
    `a` matches nothing.
    """
    gaps = [abs(val - a) for val in labels]
    gap = min(gaps)
    if not within_rounding(gap, TOL_EIG, list(labels)):  # also refuses a NaN gap
        raise ValidationError(f"outcome {a} is not in the spectrum {list(labels)}")
    return gaps.index(gap)


class Observable:
    """Hermitian operator carrying its spectral decomposition eagerly: `bases[i]` holds
    orthonormal columns spanning the eigenspace of `spectrum[i]`, its projection b b^dag."""

    def __init__(self, matrix):
        self.matrix = as_matrix(matrix)
        decomposition = spectral_decompose(self.matrix)
        self.bases = [b for _, b in decomposition]
        self.spectrum = [(a, b @ dagger(b)) for a, b in decomposition]

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
    """Positive unit-trace operator: `density_operators` on a stack of one."""

    def __init__(self, matrix):
        m = as_matrix(matrix)
        _judge(m[None])
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _judge(stack: np.ndarray) -> None:
    """Raise the ValidationError that judging the matrices of `stack` (n, d, d) one by one
    would raise first: hermiticity at each matrix's own scale, then least eigenvalue, then trace.

    Only the matrices before the first non-Hermitian one reach the one batched `eigvalsh`,
    so a NaN or infinite matrix, which is never Hermitian, does not.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf near the float limit: refused
        dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()
        traces = stack.trace(axis1=1, axis2=2).real.tolist()
    n = next((i for i, x in enumerate(dev) if not within_rounding(x, TOL_OP, stack[i])), len(dev))
    lows = np.linalg.eigvalsh(stack[:n]).min(axis=1).tolist()
    for lo, tr in zip(lows, traces):
        if lo < -TOL_OP:
            raise ValidationError(f"density operator has negative eigenvalue {lo}")
        if abs(tr - 1.0) > TOL_PROB:
            raise ValidationError(f"density operator trace is {tr}, expected 1")
    if n < len(dev):
        raise ValidationError("density operator must be Hermitian")


def density_operators(stack) -> list[DensityOperator]:
    """The one judge of "is a density operator", on a stack (n, d, d) in one batched call:
    each matrix as a DensityOperator, or the refusal of the first that is none (`_judge`)."""
    stack = np.asarray(stack, dtype=complex)
    _judge(stack)
    out = [object.__new__(DensityOperator) for _ in stack]
    for rho, m in zip(out, stack):
        rho.matrix = m
    return out


def conditional_state(nums: np.ndarray, a) -> list[DensityOperator]:
    """nums[i] / Tr nums[i] for a stack (n, d, d) of numerators, judged at once; `a` is the
    outcome's label, or a sequence of one label per numerator.

    Refused as conditioning them one by one would refuse: the first numerator
    with Tr <= TOL_PROB raises ZeroProbabilityError, naming its own label,
    unless one before it fails the judge.
    """
    p = nums.trace(axis1=1, axis2=2).real
    z = next((i for i, pi in enumerate(p.tolist()) if pi <= TOL_PROB), len(p))
    states = density_operators(nums[:z] / p[:z, None, None])
    if z < len(p):
        label = a[z] if np.ndim(a) else a
        raise ZeroProbabilityError(
            f"outcome {label} has probability {float(p[z])}; reduced state undefined")
    return states


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


def distributions(spectrum, stack) -> list[OutcomeDistribution]:
    """The one Born product: P(a) = Tr[F(a) rho] for every (a, F(a)) of `spectrum` and every
    state rho of a stack (m, d, d), as one OutcomeDistribution per state, validated in order."""
    labels = [a for a, _ in spectrum]
    probs = np.trace(np.array([f for _, f in spectrum]) @ stack[:, None], axis1=2, axis2=3)
    return [OutcomeDistribution(dict(zip(labels, p))) for p in probs.real.tolist()]


def born_distribution(a: Observable, rho: DensityOperator) -> OutcomeDistribution:
    """P(a) = Tr[E^A(a) rho]: `distributions` on a stack of one."""
    if a.dim != rho.dim:
        raise DimensionMismatchError(f"observable dim {a.dim} != state dim {rho.dim}")
    return distributions(a.spectrum, rho.matrix[None])[0]


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
    """dim^2 states whose span is all Hermitian matrices: |e_j><e_j| for each j, then
    |v><v| / 2 for v = e_j + e_k and v = e_j + i e_k, for each j < k."""
    e = np.eye(dim, dtype=complex)
    out = [np.outer(e[j], e[j]) for j in range(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            out += [np.outer(v, v.conj()) / 2 for v in (e[j] + e[k], e[j] + 1j * e[k])]
    return density_operators(out)
