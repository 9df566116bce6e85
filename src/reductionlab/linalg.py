"""Dense complex linear algebra primitives.

Kronecker products, partial traces, tensor-factor permutations,
Hermitian matrix exponentials, and spectral decomposition with
eigenvalue clustering.  Everything here is a pure function of
immutable numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Operator comparisons in max-entry norm.
TOL_OP = 1e-9
# Absolute gap below which eigenvalues are merged into one cluster.
TOL_EIG = 1e-8
# Probability comparisons.
TOL_PROB = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(m) -> float:
    """Max-entry norm ||m||_max; 0.0 when empty, NaN when any entry is NaN.

    Also the aggregator of nonnegative deviations: unlike the builtin max,
    it keeps a NaN wherever it occurs, so a check over them fails.
    """
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    return max_abs(a - dagger(a)) <= TOL_OP


def is_unitary(m) -> bool:
    a = as_matrix(m)
    return max_abs(a @ dagger(a) - identity(a.shape[0])) <= TOL_OP


def tensor(*factors) -> np.ndarray:
    """Kronecker product, left factor major: entry ((i1,i2),(j1,j2)) = a[i1,j1]*b[i2,j2]."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def _check_dims(m: np.ndarray, dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != m.shape[0]:
        raise DimensionMismatchError(
            f"factor dimensions {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    return dims


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not in `keep` (kept factors stay in their original order)."""
    a = as_matrix(m)
    dims = _check_dims(a, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or len(keep) >= n or any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep={keep} must be a nonempty proper subset of 0..{n - 1}")
    traced = [i for i in range(n) if i not in keep]
    t = a.reshape(dims + dims)
    # axes: kept rows, traced rows, kept cols, traced cols
    order = keep + traced + [n + i for i in keep] + [n + i for i in traced]
    t = t.transpose(order)
    dk = int(np.prod([dims[i] for i in keep]))
    dt = int(np.prod([dims[i] for i in traced]))
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("abcb->ac", t)


def permute_factors(m, dims, perm) -> np.ndarray:
    """Reorder tensor factors: new factor i is old factor perm[i]."""
    a = as_matrix(m)
    dims = _check_dims(a, dims)
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise DimensionMismatchError(f"perm={perm} is not a permutation of 0..{n - 1}")
    t = a.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    d = a.shape[0]
    return t.reshape(d, d)


def herm_expm(h, tau: float) -> np.ndarray:
    """e^{-i h tau} for Hermitian h (hbar = 1), via eigendecomposition."""
    a = as_matrix(h)
    if not is_hermitian(a):
        raise ValidationError("herm_expm requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    return spectral_expm(w, v, float(tau))


def spectral_expm(w, v, tau: float) -> np.ndarray:
    """e^{-i h tau} from the eigendecomposition h = v diag(w) v^dag: the one formula."""
    return (v * np.exp(-1j * w * tau)) @ dagger(v)


def spectral_decompose(a) -> list[tuple[float, np.ndarray]]:
    """Eigenvalues (clustered with absolute gap TOL_EIG, ascending) and eigenspace bases.

    Each cluster is represented by the mean of its members and by its
    eigenvectors, as the orthonormal columns of a block b; the spectral
    projection is b @ dagger(b).
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ValidationError("spectral_decompose requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    out: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > TOL_EIG:
            out.append((float(np.mean(w[start:i])), v[:, start:i]))
            start = i
    return out
