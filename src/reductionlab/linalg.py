"""Dense complex linear algebra primitives.

Kronecker products, partial traces, tensor-factor permutations, Hermitian matrix
exponentials and spectral decomposition with eigenvalue clustering, both after
`hermitian_eigh`, the one spectral step of every Hermitian input.  All are pure
functions of immutable numpy arrays.  Finite input near the float limit is judged
without a numpy warning, and a finite spectrum keeps finite labels.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Operator comparisons in max-entry norm.
TOL_OP = 1e-9
# Gap within which eigenvalues are merged into one cluster.
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


def within_rounding(deviation, tol: float, scale=None):
    """Equal up to rounding: deviation <= tol * max(1, max_abs(scale)), absolute at unit scale,
    relative above it.  `scale` is what was compared, None for a unit-scale quantity (a unitary,
    an effect); it is read only when some deviation > tol, and once unless the bound overflows.
    A finite complex entry whose modulus exceeds the float maximum makes max_abs(scale) inf;
    the bound is then 2 * tol * max_abs(scale / 2), in that order, so that it stays finite and
    no deviation passes for an inf bound.  An array of deviations is judged elementwise.  A NaN
    deviation is never within."""
    ok = deviation <= tol
    if scale is None or (ok.all() if isinstance(ok, np.ndarray) else ok):
        return ok
    bound = tol * max_abs(scale)
    if bound == np.inf:
        bound = 2 * tol * max_abs(np.asarray(scale) / 2)
    return ok | (deviation <= bound)


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    h = a / 2  # exact: half the deviation, judged at half the tolerance, stays finite
    return within_rounding(max_abs(h - dagger(h)), TOL_OP / 2, a)


def is_unitary(m) -> bool:
    a = as_matrix(m)  # an entry above 1 in size already fails; one above 2 is refused unmultiplied
    return max_abs(a) <= 2 and within_rounding(max_abs(a @ dagger(a) - identity(len(a))), TOL_OP)


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


def hermitian_eigh(m, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of m, the one spectral step of every Hermitian input: judged by `is_hermitian`
    at its own scale, then `eigh` (looked up per call); a ValidationError names `what` when m
    is not Hermitian or an eigenvalue overflows."""
    a = as_matrix(m)
    if not is_hermitian(a):
        raise ValidationError(f"{what} must be Hermitian")
    w, v = np.linalg.eigh(a)
    if not np.isfinite(w).all():  # eigh overflows near the float limit
        raise ValidationError(f"{what} has a non-finite eigenvalue: {w.tolist()}")
    return w, v


def check_phase(field: str, w, time: str, value: float):
    """The one phase bound: refuse max|w| * value (w a spectrum, or a bound on one) unless
    finite, in Python floats (no warning)."""
    w_max, value = max_abs(w), float(value)
    if not np.isfinite(w_max * value):
        raise ValidationError(
            f"{field}: phase max|eigenvalue| * {time} = {w_max} * {value} is not finite")


def herm_expm(h, tau: float) -> np.ndarray:
    """e^{-i h tau} for Hermitian h (hbar = 1): spectral step, phase bound, `spectral_expm`."""
    w, v = hermitian_eigh(h, "hamiltonian")
    check_phase("hamiltonian", w, "tau", tau)
    return spectral_expm(w, v, float(tau))


def spectral_expm(w, v, tau: float) -> np.ndarray:
    """e^{-i h tau} from the eigendecomposition h = v diag(w) v^dag: the one formula."""
    return (v * np.exp(-1j * w * tau)) @ dagger(v)


def spectral_decompose(a) -> list[tuple[float, np.ndarray]]:
    """Eigenvalues (clustered while gaps are within TOL_EIG at max|w|, ascending) and eigenbases.

    Each cluster is represented by the mean of its members and by its eigenvectors, as the
    orthonormal columns of a block b; the spectral projection is b @ dagger(b).  The matrix goes
    through `hermitian_eigh` as an "observable"; finite eigenvalues keep finite labels.
    """
    w, v = hermitian_eigh(a, "observable")
    # halved gaps at half the tolerance stay finite and cut where the gaps cut; where the sum
    # of a cluster may overflow (w ascends: max|w| is at an end), its mean is summed from c / n
    cuts = [0, *(np.flatnonzero(~within_rounding(np.diff(w / 2), TOL_EIG / 2, w)) + 1), len(w)]
    big = w.size and max(-w[0], w[-1]) >= 1e308 / w.size
    mean = (lambda c: np.sum(c / len(c))) if big else np.mean
    return [(float(mean(w[i:j])), v[:, i:j]) for i, j in zip(cuts, cuts[1:]) if i < j]
