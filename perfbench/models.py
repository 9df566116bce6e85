"""Format-v1 model documents generated with plain numpy, with their reference data.

The benchmark builds every model itself, so it knows each model's spectral
projections and its reduction rule from construction and can check the
program's answers without asking the program.  Spectrum shapes (outcome
count and multiplicities) are fixed per model size: only the bases and the
apparatus unitaries depend on the seed, so every seed gives the same work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class GeneratedModel:
    """What a generated model's construction says about it."""

    name: str
    object_dim: int
    apparatus_dim: int
    projections: tuple  # projections[k]: the generator's projection onto outcome k
    sigma_out: np.ndarray | None  # swap-replace: the state every reduction must return

    @property
    def projective(self) -> bool:
        return self.sigma_out is None


def pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def wishart_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _observable(rng, multiplicities) -> tuple[np.ndarray, tuple]:
    """Random-basis observable with eigenvalue k on a block of multiplicities[k] vectors."""
    dim = sum(multiplicities)
    v = haar_unitary(rng, dim)
    labels = np.repeat(np.arange(len(multiplicities)), multiplicities)
    projections = tuple(
        v[:, labels == k] @ v[:, labels == k].conj().T for k in range(len(multiplicities))
    )
    return (v * labels) @ v.conj().T, projections


def _doc(object_dim, apparatus_dim, sigma, u, a_matrix, b_matrix) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "object_dim": object_dim,
        "apparatus_dim": apparatus_dim,
        "sigma": pairs(sigma),
        "u": pairs(u),
        "a_matrix": pairs(a_matrix),
        "b_matrix": pairs(b_matrix),
        "object_hamiltonian": pairs(np.zeros((object_dim, object_dim))),
    }


def shift_model(rng, multiplicities, apparatus_dim, name) -> tuple[dict, GeneratedModel]:
    """Projective: controlled shift of a pointer, conjugated by a Haar unitary W on the apparatus.

    u = (1 (x) W) (sum_k P_k (x) S^k) (1 (x) W^dag), sigma = W|0><0|W^dag and
    B = W diag(0, 1, .., n-1, 0, ..) W^dag, so the reduction of outcome k is
    P_k rho P_k / P(k).
    """
    a_matrix, projections = _observable(rng, multiplicities)
    d, n = a_matrix.shape[0], len(multiplicities)
    shift = np.roll(np.eye(apparatus_dim), 1, axis=0)
    u = sum(np.kron(p, np.linalg.matrix_power(shift, k)) for k, p in enumerate(projections))
    w = haar_unitary(rng, apparatus_dim)
    one_w = np.kron(np.eye(d), w)
    pointer = np.zeros((apparatus_dim, apparatus_dim))
    pointer[0, 0] = 1.0
    readout = np.diag([k if k < n else 0 for k in range(apparatus_dim)]).astype(complex)
    doc = _doc(d, apparatus_dim, w @ pointer @ w.conj().T, one_w @ u @ one_w.conj().T,
               a_matrix, w @ readout @ w.conj().T)
    return doc, GeneratedModel(name, d, apparatus_dim, projections, sigma_out=None)


def swap_model(rng, multiplicities, name) -> tuple[dict, GeneratedModel]:
    """Non-projective: SWAP the object with a random full-rank sigma_out, probe = A.

    Every reduction returns sigma_out, whatever the state and outcome.
    """
    a_matrix, projections = _observable(rng, multiplicities)
    d = a_matrix.shape[0]
    sigma_out = wishart_state(rng, d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    return _doc(d, d, sigma_out, swap, a_matrix, a_matrix), GeneratedModel(
        name, d, d, projections, sigma_out)
