"""Apparatus models (sigma, U, B) and projection-postulate-free state reduction.

A measurement model is the apparatus preparation sigma, the integrated
object-apparatus interaction unitary U, and the probe observable B,
together with the observable A it claims to measure.  The model measures
A exactly when its effects reproduce A's spectral projections.

Every quantity is evaluated through the model's instrument, the operation
I_a(rho) = Tr_A[(1 (x) E^B(a)) U (rho (x) sigma) U^dag], in its Kraus form
sum_{k,l} M_akl rho M_akl^dag with M_akl = sqrt(s_l) <b_k| U |phi_l>, where
sigma = sum_l s_l |phi_l><phi_l| and {b_k} is B's own orthonormal basis of
E^B(a), `probe.bases`.  Nothing on that path forms a composite-space operator.

A Kraus stack is laid out as V[i, n, j] = M_n[i, j] with n = (k, l), shape
(d, N, d), so that each use is a flat matrix product: I_a(rho) is
(V.reshape(-1, d) @ rho).reshape(d, -1) @ V.reshape(d, -1)^dag, the effect
is W^dag W with W = V.reshape(-1, d), and the Choi rows are
V.transpose(1, 0, 2).reshape(-1, d^2).  The stack contracts U with the
smaller apparatus index first: the probe basis <b_k| when rank E^B(a) <
rank sigma, the pointer columns sqrt(s_l) |phi_l> otherwise.

`state_reduction_sandwiched` is the oracle that the Kraus form is checked
against: the literal Tr_A[(1 (x) E^B(a)) U (rho (x) sigma) U^dag (1 (x) E^B(a))]
/ P(a), sharing neither sigma's eigendecomposition nor the probe bases
with the Kraus path.  It is contracted on the (object, apparatus) indices
in this order: U (1 (x) sigma), then (rho (x) 1) from the right, then
1 (x) E^B(a) from the left (the right-hand projection moves under Tr_A,
since E^B(a)^2 = E^B(a)), then U^dag with the apparatus index summed.
No Kronecker product is formed; the composite state U (rho (x) sigma) U^dag
is built only by `MeasurementModel.composite_after`, kept as a reference
for tests.

A model satisfies the projection postulate when each I_a is the Lueders
operation rho -> E^A(a) rho E^A(a).  Two operations are equal exactly when
their Choi matrices are, so the test compares, for every outcome,
J_a = sum_n vec(M_an) vec(M_an)^dag with vec(E^A(a)) vec(E^A(a))^dag in the
max-entry norm at the operator tolerance: no seed and no set of states.

`reductions(model, rho)` is the state reduction of rho, computed once per
state: (a, P(a), rho_a) for each outcome with P(a) > TOL_PROB.  Both
reductions end in `quantum.conditional_state`, rho_a = I_a(rho) / Tr I_a(rho).
The checks here return deviations; `reductionlab.checks` judges them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    TOL_EIG,
    TOL_OP,
    TOL_PROB,
    as_matrix,
    dagger,
    is_unitary,
    max_abs,
    tensor,
)
from .quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    born_distribution,
    conditional_state,
    operator_deviation,
    outcome_index,
)


class MeasurementModel:
    """The triple (sigma, U, B) plus the claimed measured observable A.

    The object system always occupies the left tensor factor; U acts on
    object (x) apparatus.  Outcomes of B are aligned with outcomes of A by
    sorted eigenvalue order, so probe and measured spectra must agree.
    """

    def __init__(self, sigma: DensityOperator, u, probe: Observable, measured: Observable):
        um = as_matrix(u)
        if not is_unitary(um):
            raise ValidationError("u must be unitary")
        self.apparatus_dim = sigma.dim
        if um.shape[0] % self.apparatus_dim != 0:
            raise DimensionMismatchError(
                f"u dimension {um.shape[0]} not divisible by apparatus dim {self.apparatus_dim}"
            )
        self.object_dim = um.shape[0] // self.apparatus_dim
        if probe.dim != self.apparatus_dim:
            raise DimensionMismatchError(
                f"probe dim {probe.dim} != apparatus dim {self.apparatus_dim}"
            )
        if measured.dim != self.object_dim:
            raise DimensionMismatchError(
                f"measured dim {measured.dim} != object dim {self.object_dim}"
            )
        ea, eb = measured.eigenvalues, probe.eigenvalues
        if len(ea) != len(eb) or any(abs(x - y) > TOL_EIG for x, y in zip(ea, eb)):
            raise ValidationError(
                f"probe spectrum {eb} does not match measured spectrum {ea}"
            )
        self.sigma = sigma
        self.u = um
        self.probe = probe
        self.measured = measured

    def outcomes(self) -> list[float]:
        """Canonical outcome labels: the measured observable's clustered eigenvalues."""
        return self.measured.eigenvalues

    def probe_projection(self, a: float) -> np.ndarray:
        """Probe projection aligned with outcome `a` of the measured observable."""
        return self.probe.spectrum[outcome_index(self.outcomes(), a)][1]

    # The instrument's data is built on first use, so that loading a model
    # stays cheap.  Kraus stacks are rebuilt per call rather than kept: they
    # take d^2 * d_app * rank(sigma) entries per model, and keeping them
    # raised reduce-large's peak memory by 3.2 MiB (+5.4 %) for a speed it
    # already gets from the two flat products.

    @cached_property
    def pointer(self) -> np.ndarray:
        """Columns sqrt(s_l) |phi_l> over the eigenvalues s_l of sigma above its rounding level."""
        s, phi = np.linalg.eigh(self.sigma.matrix)
        keep = s > s.max() * self.apparatus_dim * np.finfo(float).eps
        return phi[:, keep] * np.sqrt(s[keep])

    @cached_property
    def _effects(self) -> list[tuple[float, np.ndarray]]:
        """(a, sum_{k,l} M_akl^dag M_akl) for each outcome a, read-only."""
        out = []
        for a, basis in zip(self.outcomes(), self.probe.bases):
            w = self._kraus(basis).reshape(-1, self.object_dim)
            eff = w.conj().T @ w
            eff.setflags(write=False)
            out.append((a, eff))
        return out

    def _kraus(self, basis: np.ndarray | None = None) -> np.ndarray:
        """The operators M_n = <b_k| U |psi_l>, n = (k, l), as V[i, n, j] = M_n[i, j].

        b_k runs over the columns of `basis` (the standard basis of the
        apparatus when None) and psi_l over the pointer columns.  The
        smaller of the two apparatus contractions is done first.
        """
        d, da = self.object_dim, self.apparatus_dim
        psi = self.pointer
        u = self.u.reshape(d, da, -1)  # u[i, beta, (j, beta')] = U[(i, beta), (j, beta')]
        k = da if basis is None else basis.shape[1]
        if basis is not None and k < psi.shape[1]:
            v = (basis.conj().T @ u).reshape(-1, da) @ psi  # basis on beta, then pointer on beta'
        else:
            v = u.reshape(-1, da) @ psi  # pointer on beta', then basis on beta
            if basis is not None:
                v = basis.conj().T @ v.reshape(d, da, -1)
        # v[i, k, j, l] -> V[i, (k, l), j]
        return v.reshape(d, k, d, -1).transpose(0, 1, 3, 2).reshape(d, -1, d)

    def _check_state(self, rho: DensityOperator):
        if rho.dim != self.object_dim:
            raise DimensionMismatchError(
                f"state dim {rho.dim} != object dim {self.object_dim}"
            )

    def composite_after(self, rho: DensityOperator) -> np.ndarray:
        """U (rho (x) sigma) U-dagger on the composite space."""
        self._check_state(rho)
        return self.u @ tensor(rho.matrix, self.sigma.matrix) @ dagger(self.u)


def _apply(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_n M_n rho M_n^dag over a Kraus stack V[i, n, j] = M_n[i, j], as two flat products."""
    d = rho.shape[0]
    return (kraus.reshape(-1, d) @ rho).reshape(d, -1) @ kraus.reshape(d, -1).conj().T


def effects(model: MeasurementModel) -> list[tuple[float, np.ndarray]]:
    """The POVM: effect(a) = sum_{k,l} M_akl^dag M_akl
    = Tr_A[U^dag (1 (x) E^B(a)) U (1 (x) sigma)], computed once per model."""
    return list(model._effects)


def verify_measures(model: MeasurementModel) -> float:
    """Worst max-entry deviation of effect(a) from E^A(a): the measuring condition."""
    return max_abs([max_abs(eff - model.measured.projection(a)) for a, eff in effects(model)])


def outcome_probability(model: MeasurementModel, rho: DensityOperator) -> OutcomeDistribution:
    """P(a) = Tr[effect(a) rho], the probability of reading E^B(a) on the probe."""
    model._check_state(rho)
    return OutcomeDistribution(
        {a: float(np.trace(eff @ rho.matrix).real) for a, eff in model._effects}
    )


def nonselective_state(model: MeasurementModel, rho: DensityOperator) -> DensityOperator:
    """rho' = sum_a I_a(rho) = Tr_A[U (rho (x) sigma) U^dag]: the outcome-averaged state change."""
    model._check_state(rho)
    return DensityOperator(_apply(model._kraus(), rho.matrix))


def state_reduction(model: MeasurementModel, rho: DensityOperator, a: float) -> DensityOperator:
    """rho_a = I_a(rho) / P(a) = sum_{k,l} M_akl rho M_akl^dag / P(a)."""
    model._check_state(rho)
    basis = model.probe.bases[outcome_index(model.outcomes(), a)]
    return conditional_state(_apply(model._kraus(basis), rho.matrix), a)


def state_reduction_sandwiched(model: MeasurementModel, rho: DensityOperator,
                               a: float) -> DensityOperator:
    """Oracle: Tr_A[(1 (x) E^B(a)) U (rho (x) sigma) U^dag (1 (x) E^B(a))] / P(a).

    Contracted on the (object, apparatus) indices in the order the module
    docstring gives; no Kronecker product is formed.
    """
    model._check_state(rho)
    d, da = model.object_dim, model.apparatus_dim
    n = d * da
    # x[(i, beta), j, gamma] = sum_beta' U[(i, beta), (j, beta')] sigma[beta', gamma]
    x = (model.u.reshape(-1, da) @ model.sigma.matrix).reshape(n, d, da)
    # x[(i, beta), k, gamma] = sum_j rho[j, k] x[(i, beta), j, gamma]: U (rho (x) sigma)
    x = rho.matrix.T @ x
    # (1 (x) E^B(a)) on the left only: the right-hand copy moves under Tr_A, E^B(a)^2 = E^B(a)
    y = model.probe_projection(a) @ x.reshape(d, da, n)
    # I_a(rho)[i, i'] = sum_{beta, m} y[i, beta, m] conj(U)[(i', beta), m] over m = (k, gamma)
    return conditional_state(y.reshape(d, da * n) @ model.u.conj().reshape(d, da * n).T, a)


def reductions(model: MeasurementModel,
               rho: DensityOperator) -> list[tuple[float, float, DensityOperator]]:
    """[(a, P(a), rho_a)] for every outcome with P(a) > TOL_PROB, in outcome order."""
    dist = outcome_probability(model, rho)
    return [(a, p, state_reduction(model, rho, a)) for a, p in dist.entries.items() if p > TOL_PROB]


def mixture_identity_check(model: MeasurementModel, rho: DensityOperator, reduced) -> float:
    """Deviation of rho' from sum_a P(a) rho_a, summed over `reduced` = reductions(model, rho)."""
    mix = sum(p * rho_a.matrix for _, p, rho_a in reduced)
    return operator_deviation(nonselective_state(model, rho), mix)


def satisfies_projection_postulate(model: MeasurementModel, tol: float = TOL_OP) -> bool:
    """True iff every I_a is the Lueders operation rho -> E^A(a) rho E^A(a).

    Compares the Choi matrix J_a = sum_n vec(M_an) vec(M_an)^dag of each
    outcome with vec(E^A(a)) vec(E^A(a))^dag, max-entry, at `tol`.  The
    model must first satisfy the measuring condition at the same `tol`.
    """
    if not verify_measures(model) <= tol:  # also refuses a NaN deviation
        raise ValidationError("model does not measure its claimed observable")
    for a, basis in zip(model.outcomes(), model.probe.bases):
        vecs = model._kraus(basis).transpose(1, 0, 2).reshape(-1, model.object_dim ** 2)
        lueders = model.measured.projection(a).reshape(-1)
        if not max_abs(vecs.T @ vecs.conj() - np.outer(lueders, lueders.conj())) <= tol:
            return False
    return True


def statistics_deviation(model: MeasurementModel, states) -> float:
    """Worst |outcome_probability - born_distribution(A, rho)| over the given states."""
    return max_abs([outcome_probability(model, rho).max_deviation(
        born_distribution(model.measured, rho)) for rho in states])
