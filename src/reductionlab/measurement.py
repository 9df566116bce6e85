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
in this order: once per call, U (1 (x) sigma), then 1 (x) E^B(a) from the
left (the right-hand projection moves under Tr_A, since E^B(a)^2 = E^B(a)),
laid out as x[(i, beta, gamma), j]; then, one state at a time, (rho (x) 1)
from the right and U^dag with the apparatus index summed, as the two flat
products (x @ rho).reshape(d, -1) @ u_bar with u_bar[(beta, gamma, k), i']
= conj(U)[(i', beta), (k, gamma)].  The projection may come before the
state since (1 (x) E) U (rho (x) sigma) = (1 (x) E) U (1 (x) sigma) (rho (x) 1).
No Kronecker product is formed; the composite state U (rho (x) sigma) U^dag
is built only by `MeasurementModel.composite_after`, kept as a reference
for tests.

A model satisfies the projection postulate when each I_a is the Lueders
operation rho -> E^A(a) rho E^A(a).  Two operations are equal exactly when
their Choi matrices are, so the test compares, for every outcome,
J_a = sum_n vec(M_an) vec(M_an)^dag with vec(E^A(a)) vec(E^A(a))^dag in the
max-entry norm at the operator tolerance: no seed and no set of states.

I_a is linear in rho, so `reductions(model, states)` reduces a list of states
as one stack R (m, d, d): P(a) is the one Born product `quantum.distributions`
of the effects on R, and the products above take R in place of rho with one
Kraus stack per outcome, yielding (a, P(a), rho_a) for each state and each
outcome with P(a) > TOL_PROB.  `outcome_probability`, `state_reduction` and
`nonselective_state` are its stack of one; `statistics_deviation` calls
`distributions` twice on a stack, on the effects and on A's projections.  Every
reduction ends in `quantum.conditional_state`, rho_a = I_a(rho) / Tr I_a(rho),
judging a whole stack in one batched call.
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
    within_rounding,
)
from .quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    conditional_state,
    density_operators,
    distributions,
    operator_deviation,
    outcome_index,
)


class MeasurementModel:
    """The triple (sigma, U, B) plus the claimed measured observable A.

    The object system always occupies the left tensor factor; U acts on
    object (x) apparatus.  Outcomes of B are aligned with outcomes of A by
    sorted eigenvalue order, so probe and measured spectra must agree up to
    rounding at the scale of A's (`within_rounding`).
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
        gap = max(abs(x - y) for x, y in zip(ea, eb))  # in Python floats: inf, never a warning
        if len(ea) != len(eb) or not within_rounding(gap, TOL_EIG, ea):
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

    def composite_after(self, rho: DensityOperator) -> np.ndarray:
        """U (rho (x) sigma) U-dagger on the composite space."""
        return self.u @ tensor(_stack(self, [rho])[0], self.sigma.matrix) @ dagger(self.u)


def _apply(kraus: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_n M_n rho M_n^dag for each state rho of r (..., d, d) over a Kraus stack
    V[i, n, j] = M_n[i, j], as two flat products."""
    d, n = kraus.shape[0], kraus.shape[0] * kraus.shape[1]
    return (kraus.reshape(-1, d) @ r).reshape(*r.shape[:-2], d, n) @ kraus.reshape(d, n).conj().T


def _stack(model: MeasurementModel, states) -> np.ndarray:
    """The states' matrices as one stack (m, d, d), each checked against the object dim."""
    d = model.object_dim
    for rho in states:
        if rho.dim != d:
            raise DimensionMismatchError(f"state dim {rho.dim} != object dim {d}")
    return np.array([rho.matrix for rho in states]).reshape(-1, d, d)


def effects(model: MeasurementModel) -> list[tuple[float, np.ndarray]]:
    """The POVM: effect(a) = sum_{k,l} M_akl^dag M_akl
    = Tr_A[U^dag (1 (x) E^B(a)) U (1 (x) sigma)], computed once per model."""
    return list(model._effects)


def verify_measures(model: MeasurementModel) -> float:
    """Worst max-entry deviation of effect(a) from E^A(a): the measuring condition."""
    return max_abs([max_abs(eff - proj)
                    for (_, eff), (_, proj) in zip(effects(model), model.measured.spectrum)])


def outcome_probability(model: MeasurementModel, rho: DensityOperator) -> OutcomeDistribution:
    """P(a) = Tr[effect(a) rho] of reading E^B(a) on the probe: `distributions` of one state."""
    return distributions(model._effects, _stack(model, [rho]))[0]


def nonselective_states(model: MeasurementModel, states) -> list[DensityOperator]:
    """rho' = sum_a I_a(rho) = Tr_A[U (rho (x) sigma) U^dag] of each state, on one stack:
    the outcome-averaged state change."""
    return density_operators(_apply(model._kraus(), _stack(model, states)))


def nonselective_state(model: MeasurementModel, rho: DensityOperator) -> DensityOperator:
    """rho' of one state: `nonselective_states` on a stack of one."""
    return nonselective_states(model, [rho])[0]


def state_reduction(model: MeasurementModel, rho: DensityOperator, a: float) -> DensityOperator:
    """rho_a = I_a(rho) / P(a) = sum_{k,l} M_akl rho M_akl^dag / P(a): the one-state case of
    `reductions`."""
    basis = model.probe.bases[outcome_index(model.outcomes(), a)]
    return conditional_state(_apply(model._kraus(basis), _stack(model, [rho])), a)[0]


def state_reduction_sandwiched(model: MeasurementModel, states, a: float) -> list[DensityOperator]:
    """Oracle: Tr_A[(1 (x) E^B(a)) U (rho (x) sigma) U^dag (1 (x) E^B(a))] / P(a) for each state.

    (1 (x) E^B(a)) U (1 (x) sigma) is formed once per call, then each state is
    contracted on its own by two flat products, in the order the module
    docstring gives; no Kronecker product is formed, and no composite-sized
    temporary is stacked over the states.  Only the conditioning and judging
    of the results are batched.
    """
    r = _stack(model, states)
    d, da = model.object_dim, model.apparatus_dim
    # (1 (x) E^B(a)) U (1 (x) sigma) once: (1 (x) E) U (rho (x) sigma) = (1 (x) E) U (1 (x) sigma)
    # (rho (x) 1), and the right-hand projection moves under Tr_A, E^B(a)^2 = E^B(a)
    x = (model.u.reshape(-1, da) @ model.sigma.matrix).reshape(d, da, -1)  # [i, beta, (j, gamma)]
    x = model.probe_projection(a) @ x
    x = x.reshape(d, da, d, da).transpose(0, 1, 3, 2).reshape(-1, d)  # x[(i, beta, gamma), j]
    # u_bar[(beta, gamma, k), i'] = conj(U)[(i', beta), (k, gamma)]
    u_bar = model.u.conj().reshape(d, da, d, da).transpose(1, 3, 2, 0).reshape(-1, d)
    # I_a(rho)[i, i'] = sum over (beta, gamma, k) of (x @ rho)[(i, beta, gamma), k] u_bar[.., i']
    nums = [(x @ rho).reshape(d, -1) @ u_bar for rho in r]
    return conditional_state(np.array(nums).reshape(-1, d, d), a)


def reductions(model: MeasurementModel, states) -> list[tuple[DensityOperator, list]]:
    """[(rho, [(a, P(a), rho_a)])] for each state, over every outcome with P(a) > TOL_PROB,
    in outcome order.

    The states are reduced as one stack R (m, d, d), outcome by outcome: P(a)
    from `quantum.distributions` of the effects on R, I_a(R) through one Kraus
    stack, and one `conditional_state` call on the states that keep a.  Every
    state's distribution is validated first; a refusal then names the first
    state, in the given order, of the first outcome that refuses.
    """
    r = _stack(model, states)
    probs = np.array([list(dist.entries.values()) for dist in distributions(model._effects, r)])
    reduced = [[] for _ in states]
    for (a, _), basis, p in zip(model._effects, model.probe.bases, probs.T):
        keep = np.flatnonzero(p > TOL_PROB)
        for i, rho_a in zip(keep, conditional_state(_apply(model._kraus(basis), r[keep]), a)):
            reduced[i].append((a, float(p[i]), rho_a))
    return list(zip(states, reduced))


def mixture_identity_check(model: MeasurementModel, evaluated) -> float:
    """Worst deviation of rho' from sum_a P(a) rho_a over `evaluated` = reductions(model, states),
    with rho' from `nonselective_states` on the same states."""
    after = nonselective_states(model, [rho for rho, _ in evaluated])
    return max_abs([operator_deviation(rho_p, sum(p * rho_a.matrix for _, p, rho_a in reduced))
                    for rho_p, (_, reduced) in zip(after, evaluated)])


def satisfies_projection_postulate(model: MeasurementModel, tol: float = TOL_OP) -> bool:
    """True iff every I_a is the Lueders operation rho -> E^A(a) rho E^A(a).

    Compares the Choi matrix J_a = sum_n vec(M_an) vec(M_an)^dag of each
    outcome with vec(E^A(a)) vec(E^A(a))^dag, max-entry, at `tol`.  The
    model must first satisfy the measuring condition at the same `tol`.
    """
    if not verify_measures(model) <= tol:  # also refuses a NaN deviation
        raise ValidationError("model does not measure its claimed observable")
    for basis, (_, proj) in zip(model.probe.bases, model.measured.spectrum):
        vecs = model._kraus(basis).transpose(1, 0, 2).reshape(-1, model.object_dim ** 2)
        lueders = proj.reshape(-1)
        if not max_abs(vecs.T @ vecs.conj() - np.outer(lueders, lueders.conj())) <= tol:
            return False
    return True


def statistics_deviation(model: MeasurementModel, states) -> float:
    """Worst |Tr[effect(a) rho] - Tr[E^A(a) rho]| over the given states: `quantum.distributions`
    of the effects against that of A's projections, each on the whole stack."""
    r = _stack(model, states)
    return max_abs([p.max_deviation(q) for p, q in zip(
        distributions(model._effects, r), distributions(model.measured.spectrum, r))])
