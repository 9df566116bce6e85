"""Apparatus models (sigma, U, B) and projection-postulate-free state reduction.

A measurement model is the apparatus preparation sigma, the integrated
object-apparatus interaction unitary U, and the probe observable B,
together with the observable A it claims to measure.  The model measures
A exactly when its effects reproduce A's spectral projections; state
reduction is then computed from the composite dynamics alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError, ZeroProbabilityError
from .linalg import (
    TOL_EIG,
    TOL_OP,
    TOL_PROB,
    as_matrix,
    dagger,
    identity,
    is_hermitian,
    is_unitary,
    max_abs,
    partial_trace,
    tensor,
)
from .quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    born_distribution,
    operator_deviation,
    random_density,
    spanning_states,
)


@dataclass(frozen=True)
class CheckReport:
    passes: bool
    max_deviation: float


class MeasurementModel:
    """The triple (sigma, U, B) plus the claimed measured observable A.

    The object system always occupies the left tensor factor; U acts on
    object (x) apparatus.  Outcomes of B are aligned with outcomes of A by
    sorted eigenvalue order, so probe and measured spectra must agree.
    """

    def __init__(self, sigma: DensityOperator, u, probe: Observable,
                 measured: Observable, object_hamiltonian=None):
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
        if object_hamiltonian is None:
            object_hamiltonian = np.zeros((self.object_dim, self.object_dim), dtype=complex)
        hm = as_matrix(object_hamiltonian)
        if hm.shape[0] != self.object_dim:
            raise DimensionMismatchError("object hamiltonian dimension mismatch")
        if not is_hermitian(hm):
            raise ValidationError("object hamiltonian must be Hermitian")
        self.sigma = sigma
        self.u = um
        self.probe = probe
        self.measured = measured
        self.object_hamiltonian = hm

    def outcomes(self) -> list[float]:
        """Canonical outcome labels: the measured observable's clustered eigenvalues."""
        return self.measured.eigenvalues

    def probe_projection(self, a: float) -> np.ndarray:
        """Probe projection aligned with outcome `a` of the measured observable."""
        for val, (_, proj) in zip(self.measured.eigenvalues, self.probe.spectrum):
            if abs(val - a) <= TOL_EIG:
                return proj
        raise KeyError(f"{a} is not an outcome of this model")

    def _check_state(self, rho: DensityOperator):
        if rho.dim != self.object_dim:
            raise DimensionMismatchError(
                f"state dim {rho.dim} != object dim {self.object_dim}"
            )

    def composite_after(self, rho: DensityOperator) -> np.ndarray:
        """U (rho (x) sigma) U-dagger on the composite space."""
        self._check_state(rho)
        return self.u @ tensor(rho.matrix, self.sigma.matrix) @ dagger(self.u)


def effects(model: MeasurementModel) -> list[tuple[float, np.ndarray]]:
    """The POVM: effect(a) = Tr_A[U^dag (1 (x) E^B(a)) U (1 (x) sigma)]."""
    dims = (model.object_dim, model.apparatus_dim)
    one_sigma = tensor(identity(model.object_dim), model.sigma.matrix)
    out = []
    for a in model.outcomes():
        eb = tensor(identity(model.object_dim), model.probe_projection(a))
        out.append((a, partial_trace(dagger(model.u) @ eb @ model.u @ one_sigma, dims, [0])))
    return out


def verify_measures(model: MeasurementModel) -> CheckReport:
    """Check effect(a) = E^A(a) for every outcome: the measuring condition."""
    dev = max(
        max_abs(eff - model.measured.projection(a)) for a, eff in effects(model)
    )
    return CheckReport(passes=dev <= TOL_OP, max_deviation=dev)


def outcome_probability(model: MeasurementModel, rho: DensityOperator) -> OutcomeDistribution:
    """P(a) = Tr[(1 (x) E^B(a)) U (rho (x) sigma) U^dag], read from the probe."""
    comp = model.composite_after(rho)
    entries = {}
    for a in model.outcomes():
        eb = tensor(identity(model.object_dim), model.probe_projection(a))
        entries[a] = float(np.trace(eb @ comp).real)
    return OutcomeDistribution(entries)


def nonselective_state(model: MeasurementModel, rho: DensityOperator) -> DensityOperator:
    """rho' = Tr_A[U (rho (x) sigma) U^dag]: the outcome-averaged state change."""
    dims = (model.object_dim, model.apparatus_dim)
    return DensityOperator(partial_trace(model.composite_after(rho), dims, [0]))


def _selected_unnormalized(model: MeasurementModel, rho: DensityOperator, a: float,
                           sandwich: bool) -> tuple[np.ndarray, float]:
    dims = (model.object_dim, model.apparatus_dim)
    eb = tensor(identity(model.object_dim), model.probe_projection(a))
    comp = eb @ model.composite_after(rho)
    if sandwich:
        comp = comp @ eb
    num = partial_trace(comp, dims, [0])
    return num, float(np.trace(comp).real)


def state_reduction(model: MeasurementModel, rho: DensityOperator, a: float) -> DensityOperator:
    """rho_a = Tr_A[(1 (x) E^B(a)) U (rho (x) sigma) U^dag] / P(a)."""
    num, p = _selected_unnormalized(model, rho, a, sandwich=False)
    if p <= TOL_PROB:
        raise ZeroProbabilityError(f"outcome {a} has probability {p}; reduced state undefined")
    return DensityOperator(num / p)


def state_reduction_sandwiched(model: MeasurementModel, rho: DensityOperator,
                               a: float) -> DensityOperator:
    """Same reduction with the probe projection applied on both sides."""
    num, p = _selected_unnormalized(model, rho, a, sandwich=True)
    if p <= TOL_PROB:
        raise ZeroProbabilityError(f"outcome {a} has probability {p}; reduced state undefined")
    return DensityOperator(num / p)


def projection_postulate_composite(model: MeasurementModel, rho: DensityOperator,
                                   a: float) -> DensityOperator:
    """The conventional post-probe-detection composite state (both-sided projection)."""
    eb = tensor(identity(model.object_dim), model.probe_projection(a))
    comp = eb @ model.composite_after(rho) @ eb
    p = float(np.trace(comp).real)
    if p <= TOL_PROB:
        raise ZeroProbabilityError(f"outcome {a} has probability {p}; composite state undefined")
    return DensityOperator(comp / p, dims=(model.object_dim, model.apparatus_dim))


def mixture_identity_check(model: MeasurementModel, rho: DensityOperator) -> CheckReport:
    """Deviation of rho' from sum_a P(a) rho_a over outcomes with P(a) > TOL_PROB."""
    dist = outcome_probability(model, rho)
    mix = np.zeros((model.object_dim, model.object_dim), dtype=complex)
    for a in model.outcomes():
        p = dist.probability(a)
        if p > TOL_PROB:
            mix += p * state_reduction(model, rho, a).matrix
    dev = operator_deviation(nonselective_state(model, rho), mix)
    return CheckReport(passes=dev <= TOL_OP, max_deviation=dev)


# Random states that the projection-postulate test adds to the spanning set, and their seed.
_POSTULATE_RANDOM_STATES = 50
_POSTULATE_SEED = 7


def satisfies_projection_postulate(model: MeasurementModel) -> bool:
    """True iff the reduction is the Lueders form E^A(a) rho E^A(a) / P(a) on a spanning set."""
    if not verify_measures(model).passes:
        raise ValidationError("model does not measure its claimed observable")
    rng = np.random.default_rng(_POSTULATE_SEED)
    states = spanning_states(model.object_dim)
    states += [random_density(rng, model.object_dim) for _ in range(_POSTULATE_RANDOM_STATES)]
    for rho in states:
        for a in model.outcomes():
            ea = model.measured.projection(a)
            p = float(np.trace(ea @ rho.matrix).real)
            if p <= TOL_PROB:
                continue
            predicted = ea @ rho.matrix @ ea / p
            if operator_deviation(state_reduction(model, rho, a), predicted) > TOL_OP:
                return False
    return True


def statistics_deviation(model: MeasurementModel, states) -> float:
    """Worst |outcome_probability - born_distribution(A, rho)| over the given states."""
    worst = 0.0
    for rho in states:
        worst = max(worst, outcome_probability(model, rho).max_deviation(
            born_distribution(model.measured, rho)))
    return worst
