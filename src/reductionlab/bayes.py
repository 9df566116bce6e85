"""Local successive measurements on a noninteracting entangled pair.

Joint outcome statistics computed two ways: a closed-form expression in
Heisenberg-evolved spectral projections, and a brute-force apparatus-level
oracle that simulates the full object-apparatus-bystander dynamics and
reads two commuting projections jointly.  The pair's two factors are those
of the observables measured on it.

The oracle stays the literal three-factor simulation on H1 (x) HA (x) H2
and shares no structure with the formula; its docstring gives the
apparatus dilation by which it never forms the state on that space.

Bayes: `prior_state` is the distant subsystem's state rho2(t),
`posteriors` conditions it on each outcome of A with nonzero marginal, as
one stack normalized after evolving by `quantum.conditional_state`, and
`posterior_state` is that conditioning on a stack of one.  They and the
formula evolve the pair only through `EntangledScenario.evolution`, which
judges h1 and h2 by `linalg.hermitian_eigh`; it and the oracle form
e^{-i h t} by `linalg.spectral_expm`.

The formula and the posteriors cost pair-space work: no Kronecker product
is formed outside the oracle's pair Hamiltonian h12.  The formula reads
P(a, x) = Tr[E^X_{t+tau}(x) S_a] with S_a = Tr_1[(E^A_t(a) (x) 1) rho12],
one contraction of rho12 as (d1, d2, d1, d2).  The posteriors apply
E^A_t(a) (x) 1 as one flat product on rho12 as (d1, d2 d1 d2) and take one
partial trace per outcome.  The two stay separate contractions: the
posteriors never read the formula's S_a, so the `posterior_conditionals`
check compares two computations, not one arithmetic identity.
"""

from __future__ import annotations

import math
from functools import partialmethod

import numpy as np

from .errors import DimensionMismatchError, ValidationError, ZeroProbabilityError
from .linalg import (
    TOL_OP,
    TOL_PROB,
    as_matrix,
    check_phase,
    dagger,
    finite_eigh,
    hermitian_eigh,
    identity,
    max_abs,
    partial_trace,
    spectral_expm,
    tensor,
    within_rounding,
)
from .measurement import MeasurementModel, verify_measures
from .quantum import (
    DensityOperator,
    Distribution,
    Observable,
    OutcomeDistribution,
    conditional_state,
    operator_deviation,
    outcome_index,
)


class EntangledScenario:
    """State rho12 on H1 (x) H2; A measured locally on subsystem 1 at time t,
    X measured on subsystem 2 at time t + tau; free Hamiltonians h1, h2.
    The factors H1 and H2 are those of the observables A and X.  The scenario
    owns its free evolution: h1 and h2 are diagonalized once, for `evolution`."""

    def __init__(self, rho12: DensityOperator, a_obs: Observable, x_obs: Observable,
                 h1=None, h2=None, t: float = 0.0, tau: float = 0.0):
        d1, d2 = a_obs.dim, x_obs.dim
        if rho12.dim != d1 * d2:
            raise DimensionMismatchError(
                f"rho12 dim {rho12.dim} != a_obs dim {d1} * x_obs dim {d2}")
        h1 = np.zeros((d1, d1), dtype=complex) if h1 is None else as_matrix(h1)
        h2 = np.zeros((d2, d2), dtype=complex) if h2 is None else as_matrix(h2)
        if h1.shape[0] != d1 or h2.shape[0] != d2:
            raise DimensionMismatchError("hamiltonian dimensions inconsistent with the observables")
        self._spectra = [hermitian_eigh(h, f"{field}: hamiltonian")  # (w, v) of h1, then h2
                         for field, h in (("h1", h1), ("h2", h2))]
        if not (0.0 <= t < math.inf and 0.0 <= tau < math.inf):  # also rejects NaN
            raise ValidationError("times must be finite and nonnegative")
        # every phase w * time that `evolution` forms: h1 up to t, h2 up to t + tau
        check_phase("h1", self._spectra[0][0], "t", t)
        check_phase("h2", self._spectra[1][0], "t + tau", t + tau)
        self.rho12 = rho12
        self.a_obs = a_obs
        self.x_obs = x_obs
        self.h1 = h1
        self.h2 = h2
        self.t = float(t)
        self.tau = float(tau)

    @property
    def dims(self) -> tuple[int, int]:
        return self.a_obs.dim, self.x_obs.dim

    def evolution(self, k: int, time: float) -> np.ndarray:
        """e^{-i h_k time} on subsystem k (0 or 1), as `herm_expm` builds it."""
        return spectral_expm(*self._spectra[k], time)


class JointDistribution(Distribution):
    """Map from (a, x) outcome pairs to probability."""

    def _marginal(self, i: int) -> OutcomeDistribution:
        """Distribution of the outcome at position i of the (a, x) pair."""
        out: dict[float, float] = {}
        for key, p in self.entries.items():
            out[key[i]] = out.get(key[i], 0.0) + p
        return OutcomeDistribution(out)

    marginal_a = partialmethod(_marginal, 0)
    marginal_x = partialmethod(_marginal, 1)


def joint_distribution_formula(s: EntangledScenario) -> JointDistribution:
    """Pr{A(t)=a, X(t+tau)=x} = Tr[E^X_{t+tau}(x) S_a] from Heisenberg-evolved projections,
    with S_a = Tr_1[(E^A_t(a) (x) 1) rho12] one contraction of rho12 as (d1, d2, d1, d2)."""
    d1, d2 = s.dims
    # Heisenberg frame: P(time) = e^{+i h time} P e^{-i h time}
    u1, u2 = s.evolution(0, -s.t), s.evolution(1, -(s.t + s.tau))
    ea_t = u1 @ np.array([ea for _, ea in s.a_obs.spectrum]) @ dagger(u1)
    ex_t = u2 @ np.array([ex for _, ex in s.x_obs.spectrum]) @ dagger(u2)
    # S_a[y, z] = sum_{i, j} E^A_t(a)[j, i] rho12[(i, y), (j, z)]
    selected = np.einsum("aji,iyjz->ayz", ea_t, s.rho12.matrix.reshape(d1, d2, d1, d2))
    probs = np.einsum("xzy,ayz->ax", ex_t, selected).real.tolist()
    return JointDistribution({(a, x): p for a, row in zip(s.a_obs.eigenvalues, probs)
                              for x, p in zip(s.x_obs.eigenvalues, row)})


def joint_distribution_oracle(s: EntangledScenario, model: MeasurementModel) -> JointDistribution:
    """Brute-force joint distribution via the full three-factor dynamics.

    `model` is the local apparatus for the first subsystem, refused (ValidationError) unless
    it measures the scenario's A (at TOL_OP and the scale of the scenario's A,
    `within_rounding`) with as many outcomes and meets the measuring condition at TOL_OP,
    or when the pair phase or spectrum overflows.  A's labels are the scenario's, the i-th
    read on the i-th eigenspace of B.  Its interaction acts on H1 (x) HA only, so its
    extension to the full space commutes with every observable of subsystem 2.

    Evolves the pair freely to time t, prepares the apparatus in sigma,
    applies the interaction unitary extended as U (x) 1, evolves freely by
    tau, then reads the commuting projections E^B(a) on the apparatus and
    E^X(x) on subsystem 2 jointly.  No projection postulate anywhere.

    The simulation stays literal; only its contractions are cheap.  The
    apparatus Hamiltonian is zero, so the free evolution is
    e^{-i h12 time} (x) 1_A with the pair Hamiltonian
    h12 = h1 (x) 1 + 1 (x) h2, which is diagonalized once and never
    factored into local evolutions; both free evolutions are built from
    that one eigendecomposition.  Preparing the apparatus is the
    dilation sigma = sum_l p_l p_l^dag over the model's pointer columns
    p_l = sqrt(s_l) |phi_l>, so the whole process from S1 (x) S2 at time t
    to S1 (x) A (x) S2 is the family of maps
    V_l = (u12(tau) (x) 1_A) (U (x) 1_S2) (1_S1 (x) |p_l> (x) 1_S2),
    each a (d1 dA d2) x (d1 d2) matrix built by reshaped products.  The
    (S2, A) block Tr_S1 sum_l V_l rho12(t) V_l^dag is one pair of flat
    products over the stack of the V_l rows, and each (a, x) is read on it
    as Tr[(E^X(x) (x) E^B(a)) block] without forming the projection.
    rho12 is used as given, so the result is linear in it; no operator on
    H1 (x) HA (x) H2 is ever formed.
    """
    half = operator_deviation(model.measured.matrix / 2, s.a_obs.matrix / 2)  # exact, finite
    if not (within_rounding(half, TOL_OP / 2, s.a_obs.matrix)
            and len(model.outcomes()) == len(s.a_obs.eigenvalues)):
        raise ValidationError("apparatus model does not target the scenario's observable")
    dev = verify_measures(model)
    if not within_rounding(dev, TOL_OP):  # also refuses a NaN deviation
        raise ValidationError(f"apparatus model fails the measuring condition (deviation {dev})")
    # max|w(h1)| + max|w(h2)| bounds h12's entries and spectrum: judged before h12 is formed
    check_phase("h1 + h2", sum(max_abs(w) for w, _ in s._spectra), "max(t, tau)", max(s.t, s.tau))
    d1, d2 = s.dims
    da = model.apparatus_dim
    n12, n2a = d1 * d2, d2 * da
    h12 = tensor(s.h1, identity(d2)) + tensor(identity(d1), s.h2)
    # Hermitian by construction: not judged (at its own scale, cancelling diagonals fail it)
    w, v = finite_eigh(h12, "h1 + h2: hamiltonian")
    u = spectral_expm(w, v, s.t)
    rho = u @ s.rho12.matrix @ dagger(u)
    # U (1 (x) |p_l>): k[i, b, j, l] = sum_b' U[(i, b), (j, b')] p_l[b']
    k = (model.u.reshape(-1, da) @ model.pointer).reshape(d1, da, d1, -1)
    # V_l[(i, b, y), (j, y')] = sum_i' u12(tau)[(i, y), (i', y')] k[i', b, j, l],
    # laid out as vl[(y, b), (i, l), (j, y')]: Tr_S1 and the sum over l are one sum over (i, l)
    u = spectral_expm(w, v, s.tau).reshape(d1, d2, d1, d2)
    vl = np.tensordot(u, k, axes=([2], [0]))  # [i, y, y', b, j, l]
    vl = vl.transpose(1, 3, 0, 5, 4, 2).reshape(n2a, -1)
    block = (vl.reshape(-1, n12) @ rho).reshape(n2a, -1) @ vl.conj().T
    block = block.reshape(d2, da, d2, da)
    entries = {}
    for a, (_, eb) in zip(s.a_obs.eigenvalues, model.probe.spectrum):
        # Tr_A[(1 (x) E^B(a)) block], an operator on S2
        selected = np.einsum("ij,xjyi->xy", eb, block)
        for x, ex in s.x_obs.spectrum:
            entries[(a, x)] = float(np.einsum("ij,ji->", ex, selected).real)
    return JointDistribution(entries)


def prior_state(s: EntangledScenario) -> DensityOperator:
    """rho2(t) = e^{-i h2 t} Tr_1[rho12] e^{+i h2 t}."""
    rho2 = partial_trace(s.rho12.matrix, s.dims, [1])
    u = s.evolution(1, s.t)
    return DensityOperator(u @ rho2 @ dagger(u))


def posterior_state(s: EntangledScenario, a: float) -> DensityOperator:
    """rho2(t | A(t)=a): the distant subsystem's state conditioned on the local outcome,
    `posteriors`' conditioning on a stack of one."""
    return _conditioned(s, [a])[0]


def posteriors(s: EntangledScenario, joint: JointDistribution) -> list:
    """[(a, P(a), rho2(t | a))] for every outcome whose marginal P(a) in `joint`, the
    scenario's closed-form joint distribution, exceeds TOL_PROB, in outcome order."""
    likely = _likely(joint)
    return [(a, p, post) for (a, p), post in zip(likely, _conditioned(s, [a for a, _ in likely]))]


def _conditioned(s: EntangledScenario, labels: list) -> list[DensityOperator]:
    """rho2(t | a) for the outcome each label names: Tr_1[(E^A_t(a) (x) 1) rho12], one flat
    product and one partial trace each, evolved to t as one stack and normalized together by
    `conditional_state`.  Its own contraction: it never reads the formula's S_a."""
    d1, d2 = s.dims
    u1, u = s.evolution(0, -s.t), s.evolution(1, s.t)
    ea_t = u1 @ np.array([s.a_obs.projection(a) for a in labels]) @ dagger(u1)
    # (E^A_t(a) (x) 1) rho12 as ea_t @ rho12[i, (y, j, z)]
    applied = (ea_t @ s.rho12.matrix.reshape(d1, -1)).reshape(-1, d1 * d2, d1 * d2)
    selected = np.array([partial_trace(m, s.dims, [1]) for m in applied])
    return conditional_state(u @ selected @ dagger(u), labels)


def _likely(j: JointDistribution) -> list:
    """[(a, P(a))] for every outcome of A whose marginal in `j` exceeds TOL_PROB, in order."""
    return [(a, p) for a, p in j.marginal_a().entries.items() if p > TOL_PROB]


def bayes_condition(j: JointDistribution, a: float) -> OutcomeDistribution:
    """Classical conditioning: P(x | a) = j[(a, x)] / sum_x j[(a, x)],
    on the row of the outcome `a` names (see `outcome_index`)."""
    labels = list(dict.fromkeys(aa for aa, _ in j.entries))
    label = labels[outcome_index(labels, a)]
    row = {x: p for (aa, x), p in j.entries.items() if aa == label}
    total = sum(row.values())
    if total <= TOL_PROB:
        raise ZeroProbabilityError(f"outcome {a} has marginal probability {total}")
    return OutcomeDistribution({x: p / total for x, p in row.items()})


def independent(j: JointDistribution) -> bool:
    """P(x | a) = P(x) within TOL_PROB for each a with P(a) > TOL_PROB, as `posteriors` keeps."""
    marg_x = j.marginal_x()
    return not any(bayes_condition(j, a).max_deviation(marg_x) > TOL_PROB for a, _ in _likely(j))


def bayes_mixture_check(prior: DensityOperator, conditioned) -> float:
    """Max-entry deviation of the prior rho2(t) from sum_a P(a) rho2(t | a) over `conditioned`."""
    mix = sum(p * post.matrix for _, p, post in conditioned)
    return operator_deviation(prior, mix)
