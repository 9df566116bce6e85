"""Conditioning: a legal input is answered, or refused as documented, never refused or
split by rounding.

Operator scale: an observable or Hamiltonian in large units is legal input.
Rounding in an operator of max-entry norm s is about eps * s, so every input
judge decides "equal up to rounding" at that scale (`linalg.within_rounding`).
Each case also checks the check: an anti-Hermitian part or an eigenvalue gap
of 1e-6 * s, far above rounding, is still seen.
"""

import numpy as np
import pytest

from reductionlab import checks
from reductionlab.bayes import EntangledScenario
from reductionlab.errors import ValidationError
from reductionlab.linalg import TOL_OP, dagger, max_abs
from reductionlab.quantum import DensityOperator, Observable, random_density
from reductionlab.zoo import (PAULI_X, PAULI_Z, cnot_qubit_model, haar_unitary,
                              random_indirect_model, random_observable)

SCALES = [1e7, 1e8, 1e10]
SEEDS = range(20)


def _conjugated(rng, values) -> np.ndarray:
    """W diag(values) W^dag with W Haar, formed in floating point."""
    w = haar_unitary(rng, len(values))
    return w @ np.diag(values) @ dagger(w)


def _anti_hermitian(rng, d) -> np.ndarray:
    """An anti-Hermitian matrix of max-entry norm 1."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g - dagger(g)) / max_abs(g - dagger(g))


ITEM_2 = ("ROADMAP item 2: P(x | a) on a posterior conditioned on a small P(a) carries "
          "rounding / P(a), judged at the absolute TOL_PROB")


def _scenario_checks_pass(scenario, model):
    evaluated = checks.evaluate_scenario(scenario, model)
    reports = [check.run(TOL_OP, scenario, evaluated) for check in checks.SCENARIO_CHECKS]
    assert all(r.passed for r in reports), reports


def _two_outcome(seed, s) -> Observable:
    """A = W diag(0, 0, s, s) W^dag on 4 levels: two outcomes, each twofold."""
    return Observable(_conjugated(np.random.default_rng(seed), [0.0, 0.0, s, s]))


@pytest.mark.parametrize("s", SCALES)
def test_observable_at_scale(s):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        a = _conjugated(rng, [0.0, 0.0, s, s])
        assert len(Observable(a).eigenvalues) == 2
        assert len(Observable((a + dagger(a)) / 2).eigenvalues) == 2
        # a true gap of 1e-6 * s separates two outcomes
        assert len(Observable(_conjugated(rng, [0.0, 0.0, s, s * (1 + 1e-6)])).eigenvalues) == 3
        with pytest.raises(ValidationError, match="must be Hermitian"):
            Observable(a + 1e-6 * s * _anti_hermitian(rng, 4))


@pytest.mark.parametrize("s", SCALES)
def test_model_with_an_observable_at_scale(s):
    for seed in range(3):
        model = random_indirect_model(seed, 4, 5, a_obs=_two_outcome(seed, s))
        assert len(model.outcomes()) == 2
        reports, classification = checks.verify(model, TOL_OP)
        assert all(r.passed for r in reports), reports
        assert classification == "projective"


@pytest.mark.parametrize("s", SCALES)
def test_hamiltonian_at_scale(s):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        h1 = _conjugated(rng, s * rng.standard_normal(3))
        args = (random_density(rng, 6), random_observable(rng, 3), random_observable(rng, 2))
        assert max_abs(EntangledScenario(*args, h1=h1).h1 - h1) == 0.0
        with pytest.raises(ValidationError, match="must be Hermitian"):
            EntangledScenario(*args, h1=h1 + 1e-6 * s * _anti_hermitian(rng, 3))


@pytest.mark.parametrize("s", SCALES)
def test_apparatus_at_scale(s):
    # the apparatus's A is the scenario's times 1 + 1e-12, a rounding-level difference
    # at A's scale, and h1 is at scale s too: its phases are rounded alike in the formula
    # and the oracle, each of which evolves the pair factor by factor
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        a_obs = _two_outcome(seed, s)
        model = random_indirect_model(seed, 4, 5, a_obs=Observable(a_obs.matrix * (1 + 1e-12)))
        scenario = EntangledScenario(random_density(rng, 12), a_obs, random_observable(rng, 3),
                                     h1=_conjugated(rng, s * rng.standard_normal(4)),
                                     h2=_conjugated(rng, rng.standard_normal(3)), t=0.7, tau=1.3)
        _scenario_checks_pass(scenario, model)


@pytest.mark.parametrize("s", SCALES)
def test_opposite_hamiltonians_at_scale(s):
    # h1 at scale s, Hermitian up to its rounding, and h2 = -s: the local measurement
    # theorem holds at the check's own tolerance, whatever the Hamiltonians' scale
    model = random_indirect_model(0, 3, 4)
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        h1 = _conjugated(rng, s + rng.standard_normal(3))
        scenario = EntangledScenario(random_density(rng, 6), model.measured,
                                     random_observable(rng, 2), h1=h1, h2=-s * np.eye(2),
                                     t=0.7, tau=1.3)
        evaluated = checks.evaluate_scenario(scenario, model)
        assert evaluated.formula.max_deviation(evaluated.oracle) <= TOL_OP


def _bell_at_the_phase_limit(t):
    """Bell state, Z on both sides, h1 = diag(1e300, 0), h2 = diag(0, 3e299), at time t."""
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return EntangledScenario(DensityOperator(np.outer(phi, phi)), Observable(PAULI_Z),
                             Observable(PAULI_Z), h1=np.diag([1e300, 0.0]),
                             h2=np.diag([0.0, 3e299]), t=t)


def test_phase_below_the_bound_is_answered():
    # each factor's phase at t = 1.7e8 is finite (1.7e308 and 5.1e307), their sum is not
    _scenario_checks_pass(_bell_at_the_phase_limit(1.7e8), cnot_qubit_model())


def test_phase_above_the_bound_is_refused():
    # h1's phase at t = 2e8 is 2e308, which overflows
    with pytest.raises(ValidationError, match=r"^h1: phase max\|eigenvalue\| \* t "):
        _bell_at_the_phase_limit(2e8)


@pytest.mark.parametrize("h2, time", [
    (np.zeros((2, 2)), 1e308),  # phases 0; t + tau overflows
    (1e-300 * PAULI_X, 1e308),  # phases 1e8; t + tau overflows
    (np.diag([1e300, 0.0]), 1e8),  # phases 1e308 over t and over tau; over t + tau, 2e308
], ids=["zero", "tiny", "huge"])
def test_summed_times_are_answered(h2, time):
    # h2 is evolved over t and over tau, each a finite phase, never over their sum; a numpy
    # warning would fail the test (warnings are errors in pyproject.toml)
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    scenario = EntangledScenario(DensityOperator(np.outer(phi, phi)), Observable(PAULI_Z),
                                 Observable(PAULI_Z), h2=h2, t=time, tau=time)
    _scenario_checks_pass(scenario, cnot_qubit_model())


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=ITEM_2)
def test_posterior_conditionals_of_a_small_weight():
    # psi = sqrt(w) v0 (x) phi0 + sqrt(1 - w) v1 (x) phi1 with v_k the eigenvectors of A:
    # P(a = 0) = w, and X's conditional on it deviates by about 5e-18 / w (3.1e-10 here)
    rng, w = np.random.default_rng(7), 3e-8
    v, phi = haar_unitary(rng, 3), haar_unitary(rng, 4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psi = np.sqrt(w) * np.kron(v[:, 0], phi[:, 0]) + np.sqrt(1 - w) * np.kron(v[:, 1], phi[:, 1])
    scenario = EntangledScenario(DensityOperator(np.outer(psi, psi.conj())),
                                 Observable(v @ np.diag([0.0, 1.0, 2.0]) @ dagger(v)),
                                 random_observable(rng, 4), h2=(g + dagger(g)) / 2,
                                 t=0.0, tau=0.3)
    check = next(c for c in checks.SCENARIO_CHECKS if c.name == "posterior_conditionals")
    report = check.run(TOL_OP, scenario, checks.evaluate_scenario(scenario))
    assert report.passed, report
