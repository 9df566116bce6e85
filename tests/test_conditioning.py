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
from reductionlab.quantum import Observable, random_density
from reductionlab.zoo import haar_unitary, random_indirect_model, random_observable

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
    # at A's scale; h stays at unit scale, where the oracle's pair evolution is exact
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        a_obs = _two_outcome(seed, s)
        model = random_indirect_model(seed, 4, 5, a_obs=Observable(a_obs.matrix * (1 + 1e-12)))
        scenario = EntangledScenario(random_density(rng, 12), a_obs, random_observable(rng, 3),
                                     h1=_conjugated(rng, rng.standard_normal(4)),
                                     h2=_conjugated(rng, rng.standard_normal(3)), t=0.7, tau=1.3)
        evaluated = checks.evaluate_scenario(scenario, model)
        reports = [check.run(TOL_OP, scenario, evaluated) for check in checks.SCENARIO_CHECKS]
        assert all(r.passed for r in reports), reports


@pytest.mark.parametrize("s", SCALES)
def test_pair_hamiltonian_at_scale(s):
    # h1 at scale s, Hermitian up to its rounding, and h2 = -s: their diagonals cancel in
    # h1 (x) 1 + 1 (x) h2, which would fail a judge at its own scale; the oracle judges none
    model = random_indirect_model(0, 3, 4)
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        h1 = _conjugated(rng, s + rng.standard_normal(3))
        scenario = EntangledScenario(random_density(rng, 6), model.measured,
                                     random_observable(rng, 2), h1=h1, h2=-s * np.eye(2),
                                     t=0.7, tau=1.3)
        evaluated = checks.evaluate_scenario(scenario, model)
        # each phase h * t is known to about eps * s * t, and so is the joint
        assert evaluated.formula.max_deviation(evaluated.oracle) < 1e-14 * s
