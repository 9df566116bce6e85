"""Every named check of `reductionlab.checks` fails on a fault of its own.

A check that cannot fail would let `verify`, `sweep` and the acceptance
suite pass without testing anything.  Each fault below is injected on the
library name the check reads (checks look names up when they run), or on
the model the check is run on.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from reductionlab import bayes, checks, measurement
from reductionlab.bayes import EntangledScenario, JointDistribution
from reductionlab.errors import ValidationError
from reductionlab.linalg import TOL_OP, identity
from reductionlab.quantum import DensityOperator, Observable, density_operators, distributions
from reductionlab.zoo import PAULI_X, PAULI_Z, cnot_qubit_model, standard_models

CNOT = cnot_qubit_model()
SWAP = standard_models()["swap_replace"]


def sweep():
    return checks.sweep(3, 2, [2, 3], TOL_OP)


def verify(model):
    return lambda: checks.verify(model, TOL_OP)[0]


def scaled_first_effect(model):
    (a, eff), *rest = measurement.effects(model)
    return [(a, 1.01 * eff)] + rest


def squared_probabilities(model, states):
    return [(rho, [(a, p * p, rho_a) for a, p, rho_a in reduced])
            for rho, reduced in measurement.reductions(model, states)]


def shifted_oracle(scenario, model):
    entries = bayes.joint_distribution_oracle(scenario, model).entries
    values = list(entries.values())
    return JointDistribution(dict(zip(entries, values[1:] + values[:1])))


def maximally_mixed_posteriors(scenario, joint):
    return [(a, p, DensityOperator(identity(post.dim) / post.dim))
            for a, p, post in bayes.posteriors(scenario, joint)]


def prior_as_posteriors(scenario, joint):
    prior = bayes.prior_state(scenario)
    return [(a, p, prior) for a, p, _ in bayes.posteriors(scenario, joint)]


def lueders_reductions(model, states, a):
    proj = model.measured.projection(a)
    nums = [proj @ rho.matrix @ proj for rho in states]
    return [DensityOperator(num / np.trace(num).real) for num in nums]


# check name: (run, (object, attribute, replacement) that makes the check fail).
# Every sweep model is Lueders, so only `verify` on swap-replace can show a
# Lueders oracle.
FAULTS = {
    # a CNOT model that claims to measure Pauli X
    "measures": (verify(CNOT), (CNOT, "measured", Observable(PAULI_X))),
    "povm": (sweep, (checks, "effects", scaled_first_effect)),
    "statistics": (verify(CNOT), (CNOT, "measured", Observable(PAULI_X))),
    "reduction_equivalence": (
        verify(SWAP), (checks, "state_reduction_sandwiched", lueders_reductions)),
    "mixture_identity": (sweep, (measurement, "nonselective_states",
                                 lambda model, states: list(states))),
    "affinity": (sweep, (checks, "reductions", squared_probabilities)),
    "local_measurement_theorem": (sweep, (checks, "joint_distribution_oracle", shifted_oracle)),
    "bayes_mixture": (sweep, (checks, "posteriors", maximally_mixed_posteriors)),
    "posterior_conditionals": (sweep, (checks, "posteriors", prior_as_posteriors)),
}


def named(reports, name):
    return next(r for r in reports if r.name == name)


@pytest.mark.parametrize("name", [check.name for check in checks.SWEEP_CHECKS])
def test_check_fails_on_its_fault(monkeypatch, name):
    run, fault = FAULTS[name]
    assert named(run(), name).passed
    monkeypatch.setattr(*fault)
    report = named(run(), name)
    # a finite deviation over the tolerance, not a NaN stand-in
    assert np.isfinite(report.max_deviation)
    assert report.max_deviation > report.tolerance


def test_posterior_conditionals_judges_and_reads_one_stack(monkeypatch):
    judged, read = [], []
    monkeypatch.setattr(checks, "density_operators",
                        lambda stack: judged.append(len(stack)) or density_operators(stack))
    monkeypatch.setattr(checks, "distributions", lambda spectrum, stack: read.append(len(stack))
                        or distributions(spectrum, stack))
    reports = checks._trial(3, 2, 3)
    assert named(reports, "posterior_conditionals").passed
    # both outcomes of the qubit's A are likely: one stack of two, judged once and read once
    assert judged == read == [2]


def test_posterior_conditionals_judges_every_evolved_posterior():
    s = EntangledScenario(DensityOperator(identity(4) / 4), Observable(PAULI_Z),
                          Observable(PAULI_X), t=0.5, tau=0.5)
    evaluated = checks.evaluate_scenario(s)
    a, p, post = evaluated.posteriors[-1]
    evaluated.posteriors[-1] = (a, p, SimpleNamespace(matrix=2 * post.matrix))
    with pytest.raises(ValidationError, match="trace is 2"):
        checks._posterior_conditionals(s, evaluated)
