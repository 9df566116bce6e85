"""The paper's invariants as one table of named checks, shared by `verify` and `sweep`.

A check maps its inputs to a max deviation: model checks take (model,
evaluated), the states paired with their reductions by one
`measurement.reductions` call on the whole stack of states; scenario
checks take (scenario, evaluated), the joints, prior and posteriors that
`evaluate_scenario` returns. Both are computed once before any check runs
and so outside every check's time.
OPERATOR checks are judged by the caller's operator tolerance, PROBABILITY
checks by TOL_PROB.
Check functions look library names up when they run, so a caller that
replaces a module attribute (a tracer, a test double) sees every call.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .bayes import (EntangledScenario, bayes_condition, bayes_mixture_check,
                    joint_distribution_formula, joint_distribution_oracle, posteriors,
                    prior_state)
from .linalg import TOL_OP, TOL_PROB, dagger, identity, max_abs
from .measurement import (effects, mixture_identity_check, reductions,
                          satisfies_projection_postulate, state_reduction_sandwiched,
                          statistics_deviation, verify_measures)
from .quantum import (DensityOperator, density_operators, distributions, operator_deviation,
                      random_density, spanning_states)
from .zoo import random_indirect_model, random_observable

OPERATOR = "operator"
PROBABILITY = "probability"


class Report(NamedTuple):
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    elapsed_ms: float


class Check(NamedTuple):
    name: str
    kind: str  # OPERATOR or PROBABILITY
    fn: Callable[..., float]

    def report(self, deviation: float, tol_op: float, elapsed_ms: float = 0.0) -> Report:
        """Judge a deviation: OPERATOR checks by tol_op, PROBABILITY checks by TOL_PROB."""
        tol = tol_op if self.kind == OPERATOR else TOL_PROB
        return Report(self.name, deviation <= tol, deviation, tol, elapsed_ms)

    def run(self, tol_op: float, *args) -> Report:
        """Evaluate the check on args, timed, and judge it."""
        start = time.perf_counter()
        deviation = float(self.fn(*args))
        return self.report(deviation, tol_op, (time.perf_counter() - start) * 1e3)


def _povm(model, evaluated) -> float:
    """Worst non-Hermiticity and negativity of an effect, or gap of their sum to 1."""
    total = np.zeros((model.object_dim, model.object_dim), dtype=complex)
    devs = []
    for _, eff in effects(model):
        total += eff
        lo = float(np.min(np.linalg.eigvalsh((eff + dagger(eff)) / 2)))
        devs += [max(0.0, -lo), max_abs(eff - dagger(eff))]
    return max_abs(devs + [max_abs(total - identity(model.object_dim))])


def _reduction_equivalence(model, evaluated) -> float:
    """Kraus-form reductions against the composite-space sandwiched oracle, outcome by outcome."""
    devs = []
    for a in model.outcomes():
        pairs = [(rho, rho_a) for rho, reduced in evaluated for b, _, rho_a in reduced if b == a]
        oracle = state_reduction_sandwiched(model, [rho for rho, _ in pairs], a)
        devs += [operator_deviation(rho_a, o) for (_, rho_a), o in zip(pairs, oracle)]
    return max_abs(devs)


def _affinity(model, evaluated) -> float:
    """Affinity of the unnormalized reduction P(a) rho_a on a mixture of the first two states."""
    (rho1, reduced1), (rho2, reduced2) = evaluated[:2]
    lam = 0.3
    mix = DensityOperator(lam * rho1.matrix + (1 - lam) * rho2.matrix)
    mixed, first, second = ({a: p * rho_a.matrix for a, p, rho_a in reduced}
                            for reduced in (reductions(model, [mix])[0][1], reduced1, reduced2))
    return max_abs([max_abs(mixed.get(a, 0.0) - lam * first.get(a, 0.0)
                            - (1 - lam) * second.get(a, 0.0)) for a in model.outcomes()])


def evaluate_scenario(scenario, model=None) -> SimpleNamespace:
    """What the scenario checks read, each computed once: the closed-form joint `formula`,
    the apparatus-level joint `oracle` (None without a model), the `prior` rho2(t) and
    the `posteriors`."""
    formula = joint_distribution_formula(scenario)
    oracle = None if model is None else joint_distribution_oracle(scenario, model)
    return SimpleNamespace(formula=formula, oracle=oracle, prior=prior_state(scenario),
                           posteriors=posteriors(scenario, formula))


def _posterior_conditionals(scenario, evaluated) -> float:
    """Bayes conditionals P(x | a) against rule 1: X's statistics on the posteriors at t + tau,
    evolved as one stack, judged once and read by one `distributions` call."""
    evolved = scenario.evolved(1, scenario.tau,
                               np.array([post.matrix for _, _, post in evaluated.posteriors]))
    density_operators(evolved)
    return max_abs([bayes_condition(evaluated.formula, a).max_deviation(stats) for (a, _, _), stats
                    in zip(evaluated.posteriors, distributions(scenario.x_obs.spectrum, evolved))])


VERIFY_CHECKS = (
    Check("measures", OPERATOR, lambda model, evaluated: verify_measures(model)),
    Check("povm", OPERATOR, _povm),
    Check("statistics", PROBABILITY, lambda model, evaluated: statistics_deviation(
        model, [rho for rho, _ in evaluated])),
    Check("reduction_equivalence", OPERATOR, _reduction_equivalence),
    Check("mixture_identity", OPERATOR,
          lambda model, evaluated: mixture_identity_check(model, evaluated)),
)
SWEEP_MODEL_CHECKS = VERIFY_CHECKS + (Check("affinity", OPERATOR, _affinity),)
LOCAL_MEASUREMENT = Check("local_measurement_theorem", OPERATOR, lambda scenario, evaluated:
                          evaluated.formula.max_deviation(evaluated.oracle))
BAYES_MIXTURE = Check("bayes_mixture", OPERATOR, lambda scenario, evaluated:
                      bayes_mixture_check(evaluated.prior, evaluated.posteriors))
SCENARIO_CHECKS = (
    LOCAL_MEASUREMENT,
    BAYES_MIXTURE,
    Check("posterior_conditionals", PROBABILITY, _posterior_conditionals),
)
SWEEP_CHECKS = SWEEP_MODEL_CHECKS + SCENARIO_CHECKS


def verify(model, tol_op: float) -> tuple[list[Report], str]:
    """Timed verify checks on the reduced spanning states, and the model's classification."""
    evaluated = reductions(model, spanning_states(model.object_dim))
    reports = [check.run(tol_op, model, evaluated) for check in VERIFY_CHECKS]
    if not reports[0].passed:  # the measuring condition
        return reports, "not-a-measurement-of-claimed-observable"
    projective = satisfies_projection_postulate(model, tol_op)
    return reports, "projective" if projective else "non-projective"


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2


def _trial(seed: int, d_obj: int, d_other: int) -> list[Report]:
    """Timed sweep checks, judged at TOL_OP, on one random model, ten random
    states and an entangled scenario that uses the model as its local apparatus."""
    rng = np.random.default_rng(seed)
    model = random_indirect_model(seed, d_obj, d_obj + int(rng.integers(0, 2)))
    states = [random_density(rng, d_obj) for _ in range(10)]
    evaluated = reductions(model, states)
    reports = [check.run(TOL_OP, model, evaluated) for check in SWEEP_MODEL_CHECKS]
    scenario = EntangledScenario(
        random_density(rng, d_obj * d_other),
        a_obs=model.measured,
        x_obs=random_observable(rng, d_other),
        h1=_random_hermitian(rng, d_obj),
        h2=_random_hermitian(rng, d_other),
        t=float(rng.uniform(0.1, 2.0)),
        tau=float(rng.uniform(0.0, 2.0)),
    )
    evaluated = evaluate_scenario(scenario, model)
    return reports + [check.run(TOL_OP, scenario, evaluated) for check in SCENARIO_CHECKS]


def sweep(seed: int, trials: int, dims: list[int], tol_op: float) -> list[Report]:
    """Worst deviation of each sweep check over trials seed, seed + 1, ...,
    and its time summed over them; trial i pairs object dim dims[i] with
    partner dim dims[i + 1], cyclically."""
    worst = np.zeros(len(SWEEP_CHECKS))
    elapsed = np.zeros(len(SWEEP_CHECKS))
    for i in range(trials):
        reports = _trial(seed + i, dims[i % len(dims)], dims[(i + 1) % len(dims)])
        # np.maximum keeps a NaN deviation, so its check fails
        worst = np.maximum(worst, [r.max_deviation for r in reports])
        elapsed += [r.elapsed_ms for r in reports]
    return [check.report(float(w), tol_op, float(ms))
            for check, w, ms in zip(SWEEP_CHECKS, worst, elapsed)]
