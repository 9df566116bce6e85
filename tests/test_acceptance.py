"""Acceptance suite: one test per exit criterion, each printing a pass line.

Criteria 1-4 run the named checks of `reductionlab.checks` that `verify` and
`sweep` run, criterion 6 judges the Bayes mixture through them and criterion 7
reads `verify`'s classification; the rest keep references of their own.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json

import numpy as np
import pytest
from test_bayes import random_scenario

from reductionlab import checks
from reductionlab.bayes import (
    EntangledScenario,
    bayes_condition,
    joint_distribution_formula,
    joint_distribution_oracle,
)
from reductionlab.cli import main
from reductionlab.errors import DimensionMismatchError
from reductionlab.linalg import TOL_OP, max_abs
from reductionlab.measurement import reductions, state_reduction
from reductionlab.modelio import model_to_dict, save_json
from reductionlab.quantum import (
    DensityOperator,
    Observable,
    ket,
    operator_deviation,
    pure,
    random_density,
    rule1_distribution,
    spanning_states,
)
from reductionlab.zoo import (
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    cnot_qubit_model,
    controlled_shift_model,
    random_indirect_model,
    random_observable,
    standard_models,
    swap_replace_model,
)

ZOO = standard_models().values()


def _report(name: str, worst: float, tol: float):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {status} {name}: max_deviation={worst:.3e} tolerance={tol:.0e}")
    assert worst <= tol


def _random_states(seed: int, dim: int, n: int = 50):
    rng = np.random.default_rng(seed)
    return [random_density(rng, dim) for _ in range(n)]


def _verify_check(name: str, label: str, states):
    """Run the verify check `name` on every zoo model, each with its `states(dim)`
    reduced, and judge the worst deviation at the check's own tolerance kind."""
    check = next(c for c in checks.VERIFY_CHECKS if c.name == name)
    worst = max_abs([check.fn(model, reductions(model, states(model.object_dim)))
                     for model in ZOO])
    _report(label, worst, check.report(worst, TOL_OP).tolerance)


def test_criterion_1_measuring_condition():
    # the measuring condition reads the effects only, so no state is reduced
    _verify_check("measures", "1 measuring-condition gate", lambda dim: [])


def test_criterion_2_statistics_consistency():
    _verify_check("statistics", "2 statistics consistency", lambda dim: _random_states(21, dim))


def test_criterion_3_reduction_equivalence():
    _verify_check("reduction_equivalence", "3 reduction equivalence", spanning_states)


def test_criterion_4_mixture_identity():
    _verify_check("mixture_identity", "4 mixture identity", lambda dim: _random_states(23, dim))


def _scenario_sweep():
    """30 random scenarios x {cnot, swap, random-indirect} apparatus families."""
    rng = np.random.default_rng(1015)
    for i in range(30):
        d2 = int(rng.integers(2, 4))
        z = Observable(PAULI_Z)
        # cnot family: qubit object, Pauli-Z measured
        yield random_scenario(rng, 2, d2, z), cnot_qubit_model()
        # swap family: random replacement state, random object dim
        d1 = int(rng.integers(2, 4))
        a_obs = random_observable(rng, d1)
        s = random_scenario(rng, d1, d2, a_obs)
        yield s, swap_replace_model(random_density(rng, d1), a_obs)
        # random indirect family
        d1 = int(rng.integers(2, 4))
        a_obs = random_observable(rng, d1)
        s = random_scenario(rng, d1, d2, a_obs)
        n_out = len(a_obs.spectrum)
        model = random_indirect_model(
            int(rng.integers(0, 2**31)), d1, n_out + int(rng.integers(0, 2)),
            a_obs=a_obs)
        yield s, model


def _total_variation(p, q) -> float:
    """Half the summed absolute differences of two distributions on one outcome set."""
    keys = sorted(p.entries)
    if keys != sorted(q.entries):
        raise DimensionMismatchError("distributions have different outcome sets")
    return 0.5 * sum(abs(p.entries[k] - q.entries[k]) for k in keys)


def _bell_scenario(x_matrix):
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return EntangledScenario(
        DensityOperator(np.outer(phi, phi)),
        Observable(PAULI_Z), Observable(x_matrix))


def test_criterion_5_local_measurement_theorem():
    worst = 0.0
    # exact Bell/Pauli fixtures
    bell_zz = _bell_scenario(PAULI_Z)
    jf = joint_distribution_formula(bell_zz)
    assert jf.entries[(1.0, 1.0)] == pytest.approx(0.5, abs=1e-12)
    assert jf.entries[(-1.0, -1.0)] == pytest.approx(0.5, abs=1e-12)
    assert jf.entries[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-12)
    oracle = joint_distribution_oracle(bell_zz, cnot_qubit_model())
    worst = max(worst, _total_variation(jf, oracle))
    bell_zx = _bell_scenario(PAULI_X)
    jf = joint_distribution_formula(bell_zx)
    for p in jf.entries.values():
        assert p == pytest.approx(0.25, abs=1e-12)
    oracle = joint_distribution_oracle(bell_zx, cnot_qubit_model())
    worst = max(worst, _total_variation(jf, oracle))
    # 30 random scenarios x 3 apparatus families
    count = 0
    for scenario, model in _scenario_sweep():
        tv = _total_variation(joint_distribution_formula(scenario),
                              joint_distribution_oracle(scenario, model))
        worst = max(worst, tv)
        count += 1
    assert count == 90
    _report("5 local measurement theorem", worst, 1e-9)


def test_criterion_6_quantum_bayes_consistency():
    mixture, conditionals = [], []
    for scenario, _ in _scenario_sweep():
        evaluated = checks.evaluate_scenario(scenario)
        mixture.append(checks.BAYES_MIXTURE.fn(scenario, evaluated))
        # rule 1 through the tests' own herm_expm reference, not the scenario's evolution
        conditionals += [bayes_condition(evaluated.formula, a).max_deviation(
            rule1_distribution(posterior, scenario.h2, scenario.x_obs, scenario.tau))
            for a, _, posterior in evaluated.posteriors]
    assert checks.BAYES_MIXTURE.report(max_abs(mixture), TOL_OP).passed
    _report("6 quantum Bayes consistency", max_abs(conditionals), 1e-10)


def test_criterion_7_projection_postulate_classification():
    assert checks.verify(cnot_qubit_model(), TOL_OP)[1] == "projective"
    assert checks.verify(controlled_shift_model(Observable(np.diag([0.0, 1.0, 2.0]))),
                         TOL_OP)[1] == "projective"
    swap = swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z))
    assert checks.verify(swap, TOL_OP)[1] == "non-projective"
    # concrete witness: rho_a = |+><+| while the Lueders prediction is |0><0|
    rho_a = state_reduction(swap, pure(KET_PLUS), 1.0)
    assert operator_deviation(rho_a, pure(KET_PLUS)) < 1e-10
    lueders = swap.measured.projection(1.0)
    witness = max_abs(np.diag(np.diag(rho_a.matrix)) - lueders)
    assert witness == pytest.approx(0.5, abs=1e-10)
    print("ACCEPTANCE PASS 7 projection-postulate classification: "
          f"witness_distance={witness:.3f}")


def test_criterion_8_degenerate_spectrum_coherence():
    model = controlled_shift_model(Observable(np.diag([0.0, 0.0, 1.0])))
    rho = pure(ket(1, 1, 1))
    out = state_reduction(model, rho, 0.0)
    # input off-diagonal 1/3 within the degenerate block, renormalized by 2/3
    dev = abs(out.matrix[0, 1] - 0.5)
    _report("8 degenerate-spectrum coherence", dev, 1e-10)


def test_criterion_9_cli_contract(tmp_path, capsys):
    # round-trip export/parse/verify is idempotent for every zoo model
    outdir = tmp_path / "zoo"
    assert main(["export-zoo", str(outdir)]) == 0
    paths = capsys.readouterr().out.split()
    first_reports = []
    for path in paths:
        assert main(["verify", path, "--json"]) == 0
        first_reports.append(capsys.readouterr().out)
    for path, expected in zip(paths, first_reports):
        assert main(["verify", path, "--json"]) == 0
        assert capsys.readouterr().out == expected
    # exit-code table
    cnot_path = paths[0]
    assert main(["verify", cnot_path]) == 0
    capsys.readouterr()
    assert main(["sweep", "--trials", "0"]) == 1
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["verify", str(bad)]) == 3
    doc = model_to_dict(cnot_qubit_model())
    doc["u"] = [[0.5, 0.0]] * 16
    nonunitary = tmp_path / "nonunitary.json"
    save_json(str(nonunitary), doc)
    assert main(["verify", str(nonunitary)]) == 4
    assert main(["reduce", cnot_path, "--state", "0", "--outcome", "-1"]) == 5
    capsys.readouterr()
    # fixed seed reproduces byte-identical --json sweep reports
    assert main(["sweep", "--seed", "42", "--trials", "6", "--dims", "2..4",
                 "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--seed", "42", "--trials", "6", "--dims", "2..4",
                 "--json"]) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["ok"]
    print("ACCEPTANCE PASS 9 CLI contract: round-trip idempotent, "
          "exit codes 0-5 verified, sweep byte-identical")
