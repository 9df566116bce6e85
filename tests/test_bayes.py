import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductionlab import bayes, checks
from reductionlab.bayes import (
    EntangledScenario,
    JointDistribution,
    bayes_condition,
    bayes_mixture_check,
    independent,
    joint_distribution_formula,
    joint_distribution_oracle,
    posterior_state,
    posteriors,
    prior_state,
)
from reductionlab.errors import DimensionMismatchError, ValidationError, ZeroProbabilityError
from reductionlab.linalg import (
    TOL_OP,
    TOL_PROB,
    dagger,
    herm_expm,
    identity,
    max_abs,
    partial_trace,
    permute_factors,
    tensor,
)
from reductionlab.measurement import MeasurementModel
from reductionlab.quantum import (
    DensityOperator,
    Observable,
    born_distribution,
    operator_deviation,
    pure,
    random_density,
    rule1_distribution,
)
from reductionlab.zoo import (
    KET_0,
    PAULI_X,
    PAULI_Z,
    cnot_qubit_model,
    controlled_shift_model,
    random_indirect_model,
    haar_unitary,
    random_observable,
    swap_replace_model,
)

RNG = np.random.default_rng(31415)


def bell_state():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityOperator(np.outer(phi, phi))


def random_hermitian(d, rng=RNG):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_scenario(rng, d1, d2, a_obs=None, x_outcomes=None, t=None, tau=None):
    return EntangledScenario(
        DensityOperator(random_density(rng, d1 * d2).matrix),
        a_obs=a_obs if a_obs is not None else random_observable(rng, d1),
        x_obs=random_observable(rng, d2, n_outcomes=x_outcomes),
        h1=random_hermitian(d1, rng),
        h2=random_hermitian(d2, rng),
        t=float(rng.uniform(0.1, 2.0)) if t is None else t,
        tau=float(rng.uniform(0.0, 2.0)) if tau is None else tau,
    )


def rare_product_scenario(rng, w):
    """rho1 (x) rho2 with rho1 pure on sqrt(w) b0 + sqrt(1 - w) b1, b_k the eigenvectors of
    A = V diag(0, 1, 2) V^dag (V Haar), and a random rho2 and X on four levels: P(a = 0) = w."""
    v = haar_unitary(rng, 3)
    psi = np.sqrt(w) * v[:, 0] + np.sqrt(1 - w) * v[:, 1]
    rho2, x_obs = random_density(rng, 4), random_observable(rng, 4)
    return EntangledScenario(DensityOperator(tensor(np.outer(psi, psi.conj()), rho2.matrix)),
                             Observable(v @ np.diag([0.0, 1.0, 2.0]) @ dagger(v)), x_obs)


class TestScenario:
    @pytest.mark.parametrize("t, tau", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                        (0.0, np.inf), (-1.0, 0.0)])
    def test_rejects_non_finite_or_negative_times(self, t, tau):
        with pytest.raises(ValidationError):
            EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z),
                              t=t, tau=tau)

    def test_factors_are_the_observables(self):
        x_obs = random_observable(RNG, 3)
        assert EntangledScenario(random_density(RNG, 6), Observable(PAULI_Z), x_obs).dims == (2, 3)
        with pytest.raises(DimensionMismatchError, match="rho12 dim 6"):
            EntangledScenario(random_density(RNG, 6), Observable(PAULI_Z), Observable(PAULI_Z))

    @pytest.mark.parametrize("seed, d1, d2", [(1, 2, 2), (2, 2, 3), (3, 3, 2), (4, 4, 3)])
    def test_evolution_is_herm_expm_bit_for_bit(self, seed, d1, d2):
        # `evolved` conjugates one matrix or a stack by the unitary `herm_expm` builds
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, d1, d2)
        for k, (h, d) in enumerate(((s.h1, d1), (s.h2, d2))):
            stack = np.array([random_hermitian(d, rng) for _ in range(3)])
            for time in (0.0, s.t, -s.t, s.tau, -s.tau):
                u = herm_expm(h, time)
                assert np.array_equal(s.evolved(k, time, stack), u @ stack @ dagger(u))
                assert np.array_equal(s.evolved(k, time, stack[0]), u @ stack[0] @ dagger(u))


class TestJointFormula:
    def test_product_state_independence(self):
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 2)
        s = EntangledScenario(
            DensityOperator(tensor(rho1.matrix, rho2.matrix)),
            Observable(PAULI_Z), Observable(PAULI_X))
        joint = joint_distribution_formula(s)
        da = born_distribution(s.a_obs, rho1)
        dx = born_distribution(s.x_obs, rho2)
        for (a, x), p in joint.entries.items():
            assert p == pytest.approx(da.probability(a) * dx.probability(x), abs=1e-12)

    def test_bell_zz_perfect_correlation(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        joint = joint_distribution_formula(s)
        assert joint.entries[(1.0, 1.0)] == pytest.approx(0.5, abs=1e-12)
        assert joint.entries[(-1.0, -1.0)] == pytest.approx(0.5, abs=1e-12)
        assert joint.entries[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-12)
        assert joint.entries[(-1.0, 1.0)] == pytest.approx(0.0, abs=1e-12)

    def test_bell_zx_uniform(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_X))
        joint = joint_distribution_formula(s)
        for p in joint.entries.values():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_marginals(self):
        s = random_scenario(RNG, 2, 3)
        joint = joint_distribution_formula(s)
        # A-marginal: Born distribution of Heisenberg-evolved A on the subsystem-1 state
        rho1 = DensityOperator(
            np.trace(s.rho12.matrix.reshape(2, 3, 2, 3), axis1=1, axis2=3))
        from reductionlab.quantum import evolve
        da = born_distribution(s.a_obs, evolve(rho1, s.h1, s.t))
        assert joint.marginal_a().max_deviation(da) < TOL_PROB
        # X-marginal: rule1 statistics of the prior state
        dx = rule1_distribution(prior_state(s), s.h2, s.x_obs, s.tau)
        assert joint.marginal_x().max_deviation(dx) < TOL_PROB

    def test_a_marginal_tau_independent(self):
        rng = np.random.default_rng(5)
        s1 = random_scenario(rng, 2, 2)
        s2 = EntangledScenario(s1.rho12, s1.a_obs, s1.x_obs,
                               h1=s1.h1, h2=s1.h2, t=s1.t, tau=s1.tau + 3.7)
        d1 = joint_distribution_formula(s1).marginal_a()
        d2 = joint_distribution_formula(s2).marginal_a()
        assert d1.max_deviation(d2) < TOL_PROB


class TestOracle:
    def test_bell_zz_with_cnot_apparatus(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        dev = joint_distribution_formula(s).max_deviation(
            joint_distribution_oracle(s, cnot_qubit_model()))
        assert dev < 1e-9

    def test_product_state_free(self):
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 2)
        s = EntangledScenario(
            DensityOperator(tensor(rho1.matrix, rho2.matrix)),
            Observable(PAULI_Z), Observable(PAULI_X))
        dev = joint_distribution_formula(s).max_deviation(
            joint_distribution_oracle(s, cnot_qubit_model()))
        assert dev < 1e-9

    @pytest.mark.parametrize("a_matrix, model, message", [
        # an idle interaction: the probe learns nothing of the object
        (PAULI_Z, MeasurementModel(pure(KET_0), identity(4), Observable(PAULI_Z),
                                   Observable(PAULI_Z)), "measuring condition"),
        # the CNOT model measures Z, the scenario's A is X
        (PAULI_X, cnot_qubit_model(), "does not target"),
    ], ids=["fails-measuring-condition", "wrong-target"])
    def test_rejects_unverified_apparatus(self, a_matrix, model, message):
        s = EntangledScenario(bell_state(), Observable(a_matrix), Observable(PAULI_Z))
        with pytest.raises(ValidationError, match=message):
            joint_distribution_oracle(s, model)

    def test_keys_are_the_scenarios_labels(self):
        # the apparatus's copy of A is 1e-12 off the scenario's: the same observable at
        # TOL_OP, with a different label for the outcome 1
        cnot = cnot_qubit_model()
        model = MeasurementModel(cnot.sigma, cnot.u, cnot.probe,
                                 Observable(PAULI_Z + np.diag([1e-12, 0.0])))
        assert model.outcomes() != [-1.0, 1.0]
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        formula, oracle = joint_distribution_formula(s), joint_distribution_oracle(s, model)
        assert list(oracle.entries) == list(formula.entries)
        assert formula.max_deviation(oracle) <= TOL_OP

    @pytest.mark.parametrize("scenario_gap, apparatus_gap", [(1.01e-8, 0.99e-8),
                                                             (0.99e-8, 1.01e-8)],
                             ids=["3-vs-2", "2-vs-3"])
    def test_rejects_a_different_outcome_count(self, scenario_gap, apparatus_gap):
        # diag(0, g, 1) has three outcomes when g > TOL_EIG and two otherwise; the two
        # copies of A differ by only 2e-10
        model = controlled_shift_model(Observable(np.diag([0.0, apparatus_gap, 1.0])))
        s = EntangledScenario(random_density(RNG, 6), Observable(np.diag([0.0, scenario_gap, 1.0])),
                              Observable(PAULI_Z))
        assert operator_deviation(model.measured.matrix, s.a_obs.matrix) <= TOL_OP
        with pytest.raises(ValidationError, match="does not target"):
            joint_distribution_oracle(s, model)

    def test_pair_phase_is_judged_by_the_oracle(self):
        # h1 is evolved for tau only by the oracle's evolution of the pair
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z),
                              h1=np.diag([1e300, 0.0]), tau=1e10)
        joint_distribution_formula(s)
        with pytest.raises(ValidationError, match=r"^h1: phase max\|eigenvalue\| \* tau"):
            joint_distribution_oracle(s, cnot_qubit_model())

    def test_factor_phases_at_the_float_limit_are_answered(self):
        # each phase is 1e308 * 1, legal; so is the evolution of the pair, factor by factor
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z),
                              h1=np.diag([1e308, 0.0]), h2=np.diag([1e308, 0.0]), t=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = joint_distribution_oracle(s, cnot_qubit_model())
        assert joint_distribution_formula(s).max_deviation(oracle) <= TOL_OP

    def test_factor_spectra_near_the_float_limit_are_answered(self):
        # spectra (max/2, -max/4) turned by theta: each factor's spectrum is finite, and the
        # oracle diagonalizes only the factors, whose sum of spectra would round to inf
        def turned(theta):
            c, s = np.cos(theta), np.sin(theta)
            u = np.array([[c, -s], [s, c]])
            return (u * np.array([0.5, -0.25]) * sys.float_info.max) @ u.T

        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z),
                              h1=turned(0.125), h2=turned(0.375))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = joint_distribution_oracle(s, cnot_qubit_model())
        assert joint_distribution_formula(s).max_deviation(oracle) <= TOL_OP

    def test_oracle_diagonalizes_the_hamiltonians_itself(self, monkeypatch):
        # the formula evolves by the scenario's spectra; put those of conj(h1) and conj(h2)
        # in their place, and an oracle that simulates h1 and h2 itself disagrees with it
        rng = np.random.default_rng(29)
        s = EntangledScenario(random_density(rng, 4), Observable(PAULI_Z),
                              random_observable(rng, 2), h1=random_hermitian(2, rng),
                              h2=random_hermitian(2, rng), t=0.7, tau=1.3)
        monkeypatch.setattr(s, "_spectra", [bayes.hermitian_eigh(h.conj(), "conj")
                                            for h in (s.h1, s.h2)])
        report = checks.LOCAL_MEASUREMENT.run(
            TOL_OP, s, checks.evaluate_scenario(s, cnot_qubit_model()))
        assert not report.passed, report

    def test_random_scenarios_all_apparatus_families(self):
        rng = np.random.default_rng(777)
        for i in range(10):
            d2 = int(rng.integers(2, 4))
            # cnot family fixes the measured observable to Pauli-Z on a qubit
            s = random_scenario(rng, 2, d2, a_obs=Observable(PAULI_Z))
            for model in (
                cnot_qubit_model(),
                swap_replace_model(random_density(rng, 2), s.a_obs),
                controlled_shift_model(s.a_obs, apparatus_dim=3),
            ):
                dev = joint_distribution_formula(s).max_deviation(
                    joint_distribution_oracle(s, model))
                assert dev < 1e-9


def literal_oracle(s, model):
    """The oracle at its most literal: U (x) 1 and both free evolutions as full
    matrices, one herm_expm per evolution, and a full projection per (a, x)
    read as Tr(P @ full)."""
    d1, d2 = s.dims
    da = model.apparatus_dim
    full = permute_factors(tensor(s.rho12.matrix, model.sigma.matrix), (d1, d2, da), (0, 2, 1))
    h_free = tensor(s.h1, identity(da), identity(d2)) + tensor(identity(d1), identity(da), s.h2)
    u_t = herm_expm(h_free, s.t)
    full = u_t @ full @ dagger(u_t)
    u_int = tensor(model.u, identity(d2))
    full = u_int @ full @ dagger(u_int)
    u_tau = herm_expm(h_free, s.tau)
    full = u_tau @ full @ dagger(u_tau)
    entries = {}
    for a in model.outcomes():
        eb = model.probe_projection(a)
        for x, ex in s.x_obs.spectrum:
            proj = tensor(identity(d1), eb, ex)
            entries[(a, x)] = float(np.trace(proj @ full).real)
    return JointDistribution(entries)


def _shift_apparatus(rng, d1):
    return controlled_shift_model(random_observable(rng, d1, n_outcomes=d1), apparatus_dim=4)


def _indirect_apparatus(d_app):
    return lambda rng, d1: random_indirect_model(int(rng.integers(1 << 30)), d1, d_app)


def _swap_apparatus(rng, d1):
    """A full-rank sigma: every pointer column and its sqrt(s_l) weight counts."""
    return swap_replace_model(random_density(rng, d1), random_observable(rng, d1))


# (apparatus factory, d1, d2, X outcome count or None for a random one, t, tau)
REFERENCE_CASES = {
    "shift-d1-3-dapp-4": (_shift_apparatus, 3, 2, None, 0.8, 1.1),
    "indirect-2-3-d2-2": (_indirect_apparatus(3), 2, 2, None, 1.3, 0.4),
    "indirect-2-3-d2-4": (_indirect_apparatus(3), 2, 4, None, 0.6, 1.7),
    # d_app == d2: an evolution applied on A instead of S2 fails by value, not by shape
    "indirect-2-3-d2-3": (_indirect_apparatus(3), 2, 3, None, 0.7, 1.2),
    "indirect-3-3-d2-2": (_indirect_apparatus(3), 3, 2, None, 1.9, 0.2),
    "indirect-3-3-d2-4": (_indirect_apparatus(3), 3, 4, None, 0.3, 1.5),
    "degenerate-x": (_indirect_apparatus(3), 2, 4, 2, 1.2, 0.9),
    "t-zero": (_indirect_apparatus(3), 3, 2, None, 0.0, 1.4),
    "tau-zero": (_indirect_apparatus(3), 2, 4, None, 1.6, 0.0),
    # d_app == d1 == d2 == 3, sigma of rank 3
    "swap-full-rank-sigma": (_swap_apparatus, 3, 3, None, 0.9, 1.3),
}


def reference_case(case):
    make_apparatus, d1, d2, x_outcomes, t, tau = case
    rng = np.random.default_rng(d1 * 100 + d2 * 10 + (x_outcomes or 0))
    model = make_apparatus(rng, d1)
    s = random_scenario(rng, d1, d2, model.measured, x_outcomes, t, tau)
    if x_outcomes is not None:
        assert len(s.x_obs.spectrum) < d2
    return s, model


class TestOracleAgainstLiteral:
    @pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_matches_entry_by_entry(self, case):
        s, model = reference_case(case)
        new, ref = joint_distribution_oracle(s, model), literal_oracle(s, model)
        assert sorted(new.entries) == sorted(ref.entries)
        for key, p in ref.entries.items():
            assert abs(new.entries[key] - p) <= 1e-12, key

    @pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_diagonalizes_only_the_pair(self, case, monkeypatch):
        # the pair's two free Hamiltonians, each on its own factor: never one on H1 (x) H2
        s, model = reference_case(case)
        d1, d2 = s.dims
        model.pointer  # the apparatus's one eigh, of sigma, is the model's and kept
        sizes = []
        eigh = bayes.np.linalg.eigh

        def recording_eigh(m, *args, **kwargs):
            sizes.append(np.shape(m)[0])
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(bayes.np.linalg, "eigh", recording_eigh)
        joint_distribution_oracle(s, model)
        assert sizes == [d1, d2], sizes

    @pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_builds_no_composite_product(self, case, monkeypatch):
        s, model = reference_case(case)
        d1, d2 = s.dims
        sides = []

        def recording_tensor(*factors):
            out = tensor(*factors)
            sides.append(out.shape[0])
            return out

        monkeypatch.setattr(bayes, "tensor", recording_tensor)
        joint_distribution_oracle(s, model)
        assert max(sides) == d1 * d2, sides

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d1=st.integers(2, 3), extra=st.integers(0, 1),
           d2=st.integers(2, 4), t=st.floats(0.0, 2.0), tau=st.floats(0.0, 2.0))
    def test_matches_formula(self, seed, d1, extra, d2, t, tau):
        rng = np.random.default_rng(seed)
        model = random_indirect_model(seed, d1, d1 + extra)
        s = random_scenario(rng, d1, d2, model.measured, t=t, tau=tau)
        oracle = joint_distribution_oracle(s, model)
        assert joint_distribution_formula(s).max_deviation(oracle) < TOL_OP


def kronecker_joint(s):
    """The closed form with a Kronecker product per (a, x): Tr[(E^A_t(a) (x) E^X_{t+tau}(x))
    rho12], the formula at its most literal, with X evolved over the summed time t + tau."""
    u1, u2 = herm_expm(s.h1, -s.t), herm_expm(s.h2, -(s.t + s.tau))
    return {(a, x): float(np.trace(tensor(u1 @ ea @ dagger(u1), u2 @ ex @ dagger(u2))
                                   @ s.rho12.matrix).real)
            for a, ea in s.a_obs.spectrum for x, ex in s.x_obs.spectrum}


class TestPairCost:
    """The formula and the posteriors contract rho12 on the pair's factors: no Kronecker product."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 4), d2=st.integers(1, 4),
           degenerate=st.booleans(), frozen=st.booleans())
    def test_formula_matches_the_kronecker_product(self, seed, d1, d2, degenerate, frozen):
        rng = np.random.default_rng(seed)
        a_obs = random_observable(rng, d1, n_outcomes=max(1, d1 - 1) if degenerate else None)
        s = random_scenario(rng, d1, d2, a_obs, x_outcomes=max(1, d2 - 1) if degenerate else None,
                            t=0.0 if frozen else None, tau=0.0 if frozen else None)
        joint, ref = joint_distribution_formula(s).entries, kronecker_joint(s)
        assert list(joint) == list(ref)
        assert max(abs(joint[key] - p) for key, p in ref.items()) <= 1e-14

    def test_formula_and_posteriors_build_no_kronecker_product(self, monkeypatch):
        built = []
        monkeypatch.setattr(bayes, "tensor", lambda *factors: built.append(factors)
                            or tensor(*factors))
        for seed in range(5):
            s = random_scenario(np.random.default_rng(seed), 3, 4)
            joint = joint_distribution_formula(s)
            posteriors(s, joint)
            posterior_state(s, s.a_obs.eigenvalues[0])
        assert built == []

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 4), d2=st.integers(1, 4))
    def test_each_posterior_is_its_one_state_conditioning(self, seed, d1, d2):
        s = random_scenario(np.random.default_rng(seed), d1, d2)
        for a, _, post in posteriors(s, joint_distribution_formula(s)):
            assert np.array_equal(post.matrix, posterior_state(s, a).matrix)


class TestPriorState:
    def test_bell_maximally_mixed(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        assert max_abs(prior_state(s).matrix - identity(2) / 2) < 1e-12

    def test_product_state(self):
        from reductionlab.quantum import evolve
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 3)
        h2 = random_hermitian(3)
        s = EntangledScenario(
            DensityOperator(tensor(rho1.matrix, rho2.matrix)),
            Observable(PAULI_Z), Observable(np.diag([0.0, 1.0, 2.0])),
            h2=h2, t=1.2)
        assert operator_deviation(prior_state(s), evolve(rho2, h2, 1.2)) < 1e-10

    def test_independent_of_a_choice(self):
        rng = np.random.default_rng(11)
        s1 = random_scenario(rng, 2, 3, a_obs=Observable(PAULI_Z))
        s2 = EntangledScenario(s1.rho12, Observable(PAULI_X), s1.x_obs,
                               h1=s1.h1, h2=s1.h2, t=s1.t, tau=s1.tau)
        assert operator_deviation(prior_state(s1), prior_state(s2)) < TOL_OP


class TestPosteriorState:
    def test_bell_conditioning(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        post = posterior_state(s, 1.0)
        assert operator_deviation(post, pure(KET_0)) < 1e-12

    def test_product_state_posterior_equals_prior(self):
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 2)
        s = EntangledScenario(
            DensityOperator(tensor(rho1.matrix, rho2.matrix)),
            Observable(PAULI_Z), Observable(PAULI_X))
        for a in (1.0, -1.0):
            assert operator_deviation(posterior_state(s, a), prior_state(s)) < 1e-10

    def test_reproduces_joint_conditionals(self):
        for i in range(10):
            rng = np.random.default_rng(500 + i)
            s = random_scenario(rng, 2, 3)
            joint = joint_distribution_formula(s)
            marg = joint.marginal_a()
            for a in s.a_obs.eigenvalues:
                if marg.probability(a) <= TOL_PROB:
                    continue
                cond = bayes_condition(joint, a)
                reproduced = rule1_distribution(
                    posterior_state(s, a), s.h2, s.x_obs, s.tau)
                assert cond.max_deviation(reproduced) < TOL_PROB

    def test_zero_probability_outcome(self):
        s = EntangledScenario(
            DensityOperator(tensor(pure(KET_0).matrix, identity(2) / 2)),
            Observable(PAULI_Z), Observable(PAULI_Z))
        with pytest.raises(ZeroProbabilityError):
            posterior_state(s, -1.0)


class TestBayesCondition:
    def test_independent_joint(self):
        j = JointDistribution({(0.0, 0.0): 0.12, (0.0, 1.0): 0.28,
                               (1.0, 0.0): 0.18, (1.0, 1.0): 0.42})
        cond = bayes_condition(j, 0.0)
        assert cond.probability(0.0) == pytest.approx(0.3)
        assert cond.max_deviation(j.marginal_x()) < 1e-12

    def test_independence(self):
        # X's conditionals are read only for outcomes of A with P(a) > TOL_PROB: the row
        # of A = 1 has probability 0 and cannot be conditioned on
        zero_row = {(0.0, 0.0): 0.3, (0.0, 1.0): 0.7, (1.0, 0.0): 0.0, (1.0, 1.0): 0.0}
        assert independent(JointDistribution(zero_row))
        assert independent(JointDistribution({(0.0, 0.0): 0.12, (0.0, 1.0): 0.28,
                                              (1.0, 0.0): 0.18, (1.0, 1.0): 0.42}))
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        assert not independent(joint_distribution_formula(s))

    @pytest.mark.parametrize("w", [1e-6, 1e-8, 1e-9])
    def test_product_state_with_a_rare_outcome(self, w):
        # P(a, x) = P(a) P(x) up to rounding on the joint itself; X's conditional on the outcome
        # of probability w would carry that rounding divided by w
        for seed in range(20):
            assert independent(joint_distribution_formula(
                rare_product_scenario(np.random.default_rng(seed), w))), seed

    def test_perfect_correlation_point_mass(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        cond = bayes_condition(joint_distribution_formula(s), 1.0)
        assert cond.probability(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_joint(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0.05, 1.0, size=(2, 3))
        raw /= raw.sum()
        j = JointDistribution({(float(a), float(x)): raw[a, x]
                               for a in range(2) for x in range(3)})
        marg = j.marginal_a()
        for a in (0.0, 1.0):
            cond = bayes_condition(j, a)
            for x, p in cond.entries.items():
                assert p * marg.probability(a) == pytest.approx(
                    j.entries[(a, x)], abs=1e-12)


class TestBayesMixture:
    def test_bell(self):
        s = EntangledScenario(bell_state(), Observable(PAULI_Z), Observable(PAULI_Z))
        conditioned = posteriors(s, joint_distribution_formula(s))
        assert bayes_mixture_check(prior_state(s), conditioned) < 1e-10

    def test_product(self):
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 2)
        s = EntangledScenario(
            DensityOperator(tensor(rho1.matrix, rho2.matrix)),
            Observable(PAULI_Z), Observable(PAULI_X))
        conditioned = posteriors(s, joint_distribution_formula(s))
        assert bayes_mixture_check(prior_state(s), conditioned) < 1e-12

    def test_random_sweep(self):
        for i in range(30):
            rng = np.random.default_rng(9000 + i)
            s = random_scenario(rng, 2 + i % 2, 2 + (i + 1) % 3)
            conditioned = posteriors(s, joint_distribution_formula(s))
            assert bayes_mixture_check(prior_state(s), conditioned) < 1e-9

    def test_sweep_trial_computes_the_formula_once(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return joint_distribution_formula(s)

        monkeypatch.setattr(bayes, "joint_distribution_formula", counted)
        monkeypatch.setattr(checks, "joint_distribution_formula", counted)
        reports = checks._trial(3, 2, 3)
        assert len(calls) == 1
        assert max(r.max_deviation for r in reports) < TOL_OP

    def test_sweep_trial_conditions_each_outcome_once(self, monkeypatch):
        traces, evolutions = [], []
        monkeypatch.setattr(bayes, "partial_trace", lambda *args: traces.append(args)
                            or partial_trace(*args))
        for module in [m for name, m in sys.modules.items()
                       if name.split(".")[0] == "reductionlab"]:
            if getattr(module, "herm_expm", None) is herm_expm:
                monkeypatch.setattr(module, "herm_expm", lambda *args: evolutions.append(args)
                                    or herm_expm(*args))
        reports = checks._trial(3, 2, 3)
        assert max(r.max_deviation for r in reports) < TOL_OP
        # one trace for the prior and one per outcome of the qubit's A
        assert len(traces) == 1 + 2
        # every free evolution comes from the scenario's own diagonalization of h1 and h2
        assert evolutions == []

    def test_posterior_unitary_evolution(self):
        # posterior evolved by h2 for tau reproduces the delayed conditionals
        rng = np.random.default_rng(13)
        s = random_scenario(rng, 2, 2)
        joint = joint_distribution_formula(s)
        marg = joint.marginal_a()
        from reductionlab.quantum import evolve
        for a in s.a_obs.eigenvalues:
            if marg.probability(a) <= TOL_PROB:
                continue
            evolved = evolve(posterior_state(s, a), s.h2, s.tau)
            cond = bayes_condition(joint, a)
            assert cond.max_deviation(
                born_distribution(s.x_obs, evolved)) < TOL_PROB
