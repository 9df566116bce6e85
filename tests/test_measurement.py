import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductionlab import checks, linalg, measurement
from reductionlab.bayes import (EntangledScenario, JointDistribution, bayes_condition,
                               posterior_state)
from reductionlab.errors import DimensionMismatchError, ValidationError, ZeroProbabilityError
from reductionlab.linalg import (TOL_EIG, TOL_OP, TOL_PROB, dagger, herm_expm, identity,
                                max_abs, partial_trace, tensor)
from reductionlab.measurement import (
    MeasurementModel,
    effects,
    mixture_identity_check,
    nonselective_state,
    outcome_probability,
    reductions,
    satisfies_projection_postulate,
    state_reduction,
    state_reduction_sandwiched,
    verify_measures,
)
from reductionlab.quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    born_distribution,
    operator_deviation,
    outcome_index,
    pure,
    random_density,
    spanning_states,
)
from reductionlab.zoo import (
    KET_0,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    cnot_qubit_model,
    controlled_shift_model,
    haar_unitary,
    random_indirect_model,
    random_observable,
    standard_models,
    swap_replace_model,
)

RNG = np.random.default_rng(2024)

CNOT = cnot_qubit_model()
SWAP_PLUS = swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z))


def identity_model(sigma=None):
    """Non-interacting apparatus: U = 1, outcome carries no information."""
    sigma = sigma if sigma is not None else DensityOperator(identity(2) / 2)
    return MeasurementModel(
        sigma=sigma,
        u=identity(2 * sigma.dim),
        probe=Observable(PAULI_Z),
        measured=Observable(PAULI_Z),
    )


class TestModelValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            MeasurementModel(pure(KET_0), np.zeros((4, 4)),
                             Observable(PAULI_Z), Observable(PAULI_Z))

    def test_rejects_spectrum_mismatch(self):
        with pytest.raises(ValidationError):
            MeasurementModel(pure(KET_0), identity(4),
                             Observable(np.diag([0.0, 2.0])), Observable(PAULI_Z))


class TestEffects:
    def test_identity_interaction_trivial_effects(self):
        model = identity_model()
        for a, eff in effects(model):
            weight = float(np.trace(model.probe_projection(a) @ model.sigma.matrix).real)
            assert max_abs(eff - weight * identity(2)) < 1e-12

    def test_cnot_effects_are_z_projections(self):
        for a, eff in effects(CNOT):
            assert max_abs(eff - CNOT.measured.projection(a)) < 1e-12

    def test_swap_effects_carried_from_probe(self):
        for a, eff in effects(SWAP_PLUS):
            assert max_abs(eff - SWAP_PLUS.probe.projection(a)) < 1e-12

    def test_povm_property_even_for_unverified_models(self):
        model = identity_model()
        total = sum(eff for _, eff in effects(model))
        assert max_abs(total - identity(2)) < TOL_OP
        for _, eff in effects(model):
            assert float(np.min(np.linalg.eigvalsh(eff))) > -TOL_OP


class TestVerifyMeasures:
    def test_cnot_passes(self):
        assert verify_measures(CNOT) < TOL_OP

    def test_wrong_claim_fails(self):
        wrong = MeasurementModel(CNOT.sigma, CNOT.u, CNOT.probe, Observable(PAULI_X))
        dev = verify_measures(wrong)
        assert not dev <= TOL_OP
        assert dev == pytest.approx(0.5, abs=1e-12)

    def test_identity_model_fails(self):
        assert not verify_measures(identity_model()) <= TOL_OP


class TestOutcomeProbability:
    def test_cnot_plus_state(self):
        d = outcome_probability(CNOT, pure(KET_PLUS))
        assert d.probability(1.0) == pytest.approx(0.5)
        assert d.probability(-1.0) == pytest.approx(0.5)

    def test_cnot_eigenstate(self):
        d = outcome_probability(CNOT, pure(KET_0))
        assert d.probability(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("model", [CNOT, SWAP_PLUS], ids=["cnot", "swap"])
    def test_matches_born_for_random_states(self, model):
        for _ in range(50):
            rho = random_density(RNG, model.object_dim)
            dev = outcome_probability(model, rho).max_deviation(
                born_distribution(model.measured, rho))
            assert dev < TOL_PROB


class TestNonselectiveState:
    def test_identity_interaction_preserves_state(self):
        rho = random_density(RNG, 2)
        assert operator_deviation(nonselective_state(identity_model(), rho), rho) < 1e-12

    def test_cnot_decoheres_plus(self):
        out = nonselective_state(CNOT, pure(KET_PLUS))
        assert max_abs(out.matrix - identity(2) / 2) < 1e-12

    def test_swap_replaces_with_sigma(self):
        rho = random_density(RNG, 2)
        out = nonselective_state(SWAP_PLUS, rho)
        assert operator_deviation(out, SWAP_PLUS.sigma) < 1e-12


class TestStateReduction:
    def test_cnot_plus_to_eigenstate(self):
        out = state_reduction(CNOT, pure(KET_PLUS), 1.0)
        assert operator_deviation(out, pure(KET_0)) < 1e-12

    def test_cnot_eigenstate_fixed_point(self):
        out = state_reduction(CNOT, pure(KET_0), 1.0)
        assert operator_deviation(out, pure(KET_0)) < 1e-12

    def test_swap_always_yields_sigma(self):
        for _ in range(5):
            rho = random_density(RNG, 2)
            dist = outcome_probability(SWAP_PLUS, rho)
            for a in SWAP_PLUS.outcomes():
                if dist.probability(a) > TOL_PROB:
                    out = state_reduction(SWAP_PLUS, rho, a)
                    assert operator_deviation(out, SWAP_PLUS.sigma) < 1e-10

    def test_zero_probability_refused(self):
        with pytest.raises(ZeroProbabilityError):
            state_reduction(CNOT, pure(KET_0), -1.0)

    @pytest.mark.parametrize("model_fn", [
        lambda: CNOT,
        lambda: SWAP_PLUS,
        lambda: random_indirect_model(5, 3, 3),
    ], ids=["cnot", "swap", "random"])
    def test_sandwiched_equivalence(self, model_fn):
        model = model_fn()
        for _ in range(50):
            rho = random_density(RNG, model.object_dim)
            dist = outcome_probability(model, rho)
            for a in model.outcomes():
                if dist.probability(a) > TOL_PROB:
                    dev = operator_deviation(
                        state_reduction(model, rho, a),
                        state_reduction_sandwiched(model, rho, a))
                    assert dev < TOL_OP

    def test_affinity_of_unnormalized_map(self):
        lam = 0.37
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 2)
        mix = DensityOperator(lam * rho1.matrix + (1 - lam) * rho2.matrix)
        for a in CNOT.outcomes():
            terms = []
            for rho in (mix, rho1, rho2):
                p = outcome_probability(CNOT, rho).probability(a)
                terms.append(p * state_reduction(CNOT, rho, a).matrix)
            assert max_abs(terms[0] - lam * terms[1] - (1 - lam) * terms[2]) < TOL_OP


AMBIGUOUS = [0.0, 1.5e-8, 1.0]  # a query of 9e-9 lies within TOL_EIG of the first two labels
AMBIGUOUS_JOINT = {(0.0, 0.0): 0.2, (0.0, 1.0): 0.0, (1.5e-8, 0.0): 0.1,
                   (1.5e-8, 1.0): 0.2, (1.0, 0.0): 0.25, (1.0, 1.0): 0.25}


class TestOutcomeLabels:
    """A label names the outcome nearest it, within TOL_EIG (`quantum.outcome_index`)."""

    def test_within_the_gap_or_nothing(self):
        assert outcome_index([0.0, 1.0], 1.0 + 0.5 * TOL_EIG) == 1
        for a in (0.5, 1.0 + 2 * TOL_EIG):
            with pytest.raises(ValidationError, match="is not in the spectrum"):
                outcome_index([0.0, 1.0], a)

    def test_ambiguous_label_names_the_nearest_outcome(self):
        obs = Observable(np.diag(AMBIGUOUS))
        assert obs.eigenvalues == AMBIGUOUS
        assert outcome_index(AMBIGUOUS, 9e-9) == 1
        assert max_abs(obs.projection(9e-9) - np.diag([0.0, 1.0, 0.0])) == 0.0
        dist = OutcomeDistribution({0.0: 0.2, 1.5e-8: 0.3, 1.0: 0.5})
        assert dist.probability(9e-9) == 0.3
        joint = JointDistribution(AMBIGUOUS_JOINT)
        assert bayes_condition(joint, 9e-9).entries == bayes_condition(joint, 1.5e-8).entries
        model = controlled_shift_model(obs)
        rho = pure(np.ones(3))
        assert operator_deviation(state_reduction(model, rho, 9e-9),
                                  pure(np.array([0.0, 1.0, 0.0]))) < 1e-12

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_names_no_outcome(self, a):
        obs = Observable(np.diag(AMBIGUOUS))
        dist = OutcomeDistribution({0.0: 0.2, 1.5e-8: 0.3, 1.0: 0.5})
        joint = JointDistribution(AMBIGUOUS_JOINT)
        model = controlled_shift_model(obs)
        for lookup in (lambda a: outcome_index(AMBIGUOUS, a), obs.projection, dist.probability,
                       lambda a: state_reduction(model, pure(np.ones(3)), a),
                       lambda a: bayes_condition(joint, a), model.probe_projection):
            with pytest.raises(ValidationError, match="is not in the spectrum"):
                lookup(a)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           gaps=st.lists(st.sampled_from([0.5, 0.99, 1.01, 2.0]), min_size=1, max_size=4))
    def test_eigenvalue_chain_near_the_clustering_gap(self, seed, gaps):
        rng = np.random.default_rng(seed)
        values = 1.0 + TOL_EIG * np.cumsum([0.0] + gaps)
        d = len(values)
        v = haar_unitary(rng, d)
        obs = Observable(v @ np.diag(values) @ dagger(v))
        labels = obs.eigenvalues
        assert len(labels) == 1 + sum(g > 1 for g in gaps)
        assert [outcome_index(labels, a) for a in labels] == list(range(len(labels)))
        assert max_abs(sum(proj for _, proj in obs.spectrum) - identity(d)) <= TOL_OP
        model = controlled_shift_model(obs)
        for _ in range(3):
            rho = random_density(rng, d)
            assert mixture_identity_check(model, rho, reductions(model, rho)) <= TOL_OP


def _weighted_pure(rng, bases, w):
    """A pure state with weight w on span(bases[0]) and 1 - w spread evenly over the
    other eigenspaces, and its normalized part in the first: (rho, v0)."""
    vs = []
    for b in bases:
        c = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
        vs.append(b @ (c / np.linalg.norm(c)))
    weights = [w] + [(1 - w) / (len(bases) - 1)] * (len(bases) - 1)
    psi = sum(np.sqrt(p) * v for p, v in zip(weights, vs))
    return DensityOperator(np.outer(psi, psi.conj())), vs[0]


ITEM_2 = "ROADMAP item 2: a state conditioned on a small P(a) is judged at TOL_OP, not relative"
WEIGHT = 1e-9
REFERENCE_BOUND = 1e-9 + 1e-15 / WEIGHT  # the reduce-large reference bound at P(a) = WEIGHT


class TestConditionalState:
    """Every state reduction and Bayes posterior is normalized by `quantum.conditional_state`."""

    @pytest.mark.parametrize("condition", [
        lambda: state_reduction(CNOT, pure(KET_0), -1.0),
        lambda: state_reduction_sandwiched(CNOT, pure(KET_0), -1.0),
        lambda: posterior_state(EntangledScenario(
            DensityOperator(tensor(pure(KET_0).matrix, identity(2) / 2)),
            Observable(PAULI_Z), Observable(PAULI_Z)), -1.0),
    ], ids=["state_reduction", "state_reduction_sandwiched", "posterior_state"])
    def test_zero_probability_has_one_message(self, condition):
        with pytest.raises(ZeroProbabilityError,
                           match=r"^outcome -1\.0 has probability \S+; reduced state undefined$"):
            condition()

    @pytest.mark.xfail(raises=ValidationError, strict=True, reason=ITEM_2)
    @pytest.mark.parametrize("seed", range(3))
    def test_reduction_of_a_small_weight(self, seed):
        model = random_indirect_model(seed, 3, 4)  # Lueders: rho_0 is the state's part in E^A(0)
        rho, v0 = _weighted_pure(np.random.default_rng(100 + seed), model.measured.bases, WEIGHT)
        a, _, rho_a = reductions(model, rho)[0]
        assert a == model.outcomes()[0]
        assert operator_deviation(rho_a, np.outer(v0, v0.conj())) <= REFERENCE_BOUND

    @pytest.mark.xfail(raises=ValidationError, strict=True, reason=ITEM_2)
    @pytest.mark.parametrize("seed", range(3))
    def test_posterior_of_a_small_weight(self, seed):
        rng = np.random.default_rng(seed)
        v = haar_unitary(rng, 3)
        a_obs = Observable(v @ np.diag([0.0, 1.0, 2.0]) @ dagger(v))
        x_obs = random_observable(rng, 4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho12, v0 = _weighted_pure(rng, [np.kron(b, identity(4)) for b in a_obs.bases], WEIGHT)
        s = EntangledScenario(rho12, a_obs, x_obs, h2=(g + dagger(g)) / 2, t=0.0, tau=0.3)
        evaluated = checks.evaluate_scenario(s)
        a, _, post = evaluated.posteriors[0]
        assert a == a_obs.eigenvalues[0]
        ref = partial_trace(np.outer(v0, v0.conj()), (3, 4), [1])  # t = 0: no evolution
        assert operator_deviation(post, ref) <= REFERENCE_BOUND


class TestMixtureIdentity:
    def test_cnot_plus(self):
        rho = pure(KET_PLUS)
        assert mixture_identity_check(CNOT, rho, reductions(CNOT, rho)) < 1e-10

    def test_identity_model_trivial(self):
        rho = random_density(RNG, 2)
        model = identity_model()
        assert mixture_identity_check(model, rho, reductions(model, rho)) < 1e-12

    def test_random_models_and_states(self):
        for i in range(50):
            model = random_indirect_model(100 + i, 2 + i % 2, 3)
            rho = random_density(RNG, model.object_dim)
            assert mixture_identity_check(model, rho, reductions(model, rho)) < 1e-9


class TestReductions:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), extra=st.integers(0, 2),
           swap=st.booleans(), spread=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_weights_states_and_mixture(self, seed, d, extra, swap, spread):
        rng = np.random.default_rng(seed)
        if swap:
            model = swap_replace_model(random_density(rng, d), random_observable(rng, d))
        else:
            model = random_indirect_model(seed, d, d + extra)
        # weight `spread` outside the first eigenspace of A: at 0 the other outcomes are dropped
        full = random_density(rng, d).matrix
        proj = model.measured.spectrum[0][1]
        inside = proj @ full @ proj
        rho = DensityOperator((1 - spread) * inside / np.trace(inside).real + spread * full)
        reduced = reductions(model, rho)
        weights = {a: float(np.trace(eff @ rho.matrix).real) for a, eff in effects(model)}
        kept = {a: p for a, p, _ in reduced}
        dropped = {a: p for a, p in weights.items() if a not in kept}
        assert all(p > TOL_PROB for p in kept.values())
        assert all(p <= TOL_PROB for p in dropped.values())
        assert abs(sum(kept.values()) + sum(dropped.values()) - 1.0) <= TOL_PROB
        for _, _, rho_a in reduced:
            assert max_abs(rho_a.matrix - dagger(rho_a.matrix)) <= TOL_OP
            assert abs(np.trace(rho_a.matrix) - 1.0) <= TOL_OP
        assert mixture_identity_check(model, rho, reduced) <= TOL_OP

    def test_verify_and_sweep_reduce_each_state_once(self, monkeypatch):
        calls = []

        def counted(model, rho, a):
            calls.append((model, rho, a))
            return state_reduction(model, rho, a)

        def check_calls(n_states):
            """One call per (state, outcome with P(a) > TOL_PROB) over n_states states."""
            model = calls[0][0]
            states = {id(rho): rho for _, rho, _ in calls}
            expected = sorted((id(rho), a) for rho in states.values()
                              for a, p in outcome_probability(model, rho).entries.items()
                              if p > TOL_PROB)
            assert len(states) == n_states
            assert sorted((id(rho), a) for _, rho, a in calls) == expected
            calls.clear()

        monkeypatch.setattr(measurement, "state_reduction", counted)
        for model in standard_models().values():
            checks.verify(model, TOL_OP)
            check_calls(model.object_dim ** 2)
        checks._trial(3, 2, 3)
        check_calls(10 + 1)  # ten random states and the affinity check's mixture


DEGENERATE_SHIFT = controlled_shift_model(Observable(np.diag([0.0, 0.0, 1.0])))


def degenerate_not_lueders():
    """DEGENERATE_SHIFT with U replaced by (V (x) 1) U, where V swaps |0> and |1> inside the
    0-eigenspace: the effects are unchanged, the reduction becomes V E rho E V^dag / P."""
    m = DEGENERATE_SHIFT
    v = identity(3)[[1, 0, 2]]
    return MeasurementModel(m.sigma, tensor(v, identity(m.apparatus_dim)) @ m.u, m.probe,
                            m.measured)


def sampled_lueders(model) -> bool:
    """Reference: rho_a = E^A(a) rho E^A(a) / P(a) on the spanning states and 50 random ones."""
    rng = np.random.default_rng(7)
    states = spanning_states(model.object_dim)
    states += [random_density(rng, model.object_dim) for _ in range(50)]
    for rho in states:
        for a in model.outcomes():
            ea = model.measured.projection(a)
            p = float(np.trace(ea @ rho.matrix).real)
            if p > TOL_PROB and operator_deviation(
                    state_reduction(model, rho, a), ea @ rho.matrix @ ea / p) > TOL_OP:
                return False
    return True


CLASSIFIED_MODELS = [(name, lambda m=m: m) for name, m in standard_models().items()] + [
    ("random_indirect_3x4", lambda: random_indirect_model(3, 3, 4)),
    ("random_indirect_4x5", lambda: random_indirect_model(5, 4, 5)),
    ("degenerate_not_lueders", degenerate_not_lueders),
]


class TestProjectionPostulateClassification:
    def test_cnot_is_projective(self):
        assert satisfies_projection_postulate(CNOT)

    def test_swap_plus_is_not(self):
        assert not satisfies_projection_postulate(SWAP_PLUS)

    def test_trivial_one_outcome_model(self):
        # degenerate A proportional to identity: single certain outcome
        model = MeasurementModel(
            sigma=DensityOperator(identity(2) / 2),
            u=identity(4),
            probe=Observable(3.0 * identity(2)),
            measured=Observable(3.0 * identity(2)),
        )
        assert satisfies_projection_postulate(model)

    def test_requires_verified_model(self):
        with pytest.raises(ValidationError):
            satisfies_projection_postulate(identity_model())

    def test_degenerate_exact_measurement_that_is_not_lueders(self):
        model = degenerate_not_lueders()
        for (_, eff), (_, shift_eff) in zip(effects(model), effects(DEGENERATE_SHIFT)):
            assert max_abs(eff - shift_eff) <= TOL_OP
        assert verify_measures(model) <= TOL_OP
        assert satisfies_projection_postulate(DEGENERATE_SHIFT)
        assert not satisfies_projection_postulate(model)

    def test_tolerance_also_judges_the_measuring_condition(self):
        # CNOT with U replaced by U exp(-i 1e-6 X (x) 1)
        near = MeasurementModel(CNOT.sigma, CNOT.u @ herm_expm(tensor(PAULI_X, identity(2)), 1e-6),
                                CNOT.probe, CNOT.measured)
        assert verify_measures(near) == pytest.approx(1e-6, rel=1e-6)
        with pytest.raises(ValidationError):
            satisfies_projection_postulate(near)
        assert satisfies_projection_postulate(near, tol=1e-3)
        assert not satisfies_projection_postulate(SWAP_PLUS, tol=1e-3)

    @pytest.mark.parametrize("model_fn", [fn for _, fn in CLASSIFIED_MODELS],
                             ids=[name for name, _ in CLASSIFIED_MODELS])
    def test_agrees_with_lueders_on_sampled_states(self, model_fn):
        model = model_fn()
        assert satisfies_projection_postulate(model) == sampled_lueders(model)


class TestSpanningSetConsistency:
    def test_statistics_on_spanning_set(self):
        for rho in spanning_states(2):
            dev = outcome_probability(CNOT, rho).max_deviation(
                born_distribution(CNOT.measured, rho))
            assert dev < TOL_PROB


def _pure_pointer_with_rounding_spectrum():
    model = random_indirect_model(7, 4, 5)
    # sigma = W|0><0|W^dag: its null eigenvalues come out at rounding level, of either sign
    assert 0 < np.max(np.abs(np.linalg.eigvalsh(model.sigma.matrix)[:-1])) < 1e-15
    return model


def _swap_full_rank():
    rng = np.random.default_rng(11)
    return swap_replace_model(random_density(rng, 3), random_observable(rng, 3, 2))


def _degenerate_probe_eigenspace():
    """Two outcomes on a five-level pointer in a random basis: E^B(0) has rank four."""
    a_obs = Observable(np.diag([0.0, 0.0, 1.0]).astype(complex))
    model = random_indirect_model(8, 3, 5, a_obs=a_obs)
    assert np.linalg.matrix_rank(model.probe_projection(0.0)) == 4
    return model


KRAUS_MODELS = [(name, lambda m=m: m) for name, m in standard_models().items()] + [
    ("random_indirect_3x4", lambda: random_indirect_model(3, 3, 4)),
    ("random_indirect_5x6", lambda: random_indirect_model(4, 5, 6)),
    ("swap_full_rank_sigma", _swap_full_rank),
    ("pure_pointer_rounding_spectrum", _pure_pointer_with_rounding_spectrum),
    ("degenerate_probe_eigenspace", _degenerate_probe_eigenspace),
]


def forbid_composite(monkeypatch):
    """Make the composite-space helpers raise wherever `measurement` could reach them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("composite-space path called")

    for name in ("tensor", "partial_trace"):
        monkeypatch.setattr(linalg, name, forbidden)
        monkeypatch.setattr(measurement, name, forbidden, raising=False)
    monkeypatch.setattr(MeasurementModel, "composite_after", forbidden)


def literal_sandwich(model, rho):
    """{a: (Tr_A[eb U (rho (x) sigma) U^dag eb], P(a))} with eb = 1 (x) E^B(a) as a full
    matrix on both sides of the composite state: the oracle's formula at its most literal."""
    d, da = model.object_dim, model.apparatus_dim
    composite = model.u @ tensor(rho.matrix, model.sigma.matrix) @ dagger(model.u)
    out = {}
    for a in model.outcomes():
        eb = tensor(identity(d), model.probe_projection(a))
        num = partial_trace(eb @ composite @ eb, (d, da), [0])
        out[a] = (num, float(np.trace(num).real))
    return out


def _oracle_states(model):
    rng = np.random.default_rng(model.object_dim * model.apparatus_dim)
    return spanning_states(model.object_dim) + [
        random_density(rng, model.object_dim) for _ in range(3)]


class TestSandwichedOracle:
    """The contracted oracle against the two-sided formula written out on the composite space."""

    @pytest.mark.parametrize("model_fn", [fn for _, fn in KRAUS_MODELS],
                             ids=[name for name, _ in KRAUS_MODELS])
    def test_matches_literal_sandwich(self, model_fn):
        model = model_fn()
        for rho in _oracle_states(model):
            for a, (num, p) in literal_sandwich(model, rho).items():
                if p > TOL_PROB:
                    got = state_reduction_sandwiched(model, rho, a).matrix
                    assert max_abs(got - num / p) <= 1e-12
                else:
                    with pytest.raises(ZeroProbabilityError):
                        state_reduction_sandwiched(model, rho, a)

    def test_never_forms_the_composite_state(self, monkeypatch):
        models = [random_indirect_model(3, 3, 4), _swap_full_rank(),
                  _degenerate_probe_eigenspace()]
        cases = [(model, rho, literal_sandwich(model, rho))
                 for model in models for rho in _oracle_states(model)]
        forbid_composite(monkeypatch)
        for model, rho, ref in cases:
            for a, (num, p) in ref.items():
                if p > TOL_PROB:
                    got = state_reduction_sandwiched(model, rho, a).matrix
                    assert max_abs(got - num / p) <= 1e-12

    def test_refuses_a_state_of_the_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            state_reduction_sandwiched(CNOT, DensityOperator(identity(3) / 3), 1.0)


class TestKrausAgainstComposite:
    """The instrument's answers against the composite-space formulas, written out here."""

    @pytest.mark.parametrize("model_fn", [fn for _, fn in KRAUS_MODELS],
                             ids=[name for name, _ in KRAUS_MODELS])
    def test_matches_composite_formulas(self, model_fn):
        model = model_fn()
        d, da = model.object_dim, model.apparatus_dim
        dims = (d, da)
        probes = {a: tensor(identity(d), model.probe_projection(a)) for a in model.outcomes()}
        one_sigma = tensor(identity(d), model.sigma.matrix)
        for a, eff in effects(model):
            ref = partial_trace(dagger(model.u) @ probes[a] @ model.u @ one_sigma, dims, [0])
            assert max_abs(eff - ref) <= TOL_OP
        rng = np.random.default_rng(d * da)
        for rho in spanning_states(d) + [random_density(rng, d) for _ in range(3)]:
            comp = model.u @ tensor(rho.matrix, model.sigma.matrix) @ dagger(model.u)
            dist = outcome_probability(model, rho)
            for a, eb in probes.items():
                p_ref = float(np.trace(eb @ comp).real)
                assert abs(dist.probability(a) - p_ref) <= TOL_PROB
                if p_ref > TOL_PROB:
                    ref = partial_trace(eb @ comp, dims, [0]) / p_ref
                    assert operator_deviation(state_reduction(model, rho, a), ref) <= TOL_OP
            ref = partial_trace(comp, dims, [0])
            assert operator_deviation(nonselective_state(model, rho), ref) <= TOL_OP


class TestContractionOrder:
    """`_kraus` contracts the smaller apparatus index first; both orders give the instrument."""

    def test_kraus_models_cover_both_orders(self):
        def ranks(model):
            """(rank E^B(a), rank sigma) for each outcome a."""
            return [(basis.shape[1], model.pointer.shape[1]) for basis in model.probe.bases]

        models = dict(KRAUS_MODELS)
        assert any(k < r for k, r in ranks(models["swap_full_rank_sigma"]()))
        assert any(k >= r for k, r in ranks(models["degenerate_probe_eigenspace"]()))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), extra=st.integers(0, 2),
           swap=st.booleans(), data=st.data())
    def test_matches_composite_formula(self, seed, d, extra, swap, data):
        rng = np.random.default_rng(seed)
        if swap:
            base = swap_replace_model(random_density(rng, d), random_observable(rng, d))
        else:
            base = random_indirect_model(seed, d, d + extra)
        da = base.apparatus_dim
        # sigma replaced by a state of random rank: the model may no longer measure A,
        # but its instrument is still defined
        rank = data.draw(st.integers(1, da), label="rank")
        kets = haar_unitary(rng, da)[:, :rank]
        weights = rng.uniform(0.1, 1.0, rank)
        sigma = DensityOperator((kets * (weights / weights.sum())) @ dagger(kets))
        model = MeasurementModel(sigma, base.u, base.probe, base.measured)
        assert model.pointer.shape[1] == rank
        rho = random_density(rng, d).matrix
        comp = model.u @ tensor(rho, sigma.matrix) @ dagger(model.u)
        ref = partial_trace(comp, (d, da), [0])
        assert max_abs(measurement._apply(model._kraus(), rho) - ref) <= 1e-12
        for a, basis in zip(model.outcomes(), model.probe.bases):
            eb = tensor(identity(d), model.probe_projection(a))
            ref = partial_trace(eb @ comp @ eb, (d, da), [0])
            assert max_abs(measurement._apply(model._kraus(basis), rho) - ref) <= 1e-12


def test_instrument_never_forms_the_composite_state(monkeypatch):
    models = [random_indirect_model(3, 3, 4), _swap_full_rank()]
    forbid_composite(monkeypatch)
    for model in models:
        rho = random_density(RNG, model.object_dim)
        assert len(effects(model)) == len(model.outcomes())
        dist = outcome_probability(model, rho)
        for a in model.outcomes():
            if dist.probability(a) > TOL_PROB:
                state_reduction(model, rho, a)
        nonselective_state(model, rho)


def test_effects_diagonalize_sigma_only(monkeypatch):
    # the probe bases are B's own eigenvectors, so no probe eigenspace is diagonalized again
    models = list(standard_models().values())
    eigh, shapes = np.linalg.eigh, []

    def counted(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for model in models:
        effects(model)
        assert shapes == [model.sigma.matrix.shape]
        shapes.clear()
