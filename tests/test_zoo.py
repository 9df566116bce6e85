import numpy as np
import pytest

from reductionlab import checks, zoo
from reductionlab.cli import main
from reductionlab.errors import DimensionMismatchError
from reductionlab.linalg import TOL_OP, TOL_PROB, dagger, identity, max_abs, tensor
from reductionlab.measurement import (
    MeasurementModel,
    mixture_identity_check,
    nonselective_state,
    outcome_probability,
    reductions,
    satisfies_projection_postulate,
    state_reduction,
    verify_measures,
)
from reductionlab.quantum import (
    DensityOperator,
    Observable,
    born_distribution,
    ket,
    operator_deviation,
    pure,
    random_density,
)
from reductionlab.zoo import (
    KET_0,
    KET_PLUS,
    PAULI_Z,
    cnot_qubit_model,
    controlled_shift_model,
    haar_unitary,
    random_indirect_model,
    random_observable,
    standard_models,
    swap_replace_model,
)

RNG = np.random.default_rng(606)


class TestCnot:
    def test_verifies(self):
        assert verify_measures(cnot_qubit_model()) <= TOL_OP

    def test_reduction(self):
        model = cnot_qubit_model()
        out = state_reduction(model, pure(KET_PLUS), 1.0)
        assert operator_deviation(out, pure(KET_0)) < 1e-12

    def test_nonselective(self):
        model = cnot_qubit_model()
        out = nonselective_state(model, pure(KET_PLUS))
        assert max_abs(out.matrix - np.eye(2) / 2) < 1e-12

    def test_projective(self):
        assert satisfies_projection_postulate(cnot_qubit_model())


class TestSwapReplace:
    def test_verifies_and_statistics(self):
        model = swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z))
        assert verify_measures(model) <= TOL_OP
        for _ in range(10):
            rho = random_density(RNG, 2)
            dev = outcome_probability(model, rho).max_deviation(
                born_distribution(model.measured, rho))
            assert dev < TOL_PROB

    def test_reduction_is_sigma_out(self):
        model = swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z))
        rho = random_density(RNG, 2)
        dist = outcome_probability(model, rho)
        for a in model.outcomes():
            if dist.probability(a) > TOL_PROB:
                out = state_reduction(model, rho, a)
                assert operator_deviation(out, pure(KET_PLUS)) < 1e-10

    def test_classification(self):
        model = swap_replace_model(pure(KET_PLUS), Observable(PAULI_Z))
        assert not satisfies_projection_postulate(model)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            swap_replace_model(DensityOperator(np.eye(3) / 3), Observable(PAULI_Z))


class TestControlledShift:
    def test_single_outcome_trivial(self):
        model = controlled_shift_model(Observable(2.0 * np.eye(2)))
        assert verify_measures(model) <= TOL_OP
        d = outcome_probability(model, random_density(RNG, 2))
        assert d.probability(2.0) == pytest.approx(1.0)

    def test_qutrit(self):
        model = controlled_shift_model(Observable(np.diag([0.0, 1.0, 2.0])))
        assert verify_measures(model) <= TOL_OP
        rho = pure(ket(1, 1, 1))
        out = state_reduction(model, rho, 1.0)
        assert operator_deviation(out, pure(ket(0, 1, 0))) < 1e-12

    def test_degenerate_preserves_coherence(self):
        model = controlled_shift_model(Observable(np.diag([0.0, 0.0, 1.0])))
        rho = pure(ket(1, 1, 1))
        out = state_reduction(model, rho, 0.0)
        # Lueders: the 2x2 block is the input's, renormalized
        expected = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
        assert max_abs(out.matrix - expected) < 1e-10

    def test_oversized_apparatus(self):
        model = controlled_shift_model(Observable(PAULI_Z), apparatus_dim=5)
        assert verify_measures(model) <= TOL_OP

    def test_undersized_apparatus_rejected(self):
        with pytest.raises(DimensionMismatchError):
            controlled_shift_model(Observable(np.diag([0.0, 1.0, 2.0])), apparatus_dim=2)


class TestRandomIndirect:
    def test_always_verifies(self):
        for seed in range(10):
            model = random_indirect_model(seed, 2 + seed % 3, 4)
            assert verify_measures(model) <= TOL_OP

    def test_mixture_identity(self):
        for seed in range(5):
            model = random_indirect_model(50 + seed, 3, 3)
            rho = random_density(RNG, 3)
            assert mixture_identity_check(model, reductions(model, [rho])) < 1e-9

    def test_seed_determinism(self):
        a = random_indirect_model(1234, 3, 4)
        b = random_indirect_model(1234, 3, 4)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma.matrix, b.sigma.matrix)
        assert np.array_equal(a.probe.matrix, b.probe.matrix)

    def test_apparatus_too_small(self):
        obs = Observable(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            random_indirect_model(0, 3, 2, a_obs=obs)


    @pytest.mark.parametrize("seed, object_dim, apparatus_dim", [
        (0, 2, 2), (7, 3, 4), (42, 3, 4), (5, 6, 7), (99, 4, 4),
    ])
    def test_builds_and_validates_one_model(self, monkeypatch, seed, object_dim,
                                            apparatus_dim):
        built = []

        def counted(*args, **kwargs):
            built.append(MeasurementModel(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(zoo, "MeasurementModel", counted)
        model = random_indirect_model(seed, object_dim, apparatus_dim)
        assert built == [model]
        monkeypatch.undo()
        # the conjugated controlled-shift model, drawn from the generator in the same order
        rng = np.random.default_rng(seed)
        a_obs = random_observable(rng, object_dim)
        base = controlled_shift_model(a_obs, apparatus_dim)
        w = haar_unitary(rng, apparatus_dim)
        one_w = tensor(identity(object_dim), w)
        assert np.array_equal(model.u, one_w @ base.u @ dagger(one_w))
        assert np.array_equal(model.sigma.matrix, w @ base.sigma.matrix @ dagger(w))
        assert np.array_equal(model.probe.matrix, w @ base.probe.matrix @ dagger(w))
        assert np.array_equal(model.measured.matrix, a_obs.matrix)

# the classification `verify` gives each standard model
CLASSIFICATION = {
    "cnot": "projective",
    "swap_replace": "non-projective",
    "controlled_shift": "projective",
    "controlled_shift_degenerate": "projective",
    "random_indirect_42": "projective",
}


class TestStandardModels:
    def test_all_verify(self):
        for name, model in standard_models().items():
            assert verify_measures(model) <= TOL_OP, name

    @pytest.mark.parametrize("name", CLASSIFICATION)
    def test_classification(self, name):
        assert checks.verify(standard_models()[name], TOL_OP)[1] == CLASSIFICATION[name]

    def test_names_are_the_exported_files(self, tmp_path, capsys):
        assert list(standard_models()) == list(CLASSIFICATION)
        assert main(["export-zoo", str(tmp_path)]) == 0
        assert capsys.readouterr().out.split() == [
            str(tmp_path / f"{name}.json") for name in CLASSIFICATION]
