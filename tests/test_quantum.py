import itertools
import re
import warnings

import numpy as np
import pytest

from reductionlab.errors import (
    DimensionMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from reductionlab.linalg import TOL_OP, dagger, identity, max_abs, partial_trace, tensor
from reductionlab.quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    born_distribution,
    conditional_state,
    density_operators,
    evolve,
    operator_deviation,
    pure,
    random_density,
    rule1_distribution,
    spanning_states,
)
from reductionlab.zoo import KET_0, KET_PLUS, PAULI_X, PAULI_Z

RNG = np.random.default_rng(99)


def random_hermitian(d, rng=RNG):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestTypes:
    def test_observable_spectrum_increasing(self):
        obs = Observable(random_hermitian(5))
        vals = obs.eigenvalues
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_observable_projections_are_built_from_its_bases(self):
        _, v = np.linalg.eigh(random_hermitian(4))
        obs = Observable(v @ np.diag([0.0, 0.0, 1.0, 2.0]) @ v.conj().T)
        assert [b.shape[1] for b in obs.bases] == [2, 1, 1]
        for b, (_, proj) in zip(obs.bases, obs.spectrum):
            assert np.array_equal(proj, b @ dagger(b))

    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            Observable(np.array([[0, 1], [0, 0]]))

    def test_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(identity(2))

    def test_observable_near_the_float_limit(self):
        # eigenvalues 0 and 1e308, the latter twice: its label is the finite cluster mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Observable(np.diag([1e308, 1e308, 0.0])).eigenvalues == [0.0, 1e308]
            with pytest.raises(ValidationError, match="non-finite eigenvalue"):
                Observable(np.full((2, 2), 1e308))

    def test_evolution_near_the_float_limit(self):
        # evolve and rule 1 go through herm_expm: an overflowing spectrum or phase is refused
        rho = DensityOperator(identity(2) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="hamiltonian has a non-finite eigenvalue"):
                evolve(rho, np.full((2, 2), 1e308), 1.0)
            with pytest.raises(ValidationError, match="hamiltonian: phase .* is not finite"):
                rule1_distribution(rho, np.diag([1e300, 0.0]), Observable(PAULI_Z), 1e10)
            assert operator_deviation(evolve(rho, np.diag([1e300, 0.0]), 1e8), rho) < 1e-15

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([1e308, 1e308]), "trace is inf"),
        (np.array([[0.5, 1e308], [-1e308, 0.5]]), "must be Hermitian"),
        (np.array([[0.5, 1e308j], [1e308j, 0.5]]), "must be Hermitian"),
    ])
    def test_density_near_the_float_limit(self, matrix, message):
        """An overflowed trace or hermiticity deviation refuses, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                DensityOperator(matrix)
            with pytest.raises(ValidationError, match=message):
                density_operators([identity(2) / 2, matrix])

    def test_distribution_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution({0.0: 0.3, 1.0: 0.3})

    def test_distribution_mismatch_names_both_outcome_sets(self):
        p = OutcomeDistribution({-1.0: 0.5, 1.0: 0.5})
        q = OutcomeDistribution({-1.0: 0.5, 1.000000000001: 0.5})
        with pytest.raises(DimensionMismatchError,
                           match=r"\[-1\.0, 1\.0\] vs \[-1\.0, 1\.000000000001\]"):
            p.max_deviation(q)

    @pytest.mark.parametrize("entries", [
        {0.0: np.nan, 1.0: np.nan},
        {0.0: 1.0, 1.0: np.nan},
        {0.0: np.inf, 1.0: 0.0},
    ], ids=["all-nan", "one-nan", "inf"])
    def test_distribution_rejects_non_finite(self, entries):
        with pytest.raises(ValidationError):
            OutcomeDistribution(entries)


class TestBornDistribution:
    def test_eigenstate(self):
        d = born_distribution(Observable(PAULI_Z), pure(KET_0))
        assert d.probability(1.0) == pytest.approx(1.0)
        assert d.probability(-1.0) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        d = born_distribution(Observable(PAULI_Z), DensityOperator(identity(2) / 2))
        assert d.probability(1.0) == pytest.approx(0.5)

    def test_pauli_x_on_ket0(self):
        d = born_distribution(Observable(PAULI_X), pure(KET_0))
        assert d.probability(1.0) == pytest.approx(0.5)
        assert d.probability(-1.0) == pytest.approx(0.5)

    def test_normalization_random(self):
        for _ in range(10):
            obs = Observable(random_hermitian(4))
            d = born_distribution(obs, random_density(RNG, 4))
            assert sum(d.entries.values()) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_distribution(Observable(PAULI_Z), DensityOperator(identity(3) / 3))


class TestEvolve:
    def test_zero_hamiltonian(self):
        rho = random_density(RNG, 3)
        assert operator_deviation(evolve(rho, np.zeros((3, 3)), 2.0), rho) < 1e-12

    def test_eigenstate_stationary(self):
        rho = pure(KET_0)
        assert operator_deviation(evolve(rho, PAULI_Z, 1.3), rho) < 1e-12

    def test_qubit_precession(self):
        # |+> under H=Z for pi/2: <X> flips sign
        rho_t = evolve(pure(KET_PLUS), PAULI_Z, np.pi / 2)
        x_exp = float(np.trace(PAULI_X @ rho_t.matrix).real)
        assert x_exp == pytest.approx(-1.0, abs=1e-12)

    def test_preserves_spectrum_and_trace(self):
        rho = random_density(RNG, 4)
        h = random_hermitian(4)
        out = evolve(rho, h, 0.7)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(out.matrix))
        assert max_abs(before - after) < 1e-9


class TestRule1Distribution:
    def test_tau_zero_is_born(self):
        rho = random_density(RNG, 3)
        obs = Observable(random_hermitian(3))
        h = random_hermitian(3)
        d0 = rule1_distribution(rho, h, obs, 0.0)
        assert d0.max_deviation(born_distribution(obs, rho)) < 1e-12

    def test_free_hamiltonian_time_independent(self):
        rho = random_density(RNG, 2)
        obs = Observable(PAULI_X)
        d1 = rule1_distribution(rho, np.zeros((2, 2)), obs, 0.5)
        d2 = rule1_distribution(rho, np.zeros((2, 2)), obs, 5.0)
        assert d1.max_deviation(d2) < 1e-12

    def test_two_path_equality(self):
        rho = random_density(RNG, 3)
        obs = Observable(random_hermitian(3))
        h = random_hermitian(3)
        got = rule1_distribution(rho, h, obs, 0.9)
        # independent path: evolve projections backwards instead of the state
        from reductionlab.linalg import dagger, herm_expm
        ut = herm_expm(h, 0.9)
        expected = {
            a: float(np.trace(dagger(ut) @ p @ ut @ rho.matrix).real)
            for a, p in obs.spectrum
        }
        for a, p in expected.items():
            assert got.probability(a) == pytest.approx(p, abs=1e-12)


class TestReducedState:
    """The reduced state Tr_2[rho] of a two-factor state, by partial_trace."""

    def test_product_state(self):
        rho1, rho2 = random_density(RNG, 2), random_density(RNG, 3)
        joint = DensityOperator(tensor(rho1.matrix, rho2.matrix))
        assert operator_deviation(partial_trace(joint.matrix, (2, 3), [0]), rho1) < 1e-12

    def test_bell_state(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell = DensityOperator(np.outer(phi, phi))
        assert max_abs(partial_trace(bell.matrix, (2, 2), [0]) - identity(2) / 2) < 1e-12

    def test_adjointness(self):
        rho = random_density(RNG, 4)
        red = partial_trace(rho.matrix, (2, 2), [0])
        for _ in range(20):
            x = random_hermitian(2)
            lhs = np.trace(tensor(x, identity(2)) @ rho.matrix)
            rhs = np.trace(x @ red)
            assert abs(lhs - rhs) < 1e-10

    def test_local_evolution_commutes_with_reduction(self):
        # no-interaction case: evolve then reduce == reduce then evolve
        rho = random_density(RNG, 6)
        h1, h2 = random_hermitian(2), random_hermitian(3)
        h12 = tensor(h1, identity(3)) + tensor(identity(2), h2)
        lhs = partial_trace(evolve(rho, h12, 0.6).matrix, (2, 3), [0])
        rhs = evolve(DensityOperator(partial_trace(rho.matrix, (2, 3), [0])), h1, 0.6)
        assert operator_deviation(lhs, rhs) < TOL_OP


def _bad_matrices():
    """One 3 x 3 matrix per way of failing to be a density operator."""
    good = np.diag([0.5, 0.3, 0.2]).astype(complex)
    skew = good.copy()
    skew[0, 1] = 1e-6
    nan = good.copy()
    nan[1, 2] = np.nan
    return {"non_hermitian": skew,
            "negative": np.diag([0.5 + 2e-9, 0.5, -2e-9]).astype(complex),
            "trace": np.diag([0.5 + 2e-10, 0.3, 0.2]).astype(complex),
            "nan": nan}


BAD = _bad_matrices()


class TestStackJudge:
    """`density_operators` refuses a stack as judging its matrices one by one refuses."""

    @pytest.mark.parametrize("first,second", list(itertools.permutations(BAD, 2)))
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_refuses_as_the_first_bad_matrix(self, monkeypatch, first, second, where):
        with pytest.raises(ValidationError) as one:
            DensityOperator(BAD[first])
        goods = [random_density(RNG, 3).matrix for _ in range(2)]
        stack = goods[:where] + [BAD[first]] + goods[where:] + [BAD[second]]
        eigvalsh = np.linalg.eigvalsh

        def finite_only(a):
            assert np.isfinite(a).all()
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
        with pytest.raises(ValidationError, match="^" + re.escape(str(one.value)) + "$"):
            density_operators(np.array(stack))

    def test_empty_and_valid_stacks(self):
        assert density_operators(np.zeros((0, 3, 3), dtype=complex)) == []
        mats = [random_density(RNG, 3).matrix for _ in range(4)]
        states = density_operators(np.array(mats))
        assert all(np.array_equal(s.matrix, m) for s, m in zip(states, mats))

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_conditioning_refuses_in_stack_order(self, bad_first):
        zero = np.zeros((3, 3), dtype=complex)
        nums = [BAD["non_hermitian"], zero] if bad_first else [zero, BAD["non_hermitian"]]
        error = ValidationError if bad_first else ZeroProbabilityError
        with pytest.raises(error):
            conditional_state(np.array(nums), 1.0)


class TestSpanningStates:
    def test_count_and_validity(self):
        states = spanning_states(3)
        assert len(states) == 9

    def test_spans_hermitian_space(self):
        d = 3
        mats = [s.matrix.ravel() for s in spanning_states(d)]
        rank = np.linalg.matrix_rank(np.array(mats))
        assert rank == d * d
