import math
import re
import warnings

import numpy as np
import pytest

from reductionlab import linalg, quantum
from reductionlab.bayes import EntangledScenario
from reductionlab.errors import DimensionMismatchError, ValidationError
from reductionlab.linalg import (
    TOL_EIG,
    TOL_OP,
    dagger,
    herm_expm,
    identity,
    is_hermitian,
    is_unitary,
    max_abs,
    partial_trace,
    permute_factors,
    spectral_decompose,
    tensor,
    within_rounding,
)
from reductionlab.quantum import DensityOperator, Observable

RNG = np.random.default_rng(1234)


def random_complex(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def random_hermitian(d):
    g = random_complex(d)
    return (g + g.conj().T) / 2


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(random_hermitian(3))
        assert not is_hermitian(np.array([[0, 1], [0, 0]]))

    def test_unitary(self):
        h = random_hermitian(4)
        assert is_unitary(herm_expm(h, 0.9))
        assert not is_unitary(2 * identity(3))


class TestTensor:
    def test_identity_case(self):
        assert max_abs(tensor(identity(2), identity(2)) - identity(4)) == 0.0

    def test_block_layout(self):
        got = tensor(np.diag([1.0, -1.0]), identity(2))
        assert max_abs(got - np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_trace_multiplicativity(self):
        a, b = random_complex(2), random_complex(2)
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associativity(self):
        # groupings multiply in different orders, so equal only to roundoff
        a, b, c = random_complex(2), random_complex(3), random_complex(2)
        assert max_abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        a, b = random_complex(2), random_complex(3)
        got = partial_trace(tensor(a, b), (2, 3), [0])
        assert max_abs(got - np.trace(b) * a) < 1e-12

    def test_bell_state(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert max_abs(partial_trace(rho, (2, 2), [0]) - identity(2) / 2) < 1e-12

    def test_adjointness_random(self):
        m = random_complex(4)
        reduced = partial_trace(m, (2, 2), [0])
        for _ in range(20):
            x = random_complex(2)
            lhs = np.trace(tensor(x, identity(2)) @ m)
            rhs = np.trace(x @ reduced)
            assert abs(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(random_complex(4), (2, 3), [0])
        with pytest.raises(DimensionMismatchError):
            partial_trace(random_complex(4), (2, 2), [0, 1])


class TestPermuteFactors:
    def test_two_factor_swap(self):
        a, b = random_complex(2), random_complex(3)
        got = permute_factors(tensor(a, b), (2, 3), (1, 0))
        assert max_abs(got - tensor(b, a)) < 1e-12

    def test_three_factor_cycle(self):
        a, b, c = random_complex(2), random_complex(3), random_complex(2)
        got = permute_factors(tensor(a, b, c), (2, 3, 2), (2, 0, 1))
        assert max_abs(got - tensor(c, a, b)) < 1e-12

    def test_identity_permutation(self):
        m = random_complex(6)
        assert max_abs(permute_factors(m, (2, 3), (0, 1)) - m) == 0.0

    def test_invalid_permutation(self):
        with pytest.raises(DimensionMismatchError):
            permute_factors(random_complex(4), (2, 2), (0, 0))


class TestHermExpm:
    def test_zero_hamiltonian(self):
        assert max_abs(herm_expm(np.zeros((3, 3)), 0.7) - identity(3)) == 0.0

    def test_diagonal_closed_form(self):
        got = herm_expm(np.diag([1.0, -1.0]), np.pi)
        assert max_abs(got + identity(2)) < 1e-12

    def test_group_inverse(self):
        h = random_hermitian(5)
        assert max_abs(herm_expm(h, 0.8) @ herm_expm(h, -0.8) - identity(5)) < 1e-10

    def test_group_composition(self):
        h = random_hermitian(4)
        lhs = herm_expm(h, 0.3) @ herm_expm(h, 1.1)
        assert max_abs(lhs - herm_expm(h, 1.4)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            herm_expm(np.array([[0, 1], [0, 0]]), 1.0)


class TestSpectralDecompose:
    """Each cluster comes as (value, b): b has orthonormal columns, and b b^dag is
    the cluster's spectral projection."""

    @staticmethod
    def projections(h):
        spec = spectral_decompose(h)
        for _, b in spec:
            assert max_abs(dagger(b) @ b - identity(b.shape[1])) < 1e-12
        return [(a, b @ dagger(b)) for a, b in spec]

    def test_diagonal(self):
        spec = self.projections(np.diag([1.0, -1.0]))
        assert [a for a, _ in spec] == [-1.0, 1.0]
        assert max_abs(spec[1][1] - np.diag([1.0, 0.0])) < 1e-12

    def test_fully_degenerate(self):
        spec = self.projections(identity(3))
        assert len(spec) == 1
        assert spec[0][0] == pytest.approx(1.0)
        assert max_abs(spec[0][1] - identity(3)) < 1e-12

    def test_pauli_x(self):
        spec = self.projections(np.array([[0, 1], [1, 0]], dtype=complex))
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert spec[0][0] == pytest.approx(-1.0)
        assert max_abs(spec[0][1] - minus) < 1e-12
        assert max_abs(spec[1][1] - plus) < 1e-12

    def test_resolution_properties(self):
        h = random_hermitian(6)
        spec = self.projections(h)
        total = sum(p for _, p in spec)
        assert max_abs(total - identity(6)) < TOL_OP
        recon = sum(a * p for a, p in spec)
        assert max_abs(recon - h) < TOL_OP
        for i, (_, p) in enumerate(spec):
            assert max_abs(p @ p - p) < TOL_OP
            for j, (_, q) in enumerate(spec):
                if i != j:
                    assert max_abs(p @ q) < TOL_OP

    def test_reads_the_scale_once(self, monkeypatch):
        # twelve distinct eigenvalues, so eleven gaps over TOL_EIG: the spectrum's scale
        # max|w| is read once for all of them, not once per cluster boundary
        w = np.arange(1.0, 13.0)
        reads = []

        def counted(m):
            if np.size(m) == w.size:
                reads.append(np.asarray(m).copy())
            return max_abs(m)

        monkeypatch.setattr(linalg, "max_abs", counted)
        spec = spectral_decompose(np.diag(w))
        assert [a for a, _ in spec] == list(w)
        assert len(reads) == 1 and np.array_equal(reads[0], w)

    def test_clustering_merges_near_degenerate(self):
        spec = spectral_decompose(np.diag([0.0, 1e-9, 1.0]))
        assert [b.shape for _, b in spec] == [(3, 2), (3, 1)]
        assert spec[0][0] == pytest.approx(5e-10)
        assert max_abs(spec[0][1] @ dagger(spec[0][1]) - np.diag([1.0, 1.0, 0.0])) < 1e-12


class TestFloatLimit:
    """Finite entries near the float limit: judged without a numpy warning, an overflowed
    deviation refused, a finite spectrum labelled by finite cluster means."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_anti_hermitian_entries_are_not_hermitian(self):
        assert not is_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        assert is_hermitian(np.array([[1e308, 1e308], [1e308, -1e308]]))

    def test_huge_entries_are_not_unitary(self):
        assert not is_unitary(np.full((2, 2), 1e308))
        assert not is_unitary(np.full((3, 3), -1e308 + 1e308j))

    def test_spectrum_of_opposite_extremes(self):
        spec = spectral_decompose(np.diag([1e308, -1e308]))
        assert [a for a, _ in spec] == [-1e308, 1e308]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("huge", [1e308, np.finfo(float).max])
    def test_cluster_label_is_its_finite_mean(self, n, huge):
        (low, _), (label, block) = spectral_decompose(np.diag([huge] * n + [0.0]))
        assert low == 0.0 and block.shape[1] == n
        assert np.isfinite(label) and label == pytest.approx(huge, rel=1e-15)

    def test_overflowing_spectrum_is_refused(self):
        with pytest.raises(ValidationError, match="non-finite eigenvalue"):
            spectral_decompose(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("h, tau, message", [
        # eigh overflows: the eigenvalues are 0 and 2e308 = inf
        (np.full((2, 2), 1e308), 1.0, r"^hamiltonian has a non-finite eigenvalue: \[.*inf\]"),
        # a finite spectrum whose phase overflows, or a phase that is NaN
        (np.diag([1e300, 0.0]), 1e10, r"^hamiltonian: phase max\|eigenvalue\| \* tau = .*"),
        (np.diag([1.0, 0.0]), math.nan, r"^hamiltonian: phase .* = 1.0 \* nan is not finite"),
        (np.zeros((2, 2)), math.inf, r"^hamiltonian: phase .* = 0.0 \* inf is not finite"),
    ], ids=["overflowing-spectrum", "overflowing-phase", "nan-time", "infinite-time"])
    def test_herm_expm_refuses_an_overflowing_exponent(self, h, tau, message):
        with pytest.raises(ValidationError, match=message):
            herm_expm(h, tau)

    def test_herm_expm_of_a_finite_phase(self):
        u = herm_expm(np.diag([1e300, 0.0]), 1e8)
        assert u[1, 1] == 1.0 and abs(abs(u[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8, 1e150])
    def test_clusters_and_labels_as_unhalved(self, scale):
        """The halved gaps cut where the unhalved ones cut, and labels are plain means."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            gaps = rng.choice([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3], size=7) * TOL_EIG
            v = np.linalg.qr(random_complex(8))[0]
            m = (v * (scale * np.cumsum(np.r_[rng.uniform(-1, 1), gaps]))) @ dagger(v)
            m = (m + dagger(m)) / 2
            w = np.linalg.eigh(m)[0]
            cuts = [0, *(np.flatnonzero(~within_rounding(np.diff(w), TOL_EIG, w)) + 1), 8]
            want = [float(np.mean(w[i:j])) for i, j in zip(cuts, cuts[1:])]
            assert [a for a, _ in spectral_decompose(m)] == want


def _scenario(field: str):
    """A scenario on two qubits with `field` (h1 or h2) set to the matrix it is given."""
    z = Observable(np.diag([1.0, -1.0]))
    return lambda m: EntangledScenario(DensityOperator(identity(4) / 4), z, z, **{field: m})


# every caller of the spectral step, and the name its refusals carry
SPECTRAL_STEP_CALLERS = {
    "observable": (Observable, "observable"),
    "h1": (_scenario("h1"), "h1: hamiltonian"),
    "h2": (_scenario("h2"), "h2: hamiltonian"),
    "herm_expm": (lambda m: herm_expm(m, 1.0), "hamiltonian"),
}


# a finite entry whose modulus, sqrt(2) * 1.5e308, exceeds the float maximum
MODULUS_OVERFLOW = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 0.0]])


class TestModulusOverflow:
    """A scale whose max_abs overflows to inf bounds no deviation by inf: the bound is taken
    at the halved scale, so a non-Hermitian matrix is refused by every judge."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_is_not_hermitian(self):
        assert not is_hermitian(MODULUS_OVERFLOW)

    def test_hermitian_with_an_overflowing_modulus_stays_hermitian(self):
        z = 1.5e308 + 1.5e308j
        assert is_hermitian(np.array([[0.0, z], [np.conj(z), 0.0]]))

    def test_bound_is_finite(self):
        assert not within_rounding(1e300, TOL_OP, MODULUS_OVERFLOW)
        # 2 * TOL_OP * max_abs(m / 2) is about 2.1e299
        assert within_rounding(1e299, TOL_OP, MODULUS_OVERFLOW)

    @pytest.mark.parametrize("build, message", [
        (Observable, "observable must be Hermitian"),
        (_scenario("h1"), "h1: hamiltonian must be Hermitian"),
        (DensityOperator, "density operator must be Hermitian"),
    ], ids=["observable", "h1", "density-operator"])
    def test_is_refused(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(MODULUS_OVERFLOW)


class TestSpectralStep:
    """Every Hermitian input goes through `hermitian_eigh`: judged once, diagonalized once,
    and refused with the input's name when it is not Hermitian or its spectrum overflows."""

    @pytest.mark.parametrize("caller", SPECTRAL_STEP_CALLERS.values(),
                             ids=SPECTRAL_STEP_CALLERS.keys())
    @pytest.mark.parametrize("m, refusal", [
        (np.diag([1.0, -1.0]) + 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]]), "must be Hermitian"),
        (np.full((2, 2), 1e308), "has a non-finite eigenvalue"),
    ], ids=["anti-hermitian", "overflowing"])
    def test_refusals_name_the_input(self, caller, m, refusal):
        build, name = caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(name)} {refusal}"):
                build(m)

    def test_observable_is_judged_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return is_hermitian(m)

        for module in (linalg, quantum):  # wherever the judge is bound
            if getattr(module, "is_hermitian", None) is is_hermitian:
                monkeypatch.setattr(module, "is_hermitian", counted)
        Observable(random_hermitian(4))
        assert calls == [(4, 4)]
