import contextlib
import copy
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reductionlab
from reductionlab import bayes, checks
from reductionlab.bayes import EntangledScenario
from reductionlab.cli import build_parser, main
from reductionlab.modelio import (
    load_json,
    matrix_to_pairs,
    model_from_dict,
    model_to_dict,
    pairs_to_matrix,
    save_json,
    scenario_to_dict,
)
from reductionlab.errors import ParseError, ValidationError
from reductionlab.linalg import herm_expm, identity, partial_trace, tensor
from reductionlab.measurement import MeasurementModel, effects
from reductionlab.quantum import (DensityOperator, Observable, operator_deviation, pure,
                                  random_density)
from reductionlab.zoo import (
    KET_0,
    KET_1,
    PAULI_X,
    PAULI_Z,
    cnot_qubit_model,
    haar_unitary,
    random_indirect_model,
    random_observable,
    standard_models,
    swap_replace_model,
)


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which strict JSON does not have."""
    def refuse(token):
        raise ValueError(f"not a JSON number: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def cnot_path(tmp_path):
    path = tmp_path / "cnot.json"
    save_json(str(path), model_to_dict(cnot_qubit_model()))
    return str(path)


def bell_scenario_doc() -> dict:
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    s = EntangledScenario(
        DensityOperator(np.outer(phi, phi)),
        Observable(PAULI_Z), Observable(PAULI_Z))
    return scenario_to_dict(s, apparatus=cnot_qubit_model())


@pytest.fixture
def bell_scenario_path(tmp_path):
    path = tmp_path / "bell.json"
    save_json(str(path), bell_scenario_doc())
    return str(path)


class TestModelRoundTrip:
    @pytest.mark.parametrize("model", standard_models().values(), ids=list(standard_models()))
    def test_round_trip_identical(self, model):
        doc = model_to_dict(model)
        reparsed = model_from_dict(json.loads(json.dumps(doc)))
        assert operator_deviation(reparsed.u, model.u) == 0.0
        assert operator_deviation(reparsed.sigma, model.sigma) == 0.0
        assert operator_deviation(reparsed.probe.matrix, model.probe.matrix) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), extra=st.integers(0, 2),
           swap=st.booleans())
    def test_json_text_round_trip_is_exact(self, seed, d, extra, swap):
        rng = np.random.default_rng(seed)
        if swap:
            model = swap_replace_model(random_density(rng, d), random_observable(rng, d))
        else:
            model = random_indirect_model(seed, d, d + extra)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        for field in (lambda m: m.u, lambda m: m.sigma.matrix, lambda m: m.measured.matrix,
                      lambda m: m.probe.matrix):
            assert field(back).dtype == field(model).dtype
            assert field(back).tobytes() == field(model).tobytes()  # bit for bit
        assert back.outcomes() == model.outcomes()
        for (a, eff), (b, ref) in zip(effects(back), effects(model), strict=True):
            assert a == b and np.array_equal(eff, ref)

    def test_object_hamiltonian_is_read_and_dropped(self, cnot_path, tmp_path, capsys):
        assert main(["verify", cnot_path, "--json"]) == 0
        without = capsys.readouterr()
        doc = load_json(cnot_path)
        # Hermitian: diag(0.5, -1), off-diagonal -2i and 2i
        doc["object_hamiltonian"] = [[0.5, 0.0], [0.0, -2.0], [0.0, 2.0], [-1.0, 0.0]]
        path = tmp_path / "with_h.json"
        save_json(str(path), doc)
        assert not hasattr(model_from_dict(doc), "object_hamiltonian")
        assert main(["verify", str(path), "--json"]) == 0
        assert capsys.readouterr() == without

    @pytest.mark.parametrize("value, code, err", [
        ([[0.0, 0.0]] * 9, 3, "parse error: object_hamiltonian: expected a 2x2 matrix, got 3x3\n"),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 4,
         "validation error: object_hamiltonian: must be Hermitian\n"),
    ], ids=["wrong-shape", "not-hermitian"])
    def test_object_hamiltonian_is_checked(self, cnot_path, capsys, value, code, err):
        doc = load_json(cnot_path)
        doc["object_hamiltonian"] = value
        save_json(cnot_path, doc)
        assert main(["verify", cnot_path, "--json"]) == code
        assert capsys.readouterr() == ("", err)

    def test_rejects_wrong_version(self):
        doc = model_to_dict(cnot_qubit_model())
        doc["format_version"] = "2"
        with pytest.raises(ParseError):
            model_from_dict(doc)

    def test_rejects_non_unitary_u(self):
        doc = model_to_dict(cnot_qubit_model())
        doc["u"] = [[0.0, 0.0]] * 16
        with pytest.raises(ValidationError, match="unitary"):
            model_from_dict(doc)

    def test_rejects_bad_sigma(self):
        doc = model_to_dict(cnot_qubit_model())
        doc["sigma"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match="sigma"):
            model_from_dict(doc)

    def test_rejects_malformed_matrix(self):
        doc = model_to_dict(cnot_qubit_model())
        doc["sigma"] = [[1.0, 0.0], [0.0]]
        with pytest.raises(ParseError, match="sigma"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("sigma", [[True, False]] + [[0.0, 0.0]] * 3),
        ("sigma", [[float("nan"), 0.0]] + [[0.0, 0.0]] * 3),
        ("u", [[float("inf"), 0.0]] * 16),
        ("sigma", [[10 ** 400, 0]] + [[0.0, 0.0]] * 3),
        ("object_dim", True),
    ])
    def test_rejects_booleans_and_non_finite_numbers(self, field, value):
        doc = model_to_dict(cnot_qubit_model())
        doc[field] = value
        with pytest.raises(ParseError, match=field):
            model_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field, value", [
        ("tau", float("nan")), ("t", float("inf")), ("t", True), ("dim1", True),
    ])
    def test_scenario_rejects_booleans_and_non_finite_numbers(
            self, bell_scenario_path, capsys, field, value):
        doc = load_json(bell_scenario_path)
        doc[field] = value
        save_json(bell_scenario_path, doc)
        assert main(["entangled", bell_scenario_path]) == 3
        assert f"{field}:" in capsys.readouterr().err


def per_entry_matrix(pairs, field):
    """The per-entry parse: each entry checked for two finite JSON numbers, then complex(re, im)."""
    flat = np.empty(len(pairs), dtype=complex)
    for i, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2 and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in p)):
            raise ParseError(f"{field}: entry {i} is not a [re, im] pair")
        flat[i] = complex(p[0], p[1])
    return flat.reshape(math.isqrt(len(pairs)), -1)


JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # -0.0 and +-1.8e308 included
    st.integers(-(2 ** 64), 2 ** 64),
    st.integers(-int(sys.float_info.max), int(sys.float_info.max)),
    st.sampled_from([0.0, -0.0, 0, sys.float_info.max, -sys.float_info.max]))


class TestPairsToMatrix:
    """A matrix field is converted in one call and refused, entry by entry, as before."""

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_bit_identical_to_the_per_entry_build(self, dim, data):
        pairs = data.draw(st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2),
                                   min_size=dim * dim, max_size=dim * dim))
        pairs = json.loads(json.dumps(pairs))
        got = pairs_to_matrix(pairs, "sigma")
        assert got.dtype == complex and got.shape == (dim, dim)
        assert got.tobytes() == per_entry_matrix(pairs, "sigma").tobytes()

    def test_signed_zeros(self):
        got = pairs_to_matrix(json.loads("[[-0.0, 0.0], [0, -0.0], [-0.0, -0.0], [1, 2]]"), "u")
        assert np.signbit(got.real).tolist() == [[True, False], [True, False]]
        assert np.signbit(got.imag).tolist() == [[False, True], [True, False]]

    @pytest.mark.parametrize("entry", [
        "[true, 0.0]", '["1.0", 0.0]', "[1.0, 2.0, 3.0]", "[1.0]", "[NaN, 0.0]",
        "[0.0, Infinity]", "[0.0, -Infinity]", f"[{int(sys.float_info.max) + 1}, 0]",
        f"[0, {-10 ** 400}]", "1.0", "null", '{"re": 1.0, "im": 0.0}', "[[1.0], 0.0]",
    ])
    @pytest.mark.parametrize("index", [0, 2])
    def test_refuses_the_first_bad_entry(self, entry, index):
        # a later bad entry is not the one named
        pairs = json.loads("[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]")
        pairs[index] = json.loads(entry)
        pairs[3] = [False, 0.0]
        message = f"sigma: entry {index} is not a [re, im] pair"
        with pytest.raises(ParseError) as ref:
            per_entry_matrix(pairs, "sigma")
        assert str(ref.value) == message
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            pairs_to_matrix(pairs, "sigma")


class TestExitCodes:
    def test_verify_ok(self, cnot_path, capsys):
        assert main(["verify", cnot_path]) == 0
        out = capsys.readouterr().out
        assert "classification: projective" in out

    def test_missing_file(self, capsys):
        assert main(["verify", "/no/such/file.json"]) == 2

    def test_directory(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2

    def test_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["verify", str(bad)]) == 3

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 3

    def test_deeply_nested(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        assert main(["verify", str(bad)]) == 3
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix,reason", [("", "File exists"), ("/sub", "Not a directory")])
    def test_export_zoo_onto_a_file(self, tmp_path, capsys, suffix, reason):
        target = tmp_path / "file"
        target.touch()
        path = str(target) + suffix
        assert main(["export-zoo", path]) == 2
        assert capsys.readouterr().err == f"error: {reason}: {path}\n"

    def test_file_name_too_long(self, tmp_path, capsys):
        path = str(tmp_path / ("m" * 5000))
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == ("", f"error: File name too long: {path}\n")

    def test_symlink_loop(self, tmp_path, capsys):
        path = str(tmp_path / "loop")
        os.symlink(path, path)
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == ("", f"error: Too many levels of symbolic links: {path}\n")

    def test_export_zoo_name_too_long(self, tmp_path, capsys):
        path = str(tmp_path / ("d" * 300))
        assert main(["export-zoo", path]) == 2
        assert capsys.readouterr() == ("", f"error: File name too long: {path}\n")

    def test_validation_error(self, tmp_path, cnot_path, capsys):
        doc = load_json(cnot_path)
        doc["u"] = [[0.5, 0.0]] * 16
        bad = tmp_path / "nonunitary.json"
        save_json(str(bad), doc)
        assert main(["verify", str(bad)]) == 4
        assert "unitary" in capsys.readouterr().err

    @pytest.mark.parametrize("command, huge, dropped, named", [
        ("entangled", ["x_matrix"], None, "x_matrix"),
        ("entangled", ["a_matrix"], "apparatus", "a_matrix"),
        ("verify", ["a_matrix", "b_matrix"], None, "b_matrix"),
    ])
    def test_infinite_eigenvalue(self, cnot_path, bell_scenario_path, capsys,
                                 command, huge, dropped, named):
        # finite entries whose spectrum overflows: the eigenvalues are 0 and 2e308 = inf
        path = bell_scenario_path if command == "entangled" else cnot_path
        doc = load_json(path)
        doc.pop(dropped, None)
        for field in huge:
            doc[field] = [[1e308, 0.0]] * 4
        save_json(path, doc)
        assert main([command, path, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{named}: observable has a non-finite eigenvalue" in captured.err

    @pytest.mark.parametrize("field", ["h1", "h2"])
    def test_overflowing_hamiltonian_spectrum(self, bell_scenario_path, capsys, field):
        # finite entries whose spectrum overflows: the eigenvalues are 0 and 2e308 = inf
        doc = load_json(bell_scenario_path)
        doc[field] = [[1e308, 0.0]] * 4
        save_json(bell_scenario_path, doc)
        assert main(["entangled", bell_scenario_path, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field}: hamiltonian has a non-finite eigenvalue" in captured.err

    @pytest.mark.parametrize("field, times, named", [
        ("h1", {"t": 1e10}, "h1: phase max|eigenvalue| * t"),
        ("h2", {"tau": 1e10}, "h2: phase max|eigenvalue| * tau"),
        # only the oracle evolves h1 during tau
        ("h1", {"tau": 1e10}, "h1: phase max|eigenvalue| * tau"),
    ])
    def test_overflowing_phase(self, bell_scenario_path, capsys, field, times, named):
        # a finite spectrum, diag(1e300, 0), whose phase overflows at the time given
        doc = load_json(bell_scenario_path)
        doc[field] = [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        doc.update({"t": 0.0, "tau": 0.0, **times})
        save_json(bell_scenario_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from an evolution either
            assert main(["entangled", bell_scenario_path, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert "is not finite" in captured.err

    def test_pair_phase_without_apparatus(self, bell_scenario_path, capsys):
        # the bound on h1 over tau belongs to the oracle's evolution: no apparatus, no oracle
        doc = load_json(bell_scenario_path)
        del doc["apparatus"]
        doc.update({"h1": [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    "t": 0.0, "tau": 1e10})
        save_json(bell_scenario_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["entangled", bell_scenario_path, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["ok"] is True

    def test_zero_probability(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "0", "--outcome", "-1"]) == 5

    def test_usage_error(self, capsys):
        assert main(["sweep", "--trials", "0"]) == 1

    def test_closed_stdout(self):
        # the read end is closed before the process starts, so writing stdout meets EPIPE
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(reductionlab.__file__))}
        argv = ["sweep", "--trials", "3", "--dims", "2,3", "--json"]
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "reductionlab.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr.decode()) == (141, "")


def huge_complement(pairs, n):
    """1e308 (1 - M) of an n x n matrix of [re, im] pairs, by JSON arithmetic."""
    return [[1e308 * ((k % (n + 1) == 0) - re), -1e308 * im]
            for k, (re, im) in enumerate(pairs)]


def run_warnings_as_errors(argv, capsys) -> tuple[int, str, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestFloatLimit:
    """Finite input near the float limit: a right answer or a refusal, never a numpy warning."""

    def test_huge_labels_are_legal(self, tmp_path, capsys):
        doc = model_to_dict(cnot_qubit_model())
        doc["a_matrix"] = doc["b_matrix"] = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]]
        save_json(str(tmp_path / "m.json"), doc)
        rc, out, err = run_warnings_as_errors(["verify", str(tmp_path / "m.json"), "--json"],
                                              capsys)
        assert (rc, err) == (0, "")
        assert strict_json(out)["classification"] == "projective"

    def test_huge_degenerate_cluster_is_legal(self, tmp_path, capsys):
        doc = model_to_dict(standard_models()["controlled_shift_degenerate"])
        doc["a_matrix"] = huge_complement(doc["a_matrix"], 3)
        doc["b_matrix"] = huge_complement(doc["b_matrix"], 2)
        save_json(str(tmp_path / "m.json"), doc)
        rc, out, err = run_warnings_as_errors(["verify", str(tmp_path / "m.json"), "--json"],
                                              capsys)
        assert (rc, err) == (0, "")
        report = strict_json(out)
        assert report["classification"] == "projective"
        assert max(c["max_deviation"] for c in report["checks"]) == 0.0

    @pytest.mark.parametrize("field, pairs, message", [
        ("a_matrix", [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]], "Hermitian"),
        ("u", [[1e308, 0.0]] * 16, "unitary"),
        ("sigma", [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [1e308, 0.0]], "trace is inf"),
        ("sigma", [[0.5, 0.0], [1e308, 1e308], [-1e308, 1e308], [0.5, 0.0]], "Hermitian"),
        ("a_matrix", [[-1.7e308, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "does not match"),
    ])
    def test_illegal_input_is_refused(self, cnot_path, capsys, field, pairs, message):
        doc = load_json(cnot_path)
        doc[field] = pairs
        if field == "a_matrix" and message == "does not match":
            doc["b_matrix"] = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [1.5e308, 0.0]]
        save_json(cnot_path, doc)
        rc, out, err = run_warnings_as_errors(["verify", cnot_path, "--json"], capsys)
        assert (rc, out) == (4, "")
        assert message in err

    def test_apparatus_of_the_opposite_observable(self, bell_scenario_path, capsys):
        # A = diag(1e308, -1e308) against an apparatus built for -A: the deviation 2e308
        # overflows, and is refused as one
        doc = load_json(bell_scenario_path)
        huge = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]]
        doc["a_matrix"] = huge
        doc["apparatus"]["a_matrix"] = doc["apparatus"]["b_matrix"] = huge[::-1]
        save_json(bell_scenario_path, doc)
        rc, out, err = run_warnings_as_errors(["entangled", bell_scenario_path, "--json"],
                                              capsys)
        assert (rc, out) == (4, "")
        assert "does not target the scenario's observable" in err

    def test_overflowing_pair_spectrum(self, bell_scenario_path, capsys):
        # h1's entries span 1 to the float maximum, and its phase at t = tau = 0 is finite;
        # its eigenvalues may still overflow in `eigh`, and h1 is then refused
        doc = load_json(bell_scenario_path)
        doc["h1"] = [[-1.0, 0.0], [1e200, -1e200], [1e200, 1e200],
                     [-1.7976931348623157e308, 0.0]]
        save_json(bell_scenario_path, doc)
        rc, out, err = run_warnings_as_errors(["entangled", bell_scenario_path, "--json"],
                                              capsys)
        assert rc in (0, 4)
        assert "h1: hamiltonian has a non-finite eigenvalue" in err if rc else err == ""


    def test_overflowing_modulus_is_not_hermitian(self, cnot_path, capsys):
        # A = B = diag(1.5e308 + 1.5e308i, 0): the entry's modulus overflows, and with it
        # the scale of the hermiticity bound; the matrix is refused, not accepted
        doc = load_json(cnot_path)
        doc["a_matrix"] = doc["b_matrix"] = [[1.5e308, 1.5e308]] + [[0.0, 0.0]] * 3
        save_json(cnot_path, doc)
        rc, out, err = run_warnings_as_errors(["verify", cnot_path, "--json"], capsys)
        assert (rc, out) == (4, "")
        assert err == "validation error: b_matrix: observable must be Hermitian\n"

class TestReduce:
    def test_cnot_plus(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "+", "--outcome", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["probability"] == pytest.approx(0.5)
        assert doc["matrix"][0] == [1.0, 0.0]
        assert doc["matrix"][3] == [0.0, 0.0]

    def test_swap_prints_sigma_out(self, tmp_path, capsys):
        path = tmp_path / "swap.json"
        save_json(str(path), model_to_dict(standard_models()["swap_replace"]))
        assert main(["reduce", str(path), "--state", "0", "--outcome", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        m = np.array([complex(re, im) for re, im in doc["matrix"]]).reshape(2, 2)
        assert np.allclose(m, np.full((2, 2), 0.5), atol=1e-10)

    @pytest.mark.parametrize("wrap", [lambda pairs: {"matrix": pairs}, lambda pairs: pairs],
                             ids=["matrix-key", "bare-list"])
    def test_state_file(self, cnot_path, tmp_path, capsys, wrap):
        assert main(["reduce", cnot_path, "--state", "0", "--outcome", "1"]) == 0
        named = capsys.readouterr()
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(wrap(matrix_to_pairs(pure(KET_0).matrix))))
        assert main(["reduce", cnot_path, "--state", str(path), "--outcome", "1"]) == 0
        assert capsys.readouterr() == named

    def test_state_file_of_wrong_dimension(self, cnot_path, tmp_path, capsys):
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps({"matrix": matrix_to_pairs(identity(3) / 3)}))
        assert main(["reduce", cnot_path, "--state", str(path), "--outcome", "1"]) == 4
        assert capsys.readouterr() == ("", "validation error: state dim 3 != object dim 2\n")

    def test_named_state_needs_a_qubit(self, tmp_path, capsys):
        path = tmp_path / "shift.json"
        save_json(str(path), model_to_dict(standard_models()["controlled_shift"]))
        assert main(["reduce", str(path), "--state", "+", "--outcome", "0"]) == 4
        assert capsys.readouterr() == (
            "", "validation error: named state '+' requires a qubit object, dim is 3\n")

    def test_mixed_state(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "mixed", "--outcome", "-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["probability"] == pytest.approx(0.5)
        assert doc["matrix"] == matrix_to_pairs(pure(KET_1).matrix)

    def test_outcome_not_in_spectrum(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "+", "--outcome", "3"]) == 4

    @pytest.mark.parametrize("outcome", ["nan", "inf", "-inf"])
    def test_non_finite_outcome(self, cnot_path, capsys, outcome):
        assert main(["reduce", cnot_path, "--state", "+", f"--outcome={outcome}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"validation error: outcome {float(outcome)} "
                                "is not in the spectrum [-1.0, 1.0]\n")

    @pytest.mark.parametrize("outcome, code", [("-1e-3", 4), ("-inf", 4), ("-1", 0)])
    def test_negative_outcome_as_separate_word(self, cnot_path, capsys, outcome, code):
        args = ["reduce", cnot_path, "--state", "+"]
        assert main(args + [f"--outcome={outcome}"]) == code
        joined = capsys.readouterr()
        assert main(args + ["--outcome", outcome]) == code
        assert capsys.readouterr() == joined

    def test_state_minus_i_as_separate_word(self, cnot_path, capsys):
        args = ["reduce", cnot_path, "--outcome", "1"]
        assert main(args + ["--state=-i"]) == 0
        joined = capsys.readouterr()
        assert main(args + ["--state", "-i"]) == 0
        assert capsys.readouterr() == joined

    @pytest.mark.parametrize("word", ["--bogus", "-x"])
    def test_unknown_option_is_refused(self, cnot_path, capsys, word):
        assert main(["reduce", cnot_path, "--state", "+", "--outcome", "1", word]) == 1
        assert capsys.readouterr() == ("", f"usage error: unrecognized arguments: {word}\n")

    def test_option_without_its_value(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "+", "--outcome"]) == 1
        assert capsys.readouterr() == ("", "usage error: argument --outcome: expected one argument\n")

    def test_always_prints_json(self, cnot_path, capsys):
        args = ["reduce", cnot_path, "--state", "+", "--outcome", "1"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--json"]) == 0
        assert capsys.readouterr().out == plain
        strict_json(plain)

    def test_takes_no_tolerance(self, cnot_path, capsys):
        assert main(["reduce", cnot_path, "--state", "+", "--outcome", "1",
                     "--tolerance", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tolerance" in captured.err


class TestEntangled:
    def test_bell_with_apparatus(self, bell_scenario_path, capsys):
        assert main(["entangled", bell_scenario_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula_oracle_deviation"] < 1e-9
        assert doc["bayes_mixture_deviation"] < 1e-9
        joint = {(a, x): p for a, x, p in doc["joint_formula"]}
        assert joint[(1.0, 1.0)] == pytest.approx(0.5)
        assert joint[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-12)
        assert not doc["independent"]

    def test_conditions_each_outcome_once(self, bell_scenario_path, monkeypatch, capsys):
        traces = []
        monkeypatch.setattr(bayes, "partial_trace", lambda *args: traces.append(args)
                            or partial_trace(*args))
        assert main(["entangled", bell_scenario_path, "--json"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)["posteriors"]) == ["-1", "1"]
        # the prior once, printed and in the mixture check alike, and each outcome once
        assert len(traces) == 1 + 2

    def test_nan_deviation_is_written_as_null(self, bell_scenario_path, monkeypatch, capsys):
        monkeypatch.setattr(checks, "BAYES_MIXTURE", checks.Check(
            "bayes_mixture", checks.OPERATOR, lambda scenario, evaluated: float("nan")))
        assert main(["entangled", bell_scenario_path, "--json"]) == 4
        doc = strict_json(capsys.readouterr().out)
        assert doc["bayes_mixture_deviation"] is None
        assert doc["formula_oracle_deviation"] < 1e-9
        assert doc["ok"] is False

    @pytest.mark.parametrize("a_matrix, apparatus, err", [
        # the CNOT model measures Z, the scenario's A is X
        (PAULI_X, cnot_qubit_model(),
         "apparatus model does not target the scenario's observable"),
        # an idle interaction: the probe learns nothing of the object
        (PAULI_Z, MeasurementModel(pure(KET_0), identity(4), Observable(PAULI_Z),
                                   Observable(PAULI_Z)),
         "apparatus model fails the measuring condition (deviation 1.0)"),
        # a qutrit apparatus model on the Bell pair's qubit
        (PAULI_Z, random_indirect_model(3, 3, 4), "shape mismatch (3, 3) vs (2, 2)"),
    ], ids=["wrong-target", "fails-measuring-condition", "wrong-object-dim"])
    def test_refused_apparatus(self, tmp_path, capsys, a_matrix, apparatus, err):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        s = EntangledScenario(DensityOperator(np.outer(phi, phi)),
                              Observable(a_matrix), Observable(PAULI_Z))
        path = tmp_path / "refused.json"
        save_json(str(path), scenario_to_dict(s, apparatus=apparatus))
        assert main(["entangled", str(path), "--json"]) == 4
        assert capsys.readouterr() == ("", f"validation error: {err}\n")

    def test_swapped_dims_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        s = EntangledScenario(random_density(rng, 6), Observable(PAULI_Z),
                              random_observable(rng, 3))
        doc = scenario_to_dict(s)
        doc["dim1"], doc["dim2"] = doc["dim2"], doc["dim1"]
        path = tmp_path / "swapped.json"
        save_json(str(path), doc)
        assert main(["entangled", str(path), "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: a_matrix: dimension 2 != dim1 3\n"

    def test_product_scenario_flagged_independent(self, tmp_path, capsys):
        rho = DensityOperator(np.diag([0.25] * 4))
        s = EntangledScenario(rho, Observable(PAULI_Z), Observable(PAULI_X))
        path = tmp_path / "product.json"
        save_json(str(path), scenario_to_dict(s))
        assert main(["entangled", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["independent"]

    def test_product_scenario_with_a_rare_outcome_flagged_independent(self, tmp_path, capsys):
        # a pure rho1 with weight 1e-8 on A's first eigenvector, times a random rho2: the joint
        # factorizes up to rounding, which X's conditional on P(a) = 1e-8 would divide by 1e-8
        rng, w = np.random.default_rng(0), 1e-8
        v = haar_unitary(rng, 3)
        psi = np.sqrt(w) * v[:, 0] + np.sqrt(1 - w) * v[:, 1]
        rho = DensityOperator(tensor(np.outer(psi, psi.conj()), random_density(rng, 4).matrix))
        s = EntangledScenario(rho, Observable(v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().T),
                              random_observable(rng, 4))
        path = tmp_path / "product_rare.json"
        save_json(str(path), scenario_to_dict(s))
        assert main(["entangled", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["independent"]

    def test_bell_zx_uniform(self, tmp_path, capsys):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        s = EntangledScenario(
            DensityOperator(np.outer(phi, phi)),
            Observable(PAULI_Z), Observable(PAULI_X))
        path = tmp_path / "zx.json"
        save_json(str(path), scenario_to_dict(s))
        assert main(["entangled", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for _, _, p in doc["joint_formula"]:
            assert p == pytest.approx(0.25, abs=1e-12)


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        assert main(["sweep", "--seed", "7", "--trials", "3", "--dims", "2,3"]) == 0

    def test_fixed_seed_byte_identical_json(self, capsys):
        assert main(["sweep", "--seed", "11", "--trials", "3",
                     "--dims", "2..3", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--seed", "11", "--trials", "3",
                     "--dims", "2..3", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_dims(self, capsys):
        assert main(["sweep", "--dims", "1,2"]) == 1

    def test_empty_dims_range(self, capsys):
        assert main(["sweep", "--dims", "3..2"]) == 1
        assert capsys.readouterr().err == "usage error: dims range 3..2 is empty\n"

    def test_negative_seed(self, capsys):
        assert main(["sweep", "--seed", "-1", "--trials", "1", "--dims", "2"]) == 1
        assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"

    def test_text_report_sums_check_times_over_trials(self, monkeypatch, capsys):
        ticks = itertools.count()  # a clock that advances 1 ms per reading
        monkeypatch.setattr(checks.time, "perf_counter", lambda: next(ticks) * 1e-3)
        assert main(["sweep", "--seed", "7", "--trials", "2", "--dims", "2,3"]) == 0
        lines = capsys.readouterr().out.splitlines()[:len(checks.SWEEP_CHECKS)]
        assert [line.rsplit(" (", 1)[1] for line in lines] == ["2.0 ms)"] * len(lines)

    def test_nan_deviation_after_a_finite_one_fails(self, monkeypatch, capsys):
        # max(1e-12, nan) is 1e-12: an aggregator built on it would read NaN as a pass
        n = len(checks.SWEEP_CHECKS)
        monkeypatch.setattr(checks, "_trial", lambda seed, d_obj, d_other: [
            check.report(dev, 1e-9) for check, dev in
            zip(checks.SWEEP_CHECKS, [1e-12 if seed == 0 else float("nan")] + [0.0] * (n - 1))])
        reports = checks.sweep(0, 2, [2, 3], 1e-9)
        assert math.isnan(reports[0].max_deviation)
        assert not reports[0].passed
        assert all(r.passed for r in reports[1:])
        assert main(["sweep", "--seed", "0", "--trials", "2", "--dims", "2,3"]) == 4
        capsys.readouterr()
        assert main(["sweep", "--seed", "0", "--trials", "2", "--dims", "2,3", "--json"]) == 4
        doc = strict_json(capsys.readouterr().out)
        assert doc["checks"][0]["max_deviation"] is None
        assert doc["checks"][0]["pass"] is False
        assert not doc["ok"]


def cnot_doc_with_hamiltonian() -> dict:
    """The exported CNOT model plus a zero `object_hamiltonian`, which format-"1"
    files may carry and which is read and checked but not kept."""
    doc = model_to_dict(cnot_qubit_model())
    doc["object_hamiltonian"] = [[0.0, 0.0]] * 4
    return doc


MODEL_FIELDS = ("sigma", "u", "a_matrix", "b_matrix", "object_hamiltonian")
FUZZ_TARGETS = (
    [("verify", cnot_doc_with_hamiltonian(), (field,)) for field in MODEL_FIELDS]
    + [("entangled", bell_scenario_doc(), (field,))
       for field in ("rho12", "a_matrix", "x_matrix", "h1", "h2")]
    + [("entangled", {**bell_scenario_doc(), "apparatus": cnot_doc_with_hamiltonian()},
        ("apparatus", field)) for field in MODEL_FIELDS])
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e308, -1e308]))


@st.composite
def matrix_field(draw, n_entries):
    """n_entries [re, im] pairs of finite floats, Hermitian when drawn so, or a wrong count."""
    n = draw(st.one_of(st.just(n_entries), st.integers(0, 2 * n_entries)))
    pairs = [[draw(FINITE), draw(FINITE)] for _ in range(n)]
    dim = math.isqrt(n)
    if dim * dim == n and draw(st.booleans()):  # mirror the upper triangle
        for i in range(dim):
            pairs[i * dim + i][1] = 0.0
            for j in range(i):
                re, im = pairs[j * dim + i]
                pairs[i * dim + j] = [re, -im]
    return pairs


class TestParserFuzz:
    """One matrix field of a model or scenario file replaced by finite floats (±1e308
    included) or a wrong count: a documented exit code, no traceback, strict JSON out."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), target=st.sampled_from(FUZZ_TARGETS))
    def test_one_matrix_field(self, data, target):
        command, original, path = target
        doc = copy.deepcopy(original)
        parent = doc if len(path) == 1 else doc[path[0]]
        parent[path[-1]] = data.draw(matrix_field(len(parent[path[-1]])))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            file = f"{tmp}/doc.json"
            save_json(file, doc)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, file, "--json"])
        assert rc in (0, 3, 4, 5), err.getvalue()
        if rc == 0 or out.getvalue():
            strict_json(out.getvalue())


class TestExportZoo:
    def test_export_reparse_reverify(self, tmp_path, capsys):
        outdir = tmp_path / "zoo"
        assert main(["export-zoo", str(outdir)]) == 0
        paths = capsys.readouterr().out.split()
        assert len(paths) == len(standard_models())
        for path in paths:
            assert "object_hamiltonian" not in load_json(path)
            assert main(["verify", path]) == 0
            capsys.readouterr()

    def test_round_trip_reports_identical(self, tmp_path, capsys):
        outdir = tmp_path / "zoo"
        main(["export-zoo", str(outdir)])
        capsys.readouterr()
        for name in standard_models():
            path = str(outdir / f"{name}.json")
            assert main(["verify", path, "--json"]) == 0
            first = json.loads(capsys.readouterr().out)
            # re-export the reparsed model: reports must agree
            reparsed = model_from_dict(load_json(path))
            path2 = str(tmp_path / "again.json")
            save_json(path2, model_to_dict(reparsed))
            assert main(["verify", path2, "--json"]) == 0
            second = json.loads(capsys.readouterr().out)
            assert first["checks"] == second["checks"]
            assert first["classification"] == second["classification"]


class TestToleranceOverride:
    def test_env_var(self, cnot_path, capsys, monkeypatch):
        monkeypatch.setenv("REDUCTIONLAB_TOL", "1e-3")
        assert main(["verify", cnot_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["tolerance"] == 1e-3

    def test_flag_beats_env(self, cnot_path, capsys, monkeypatch):
        monkeypatch.setenv("REDUCTIONLAB_TOL", "1e-3")
        assert main(["verify", cnot_path, "--json", "--tolerance", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["tolerance"] == 1e-6

    def test_env_var_read_on_every_call(self, cnot_path, capsys, monkeypatch):
        tolerances = []
        for value in ("1e-3", None):
            if value is None:
                monkeypatch.delenv("REDUCTIONLAB_TOL")
            else:
                monkeypatch.setenv("REDUCTIONLAB_TOL", value)
            assert main(["verify", cnot_path, "--json"]) == 0
            tolerances.append(json.loads(capsys.readouterr().out)["checks"][0]["tolerance"])
        assert tolerances == [1e-3, 1e-9]

    def test_one_parser_for_every_env_value(self, cnot_path, capsys, monkeypatch):
        build_parser.cache_clear()
        for value in ("1e-3", "1e-6", "1e-9"):
            monkeypatch.setenv("REDUCTIONLAB_TOL", value)
            assert main(["verify", cnot_path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["checks"][0]["tolerance"] == float(value)
        assert build_parser.cache_info().misses == 1

    def test_bad_env(self, cnot_path, capsys, monkeypatch):
        monkeypatch.setenv("REDUCTIONLAB_TOL", "not-a-number")
        assert main(["verify", cnot_path]) == 1

    def test_nan_env(self, cnot_path, capsys, monkeypatch):
        monkeypatch.setenv("REDUCTIONLAB_TOL", "nan")
        assert main(["verify", cnot_path]) == 1

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_flag(self, cnot_path, capsys, value):
        assert main(["verify", cnot_path, "--tolerance", value]) == 1

    def test_flag_leaves_probability_checks_at_tol_prob(self, capsys):
        assert main(["sweep", "--trials", "1", "--tolerance", "1e-3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tolerances = {c["name"]: c["tolerance"] for c in doc["checks"]}
        assert tolerances.pop("statistics") == tolerances.pop("posterior_conditionals") == 1e-10
        assert list(tolerances.values()) == [1e-3] * 7

    @pytest.mark.parametrize("flags, classification, failed", [
        ([], "not-a-measurement-of-claimed-observable", ["measures", "statistics"]),
        (["--tolerance", "1e-3"], "projective", ["statistics"]),
    ])
    def test_flag_judges_the_classification(self, tmp_path, capsys, flags, classification,
                                            failed):
        # CNOT with U replaced by U exp(-i 1e-6 X (x) 1): measuring deviation 1e-6.
        # Its Born statistics are 1e-6 off, so `statistics` fails at TOL_PROB at any flag.
        cnot = cnot_qubit_model()
        near = MeasurementModel(cnot.sigma, cnot.u @ herm_expm(tensor(PAULI_X, identity(2)), 1e-6),
                                cnot.probe, cnot.measured)
        path = tmp_path / "near_cnot.json"
        save_json(str(path), model_to_dict(near))
        assert main(["verify", str(path), "--json"] + flags) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == classification
        assert [c["name"] for c in doc["checks"] if not c["pass"]] == failed
