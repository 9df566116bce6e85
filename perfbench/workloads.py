"""The three workloads.

Each workload makes its inputs from the seed in `__init__` (benchmark
work, untimed), prepares the program in `setup` (timed as setup_s), runs
one operation in `op` (timed) and checks it in `check` (untimed).  Every
operation of a workload does the same work: model shapes are fixed and
only random bases, states and seeds change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from checks import check_reduction, check_sweep, check_verify
from models import GeneratedModel, shift_model, swap_model, wishart_state


class BenchmarkError(Exception):
    """The program could not be prepared for a workload."""


def write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(lib, argv) -> tuple[int, str]:
    """cli.main in process, with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    if rc != 0:  # keep the error message for the report
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


class ReduceLarge:
    """Instrument work at (8, 9) and (12, 13): every model is reused by every operation.

    One operation draws a random full-rank state for each model and, through
    each model, calls outcome_probability, state_reduction for every outcome
    with P(a) > TOL_PROB, then nonselective_state.

    The set holds COPIES models of each shape, so that one operation lasts
    about as long as one of the other workloads: the tail then covers seconds
    of the run, not a fraction of one, and does not hang on the machine's
    speed in a single slow moment.

    The last operation of every round is the kept failure: one fixed model of
    each shape (independent of the seed), each sent COPIES fixed pure states
    with weight 1e-8 in eigenspace 1, so that it makes the same calls.
    """

    name = "reduce-large"
    round_size = 10
    # (kind, multiplicities of outcomes 0..3, apparatus dim); swap-replace needs
    # the apparatus dim equal to the object dim.
    SHAPES = (("shift", (2, 2, 2, 2), 9), ("shift", (3, 3, 3, 3), 13),
              ("swap", (2, 2, 2, 2), 8), ("swap", (3, 3, 3, 3), 12))
    COPIES = 6
    KEPT_FAILURE_SEED = 1997
    WEAK = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.generated = self._models(np.random.default_rng([seed, 0]), workdir / "seeded",
                                      self.COPIES)
        rng = np.random.default_rng(self.KEPT_FAILURE_SEED)
        fixed = self._models(rng, workdir / "fixed", 1)
        self.weak = [(i, g, self._weak_state(rng, g))
                     for _ in range(self.COPIES) for i, (_, g) in enumerate(fixed)]
        self.fixed_paths = [path for path, _ in fixed]
        self.state_rng = np.random.default_rng([seed, 1])

    @classmethod
    def _models(cls, rng, directory: Path, copies: int) -> list[tuple[str, GeneratedModel]]:
        """Model files written to `directory`, each with its construction."""
        directory.mkdir()
        out = []
        for copy in range(copies):
            for kind, mult, d_app in cls.SHAPES:
                name = f"{kind}-{sum(mult)}x{d_app}-{copy}"
                doc, g = (shift_model(rng, mult, d_app, name) if kind == "shift"
                          else swap_model(rng, mult, name))
                out.append((write_doc(directory / f"{name}.json", doc), g))
        return out

    @classmethod
    def _weak_state(cls, rng, g) -> np.ndarray:
        """Random pure state with weight WEAK on outcome 1 and the rest spread over the others."""
        n = len(g.projections)
        psi = 0
        for k, p in enumerate(g.projections):
            v = p @ (rng.standard_normal(g.object_dim) + 1j * rng.standard_normal(g.object_dim))
            w = cls.WEAK if k == 1 else (1 - cls.WEAK) / (n - 1)
            psi = psi + np.sqrt(w) * v / np.linalg.norm(v)
        return np.outer(psi, psi.conj())

    def setup(self, lib):
        self.lib = lib
        load = lib.modelio
        self.models = [load.model_from_dict(load.load_json(p)) for p, _ in self.generated]
        self.fixed_models = [load.model_from_dict(load.load_json(p)) for p in self.fixed_paths]

    def inputs(self, j):
        """(model, construction, state) for each pass of operation j."""
        if j == self.round_size - 1:
            return [(self.fixed_models[i], g, rho) for i, g, rho in self.weak]
        return [(model, g, None) for model, (_, g) in zip(self.models, self.generated)]

    def op(self, j, spans):
        lib = self.lib
        results = []
        for model, g, rho_m in self.inputs(j):
            if rho_m is None:
                with spans.bench("inputs"):
                    rho_m = wishart_state(self.state_rng, g.object_dim)
            rho = lib.quantum.DensityOperator(rho_m)
            dist = lib.measurement.outcome_probability(model, rho)
            reductions = {}
            for a, p in dist.entries.items():
                if p > lib.linalg.TOL_PROB:
                    try:
                        reductions[a] = lib.measurement.state_reduction(model, rho, a).matrix
                    except lib.errors.ValidationError as exc:
                        reductions[a] = exc
            rho_ns = lib.measurement.nonselective_state(model, rho).matrix
            results.append((rho_m, dict(dist.entries), reductions, rho_ns))
        return results

    def check(self, j, results) -> tuple[list[str], bool]:
        fault = (self.lib.errors.ValidationError,) if j == self.round_size - 1 else ()
        problems, faults = [], 0
        for (_, g, _), (rho, probabilities, reductions, rho_ns) in zip(self.inputs(j), results):
            p, f = check_reduction(g, rho, probabilities, reductions, rho_ns, fault)
            problems += p
            faults += f
        return problems, faults > 0


class VerifyZoo:
    """`verify --json` on the five export-zoo files plus three generated mid-size models.

    One operation verifies every file once, parsing each anew.
    """

    name = "verify-zoo"
    round_size = 1
    ZOO = {"cnot": "projective", "swap_replace": "non-projective",
           "controlled_shift": "projective", "controlled_shift_degenerate": "projective",
           "random_indirect_42": "projective"}
    MID_SHAPES = (((2, 2), 5), ((3, 2), 6), ((3, 3), 7))

    def __init__(self, seed: int, workdir: Path):
        self.zoo_dir = workdir / "zoo"
        rng = np.random.default_rng(seed)
        self.files = [(str(self.zoo_dir / f"{name}.json"), cls) for name, cls in self.ZOO.items()]
        for mult, d_app in self.MID_SHAPES:
            name = f"mid-{sum(mult)}x{d_app}"
            doc, _ = shift_model(rng, mult, d_app, name)
            self.files.append((write_doc(workdir / f"{name}.json", doc), "projective"))

    def setup(self, lib):
        self.lib = lib
        rc, out = run_cli(lib, ["export-zoo", str(self.zoo_dir)])
        written = sorted(Path(line).name for line in out.split())
        if rc != 0 or written != sorted(f"{name}.json" for name in self.ZOO):
            raise BenchmarkError(f"export-zoo exited {rc} and wrote {written}")

    def op(self, j, spans):
        return [run_cli(self.lib, ["verify", path, "--json"]) for path, _ in self.files]

    def check(self, j, results) -> tuple[list[str], bool]:
        problems = []
        for (path, expected), (rc, out) in zip(self.files, results):
            problems += [f"{Path(path).name}: {p}" for p in check_verify(rc, out, expected)]
        return problems, False


def sweep_shape(seed: int, d_obj: int, d_other: int) -> tuple[int, int, int]:
    """(apparatus dim, outcomes of A, outcomes of X) of sweep trial `seed`.

    This replays the order in which the sweep draws from numpy's generator;
    fixed-seed `--json` output is byte-identical by contract, which pins it.
    The shape sets the trial's cost, so only seeds of one shape are sent.
    """
    rng = np.random.default_rng(seed)
    d_app = d_obj + int(rng.integers(0, 2))
    n_a = int(np.random.default_rng(seed).integers(2, d_obj + 1))
    for _ in range(10):  # ten random states on the object, two draws each
        rng.standard_normal((d_obj, d_obj))
        rng.standard_normal((d_obj, d_obj))
    rng.standard_normal((d_obj * d_other,) * 2)  # the pair state
    rng.standard_normal((d_obj * d_other,) * 2)
    return d_app, n_a, int(rng.integers(2, d_other + 1))


class SweepOracle:
    """`sweep --trials 1 --dims 6,8 --json`, the seed advancing on each operation.

    Each trial runs the three-factor oracle on 6 x 7 x 8 = 336 dimensions.
    """

    name = "sweep-oracle"
    round_size = 1
    DIMS = (6, 8)
    SHAPE = (7, 5, 4)

    def __init__(self, seed: int, workdir: Path):
        self._candidates = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))
        self._advance()

    def _advance(self):
        self.trial_seed = next(s for s in self._candidates
                               if sweep_shape(s, *self.DIMS) == self.SHAPE)

    def setup(self, lib):
        self.lib = lib

    def op(self, j, spans):
        return run_cli(self.lib, ["sweep", "--seed", str(self.trial_seed), "--trials", "1",
                                  "--dims", ",".join(map(str, self.DIMS)), "--json"])

    def check(self, j, result) -> tuple[list[str], bool]:
        rc, out = result
        problems = check_sweep(rc, out, self.trial_seed, 1, list(self.DIMS))
        self._advance()  # find the next seed here, outside the timed operation
        return problems, False


WORKLOADS = {w.name: w for w in (ReduceLarge, VerifyZoo, SweepOracle)}
