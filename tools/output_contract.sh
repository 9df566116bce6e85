#!/bin/sh
# The CLI's output contract, run against the source tree this script sits in.
#
#   tools/output_contract.sh OUTDIR
#
# Each `row NAME CODE PHRASE COMMAND...` runs one command with warnings as
# errors, saves its stdout, stderr and exit code as OUTDIR/NAME.out, .err and
# .code, and expects exit CODE: with 0 an empty stderr, otherwise a stderr
# containing PHRASE (a plain substring).  Every broken expectation is named on
# stderr and the script then exits 1.  OUTDIR/inputs holds the files the rows
# read.  Two checkouts give the same answers when `diff -r OUT_A OUT_B` prints
# nothing.
set -eu

out=${1:?usage: tools/output_contract.sh OUTDIR}
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
export PYTHONWARNINGS=error
mkdir -p "$out/inputs"
zoo="$out/inputs/zoo"

python3 -m reductionlab.cli export-zoo "$zoo" > /dev/null
python3 - "$out/inputs" <<'EOF'
import json
import sys

import numpy as np

from reductionlab.bayes import EntangledScenario
from reductionlab.linalg import tensor
from reductionlab.modelio import model_to_dict, scenario_to_dict
from reductionlab.quantum import DensityOperator, Observable, pure, random_density
from reductionlab.zoo import (KET_0, PAULI_Z, cnot_qubit_model, haar_unitary,
                              random_indirect_model, random_observable, swap_replace_model)

inputs = sys.argv[1]


def load(name):
    with open(f"{inputs}/zoo/{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write(name, doc):
    with open(f"{inputs}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def scaled(pairs):
    return [[1e8 * re, 1e8 * im] for re, im in pairs]


def hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# Models.  cnot_hamiltonian: CNOT with a nonzero Hermitian object_hamiltonian,
# which format "1" may carry: checked when read, it changes no answer.
# random_indirect_scaled: random_indirect_42 with A and B times 1e8, legal
# operators in large units.  cnot_huge and degenerate_huge: legal models whose
# labels lie near the float limit, the latter with a two-fold eigenvalue 1e308
# whose cluster mean must stay finite.  cnot_huge_spectrum: CNOT with A's
# entries all 1e308, finite, whose eigenvalue 2e308 overflows in `eigh`.
# cnot_not_hermitian: CNOT with A = B = diag(1.5e308 + 1.5e308i, 0), whose
# entry's modulus exceeds the float maximum.  swap_replace_6: a swap-replace
# model at d = 6 with a seeded full-rank sigma, so that `verify` reduces its
# 36 states through Kraus stacks with six pointer columns.
write("cnot_hamiltonian", {**load("cnot"), "object_hamiltonian":
                           [[0.5, 0.0], [0.0, -2.0], [0.0, 2.0], [-1.0, 0.0]]})
model = load("random_indirect_42")
write("random_indirect_scaled", {**model, "a_matrix": scaled(model["a_matrix"]),
                                 "b_matrix": scaled(model["b_matrix"])})
huge = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]]
write("cnot_huge", {**load("cnot"), "a_matrix": huge, "b_matrix": huge})
degenerate = load("controlled_shift_degenerate")
for field, n in (("a_matrix", degenerate["object_dim"]), ("b_matrix", degenerate["apparatus_dim"])):
    degenerate[field] = [[1e308 * ((k % (n + 1) == 0) - re), -1e308 * im]
                         for k, (re, im) in enumerate(degenerate[field])]
write("degenerate_huge", degenerate)
write("cnot_huge_spectrum", {**load("cnot"), "a_matrix": [[1e308, 0.0]] * 4})
not_hermitian = [[1.5e308, 1.5e308]] + [[0.0, 0.0]] * 3
write("cnot_not_hermitian", {**load("cnot"), "a_matrix": not_hermitian,
                             "b_matrix": not_hermitian})
rng = np.random.default_rng(14)
write("swap_replace_6", model_to_dict(
    swap_replace_model(random_density(rng, 6), random_observable(rng, 6))))

# Scenarios.  bell: Bell state, Z on both sides, no free evolution, the CNOT
# model as apparatus; bell_bare is the same without the `apparatus` key.
# bell_eps: the apparatus's copy of A 1e-12 off the scenario's, so that the
# oracle's joint must carry the scenario's labels; bell_eps_scaled: that with
# the scenario's A and the apparatus's A and B times 1e8, so that the 1e-12 is
# relative to A's scale.  Phases are bounded over t or over tau, never over
# t + tau: h1 over t, h2 over t and over tau, and h1 over tau only by the
# oracle.  bare_phase: bell_bare with h1 = diag(1e300, 0) and tau = 1e10, whose
# phase of h1 over tau overflows but is formed only by the oracle, so by no
# computation without an apparatus; tau_phase is bell with that h1 and tau,
# refused.  pair_phase: bell with h1 = h2 = diag(1e308, 0) and t = 1, each
# phase finite, answered.  summed_times: bell with h2 = diag(1e300, 0) and
# t = tau = 1e8, each phase 1e308 and answered, though over t + tau it would
# overflow.  bell_huge_h1: bell with h1's entries all 1e308, finite, whose
# eigenvalue 2e308 overflows in `eigh`.
half = [0.5, 0.0]
zero = [0.0, 0.0]
z = [[1.0, 0.0], zero, zero, [-1.0, 0.0]]
apparatus = load("cnot")
bell = {"format_version": "1", "dim1": 2, "dim2": 2,
        "rho12": [half, zero, zero, half] + [zero] * 8 + [half, zero, zero, half],
        "a_matrix": z, "x_matrix": z, "h1": [zero] * 4, "h2": [zero] * 4, "t": 0.0, "tau": 0.0}
eps = {**apparatus, "a_matrix": [[1.0 + 1e-12, 0.0]] + z[1:]}
eps_scaled = {**eps, "a_matrix": scaled(eps["a_matrix"]), "b_matrix": scaled(eps["b_matrix"])}
for name, extra in (("bell", {"apparatus": apparatus}), ("bell_bare", {}),
                    ("bell_eps", {"apparatus": eps}),
                    ("bare_phase", {"h1": [[1e300, 0.0]] + [zero] * 3, "tau": 1e10}),
                    ("tau_phase", {"apparatus": apparatus, "h1": [[1e300, 0.0]] + [zero] * 3,
                                   "tau": 1e10}),
                    ("pair_phase", {"apparatus": apparatus, "h1": [[1e308, 0.0]] + [zero] * 3,
                                    "h2": [[1e308, 0.0]] + [zero] * 3, "t": 1.0}),
                    ("summed_times", {"apparatus": apparatus, "h2": [[1e300, 0.0]] + [zero] * 3,
                                      "t": 1e8, "tau": 1e8}),
                    ("bell_eps_scaled", {"a_matrix": scaled(z), "apparatus": eps_scaled}),
                    ("bell_huge_h1", {"apparatus": apparatus, "h1": [[1e308, 0.0]] * 4})):
    write(name, {**bell, **extra})


# free and swap_free: free evolution on both sides (nonzero h1, h2, t and tau)
# and a qubit partner; free measures a 3-level object through a 4-level
# apparatus, swap_free uses a swap-replace apparatus whose sigma is a seeded
# full-rank state, so that every pointer column of the oracle counts
def free(name, rng, model, t, tau):
    s = EntangledScenario(random_density(rng, 6), model.measured, random_observable(rng, 2),
                          h1=hermitian(rng, 3), h2=hermitian(rng, 2), t=t, tau=tau)
    write(name, scenario_to_dict(s, apparatus=model))


free("free", np.random.default_rng(11), random_indirect_model(3, 3, 4), 0.7, 1.3)
rng = np.random.default_rng(12)
free("swap_free", rng, swap_replace_model(random_density(rng, 3), random_observable(rng, 3)),
     0.9, 0.6)

# zero_outcome: Z measured on a partner prepared in |0>, so that A = -1 has
# probability 0 and only the outcome 1 is conditioned on: a random X, h1 = 0,
# a random h2 and the CNOT model as apparatus
rng = np.random.default_rng(13)
rho12 = DensityOperator(tensor(pure(KET_0).matrix, random_density(rng, 2).matrix))
x_obs = random_observable(rng, 2)
s = EntangledScenario(rho12, Observable(PAULI_Z), x_obs, h2=hermitian(rng, 2), t=0.4, tau=0.9)
write("zero_outcome", scenario_to_dict(s, apparatus=cnot_qubit_model()))

# product_rare: rho1 (x) rho2 with rho1 pure on sqrt(w) b0 + sqrt(1 - w) b1 at
# w = 1e-8, b_k the eigenvectors of A = V diag(0, 1, 2) V^dag (V Haar), and a
# random rho2 and X on four levels: independent, judged on the joint itself
rng, w = np.random.default_rng(0), 1e-8
v = haar_unitary(rng, 3)
psi = np.sqrt(w) * v[:, 0] + np.sqrt(1 - w) * v[:, 1]
rho12 = DensityOperator(tensor(np.outer(psi, psi.conj()), random_density(rng, 4).matrix))
s = EntangledScenario(rho12, Observable(v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().T),
                      random_observable(rng, 4))
write("product_rare", scenario_to_dict(s))
EOF

failed=0
row() {
    name=$1 want=$2 phrase=$3
    shift 3
    code=0
    python3 -m reductionlab.cli "$@" > "$out/$name.out" 2> "$out/$name.err" || code=$?
    echo "$code" > "$out/$name.code"
    if [ "$code" != "$want" ]; then
        echo "$name: exit $code, expected $want" >&2
        failed=1
    elif [ "$want" = 0 ] && [ -s "$out/$name.err" ]; then
        echo "$name: unexpected stderr: $(cat "$out/$name.err")" >&2
        failed=1
    elif [ "$want" != 0 ] && ! grep -qF -- "$phrase" "$out/$name.err"; then
        echo "$name: stderr lacks \"$phrase\": $(cat "$out/$name.err")" >&2
        failed=1
    fi
}

inp="$out/inputs"
row verify-cnot                            0 "" verify "$zoo/cnot.json" --json
row verify-cnot-tol                        0 "" verify "$zoo/cnot.json" --json --tolerance 1e-3
row verify-swap_replace                    0 "" verify "$zoo/swap_replace.json" --json
row verify-swap_replace-tol                0 "" verify "$zoo/swap_replace.json" --json --tolerance 1e-3
row verify-controlled_shift                0 "" verify "$zoo/controlled_shift.json" --json
row verify-controlled_shift-tol            0 "" verify "$zoo/controlled_shift.json" --json --tolerance 1e-3
row verify-controlled_shift_degenerate     0 "" verify "$zoo/controlled_shift_degenerate.json" --json
row verify-controlled_shift_degenerate-tol 0 "" verify "$zoo/controlled_shift_degenerate.json" --json --tolerance 1e-3
row verify-random_indirect_42              0 "" verify "$zoo/random_indirect_42.json" --json
row verify-random_indirect_42-tol          0 "" verify "$zoo/random_indirect_42.json" --json --tolerance 1e-3
row verify-cnot-hamiltonian                0 "" verify "$inp/cnot_hamiltonian.json" --json
row verify-scaled                          0 "" verify "$inp/random_indirect_scaled.json" --json
row verify-huge                            0 "" verify "$inp/cnot_huge.json" --json
row verify-huge-degenerate                 0 "" verify "$inp/degenerate_huge.json" --json
row verify-swap-6                          0 "" verify "$inp/swap_replace_6.json" --json
row verify-huge-spectrum                   4 "a_matrix: observable has a non-finite eigenvalue" \
    verify "$inp/cnot_huge_spectrum.json" --json
row verify-not-hermitian                   4 "b_matrix: observable must be Hermitian" \
    verify "$inp/cnot_not_hermitian.json" --json
row sweep-42                               0 "" sweep --json --seed 42 --trials 30 --dims 2..4
row sweep-7                                0 "" sweep --json --seed 7 --trials 2 --dims 6,8
row entangled-json                         0 "" entangled "$inp/bell.json" --json
row entangled-text                         0 "" entangled "$inp/bell.json"
row entangled-bare-json                    0 "" entangled "$inp/bell_bare.json" --json
row entangled-bare-text                    0 "" entangled "$inp/bell_bare.json"
row entangled-eps-json                     0 "" entangled "$inp/bell_eps.json" --json
row entangled-eps-scaled-json              0 "" entangled "$inp/bell_eps_scaled.json" --json
row entangled-bare-phase-json              0 "" entangled "$inp/bare_phase.json" --json
row entangled-pair-phase                   0 "" entangled "$inp/pair_phase.json" --json
row entangled-summed-times                 0 "" entangled "$inp/summed_times.json" --json
row entangled-tau-phase                    4 "h1: phase max|eigenvalue| * tau" \
    entangled "$inp/tau_phase.json" --json
row entangled-free-json                    0 "" entangled "$inp/free.json" --json
row entangled-swap-json                    0 "" entangled "$inp/swap_free.json" --json
row entangled-zero-json                    0 "" entangled "$inp/zero_outcome.json" --json
row entangled-zero-text                    0 "" entangled "$inp/zero_outcome.json"
row entangled-product-rare                 0 "" entangled "$inp/product_rare.json" --json
row entangled-huge-h1                      4 "h1: hamiltonian has a non-finite eigenvalue" \
    entangled "$inp/bell_huge_h1.json" --json
row reduce-cnot-plus                       0 "" reduce "$zoo/cnot.json" --state + --outcome 1
row reduce-cnot-minus-i                    0 "" reduce "$zoo/cnot.json" --state -i --outcome 1
row reduce-swap-plus                       0 "" reduce "$zoo/swap_replace.json" --state + --outcome -1
row reduce-degenerate-mixed                0 "" reduce "$zoo/controlled_shift_degenerate.json" --state mixed --outcome 0
row reduce-not-an-outcome                  4 "outcome 0.5 is not in the spectrum" \
    reduce "$zoo/cnot.json" --state + --outcome 0.5
row reduce-zero-probability                5 "outcome -1.0 has probability 0.0" \
    reduce "$zoo/cnot.json" --state 0 --outcome -1
exit "$failed"
