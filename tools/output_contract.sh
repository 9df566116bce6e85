#!/bin/sh
# Record the CLI's output contract: stdout, stderr and exit code of a fixed
# set of commands, run against the source tree this script sits in.
#
#   tools/output_contract.sh OUTDIR
#
# OUTDIR/inputs holds the exported zoo, the CNOT model with an object
# Hamiltonian, the seeded random model with A and B times 1e8, two models
# with labels near the float limit (CNOT with A = B = diag(1e308, -1e308),
# the degenerate controlled shift with A and B -> 1e308 (1 - A), 1e308 (1 - B)),
# CNOT with an A whose spectrum overflows in `eigh`, a swap-replace
# model at d = 6 with a full-rank sigma, the Bell/CNOT scenario, the Bell
# scenario without an apparatus, a variant of each (an apparatus whose A is
# 1e-12 off the scenario's, also with the scenario's A and the apparatus's A
# and B times 1e8; a pair phase that overflows with no apparatus to form
# it), the Bell/CNOT scenario with an h1 whose spectrum overflows, two
# scenarios with free
# evolution (one with a full-rank apparatus state sigma), a scenario in
# which one outcome of A has probability 0, and OUTDIR/NAME.out, NAME.err
# and NAME.code each command's results.  Two checkouts give the same answers
# when `diff -r OUT_A OUT_B` prints nothing.
set -eu

out=${1:?usage: tools/output_contract.sh OUTDIR}
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
mkdir -p "$out/inputs"
zoo="$out/inputs/zoo"

python3 -m reductionlab.cli export-zoo "$zoo" > /dev/null
# The CNOT model with a nonzero Hermitian object_hamiltonian, which model files
# of format "1" may carry: it is checked when read and changes no answer.
# random_indirect_scaled.json is random_indirect_42.json with A and B times 1e8,
# legal operators in large units; cnot_huge.json and degenerate_huge.json are
# legal models whose labels lie near the float limit, the latter with a
# two-fold eigenvalue 1e308 whose cluster mean must stay finite;
# cnot_huge_spectrum.json is CNOT with A's entries all 1e308, finite, whose
# eigenvalue 2e308 overflows in `eigh` and is refused
python3 - "$zoo" "$out/inputs" <<'EOF'
import json
import sys


def load(name):
    with open(f"{sys.argv[1]}/{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


cnot = load("cnot")
cnot["object_hamiltonian"] = [[0.5, 0.0], [0.0, -2.0], [0.0, 2.0], [-1.0, 0.0]]
model = load("random_indirect_42")
for field in ("a_matrix", "b_matrix"):
    model[field] = [[1e8 * re, 1e8 * im] for re, im in model[field]]
huge = load("cnot")
huge["a_matrix"] = huge["b_matrix"] = [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]]
degenerate = load("controlled_shift_degenerate")
for field, n in (("a_matrix", degenerate["object_dim"]), ("b_matrix", degenerate["apparatus_dim"])):
    degenerate[field] = [[1e308 * ((k % (n + 1) == 0) - re), -1e308 * im]
                         for k, (re, im) in enumerate(degenerate[field])]
huge_spectrum = {**load("cnot"), "a_matrix": [[1e308, 0.0]] * 4}
for name, doc in (("cnot_hamiltonian", cnot), ("random_indirect_scaled", model),
                  ("cnot_huge", huge), ("degenerate_huge", degenerate),
                  ("cnot_huge_spectrum", huge_spectrum)):
    with open(f"{sys.argv[2]}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
EOF

# Bell state, Z on both sides, no free evolution, the CNOT model as apparatus;
# bell_bare.json is the same scenario without the `apparatus` key.
# bell_eps.json is bell.json with the apparatus's copy of A 1e-12 off the
# scenario's, so that the oracle's joint must carry the scenario's labels;
# bell_eps_scaled.json is bell_eps.json with the scenario's A and the
# apparatus's A and B times 1e8, so that the 1e-12 is relative to A's scale;
# bare_phase.json is bell_bare.json with h1 = diag(1e300, 0) and tau = 1e10, a
# pair phase that overflows but that no computation forms without an apparatus;
# bell_huge_h1.json is bell.json with h1's entries all 1e308, finite, whose
# eigenvalue 2e308 overflows in `eigh` and is refused
python3 - "$zoo/cnot.json" "$out/inputs" <<'EOF'
import json
import sys

half = [0.5, 0.0]
zero = [0.0, 0.0]
z = [[1.0, 0.0], zero, zero, [-1.0, 0.0]]
with open(sys.argv[1], encoding="utf-8") as fh:
    apparatus = json.load(fh)
doc = {"format_version": "1", "dim1": 2, "dim2": 2,
       "rho12": [half, zero, zero, half] + [zero] * 8 + [half, zero, zero, half],
       "a_matrix": z, "x_matrix": z, "h1": [zero] * 4, "h2": [zero] * 4,
       "t": 0.0, "tau": 0.0}
eps = {**apparatus, "a_matrix": [[1.0 + 1e-12, 0.0]] + z[1:]}


def scaled(pairs):
    return [[1e8 * re, 1e8 * im] for re, im in pairs]


eps_scaled = {**eps, "a_matrix": scaled(eps["a_matrix"]), "b_matrix": scaled(eps["b_matrix"])}
h1 = [[1e300, 0.0]] + [zero] * 3
for name, extra in (("bell", {"apparatus": apparatus}), ("bell_bare", {}),
                    ("bell_eps", {"apparatus": eps}), ("bare_phase", {"h1": h1, "tau": 1e10}),
                    ("bell_eps_scaled", {"a_matrix": scaled(z), "apparatus": eps_scaled}),
                    ("bell_huge_h1", {"apparatus": apparatus, "h1": [[1e308, 0.0]] * 4})):
    with open(f"{sys.argv[2]}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump({**doc, **extra}, fh, indent=1)
        fh.write("\n")
EOF

# Two scenarios with free evolution on both sides (nonzero h1, h2, t and tau)
# and a qubit partner: free.json measures a 3-level object through a 4-level
# apparatus; swap_free.json uses a swap-replace apparatus whose sigma is a
# seeded full-rank state, so that every pointer column of the oracle counts
python3 - "$out/inputs/free.json" "$out/inputs/swap_free.json" <<'EOF'
import json
import sys

import numpy as np

from reductionlab.bayes import EntangledScenario
from reductionlab.modelio import scenario_to_dict
from reductionlab.quantum import random_density
from reductionlab.zoo import random_indirect_model, random_observable, swap_replace_model


def hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def write(path, rng, model, t, tau):
    s = EntangledScenario(random_density(rng, 6), model.measured, random_observable(rng, 2),
                          h1=hermitian(rng, 3), h2=hermitian(rng, 2), t=t, tau=tau)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s, apparatus=model), fh, indent=1)
        fh.write("\n")


write(sys.argv[1], np.random.default_rng(11), random_indirect_model(3, 3, 4), 0.7, 1.3)
rng = np.random.default_rng(12)
write(sys.argv[2], rng, swap_replace_model(random_density(rng, 3), random_observable(rng, 3)),
      0.9, 0.6)
EOF

# Z measured on a partner prepared in |0>, so that A = -1 has probability 0 and
# only the outcome 1 is conditioned on: a random X, h1 = 0 and a random h2, and
# the CNOT model as apparatus
python3 - "$out/inputs/zero_outcome.json" <<'EOF'
import json
import sys

import numpy as np

from reductionlab.bayes import EntangledScenario
from reductionlab.linalg import tensor
from reductionlab.modelio import scenario_to_dict
from reductionlab.quantum import DensityOperator, Observable, pure, random_density
from reductionlab.zoo import KET_0, PAULI_Z, cnot_qubit_model, random_observable

rng = np.random.default_rng(13)
rho12 = DensityOperator(tensor(pure(KET_0).matrix, random_density(rng, 2).matrix))
x_obs = random_observable(rng, 2)
g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
s = EntangledScenario(rho12, Observable(PAULI_Z), x_obs, h2=(g + g.conj().T) / 2, t=0.4, tau=0.9)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(scenario_to_dict(s, apparatus=cnot_qubit_model()), fh, indent=1)
    fh.write("\n")
EOF

# swap_replace_6.json: a swap-replace model at d = 6 whose sigma is a seeded
# full-rank state, so that `verify` reduces its 36 states through Kraus stacks
# with six pointer columns
python3 - "$out/inputs/swap_replace_6.json" <<'EOF'
import json
import sys

import numpy as np

from reductionlab.modelio import model_to_dict
from reductionlab.quantum import random_density
from reductionlab.zoo import random_observable, swap_replace_model

rng = np.random.default_rng(14)
model = swap_replace_model(random_density(rng, 6), random_observable(rng, 6))
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(model_to_dict(model), fh, indent=1)
    fh.write("\n")
EOF

run() {
    name=$1
    shift
    code=0
    python3 -m reductionlab.cli "$@" > "$out/$name.out" 2> "$out/$name.err" || code=$?
    echo "$code" > "$out/$name.code"
}

for model in cnot swap_replace controlled_shift controlled_shift_degenerate random_indirect_42; do
    run "verify-$model" verify "$zoo/$model.json" --json
    run "verify-$model-tol" verify "$zoo/$model.json" --json --tolerance 1e-3
done
run verify-cnot-hamiltonian verify "$out/inputs/cnot_hamiltonian.json" --json
run verify-scaled verify "$out/inputs/random_indirect_scaled.json" --json
run verify-huge verify "$out/inputs/cnot_huge.json" --json
run verify-huge-degenerate verify "$out/inputs/degenerate_huge.json" --json
run verify-swap-6 verify "$out/inputs/swap_replace_6.json" --json
run verify-huge-spectrum verify "$out/inputs/cnot_huge_spectrum.json" --json
run sweep-42 sweep --json --seed 42 --trials 30 --dims 2..4
run sweep-7 sweep --json --seed 7 --trials 2 --dims 6,8
run entangled-json entangled "$out/inputs/bell.json" --json
run entangled-text entangled "$out/inputs/bell.json"
run entangled-bare-json entangled "$out/inputs/bell_bare.json" --json
run entangled-bare-text entangled "$out/inputs/bell_bare.json"
run entangled-eps-json entangled "$out/inputs/bell_eps.json" --json
run entangled-eps-scaled-json entangled "$out/inputs/bell_eps_scaled.json" --json
run entangled-bare-phase-json entangled "$out/inputs/bare_phase.json" --json
run entangled-free-json entangled "$out/inputs/free.json" --json
run entangled-swap-json entangled "$out/inputs/swap_free.json" --json
run entangled-zero-json entangled "$out/inputs/zero_outcome.json" --json
run entangled-zero-text entangled "$out/inputs/zero_outcome.json"
run entangled-huge-h1 entangled "$out/inputs/bell_huge_h1.json" --json
run reduce-cnot-plus reduce "$zoo/cnot.json" --state + --outcome 1
run reduce-cnot-minus-i reduce "$zoo/cnot.json" --state -i --outcome 1
run reduce-swap-plus reduce "$zoo/swap_replace.json" --state + --outcome -1
run reduce-degenerate-mixed reduce "$zoo/controlled_shift_degenerate.json" --state mixed --outcome 0
run reduce-not-an-outcome reduce "$zoo/cnot.json" --state + --outcome 0.5
run reduce-zero-probability reduce "$zoo/cnot.json" --state 0 --outcome -1
