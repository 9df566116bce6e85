"""reductionlab: apparatus-model quantum measurement library.

Derives state reduction from an apparatus triple (sigma, U, B) without the
projection postulate, and verifies the measuring condition, Born
statistics, mixture identity, local-measurement joint distributions, and
Bayes prior/posterior states against brute-force oracles.
"""

from .bayes import (
    EntangledScenario,
    JointDistribution,
    bayes_condition,
    bayes_mixture_check,
    joint_distribution_formula,
    joint_distribution_oracle,
    posterior_state,
    posteriors,
    prior_state,
)
from .errors import (
    DimensionMismatchError,
    ParseError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import (
    TOL_EIG,
    TOL_OP,
    TOL_PROB,
    herm_expm,
    partial_trace,
    permute_factors,
    spectral_decompose,
    tensor,
)
from .measurement import (
    MeasurementModel,
    effects,
    mixture_identity_check,
    nonselective_state,
    nonselective_states,
    outcome_probability,
    reductions,
    satisfies_projection_postulate,
    state_reduction,
    state_reduction_sandwiched,
    verify_measures,
)
from .quantum import (
    DensityOperator,
    Observable,
    OutcomeDistribution,
    born_distribution,
    density_operators,
    evolve,
    ket,
    outcome_index,
    pure,
    rule1_distribution,
)
from .zoo import (
    cnot_qubit_model,
    controlled_shift_model,
    random_indirect_model,
    swap_replace_model,
)

__version__ = "0.1.0"
