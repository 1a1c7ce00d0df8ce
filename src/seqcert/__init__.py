"""Finite-truncation certification of sequence-space norms, basic-sequence
constants, and affine fixed-point-free maps on convex hulls."""

__version__ = "0.1.0"

from .arithmetic import FLOAT, RATIONAL
from .certificates import Certificate
from .errors import (
    BlockSpecError,
    ConfigError,
    DependenceError,
    ParameterError,
    TruncationError,
)
from .sampling import SamplingBudget
from .spaces import (
    CoordinateVector,
    NormTag,
    james_power_sum_exact,
    james_power_sums_batch,
    james_summing_norm,
    norm,
    norm_batch,
    summing_basis_norm,
)
from .sequences import (
    BasicSequence,
    Kappa,
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    gap_bound_check,
    wide_s_certificate,
)
from .fpmaps import (
    AffineMapSpec,
    AlphaSchedule,
    ConvexCoefficients,
    SummingFunctional,
    apply_map,
    bilipschitz_estimate,
    fixed_point_residual,
    make_alpha_schedule,
    make_summing_functional,
    theta_lower_bound_rightshift,
    theta_of_map,
)
from .perturbation import (
    claim2_chain,
    perturb_toward_next,
    psp_equivalence_check,
)
from .blocks import (
    ConvexBlockSpec,
    build_convex_blocks,
    lemma79_conclusion_check,
    shift_equivalence_constants,
    summing_equivalence_check,
    wuc_constant,
)
