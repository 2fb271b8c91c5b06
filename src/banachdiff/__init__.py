"""Directional differentiability of norms on finite models of classical Banach spaces."""

from .spaces import (
    Space,
    SpacePoint,
    NormValue,
    seq_point,
    pw_point,
    pw_from_values,
    constant_fn,
    step_fn,
    zeros_like,
    scale,
    subtract,
    value_at,
    eval_norm,
    linear_combine,
    point_to_dict,
    point_from_dict,
    point_to_json,
    point_from_json,
)
from .oracles import (
    RepKind,
    LinearFunctionalRep,
    apply_rep,
    oracle_l1,
    oracle_linf,
    oracle_csup,
    oracle_Linf,
    witness_linf,
    witness_Linf,
    witness_nbv,
)
from .diffengine import (
    Functional,
    norm_functional,
    TGrid,
    DEFAULT_GRID,
    DEFAULT_TOL,
    QuotientTrace,
    VerdictStatus,
    DiffVerdict,
    directional_quotient,
    one_sided_derivatives,
    gateaux_verdict,
    hadamard_verdict,
    frechet_verdict,
    local_lipschitz_estimate,
)
from .topology import (
    MembershipReport,
    classify,
    densify_l1,
    densify_linf,
    densify_csup,
    ball_check_linf,
)
from .gaussmeasure import (
    GaussianSpec,
    MeasureEstimate,
    default_spec,
    standard_normal_spec,
    vakhania_check,
    gaussian_sample,
    estimate_nondiff_measure,
    estimate_nondiff_measures,
    b2_tie_probability_oracle,
)
from .projective import (
    ProjectiveSystem,
    CylindricalFunction,
    ScalarMap,
    make_truncation_system,
    make_cylinder,
    wseries_eval,
    wseries_gateaux,
    wseries_functional,
    cyl_eval,
    cyl_gateaux,
    full_functional,
    lipschitz_factor_check,
    compose_propagate,
    CYL_BASES,
    OUTER_MAPS,
)
from . import errors

__version__ = "0.1.0"
