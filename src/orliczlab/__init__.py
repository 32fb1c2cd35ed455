"""Numerical laboratory for dyadic piecewise-linear Orlicz sequence norms."""

from .logreal import LogReal, Tolerance, ZERO
from .orlicz import (
    DyadicOrliczFunction,
    RatioReport,
    SlopeSequence,
    SlopeSequenceError,
    compute_cq,
    geometric_slopes,
    identity_slopes,
    make_dyadic_plf,
    parse_function_spec,
    ratio_inf,
    ratio_inf_general,
    slopes_from_list,
    slopes_pow2_poly,
    squares_slopes,
)
from .vectors import FiniteVector, luxemburg_norm, modular, rearrange
from .renorm import (
    EtaInfeasibleError,
    EtaSequence,
    RenormScheme,
    build_eta,
    build_renorm_scheme,
    compute_bk,
    compute_bk_at_scale,
    growth_index,
    head_attainment_index,
    triple_norm,
)
from .abstract_renorm import (
    NormingFamily,
    NormingLevel,
    ProjectionSeminormSpec,
    SectionFunctional,
    assemble_norming_family,
    build_norming_family,
    check_precisely_norming,
    projection_seminorm,
    rho_eval,
)
from .counterexample import (
    CounterexampleSequences,
    GreedySearchError,
    GreedyTrace,
    attainment_failure_probe,
    gen_sequences,
    greedy_nk,
    ratio_bound_check,
    verify_claims,
)
from .reports import CheckRow, Report, emit_report

__version__ = "0.1.0"
