"""Weighted-circle hypergroups over odd finite fields and their random walks.

The package builds the partition of GF(q)^2 into level sets of a diagonal
quadratic form, the exact convolution constants that make those classes a
hermitian commutative hypergroup, and the mixing analysis (stationary
distribution, minorization constants, exact mixing times, coupled
simulations) of the walk driven by a fixed class.
"""

__version__ = "0.1.0"

from .errors import (
    BranchMismatch,
    CapExceeded,
    ConfigError,
    ConicwalkError,
    FieldMismatch,
    IndexInvalid,
    IndexMismatch,
    InternalCheckError,
    NotErgodic,
    NotOddPrime,
    WalkTimeout,
    ZeroQuadranceArg,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    make_extension_field,
    make_field,
    make_prime_field,
    quadratic_character,
    sqrt,
)
from .conic_geometry import (
    ClassIndex,
    ConicParams,
    Point,
    circle_points,
    class_size,
    classify,
    f_discriminant,
    index_set,
    intersection_count,
    intersection_points,
    quadrance,
    verify_intersection_trichotomy,
)
from .hypergroup import (
    AxiomReport,
    StructureTable,
    build_table,
    closed_row,
    oracle_table,
    structure_constant,
    two_step_support,
    verify_axioms,
)
from .walk_analysis import (
    BoostCheck,
    Distribution,
    ErgodicityReport,
    Kernel,
    MixingReport,
    boost_check,
    ergodicity_check,
    evolve,
    geometric_decay_check,
    haar,
    kernel,
    kernel_for_step,
    max_tv_curve,
    minorization_check,
    minorization_constant,
    minorization_reference,
    mixing_report,
    mixing_time,
    mixing_time_bound,
    stationary,
    tv_distance,
)
from .coupling_sim import (
    CouplingStats,
    MonteCarloTV,
    coupled_run,
    monte_carlo_tv,
    run_coupling_trials,
)
from .errata import errata_entries, errata_report
