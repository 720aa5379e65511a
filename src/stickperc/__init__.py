"""Continuum stick percolation toolkit.

Simulation engine and verification suite for percolation of radius-1
sticks of length L in d dimensions: exact geometry kernels, closed-form
measures and critical-intensity bounds, seeded Poisson sampling, cluster
and threshold analysis, the branching-process domination view, and the
oriented-percolation comparison model.
"""

from .errors import (
    BracketFailure,
    CapacityExceeded,
    DegenerateDesign,
    DomainError,
    ParallelLines,
    PreconditionViolated,
    StickPercError,
)
from .geometry import (
    line_line_distance_profile,
    line_line_t_min,
    min_distance_outside_window,
)
from .measures import (
    BoundsReport,
    ConstructionGeometry,
    ball_volume,
    c_d,
    c_d_prime,
    cap_hit_lower_bound,
    cap_hit_probability_exact,
    gw_offspring_bound,
    lattice_T_count,
    mc_cap_hit_probability,
    mc_stick_hit_volume,
    mc_two_ball_measure,
    stick_hit_volume,
    theorem_bounds,
    two_ball_lower_bound,
)
from .sampling import (
    BoxRegion,
    Configuration,
    Rigid,
    Uniform,
    poisson_count,
    sample_window_configuration,
)
from .percolation import (
    SpatialIndex,
    ThresholdEstimate,
    UnionFind,
    build_index,
    crossing_event,
    estimate_threshold,
    scaling_fit,
)
from .branching import (
    GWReport,
    component_exploration,
    dominating_gw_run,
    offspring_mean_mc,
)
from .oriented import (
    Frontier,
    coupled_survival_monotonicity,
    op_step,
    survival_probability,
)

__version__ = "0.1.0"
