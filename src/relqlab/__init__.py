"""relqlab: numerical laboratory for relativistic path-weight propagators,
square-root-Hamiltonian wave dynamics, and noise-driven two-state collapse.

Natural units everywhere: hbar = c = 1, energies in multiples of m c^2.
"""

__version__ = "0.1.0"

from .specfun import (
    MomentQuery,
    bessel_j1_y1_small,
    gamma_half_integer,
    kernel_moment_closed,
    kernel_moment_contour,
    kummer_m,
)
from .pathweight import (
    LightlikeSegmentError,
    Path,
    PathFunctionals,
    PhysicalScale,
    QuadratureConvergenceError,
    WeightUndefinedError,
    equal_time_kernel_profile,
    path_action,
    path_functionals,
    path_weight,
    short_time_closed_form,
    short_time_plane_wave,
    straight_path,
)
from .evolution import (
    FieldConfig,
    FluxReport,
    SpatialGrid,
    WaveFunction,
    density_flux_report,
    dispersion,
    evolve,
    free_propagate,
    gaussian_packet,
    group_velocity,
    plane_wave,
    schrodinger_overlap,
)
from .collapse import (
    DEFAULT_SIGMA_STAR,
    CollapseTrajectory,
    EnsembleReport,
    NoiseProcess,
    NoiseTooLargeError,
    TwoStateAmplitudes,
    TwoStateSystem,
    generate_noise,
    run_ensemble,
    run_trajectory,
    wilson_interval,
)
from .abexp import (
    ABConfig,
    DEFAULT_B1_STAR,
    EnvelopeOnlyPatternError,
    ScreenPattern,
    ab_phase,
    fringe_visibility,
    simulate_ab,
    two_state_for_paths,
)
