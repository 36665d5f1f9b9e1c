"""Waveform-relaxation domain decomposition for time-fractional diffusion.

Dirichlet-Neumann and Neumann-Neumann interface iterations for sub-diffusion
and diffusion-wave equations in 1D and 2D, together with evaluators for their
superlinear convergence estimates and the inverse-Laplace kernel machinery
used to validate them.
"""

from .dnwr import DnwrConfig, optimal_theta_dnwr, run_dnwr
from .fractional_time import (
    CaputoWeights,
    TimeMesh,
    build_graded_mesh,
    caputo_apply,
    caputo_weights,
    default_grading,
)
from .geometry import (
    Partition1D,
    Subdomain1D,
    build_partition,
    build_subdomain,
)
from .iteration import IterationReport, RunResult
from .nnwr import (
    Nnwr2dConfig,
    NnwrConfig,
    optimal_theta_nnwr,
    run_nnwr_1d,
    run_nnwr_2d,
)
from .solver import (
    solve_dirichlet_waveform,
    solve_monolithic,
    solve_neumann_waveform,
)
from .theory import (
    DnwrBoundParams,
    Nnwr2dBoundParams,
    NnwrBoundParams,
    dnwr_error_bound,
    invlap_exp,
    kernel_positivity_check,
    mwright,
    nnwr2d_error_bound,
    nnwr_error_bound,
    talbot_invert,
)

__version__ = "0.1.0"
