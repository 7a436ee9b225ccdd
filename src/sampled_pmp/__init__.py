"""Optimal sampled-data control: indirect shooting, certificates, parking.

The library solves control problems whose input is frozen between the
controlling times of a sampling grid.  Candidate solutions are extremals of
the sampled necessary conditions: the coupled state/adjoint equations, the
nonpositive-average-gradient condition on every sampling interval, and the
transversality relations of the terminal variant.  A solver finds them by
shooting on the initial adjoint; a certificate checker verifies them
residual by residual.
"""

from .certificate import (Certificate, boundary_residuals, check_certificate,
                          free_time_residual, interval_residual)
from .errors import (Infeasible, IntegrationBlowUp, NonConvergence,
                     UnsupportedCase)
from .problem import (Ball, Box, ControlSequence, FixedEndpoints,
                      FixedInitialFreeFinal, FixedTime, FreeTime,
                      LinearQuadratic, Periodic, ProblemDefinition,
                      SamplingGrid, build_grid, validate_jacobians)
from .problems import lti_problem
from .simulate import (Extremal, average_hamiltonian, average_u_gradient,
                       integrate_extremal_forward, running_cost, simulate)
from .solver import (match_terminal_adjoint, shooting_residual, solve,
                     solve_interval_control)
from . import parking
from .specfile import LoadedSpec, SpecError, load_problem_spec
from .cli import write_certificate_json, write_trajectory_csv

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "Certificate", "ControlSequence", "Extremal",
    "FixedEndpoints", "FixedInitialFreeFinal", "FixedTime", "FreeTime",
    "Infeasible", "IntegrationBlowUp", "LinearQuadratic", "LoadedSpec",
    "NonConvergence", "Periodic", "ProblemDefinition", "SamplingGrid",
    "SpecError", "UnsupportedCase", "average_hamiltonian",
    "average_u_gradient", "boundary_residuals", "build_grid",
    "check_certificate", "free_time_residual", "integrate_extremal_forward",
    "interval_residual", "load_problem_spec",
    "lti_problem", "match_terminal_adjoint", "parking", "running_cost",
    "shooting_residual", "simulate", "solve", "solve_interval_control",
    "validate_jacobians", "write_certificate_json", "write_trajectory_csv",
]
