"""Optimal sampled-data control: indirect shooting, certificates, parking.

The library solves control problems whose input is frozen between the
controlling times of a sampling grid.  Candidate solutions are extremals of
the sampled necessary conditions: the coupled state/adjoint equations, the
nonpositive-average-gradient condition on every sampling interval, and the
transversality relations of the terminal variant.  A solver finds them by
shooting on the initial adjoint; a certificate checker verifies them
residual by residual.
"""

from .certificate import (Certificate, check_certificate, free_time_residual,
                          interval_residual, transversality_residual,
                          write_certificate_json)
from .errors import (Infeasible, IntegrationBlowUp, InternalInconsistency,
                     NonConvergence, UnsupportedCase)
from .problem import (Ball, Box, ControlSequence, FixedEndpoints,
                      FixedInitialFreeFinal, FixedTime, FreeTime, Periodic,
                      ProblemDefinition, SamplingGrid, build_grid,
                      final_control_index, floor_index, validate_jacobians)
from .problems import lti_problem
from .simulate import (AdjointArc, Extremal, Trajectory, average_hamiltonian,
                       average_u_gradient, integrate_extremal_forward,
                       integrate_interval, simulate, write_trajectory_csv)
from .solver import (match_terminal_adjoint, shooting_residual, solve,
                     solve_interval_control)
from . import parking
from .specfile import LoadedSpec, SpecError, load_problem_spec

__version__ = "0.1.0"

__all__ = [
    "AdjointArc", "Ball", "Box", "Certificate", "ControlSequence", "Extremal",
    "FixedEndpoints", "FixedInitialFreeFinal", "FixedTime", "FreeTime",
    "Infeasible", "IntegrationBlowUp", "InternalInconsistency", "LoadedSpec",
    "NonConvergence", "Periodic", "ProblemDefinition", "SamplingGrid",
    "SpecError", "Trajectory",
    "UnsupportedCase", "average_hamiltonian",
    "average_u_gradient", "build_grid", "check_certificate",
    "final_control_index", "floor_index",
    "free_time_residual", "integrate_extremal_forward", "integrate_interval",
    "interval_residual", "load_problem_spec", "lti_problem",
    "match_terminal_adjoint", "parking", "shooting_residual", "simulate",
    "solve", "solve_interval_control", "transversality_residual",
    "validate_jacobians", "write_certificate_json", "write_trajectory_csv",
]
