"""Generic built-in problem factories (linear dynamics, quadratic cost)."""

from __future__ import annotations

import numpy as np

from .problem import (ControlSet, FinalTimeMode, LinearQuadratic,
                      ProblemDefinition, TerminalCondition, _dot)


def lti_problem(A, B, Q=None, R=None, *, control_set: ControlSet,
                terminal: TerminalCondition, final_time: FinalTimeMode,
                name: str = "lti") -> ProblemDefinition:
    """dq/dt = A q + B u with running cost q'Qq + u'Ru.

    Q defaults to zero (pure control energy) and R to the identity.  Q and R
    are symmetrized, so only their symmetric parts matter.  The problem
    carries the matrices as its ``lq`` field; all four must be finite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    # LinearQuadratic checks the shapes; n and m only size the defaults
    n = A.shape[0] if A.ndim == 2 else 0
    m = B.shape[1] if B.ndim == 2 else 0
    lq = LinearQuadratic(A, B, np.zeros((n, n)) if Q is None else Q,
                         np.eye(m) if R is None else R)
    A, B, Q, R = lq.A, lq.B, lq.Q, lq.R

    # the closures broadcast over stacked points; on one point each gives the
    # floats of the 1-d A.dot(q) + B.dot(u), q'Qq + u'Ru, 2Qq and 2Ru
    def f(t, q, u):
        return q.dot(A.T) + u.dot(B.T)

    def f_q(t, q, u):
        return A

    def f_u(t, q, u):
        return B

    def f0(t, q, u):
        return _dot(q.dot(Q), q) + _dot(u.dot(R), u)

    def f0_q(t, q, u):
        return 2.0 * q.dot(Q.T)

    def f0_u(t, q, u):
        return 2.0 * u.dot(R.T)

    return ProblemDefinition(n=n, m=m, f=f, f_q=f_q, f_u=f_u, f0=f0,
                             f0_q=f0_q, f0_u=f0_u, control_set=control_set,
                             terminal=terminal, final_time=final_time,
                             name=name, lq=lq)
