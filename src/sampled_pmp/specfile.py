"""Problem specifications (JSON): every problem the CLI solves is built here.

The builtin form names a packaged problem and its parameters,
``{"problem": "parking", "M": 2.0, "tf": 4.0, "T": 2.0}``; the inline form
spells the model out (the README lists every field):

    {"n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1], [0, 0]], "B": [[0], [1]],
     "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
     "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
     "tf": 4.0, "T": 2.0}

``dynamics`` is "lti" (A, B; Q, R optional) or "parking", the lti double
integrator with control-energy cost (n=2, m=1, no matrices).
``terminal.variant`` is fixed_endpoints, fixed_initial_free_final or
periodic; ``control_set.kind`` is box or ball; ``final_time_mode`` "free"
makes ``tf`` the seed of the horizon search.  M, tf and T must be positive;
without T a spec loads with ``T = None``, for a caller that brings its own
periods.  Unknown fields and bad values, a constructor's own checks
included, raise SpecError.  The CLI sets its flags ``--M``, ``--tf`` and
``--T`` as fields of the object (``{"problem": "parking"}`` for ``--problem
parking``) before :func:`parse_problem_spec` parses it.  Both forms give
the same :class:`LoadedSpec` of problem, t_f and T; the form is not kept,
and the CLI asks :func:`~sampled_pmp.parking.parking_position` of the parsed
problem whether the closed-form parking solve serves it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import parking
from .problem import (Ball, Box, FixedEndpoints, FixedInitialFreeFinal,
                      FixedTime, FreeTime, Periodic, ProblemDefinition)
from .problems import lti_problem


@dataclass(frozen=True, eq=False)
class LoadedSpec:
    """A parsed specification and its grid parameters; compares by identity."""

    problem: ProblemDefinition
    t_f: float
    T: Optional[float]         # None when the specification gives no period


class SpecError(ValueError):
    """Malformed problem specification file."""


def _reject_unknown(obj: dict, allowed, where: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SpecError(f"unknown field(s) {unknown} in {where}; "
                        f"allowed: {sorted(allowed)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"missing required field '{key}' in {where}")
    return obj[key]


def _finite(arr, key: str, where: str):
    # JSON as Python reads it admits NaN and Infinity
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"field '{key}' in {where} must be finite")
    return arr


def _is_number(v) -> bool:
    # true and false are not JSON numbers, though Python's bool is an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(obj: dict, key: str, where: str) -> float:
    v = _require(obj, key, where)
    if not _is_number(v):
        raise SpecError(f"field '{key}' in {where} must be a number")
    return _finite(float(v), key, where)


def _positive(obj: dict, key: str, where: str) -> float:
    v = _number(obj, key, where)
    if v <= 0:
        raise SpecError(f"field '{key}' in {where} must be positive, got {v}")
    return v


def _vector(obj: dict, key: str, where: str) -> np.ndarray:
    v = _require(obj, key, where)
    if not isinstance(v, list) or not all(map(_is_number, v)):
        raise SpecError(f"field '{key}' in {where} must be a list of numbers")
    return _finite(np.array(v, dtype=float), key, where)


def _matrix(obj: dict, key: str, where: str) -> np.ndarray:
    v = _require(obj, key, where)
    if not (isinstance(v, list) and v and all(
            isinstance(row, list) and len(row) == len(v[0])
            and all(map(_is_number, row)) for row in v)):
        raise SpecError(f"field '{key}' in {where} must be a list of rows of "
                        f"numbers, all of one length")
    return _finite(np.array(v, dtype=float), key, where)


# the control set's and the terminal vectors' dimensions are the problem's
# to check, against m and n

def _parse_control_set(obj):
    if not isinstance(obj, dict):
        raise SpecError("'control_set' must be an object")
    kind = _require(obj, "kind", "control_set")
    if kind == "box":
        _reject_unknown(obj, {"kind", "lower", "upper"}, "control_set")
        return Box(lower=_vector(obj, "lower", "control_set"),
                   upper=_vector(obj, "upper", "control_set"))
    if kind == "ball":
        _reject_unknown(obj, {"kind", "center", "radius"}, "control_set")
        return Ball(center=_vector(obj, "center", "control_set"),
                    radius=_number(obj, "radius", "control_set"))
    raise SpecError(f"control_set.kind must be 'box' or 'ball', got {kind!r}")


def _parse_terminal(obj):
    if not isinstance(obj, dict):
        raise SpecError("'terminal' must be an object")
    variant = _require(obj, "variant", "terminal")
    if variant == "fixed_endpoints":
        _reject_unknown(obj, {"variant", "q0", "qf"}, "terminal")
        return FixedEndpoints(q0=_vector(obj, "q0", "terminal"),
                              qf=_vector(obj, "qf", "terminal"))
    if variant == "fixed_initial_free_final":
        _reject_unknown(obj, {"variant", "q0"}, "terminal")
        return FixedInitialFreeFinal(q0=_vector(obj, "q0", "terminal"))
    if variant == "periodic":
        _reject_unknown(obj, {"variant"}, "terminal")
        return Periodic()
    raise SpecError(f"unknown terminal variant {variant!r}")


def read_spec_file(path, what: str = "problem specification") -> dict:
    """A JSON file's object, unparsed, such as a specification file's or a
    run manifest's (``what``); SpecError naming the file if none."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read {what} {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SpecError(f"{path} must contain a JSON object")
    return data


def load_problem_spec(path) -> LoadedSpec:
    """Parse a problem specification file; raises SpecError on bad content."""
    return parse_problem_spec(read_spec_file(path))


def parse_problem_spec(data: dict) -> LoadedSpec:
    """The problem a specification object names; SpecError on bad content."""
    try:
        return _parse_builtin(data) if "problem" in data else _parse_inline(data)
    except ValueError as exc:         # SpecError or a constructor's own check
        raise SpecError(str(exc)) from None


def _parse_builtin(data: dict) -> LoadedSpec:
    name = data["problem"]
    if name != "parking":
        raise SpecError(f"unknown builtin problem {name!r}")
    _reject_unknown(data, {"problem", "M", "tf", "T"}, "builtin spec")
    M = _positive(data, "M", "builtin spec")
    tf = _positive(data, "tf", "builtin spec")
    T = _positive(data, "T", "builtin spec") if "T" in data else None
    # looked up on the module, where instrumentation may wrap it
    return LoadedSpec(problem=parking.parking_problem(M, tf), t_f=tf, T=T)


def _parse_inline(data: dict) -> LoadedSpec:
    allowed = {"n", "m", "dynamics", "A", "B", "Q", "R", "control_set",
               "terminal", "tf", "T", "final_time_mode"}
    _reject_unknown(data, allowed, "inline spec")
    n = _require(data, "n", "inline spec")
    m = _require(data, "m", "inline spec")
    if not all(type(v) is int and v >= 1 for v in (n, m)):
        raise SpecError("'n' and 'm' must be positive integers")
    tf = _positive(data, "tf", "inline spec")
    T = _positive(data, "T", "inline spec") if "T" in data else None
    mode = data.get("final_time_mode", "fixed")
    if mode not in ("fixed", "free"):
        raise SpecError("final_time_mode must be 'fixed' or 'free'")
    final_time = FreeTime(tf) if mode == "free" else FixedTime(tf)

    control_set = _parse_control_set(_require(data, "control_set", "inline spec"))
    terminal = _parse_terminal(_require(data, "terminal", "inline spec"))

    dyn = _require(data, "dynamics", "inline spec")
    if dyn == "lti":
        A = _matrix(data, "A", "inline spec")
        B = _matrix(data, "B", "inline spec")
        Q = _matrix(data, "Q", "inline spec") if "Q" in data else None
        R = _matrix(data, "R", "inline spec") if "R" in data else None
        if A.shape != (n, n) or B.shape != (n, m):
            raise SpecError("A must be n x n and B must be n x m")
    elif dyn == "parking":
        if ("A" in data) or ("B" in data) or ("Q" in data) or ("R" in data):
            raise SpecError("matrix fields only apply to dynamics='lti'")
        if n != 2 or m != 1:
            raise SpecError("parking dynamics require n=2, m=1")
        (A, B), Q, R = parking.DOUBLE_INTEGRATOR, None, None
    else:
        raise SpecError(f"dynamics must be 'lti' or a builtin id, got {dyn!r}")

    problem = lti_problem(A, B, Q, R, control_set=control_set,
                          terminal=terminal, final_time=final_time, name=dyn)
    return LoadedSpec(problem=problem, t_f=tf, T=T)
