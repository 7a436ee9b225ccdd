"""Problem specification files (JSON).

Two forms are accepted.  The builtin form names a packaged problem and its
parameters:

    {"problem": "parking", "M": 2.0, "tf": 4.0, "T": 2.0}

The inline form spells the model out:

    {
      "n": 2, "m": 1,
      "dynamics": "lti",
      "A": [[0, 1], [0, 0]], "B": [[0], [1]],
      "Q": [[0, 0], [0, 0]], "R": [[1]],
      "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
      "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
      "tf": 4.0, "T": 2.0
    }

``dynamics`` is "lti" (requires A, B; Q, R optional) or a built-in dynamics
id ("parking": double integrator with control-energy cost, n=2, m=1).
``terminal.variant`` is one of fixed_endpoints, fixed_initial_free_final,
periodic; ``control_set.kind`` is box or ball.  ``final_time_mode`` may be
"free", in which case ``tf`` seeds the free-horizon search.  Unknown fields
anywhere are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .problem import (Ball, Box, FixedEndpoints, FixedInitialFreeFinal,
                      FixedTime, FreeTime, Periodic, ProblemDefinition)
from .problems import lti_problem
from .parking import parking_problem


@dataclass(frozen=True)
class LoadedSpec:
    """A parsed problem specification plus its grid parameters."""

    problem: ProblemDefinition
    t_f: float
    T: float
    builtin: Optional[str]     # "parking" when the parking fast path applies
    params: dict               # scalar parameters (e.g. M) for manifests


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


def _number(obj: dict, key: str, where: str) -> float:
    v = _require(obj, key, where)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SpecError(f"field '{key}' in {where} must be a number")
    return _finite(float(v), key, where)


def _vector(obj: dict, key: str, where: str) -> np.ndarray:
    v = _require(obj, key, where)
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"field '{key}' in {where} must be a numeric array: {exc}")
    if arr.ndim != 1:
        raise SpecError(f"field '{key}' in {where} must be a flat list")
    return _finite(arr, key, where)


def _matrix(obj: dict, key: str, where: str) -> np.ndarray:
    v = _require(obj, key, where)
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"field '{key}' in {where} must be a numeric matrix: {exc}")
    if arr.ndim != 2:
        raise SpecError(f"field '{key}' in {where} must be a list of rows")
    return _finite(arr, key, where)


def _parse_control_set(obj, m: int):
    if not isinstance(obj, dict):
        raise SpecError("'control_set' must be an object")
    kind = _require(obj, "kind", "control_set")
    if kind == "box":
        _reject_unknown(obj, {"kind", "lower", "upper"}, "control_set")
        cs = Box(lower=_vector(obj, "lower", "control_set"),
                 upper=_vector(obj, "upper", "control_set"))
    elif kind == "ball":
        _reject_unknown(obj, {"kind", "center", "radius"}, "control_set")
        cs = Ball(center=_vector(obj, "center", "control_set"),
                  radius=_number(obj, "radius", "control_set"))
    else:
        raise SpecError(f"control_set.kind must be 'box' or 'ball', got {kind!r}")
    if cs.dim != m:
        raise SpecError(f"control_set dimension {cs.dim} does not match m={m}")
    return cs


def _parse_terminal(obj, n: int):
    if not isinstance(obj, dict):
        raise SpecError("'terminal' must be an object")
    variant = _require(obj, "variant", "terminal")
    if variant == "fixed_endpoints":
        _reject_unknown(obj, {"variant", "q0", "qf"}, "terminal")
        term = FixedEndpoints(q0=_vector(obj, "q0", "terminal"),
                              qf=_vector(obj, "qf", "terminal"))
        dims = (term.q0.size, term.qf.size)
    elif variant == "fixed_initial_free_final":
        _reject_unknown(obj, {"variant", "q0"}, "terminal")
        term = FixedInitialFreeFinal(q0=_vector(obj, "q0", "terminal"))
        dims = (term.q0.size,)
    elif variant == "periodic":
        _reject_unknown(obj, {"variant"}, "terminal")
        return Periodic()
    else:
        raise SpecError(f"unknown terminal variant {variant!r}")
    if any(d != n for d in dims):
        raise SpecError(f"terminal vectors must have length n={n}")
    return term


def load_problem_spec(path) -> LoadedSpec:
    """Parse a problem specification file; raises SpecError on bad content."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read problem specification {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SpecError(f"{path} must contain a JSON object")
    return parse_problem_spec(data)


def parse_problem_spec(data: dict) -> LoadedSpec:
    if "problem" in data:
        name = data["problem"]
        if name == "parking":
            _reject_unknown(data, {"problem", "M", "tf", "T"}, "builtin spec")
            M = _number(data, "M", "builtin spec")
            tf = _number(data, "tf", "builtin spec")
            T = _number(data, "T", "builtin spec")
            return LoadedSpec(problem=parking_problem(M, tf), t_f=tf, T=T,
                              builtin="parking", params={"M": M})
        raise SpecError(f"unknown builtin problem {name!r}")

    allowed = {"n", "m", "dynamics", "A", "B", "Q", "R", "control_set",
               "terminal", "tf", "T", "final_time_mode"}
    _reject_unknown(data, allowed, "inline spec")
    n = _require(data, "n", "inline spec")
    m = _require(data, "m", "inline spec")
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise SpecError("'n' and 'm' must be positive integers")
    tf = _number(data, "tf", "inline spec")
    T = _number(data, "T", "inline spec")
    mode = data.get("final_time_mode", "fixed")
    if mode not in ("fixed", "free"):
        raise SpecError("final_time_mode must be 'fixed' or 'free'")
    final_time = FreeTime(tf) if mode == "free" else FixedTime(tf)

    control_set = _parse_control_set(_require(data, "control_set", "inline spec"), m)
    terminal = _parse_terminal(_require(data, "terminal", "inline spec"), n)

    dyn = _require(data, "dynamics", "inline spec")
    if dyn == "lti":
        A = _matrix(data, "A", "inline spec")
        B = _matrix(data, "B", "inline spec")
        Q = _matrix(data, "Q", "inline spec") if "Q" in data else None
        R = _matrix(data, "R", "inline spec") if "R" in data else None
        if A.shape != (n, n) or B.shape != (n, m):
            raise SpecError("A must be n x n and B must be n x m")
        try:
            problem = lti_problem(A, B, Q, R, control_set=control_set,
                                  terminal=terminal, final_time=final_time)
        except ValueError as exc:
            raise SpecError(str(exc))
    elif dyn == "parking":
        if ("A" in data) or ("B" in data) or ("Q" in data) or ("R" in data):
            raise SpecError("matrix fields only apply to dynamics='lti'")
        if n != 2 or m != 1:
            raise SpecError("parking dynamics require n=2, m=1")
        base = parking_problem(1.0, tf)
        problem = replace(base, control_set=control_set, terminal=terminal,
                          final_time=final_time)
    else:
        raise SpecError(f"dynamics must be 'lti' or a builtin id, got {dyn!r}")

    return LoadedSpec(problem=problem, t_f=tf, T=T, builtin=None, params={})
