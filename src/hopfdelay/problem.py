"""Problem-file schema (JSON, schema_version 1) and loading.

Matrices are row-major arrays of arrays; lags are always nonnegative numbers
(the negative-axis convention of the internal math never leaks into files).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import SchemaError
from .fde import LinearFDE, PerturbationSpec
from .measures import (
    DensityPiece,
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    triangular,
    truncated_gamma,
    uniform,
)

SCHEMA_VERSION = 1
MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float
    history: tuple


@dataclass(frozen=True)
class Problem:
    n: int
    linear: LinearFDE
    pert: PerturbationSpec
    nonlinearity: str
    sim: SimConfig | None
    path: str


def _require(obj, key, kind, where):
    if key not in obj:
        raise SchemaError(f"{where}.{key}", "missing required field")
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if not isinstance(val, kind):
        raise SchemaError(
            f"{where}.{key}", f"expected {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _recording(parse, found):
    """A json number hook: the value parse(text), noted in found when it is
    no finite double (NaN included)."""

    def hook(text):
        value = parse(text)
        if not -MAX_FLOAT <= value <= MAX_FLOAT:
            found.append(value)
        return value

    return hook


def _require_finite(node, where="$"):
    """Name the path of a number in the parsed document that is no finite
    double: Python's json reads NaN, Infinity and 1e999 as floats, and an
    integer past the largest double would overflow float(). The parser's
    number hooks find such a number; only then does this walk run."""
    if isinstance(node, (int, float)) and not -MAX_FLOAT <= node <= MAX_FLOAT:
        raise SchemaError(where, "expected a finite number")
    if isinstance(node, dict):
        for key, val in node.items():
            _require_finite(val, f"{where}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _require_finite(val, f"{where}[{i}]")


@contextmanager
def _rejects(where):
    """Report a value the library rejects as a schema error at `where`."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise SchemaError(where, str(exc)) from exc


def _matrix(obj, n, where):
    with _rejects(where):
        arr = np.array(obj, dtype=float)
    if arr.shape != (n, n):
        raise SchemaError(where, f"expected {n}x{n} matrix, got shape {arr.shape}")
    return arr


def _lag(atom, where):
    lag = _require(atom, "lag", float, where)
    if lag < 0:
        raise SchemaError(f"{where}.lag", "lag must be nonnegative")
    return lag


def _interval(density, where):
    iv = _require(density, "interval", list, where)
    with _rejects(f"{where}.interval"):
        if len(iv) != 2 or iv[0] < 0:
            raise ValueError("expected [a, b] with a >= 0")
    return iv


def distribution_from_json(obj, where):
    kind = _require(obj, "type", str, where)
    if kind == "uniform":
        return uniform(
            _require(obj, "mean", float, where),
            _require(obj, "halfwidth", float, where),
        )
    if kind == "triangular":
        return triangular(
            _require(obj, "mean", float, where),
            _require(obj, "halfwidth", float, where),
        )
    if kind == "truncated_gamma":
        support = _require(obj, "support", list, where)
        if len(support) != 2:
            raise SchemaError(f"{where}.support", "expected [a, b]")
        return truncated_gamma(
            _require(obj, "shape", float, where),
            _require(obj, "rate", float, where),
            (support[0], support[1]),
        )
    if kind in ("discrete", "custom"):
        # a discrete distribution is atoms only, and needs them
        if kind == "discrete":
            atoms, densities = _require(obj, "atoms", list, where), []
        else:
            atoms, densities = obj.get("atoms", []), obj.get("densities", [])
        atoms = tuple(
            (
                _lag(a, f"{where}.atoms[{i}]"),
                _require(a, "weight", float, f"{where}.atoms[{i}]"),
            )
            for i, a in enumerate(atoms)
        )
        pieces = []
        for i, d in enumerate(densities):
            iv = _interval(d, f"{where}.densities[{i}]")
            coeffs = _require(d, "coeffs", list, f"{where}.densities[{i}]")
            with _rejects(f"{where}.densities[{i}]"):
                pieces.append(DensityPiece(iv[0], iv[1], tuple(coeffs)))
        support = [s for s, _ in atoms] + [pc.b for pc in pieces]
        return ScalarDelayDistribution(
            atoms=atoms,
            pieces=tuple(pieces),
            tau_max=max(support, default=0.0),
            probability=True,
        )
    raise SchemaError(f"{where}.type", f"unknown distribution type {kind!r}")


def measure_from_json(obj, n, where):
    atoms = []
    for i, a in enumerate(obj.get("atoms", [])):
        lag = _lag(a, f"{where}.atoms[{i}]")
        atoms.append((lag, _matrix(a.get("matrix"), n, f"{where}.atoms[{i}].matrix")))
    pieces = []
    for i, d in enumerate(obj.get("densities", [])):
        iv = _interval(d, f"{where}.densities[{i}]")
        mat = _matrix(d.get("matrix"), n, f"{where}.densities[{i}].matrix")
        coeffs = _require(d, "density_coeffs", list, f"{where}.densities[{i}]")
        with _rejects(f"{where}.densities[{i}]"):
            pieces.append((mat, DensityPiece(iv[0], iv[1], tuple(coeffs))))
    support = [s for s, _ in atoms] + [pc.b for _, pc in pieces]
    return MatrixDelayMeasure(
        dim=n,
        atoms=tuple(atoms),
        pieces=tuple(pieces),
        tau_max=max(support, default=0.0),
    )


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        found = []
        try:
            raw = json.load(
                fh,
                parse_float=_recording(float, found),
                parse_int=_recording(int, found),
                parse_constant=_recording(float, found),
            )
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
            raise SchemaError(str(path), f"invalid JSON: {exc}") from exc
    if found:
        _require_finite(raw)

    version = _require(raw, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.schema_version", f"unsupported version {version}")
    n = _require(raw, "n", int, "$")
    if n < 1:
        raise SchemaError("$.n", "dimension must be >= 1")

    eta = measure_from_json(
        _require(raw, "linear_terms", dict, "$"), n, "$.linear_terms"
    )
    g_lin = measure_from_json(
        _require(raw, "g_linearization", dict, "$"), n, "$.g_linearization"
    )

    fb = _require(raw, "feedback", dict, "$")
    kappa = _require(fb, "kappa", float, "$.feedback")
    epsilon = _require(raw, "epsilon", float, "$")
    if epsilon <= 0:
        raise SchemaError("$.epsilon", "epsilon must be positive")

    kwargs = dict(g_lin=g_lin, kappa=kappa, epsilon=epsilon)
    if "measure" in fb:
        kwargs["f_general"] = measure_from_json(
            fb["measure"], n, "$.feedback.measure"
        )
    else:
        kwargs["structure_matrix"] = _matrix(
            fb.get("structure_matrix"), n, "$.feedback.structure_matrix"
        )
        dist = _require(fb, "distribution", dict, "$.feedback")
        with _rejects("$.feedback.distribution"):
            kwargs["distribution"] = distribution_from_json(
                dist, "$.feedback.distribution"
            )
    pert = PerturbationSpec(**kwargs)

    nonlinearity = "none"
    if "nonlinearity" in raw:
        nl = _require(raw, "nonlinearity", dict, "$")
        nonlinearity = _require(nl, "builtin", str, "$.nonlinearity")
        if nonlinearity not in ("van_der_pol", "none"):
            raise SchemaError("$.nonlinearity.builtin", f"unknown {nonlinearity!r}")

    sim = None
    if "simulation" in raw:
        sb = _require(raw, "simulation", dict, "$")
        history = _require(sb, "history", list, "$.simulation")
        if len(history) != n:
            raise SchemaError(
                "$.simulation.history", f"expected {n} components"
            )
        with _rejects("$.simulation.history"):
            history = tuple(float(x) for x in history)
        sim = SimConfig(
            t_end=_require(sb, "t_end", float, "$.simulation"),
            dt=_require(sb, "dt", float, "$.simulation"),
            history=history,
        )

    fb_tau = pert.distribution.tau_max if pert.factored else pert.f_general.tau_max
    tau_max = max(eta.tau_max, g_lin.tau_max, fb_tau)
    linear = LinearFDE(dim=n, eta=eta, tau_max=tau_max)
    return Problem(
        n=n,
        linear=linear,
        pert=pert,
        nonlinearity=nonlinearity,
        sim=sim,
        path=str(path),
    )
