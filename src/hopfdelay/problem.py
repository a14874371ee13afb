"""Problem-file schema (JSON, schema_version 1) and loading.

Matrices are row-major arrays of arrays; lags are always nonnegative numbers
(the negative-axis convention of the internal math never leaks into files).
A loaded Problem holds the linear part's delay measure and a PerturbationSpec,
its order-epsilon part, which this module defines.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import SchemaError
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
class PerturbationSpec:
    """The order-epsilon structure: linearized drift G and feedback F.

    The feedback is preferably factored as F = C * h (structure matrix times
    scalar delay distribution); a general matrix measure is accepted and
    flagged via factored=False.
    """

    g_lin: MatrixDelayMeasure
    kappa: float
    epsilon: float
    structure_matrix: np.ndarray | None = None
    distribution: ScalarDelayDistribution | None = None
    f_general: MatrixDelayMeasure | None = None

    def __post_init__(self):
        if self.structure_matrix is not None:
            mat = np.array(self.structure_matrix, dtype=float)
            mat.setflags(write=False)
            object.__setattr__(self, "structure_matrix", mat)
            if self.distribution is None:
                raise ValueError("factored feedback needs a distribution")
        elif self.f_general is None:
            raise ValueError("feedback needs either C*h or a general measure")

    @property
    def factored(self):
        return self.structure_matrix is not None


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float
    history: tuple


@dataclass(frozen=True)
class Problem:
    n: int
    linear: MatrixDelayMeasure  # the linear part's delay measure eta
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
    if not isinstance(val, kind) or isinstance(val, bool):
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
    if not np.isfinite(arr).all():  # a null entry reads as NaN
        raise SchemaError(where, "expected a matrix of numbers")
    return arr


def _entries(obj, key, where, required=False):
    """(path, entry) for each entry of the list obj[key], every entry an
    object; no entries when an optional key is absent."""
    items = _require(obj, key, list, where) if required or key in obj else []
    paths = [f"{where}.{key}[{i}]" for i in range(len(items))]
    for path, item in zip(paths, items):
        if not isinstance(item, dict):
            raise SchemaError(path, f"expected object, got {type(item).__name__}")
    return list(zip(paths, items))


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
        discrete = kind == "discrete"
        atoms = tuple(
            (_lag(a, path), _require(a, "weight", float, path))
            for path, a in _entries(obj, "atoms", where, required=discrete)
        )
        pieces = []
        for path, d in [] if discrete else _entries(obj, "densities", where):
            iv = _interval(d, path)
            coeffs = _require(d, "coeffs", list, path)
            with _rejects(path):
                pieces.append(DensityPiece(iv[0], iv[1], tuple(coeffs)))
        return ScalarDelayDistribution(
            atoms=atoms, pieces=tuple(pieces), probability=True
        )
    raise SchemaError(f"{where}.type", f"unknown distribution type {kind!r}")


def measure_from_json(obj, n, where):
    atoms = [
        (_lag(a, path), _matrix(a.get("matrix"), n, f"{path}.matrix"))
        for path, a in _entries(obj, "atoms", where)
    ]
    pieces = []
    for path, d in _entries(obj, "densities", where):
        iv = _interval(d, path)
        mat = _matrix(d.get("matrix"), n, f"{path}.matrix")
        coeffs = _require(d, "density_coeffs", list, path)
        with _rejects(path):
            pieces.append((mat, DensityPiece(iv[0], iv[1], tuple(coeffs))))
    return MatrixDelayMeasure(dim=n, atoms=tuple(atoms), pieces=tuple(pieces))


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
    if not isinstance(raw, dict):
        raise SchemaError("$", f"expected object, got {type(raw).__name__}")

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
            _require(fb, "measure", dict, "$.feedback"), n, "$.feedback.measure"
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

    return Problem(
        n=n,
        linear=eta,
        pert=pert,
        nonlinearity=nonlinearity,
        sim=sim,
        path=str(path),
    )
