"""Ground-truth integration of the full delayed system by the method of steps.

Fixed-step classic Runge-Kutta with grid-aligned discrete lags; off-grid
history lookups use cubic Hermite interpolation on stored state/derivative
pairs, keeping the overall scheme 4th order. Deterministic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, TooShort
from .fde import LinearFDE, PerturbationSpec

BLOWUP_NORM = 1e6

DECAY_RATIO = 0.6
GROWTH_RATIO = 1.67
SUSTAINED_BAND = (0.9, 1.1)
SUSTAINED_FLOOR = 1e-4

MIN_SPAN = 20.0 * math.pi  # ten periods at unit frequency


@dataclass(frozen=True)
class SimProblem:
    linear: LinearFDE
    pert: PerturbationSpec
    nonlinearity: str  # "van_der_pol" | "none"
    history: object  # constant vector or callable on [-tau_max, 0]
    t_end: float
    dt: float

    def __post_init__(self):
        if self.t_end <= 0 or self.dt <= 0:
            raise ConfigError("t_end and dt must be positive")
        if self.nonlinearity not in ("van_der_pol", "none"):
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.nonlinearity == "van_der_pol" and self.linear.dim != 2:
            raise ConfigError("the van der Pol nonlinearity needs dimension 2")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (N+1) x n
    amplitude: np.ndarray  # Euclidean norm per sample
    blowup: bool = False
    classification: str | None = None
    decay_ratio: float | None = None


def _history_callable(history, n):
    if callable(history):
        return history
    vec = np.asarray(history, dtype=float)
    if vec.shape != (n,):
        raise ConfigError(f"history vector shape {vec.shape}, expected ({n},)")
    return lambda t: vec


def _collect_terms(problem):
    """Flatten linear, drift, and feedback measures into rhs terms.

    Returns (instant matrix, delayed atoms, kernel terms); the van der Pol
    drift is handled separately in the rhs.
    """
    L = problem.linear
    pert = problem.pert
    eps = pert.epsilon
    n = L.dim
    dt = problem.dt

    contributions = [(1.0, L.eta)]
    if problem.nonlinearity == "none":
        contributions.append((eps, pert.g_lin))
    contributions.append((eps * pert.kappa, pert.feedback_measure()))

    instant = np.zeros((n, n))
    delayed = []
    kernels = []
    for factor, measure in contributions:
        if factor == 0.0 or measure is None:
            continue
        for s, A in measure.atoms:
            if s <= 1e-12:
                instant = instant + factor * A
                continue
            steps = s / dt
            if abs(steps - round(steps)) > 1e-12 * max(1.0, steps):
                raise ConfigError(
                    f"dt={dt} does not divide discrete lag {s}"
                )
            if s < 20.0 * dt - 1e-12:
                raise ConfigError(
                    f"dt={dt} too coarse for lag {s}: need dt <= lag/20"
                )
            delayed.append((s, factor * A))
        for A, pc in measure.pieces:
            if pc.a < dt - 1e-12:
                raise ConfigError(
                    f"kernel support starts at {pc.a} < dt={dt}"
                )
            # trapezoid nodes: support endpoints plus interior grid multiples
            k_lo = math.ceil(pc.a / dt - 1e-9)
            k_hi = math.floor(pc.b / dt + 1e-9)
            nodes = [pc.a]
            for k in range(k_lo, k_hi + 1):
                s = k * dt
                if pc.a + 1e-12 < s < pc.b - 1e-12:
                    nodes.append(s)
            nodes.append(pc.b)
            nodes = np.array(nodes)
            w = np.empty_like(nodes)
            w[0] = 0.5 * (nodes[1] - nodes[0])
            w[-1] = 0.5 * (nodes[-1] - nodes[-2])
            if len(nodes) > 2:
                w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
            weights = w * pc.density(nodes)
            kernels.append((nodes, weights, factor * A))
    return instant, delayed, kernels


def integrate(problem):
    """Integrate the problem; raises ConfigError for invariant violations."""
    L = problem.linear
    n = L.dim
    dt = problem.dt
    n_steps = int(round(problem.t_end / dt))
    if abs(n_steps * dt - problem.t_end) > 1e-9:
        n_steps = int(math.ceil(problem.t_end / dt))
    hist = _history_callable(problem.history, n)
    instant, delayed, kernels = _collect_terms(problem)
    eps = problem.pert.epsilon
    vdp = problem.nonlinearity == "van_der_pol"

    times = np.arange(n_steps + 1) * dt
    X = np.zeros((n_steps + 1, n))
    Fd = np.zeros((n_steps + 1, n))

    def lookup(t):
        if t <= 1e-14:
            return np.asarray(hist(min(t, 0.0)), dtype=float)
        u = t / dt
        i = int(u)
        frac = u - i
        if frac < 1e-9:
            return X[i]
        if frac > 1.0 - 1e-9:
            return X[i + 1]
        h00 = (1.0 + 2.0 * frac) * (1.0 - frac) ** 2
        h10 = frac * (1.0 - frac) ** 2
        h01 = frac * frac * (3.0 - 2.0 * frac)
        h11 = frac * frac * (frac - 1.0)
        return (
            h00 * X[i]
            + (h10 * dt) * Fd[i]
            + h01 * X[i + 1]
            + (h11 * dt) * Fd[i + 1]
        )

    def rhs(t, x):
        dx = instant @ x
        for s, A in delayed:
            dx = dx + A @ lookup(t - s)
        for nodes, weights, A in kernels:
            acc = np.zeros(n)
            for s, w in zip(nodes, weights):
                acc = acc + w * lookup(t - s)
            dx = dx + A @ acc
        if vdp:
            dx[1] += eps * (1.0 - x[0] * x[0]) * x[1]
        return dx

    X[0] = np.asarray(hist(0.0), dtype=float)
    Fd[0] = rhs(0.0, X[0])
    blowup = False
    last = n_steps
    half = 0.5 * dt
    for k in range(n_steps):
        t = times[k]
        x = X[k]
        k1 = Fd[k]
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + dt, x + dt * k3)
        xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(xn)) or np.linalg.norm(xn) > BLOWUP_NORM:
            blowup = True
            last = k
            break
        X[k + 1] = xn
        Fd[k + 1] = rhs(t + dt, xn)

    times = times[: last + 1]
    X = X[: last + 1]
    amplitude = np.linalg.norm(X, axis=1)
    return Trajectory(
        times=times, states=X, amplitude=amplitude, blowup=blowup
    )


def classify(traj, window_fraction=0.25, omega=1.0):
    """Label the trajectory by comparing late-window peak amplitudes.

    The last window (default the final quarter) is compared against the
    window of the same length ending half a span earlier.
    """
    if traj.blowup:
        traj.classification = "Growth"
        traj.decay_ratio = math.inf
        return "Growth"
    span = float(traj.times[-1] - traj.times[0])
    if span * omega < MIN_SPAN:
        raise TooShort(
            f"span {span} covers fewer than ten periods at omega={omega}"
        )
    t_end = traj.times[-1]
    w = window_fraction * span
    late = traj.amplitude[traj.times >= t_end - w]
    early_mask = (traj.times >= t_end - w - 0.5 * span) & (
        traj.times <= t_end - 0.5 * span
    )
    early = traj.amplitude[early_mask]
    peak_late = float(np.max(late))
    peak_early = float(np.max(early))
    if peak_early <= 1e-300:
        label = "Decay" if peak_late <= 1e-12 else "Growth"
        traj.classification = label
        traj.decay_ratio = math.inf if label == "Growth" else 0.0
        return label
    ratio = peak_late / peak_early
    if ratio < DECAY_RATIO:
        label = "Decay"
    elif ratio > GROWTH_RATIO:
        label = "Growth"
    elif (
        SUSTAINED_BAND[0] <= ratio <= SUSTAINED_BAND[1]
        and peak_late > SUSTAINED_FLOOR
    ):
        label = "Sustained"
    else:
        label = "Undetermined"
    traj.classification = label
    traj.decay_ratio = ratio
    return label
