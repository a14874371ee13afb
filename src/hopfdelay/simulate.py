"""Ground-truth integration of the full delayed system by the method of steps.

Fixed-step classic Runge-Kutta. Every delayed term reads the measures' node
form: an atom at its lag, which dt must divide, and a kernel at Gauss nodes
on subintervals of NODE_SPAN lag units. A delayed value x(t - s) between step
rows is the cubic Hermite interpolant of the stored state/derivative pairs.
The steps advance in blocks no longer than the shortest lag (Bellen &
Zennaro, Numerical Methods for Delay Differential Equations, 2003), so every
delayed lookup of a block reads rows finished before the block starts.

Where the time goes: node s read at stage c (1/2 or 1) of step i sits at
grid position i + (c - s/dt), so its two row offsets and four Hermite
weights are constants of the run. They fold into the node matrices once,
summed per distinct offset, and every block's delayed forcing is one gather
of the stored (x, x') rows and one product with that stencil: the rows
ahead of row 0 are zeros, and the steps before the longest lag add the
history's share, computed once per run. A block's rows go straight into the
flat state array, and the blow-up test runs once BLOCK_STEPS rows or more
are untested, and at the end: one norm per row, which is the returned
amplitude (rows integrated past a blow-up may overflow to inf and nan; they
are dropped). The steps run in a function generated for the problem's
structure and compiled once per process. Its key is n, van der Pol or not,
each entry of the instantaneous matrix as 0, +1, -1 or other, and the
coordinates that some delayed node reaches (a row of the node matrices that
is not all zero). It is scalar statements on local floats: a zero entry has
no product and a +-1 entry is the state or its negative; a coordinate that
no node reaches has no column in the stencil, no float in the block's list
and no add, and with none the block counts its steps. The entries, eps and
dt are passed in. The shipped van der Pol problems (-J, and C with a zero
first row) multiply by no entry and read x2's forcing alone, and
vdp_open_loop reads none. Per step (2 cores, Python 3.11, NumPy 2.4, best
of 27 in process): about 0.94 us on the shipped van der Pol problems, 0.70
with no delayed term, 1.14 with the vdp_uniform kernel at dt = 0.04, 1.5 on
the verify-sim benchmark's 2-d kernels at dt = 0.05 (dense matrices, so
every product and coordinate stays) and 2.8 at n = 8 with one lag, a dense
C and a mostly diagonal instantaneous matrix.

Error: with a smooth history the scheme is 4th order, kernels included. A
history whose derivative jumps at t = 0 (every constant history) puts a kink
in the kernel integrand x(t - s) at s = t, which fixed Gauss subintervals do
not resolve, so kernel runs then reach a floor rather than an order: on
x' = -k int x(t - s) dh(s), h uniform on [0.55, 1.45], with history 1, the
runs at dt = 0.0025 and 0.00125 differ by about 5e-8. Deterministic by
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, TooShort
from .fde import PerturbationSpec
from .measures import MatrixDelayMeasure, row_blocks

BLOWUP_NORM = 1e6  # a row past it, or not finite, ends the trajectory
BLOCK_STEPS = 256  # longest block: bounds the float lists a block holds
# Kernel Gauss subinterval in lag units: x(t - s) is a C1 Hermite spline in
# s, not a smooth phase. On van der Pol (c1 = 5, uniform kernel on [1.2, 4.8],
# dt = 0.04, t_end = 40) 1 lag unit moves the states 1.9e-9 from one-step
# subintervals and 4 lag units 1.3e-7, half the RK4 error of 2.6e-7.
NODE_SPAN = 1.0
# Longest run, in steps: at n = 2 the stored x and x' rows, the times and the
# amplitudes take 48 bytes a step, so the cap bounds them to 480 MB.
MAX_STEPS = 10**7

DECAY_RATIO = 0.6
GROWTH_RATIO = 1.67
SUSTAINED_BAND = (0.9, 1.1)
SUSTAINED_FLOOR = 1e-4

MIN_SPAN = 20.0 * math.pi  # ten periods at unit frequency
WINDOW_FRACTION = 0.25  # classify's late window, a share of the span


@dataclass(frozen=True)
class SimProblem:
    linear: MatrixDelayMeasure
    pert: PerturbationSpec
    nonlinearity: str  # "van_der_pol" | "none"
    history: object  # constant vector or callable on [-tau_max, 0]
    t_end: float
    dt: float

    def __post_init__(self):
        if not (0.0 < self.t_end < math.inf and 0.0 < self.dt < math.inf):
            raise ConfigError("t_end and dt must be finite and positive")
        if not self.t_end / self.dt <= MAX_STEPS:  # before any array exists
            raise ConfigError(
                f"t_end/dt = {self.t_end / self.dt:.6g} steps, more than {MAX_STEPS}"
            )
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


def _history_values(history, n):
    """The history as a function of an array of times, returning (m, n)."""
    if callable(history):
        return lambda ts: np.array([history(t) for t in ts], dtype=float).reshape(-1, n)
    vec = np.asarray(history, dtype=float)
    if vec.shape != (n,):
        raise ConfigError(f"history vector shape {vec.shape}, expected ({n},)")
    return lambda ts: np.broadcast_to(vec, (len(ts), n))


def _collect_terms(problem):
    """Flatten linear, drift, and feedback measures into one node form.

    Returns (instant, lags[K], mats[K, n, n]): each node's matrix carries
    its weight and its contribution's factor; atoms at lag 0 go to the
    instantaneous matrix. The van der Pol drift is handled in the rhs. Each
    measure's node form is read once.
    """
    pert, dt, eps = problem.pert, problem.dt, problem.pert.epsilon
    # (factor, measure, C): a factored feedback is h's node form times C
    F = (pert.distribution, pert.structure_matrix) if pert.factored else (pert.f_general, None)
    contributions = [(1.0, problem.linear, None), (eps * pert.kappa, *F)]
    if problem.nonlinearity == "none":
        contributions.insert(1, (eps, pert.g_lin, None))

    lags, mats = [], []
    for factor, measure, C in contributions:
        if factor == 0.0:
            continue
        for s, _ in measure.atoms:
            if s <= 1e-12:
                continue
            steps = s / dt
            if abs(steps - round(steps)) > 1e-12 * max(1.0, steps):
                raise ConfigError(f"dt={dt} does not divide discrete lag {s}")
            if s < 20.0 * dt - 1e-12:
                raise ConfigError(f"dt={dt} too coarse for lag {s}: need dt <= lag/20")
        for piece in measure.pieces:
            a = (piece if C is not None else piece[-1]).a
            if a < dt - 1e-12:
                raise ConfigError(f"kernel support starts at {a} < dt={dt}")
        s, w, *A = measure.nodes(NODE_SPAN)
        lags.append(s)
        mats.append((factor * w)[:, None, None] * (A[0] if A else C))
    lags, mats = np.concatenate(lags), np.concatenate(mats)
    now = lags <= 1e-12
    return mats[now].sum(axis=0), lags[~now], mats[~now]


def _taps(v, dt):
    """Row offsets j0 and Hermite weights w (4 per position) of grid
    positions v: x at i + v is w0 x[i+j0] + w1 x'[i+j0] + w2 x[i+j0+1] +
    w3 x'[i+j0+1], for every row i. Positions within 1e-9 of a grid row
    read that row exactly: j0 is that row and w = (1, 0, 0, 0)."""
    j0 = np.floor(v)
    frac = v - j0
    up = frac > 1.0 - 1e-9
    j0 += up
    frac[up | (frac < 1e-9)] = 0.0
    f2, g2 = frac * frac, (1.0 - frac) ** 2
    weights = np.array([
        (1.0 + 2.0 * frac) * g2,
        frac * g2 * dt,
        f2 * (3.0 - 2.0 * frac),
        f2 * (frac - 1.0) * dt,
    ])
    return j0.astype(np.intp), weights


def _delayed_forcing(rows, hist, lags, mats, dt, steps, live):
    """(Z, f0, forcing): Z stores x and x' for rows 0..rows-1, f0 is
    int dM(s) x(t - s) at t = 0, and forcing(start, stop) the delayed
    forcing at the half and full stage of steps start..stop-1 (at most
    `steps`), as the flat list fh..., ff... per step that the generated
    block reads, every row of Z up to start finished. f0 and the forcing
    hold the coordinates in `live` only, the rows of the node matrices that
    are not all zero.

    Node s read at stage c (1/2 or 1) of step i sits at grid position
    i + (c - s/dt): its row offsets and weights are constants of the run.
    Each node's weights fold into its matrix and sum per distinct offset,
    one (U 2n, 2n) matrix S for U offsets and both stages, of which the
    live columns are kept, so a block's forcing is one gather of Z at
    start + i + offsets and one product with S for each len(G) rows (row
    blocks, like every batched integral's; one for most blocks). Z follows P zero rows, as many
    as step 0 reads behind row 0, and the steps before P add the history's
    share: the history at each lookup with t - s < 0, less what the gather
    reads there from row 0 (x(0) and x'(0+) through the second tap of a
    lookup between rows -1 and 0; x' jumps at t = 0).
    """
    n, K = mats.shape[1], lags.size
    cols = np.concatenate([live, np.add(live, n)])  # live (stage, coordinate)
    v = np.array([[0.5], [1.0]]) - lags / dt  # stage, node
    j0, w = _taps(v, dt)
    # tap 0 reads row i + j0, tap 1 row i + j0 + 1 off the grid; on it, tap
    # 1 has zero weights and shares tap 0's row
    off = np.stack([j0, j0 + (w[2] > 0.0)])  # tap, stage, node
    offsets, u = np.unique(off, return_inverse=True)
    # S[u, x|x', in, stage, out] sums w * M[out, in] in (tap, stage, node)
    # order; cell is each product's flat index in S
    W = w.reshape(2, 2, 2, K).transpose(0, 2, 3, 1)[..., None, None]  # tap, stage, node, x|x'
    base = u.reshape(off.shape) * (4 * n * n) + np.arange(0, 2 * n, n)[:, None]
    cell = base[..., None] + (np.arange(2 * n)[:, None] * (2 * n) + np.arange(n)).ravel()
    width = offsets.size * 2 * n
    S = np.bincount(cell.ravel(), (W * mats.transpose(0, 2, 1)[:, None]).ravel(), width * 2 * n)
    S = S.reshape(width, 2 * n).take(cols, axis=1)  # C order; [:, cols] gives F order

    P = max(0, -int(offsets[0]))
    store = np.zeros((P + rows, 2 * n))
    Z = store[P:]
    G = np.arange(steps)[row_blocks(steps, width)[0], None] + (offsets + P)
    Q = min(P, rows - 1)  # the steps that read the history
    coord_mats = mats.transpose(2, 0, 1).reshape(n * K, n)  # rows (coordinate, node)

    def history_share():
        # row 0 as read by tap 1 (coordinate, stage, node); the history is
        # called at every lookup of these steps, at t = 0 where t - s >= 0
        row0 = w[2] * Z[0, :n, None, None] + w[3] * Z[0, n:, None, None]
        share = np.empty((Q, 2 * n))
        for block in row_blocks(Q, 2 * K * n):
            i = np.arange(block.start, min(block.stop, Q))[:, None, None]
            r = i + j0  # step, stage, node
            H = hist(np.minimum((i + v) * dt, 0.0).ravel()).T.reshape((n,) + r.shape)
            Y = H * (r < 0) - row0[:, None] * (r == -1)  # coordinate, step, stage, node
            Y = Y.transpose(1, 2, 0, 3).reshape(-1, n * K)
            share[block] = (Y @ coord_mats).reshape(-1, 2 * n)
        return share.take(cols, axis=1)

    share = None

    def forcing(start, stop):
        nonlocal share
        parts = [store.take(G[: stop - b] + b, axis=0).reshape(-1, width) @ S
                 for b in range(start, stop, len(G))]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if start < Q:
            if share is None:  # once, at the first call: x'(0+) is stored
                share = history_share()
            out[: Q - start] += share[start:stop]
        return out.ravel().tolist()

    f0 = hist(-lags).T.reshape(n * K) @ coord_mats
    return Z, f0.take(live).tolist(), forcing


def _stage_source(n, vdp, pattern=(), live=None):
    """Source of deriv(x, f, eps, a...) and block(x, k1, F, eps, dt, a...) for
    dimension n, keyed on the structure of the problem. pattern is the
    instantaneous matrix's, row-major (() for a dense one): 0.0 for a zero
    entry, 1.0 or -1.0 for an exact +-1 and None for any other. A zero
    entry's product is left out, and a +-1 entry's is the state or its
    negative. live lists the coordinates some delayed node reaches (None for
    all): f, the float list F and the adds hold those only, and with none
    the block counts the steps of F. A row with neither product nor forcing
    is 0.0, the value of a dead coordinate's forcing.

    Each rule is exact for finite numbers: a product by 0 and an added
    dead forcing are +-0, and +-0 + z = z but for the sign of an exact
    zero; 1 * y = y and -1 * y = -y. Past a blow-up a dropped product no
    longer turns an inf into nan (those rows are dropped). Rows add left to
    right from the first term, as sum() did up to Python 3.11 (3.12
    compensates it, which agrees for n <= 2), and square by x * x (** can
    raise)."""
    idx = range(n)
    pattern = pattern or (None,) * (n * n)
    live = idx if live is None else live
    a = ", ".join(f"a{i}_{j}" for i in idx for j in idx)

    def names(p, coords=idx):
        return "".join(f"{p}{i}, " for i in coords)

    def product(i, j, y):  # a_ij y_j, or y_j and -y_j for an entry +-1
        return {1.0: f"{y}{j}", -1.0: f"-{y}{j}"}.get(pattern[i * n + j], f"a{i}_{j} * {y}{j}")

    def rhs(k, y, f):  # k = A y + f, and the van der Pol term on row 1
        rows = []
        for i in idx:
            terms = [product(i, j, y) for j in idx if pattern[i * n + j] != 0.0]
            terms += [f"{f}{i}"] * (i in live)
            terms += [f"eps * (1.0 - {y}0 * {y}0) * {y}1"] * (vdp and i == 1)
            rows.append(" + ".join(terms).replace(" + -", " - ") or "0.0")
        return [f"{k}{i} = {row}" for i, row in zip(idx, rows)]

    def stage(k, h, prev, f):  # k = rhs(x + h prev, f)
        return [f"y{i} = x{i} + {h} * {prev}{i}" for i in idx] + rhs(k, "y", f)

    step = (stage("k2_", "half", "k1_", "fh") + stage("k3_", "half", "k2_", "fh")
            + stage("k4_", "dt", "k3_", "ff")
            + [f"x{i} = x{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
               for i in idx]
            + rhs("k1_", "x", "ff") + [f"done += ({names('x')}{names('k1_')})"])
    forced = f"{names('fh', live)}{names('ff', live)}in zip({'F, ' * 2 * len(live)})"
    return "\n".join([
        f"def deriv(x, f, eps, {a}):",
        f"    {names('x')}{names('f', live)}= *x, *f",
        *("    " + line for line in rhs("k", "x", "f")),
        f"    return [{names('k')}]",
        f"def block(x, k1, F, eps, dt, {a}):",
        "    half, sixth, done, F = 0.5 * dt, dt / 6.0, [], iter(F)",
        f"    {names('x')}{names('k1_')}= *x, *k1",
        f"    for {forced if live else '_ in F'}:",
        *("        " + line for line in step),
        "    return done\n",
    ])


@functools.cache
def _stages(n, vdp, pattern=(), live=None):
    """(deriv, block) compiled once per process for each key of _stage_source."""
    namespace = {}
    exec(_stage_source(n, vdp, pattern, live), namespace)
    return namespace["deriv"], namespace["block"]


def integrate(problem):
    """Integrate the problem; raises ConfigError for invariant violations."""
    n = problem.linear.dim
    dt = problem.dt
    n_steps = int(round(problem.t_end / dt))
    if abs(n_steps * dt - problem.t_end) > 1e-9:
        n_steps = int(math.ceil(problem.t_end / dt))
    hist = _history_values(problem.history, n)
    instant, lags, mats = _collect_terms(problem)
    a = instant.ravel().tolist()
    live = tuple(np.flatnonzero(mats.any(axis=(0, 2))).tolist())  # reached by a delayed node
    eps = problem.pert.epsilon
    deriv, block = _stages(n, problem.nonlinearity == "van_der_pol",
                           tuple(e if e in (0.0, 1.0, -1.0) else None for e in a), live)
    # method of steps: no lag is shorter than a block
    steps = max(1, min(int(lags.min(initial=problem.t_end) / dt), BLOCK_STEPS))

    times = np.arange(n_steps + 1) * dt
    if live:
        Z, f0, forcing = _delayed_forcing(n_steps + 1, hist, lags, mats, dt, steps, live)
    else:  # no forcing: the block counts its steps
        Z, f0 = np.zeros((n_steps + 1, 2 * n)), []

        def forcing(start, stop):
            return range(stop - start)

    flat = Z.reshape(-1)  # x and x' per row
    X = Z[:, :n]
    X[0] = hist(np.zeros(1))[0]

    x = X[0].tolist()
    k1 = deriv(x, f0, eps, *a)
    Z[0, n:] = k1
    amplitude = np.empty(n_steps + 1)
    amplitude[0] = np.linalg.norm(X[:1], axis=1)[0]  # the history: not tested
    last, blowup, checked = n_steps, False, 1  # rows before `checked` are kept
    # rows past a blow-up may overflow to inf and nan and feed the forcing
    # until the next test; they are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, steps):
            stop = min(start + steps, n_steps)
            done = block(x, k1, forcing(start, stop), eps, dt, *a)
            flat[2 * n * (start + 1) : 2 * n * (stop + 1)] = done
            x, k1 = done[-2 * n : -n], done[-n:]
            if stop + 1 - checked >= BLOCK_STEPS or stop == n_steps:
                norms = np.linalg.norm(X[checked : stop + 1], axis=1)
                amplitude[checked : stop + 1] = norms
                bad = ~(norms <= BLOWUP_NORM)
                if bad.any():
                    last, blowup = checked - 1 + int(bad.argmax()), True
                    break
                checked = stop + 1

    return Trajectory(times[: last + 1], X[: last + 1], amplitude[: last + 1], blowup)


def classify(traj, omega=1.0):
    """Label the trajectory by comparing late-window peak amplitudes.

    The last window (the final WINDOW_FRACTION of the span) is compared
    against the window of the same length ending half a span earlier.
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
    w = WINDOW_FRACTION * span
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
