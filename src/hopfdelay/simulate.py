"""Ground-truth integration of the full delayed system by the method of steps.

Fixed-step classic Runge-Kutta. Every delayed term reads the measures' node
form: an atom at its lag, which dt must divide, and a kernel at Gauss nodes
on subintervals of NODE_SPAN lag units. A delayed value x(t - s) between step
rows is the cubic Hermite interpolant of the stored state/derivative pairs.
The steps advance in blocks no longer than the shortest lag (Bellen &
Zennaro, Numerical Methods for Delay Differential Equations, 2003), so every
delayed lookup of a block reads rows finished before the block starts.

The delayed forcing: node s read at stage c (1/2 or 1) of step i sits at
grid position i + (c - s/dt), so its two row offsets and four Hermite
weights are constants of the run. They fold into the node matrices once,
summed per distinct offset, and every block's delayed forcing is one
gather of the stored (x, x') rows and one product with that stencil. The
rows ahead of row 0 are zeros, and the steps before the longest lag add the
history's share, computed once per run. The stencil keeps the columns of
the coordinates that some delayed node reaches (a row of the node matrices
that is not all zero). A block's rows go straight into the flat state
array, and the blow-up test runs once CHECK_ROWS rows or more are
untested, after a van der Pol block whose last row is past the bound, and
at the end: one norm per row, which is the returned amplitude (by columns
at n = 2, see _row_norms). The first bad row of the untested ones ends the
run, so the cadence moves no output: rows integrated past a blow-up may
overflow to inf and nan, and they are dropped.

Two paths run a block's steps. A linear run (nonlinearity "none") is affine
in its state: one RK4 step maps s = (x, x') at a row to P s + Q g, g =
(fh, ff) the step's forcing at its half and full stage, and P and Q come
from the four stages run on matrices once per run. Q folds into the stencil
and the history share, so a block's gather and product give the increments
u_i = Q g_i; the block adds P s_start to its first row and solves
s_{i+1} = P s_i + u_i for all its rows by doubling (Blelloch, Prefix sums
and their applications, 1990): u[d:] += u[:-d] (P^d)^T for d = 1, 2, 4, ...
below the block length, at most 8 products at BLOCK_STEPS. The powers are
built once per run and stop before the first that is not finite; a block
is then no longer than the 2^k rows that k finite powers cover, or a
product by inf would turn zero rows into nan. A van der Pol run (n = 2)
steps in a function generated for the problem's structure and compiled
once per process. Its key is each entry of the instantaneous matrix as 0,
+1, -1 or other, and the coordinates that some delayed node reaches. It is
scalar statements on local floats: a zero entry has no product and a +-1
entry is the state or its negative; a coordinate that no node reaches has
no float in the block's list and no add, and with none the block counts
its steps. The entries, eps and dt are passed in, and the block's list of
floats goes into the state array by one struct.pack_into (the array is
C-contiguous, and native doubles copy exactly, -0.0 included). The shipped
van der Pol problems (-J, and C with a zero first row) multiply by no entry
and read x2's forcing alone, and vdp_open_loop reads none. Per step (2
cores, Python 3.11, NumPy 2.4, in process, best of 27; the machine is
shared, so repeated runs spread by about 20 %): 0.87-0.90 us on the
shipped van der Pol problems, 0.68 on vdp_open_loop (no delayed term) and
1.24 on vdp_uniform's kernel at dt = 0.04; on linear runs 0.97-1.05 us on
the verify-sim benchmark's 2-d kernels (640 steps at dt = 0.05, the
per-run set-up included), 0.82 on a 2-d uniform kernel at dt = 0.02, 0.10
with no delayed term and 0.64 at n = 8 with one lag and a C whose every
entry is nonzero.

Error: with a smooth history the scheme is 4th order, kernels included. A
history whose derivative jumps at t = 0 (every constant history) puts a kink
in the kernel integrand x(t - s) at s = t, which fixed Gauss subintervals do
not resolve, so kernel runs then reach a floor rather than an order: on
x' = -k int x(t - s) dh(s), h uniform on [0.55, 1.45], with history 1, the
runs at dt = 0.0025 and 0.00125 differ by about 5e-8. Rounding: the linear
path reuses one rounded P, so its rounding grows like N eps over N steps,
not like sqrt(N) eps. The tests hold it to n N eps of the largest state in
n dimensions, against NumPy stages and against a long-double RK4
recurrence whose forcing the same stencil reads from its own rows; random
problems have shown up to 0.94 N eps (n = 8). On x' = 4 pi J x over 32,000
steps at dt = 0.00625 it is 1.0e-12 of the amplitude against the
long-double recurrence (0.14 N eps; the NumPy stages 2.0e-13). On
hidden_axis_pair (the same steps) the states move by 3.1e-12 of the
amplitude from the generated stages, where halving dt moves them by 6.6e-5.
Deterministic by construction.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, TooShort
from .measures import MatrixDelayMeasure, row_blocks
from .problem import PerturbationSpec

BLOWUP_NORM = 1e6  # a row past it, or not finite, ends the trajectory
BLOCK_STEPS = 256  # longest block: bounds the float lists a block holds
CHECK_ROWS = 2048  # rows left untested before the blow-up test runs
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


def _delayed_forcing(rows, hist, lags, mats, dt, steps, live, post=None):
    """(Z, f0, forcing): Z stores x and x' for rows 0..rows-1, f0 is
    int dM(s) x(t - s) at t = 0, and forcing(start, stop) the delayed
    forcing at the half and full stage of steps start..stop-1 (at most
    `steps`), one row fh..., ff... per step, every row of Z up to start
    finished. f0 and the forcing hold the coordinates in `live` only, the
    rows of the node matrices that are not all zero. A matrix `post`
    (2 len(live) rows) right-multiplies every forcing row: it folds into
    the stencil and the history share.

    Node s read at stage c (1/2 or 1) of step i sits at grid position
    i + (c - s/dt): its row offsets and weights are constants of the run.
    Each node's weights fold into its matrix and sum per distinct offset,
    one (U 2n, 2n) matrix S for U offsets and both stages, of which the
    live columns are kept, so a block's forcing is one gather of Z at
    start + i + offsets and one product with S, or one of each per row
    block (like every batched integral's) when a block's rows are more.
    Z follows P zero rows, as many as step 0 reads behind row 0, and the
    steps before P add the history's share: the history at each lookup
    with t - s < 0, less what the gather reads there from row 0 (x(0) and
    x'(0+) through the second tap of a lookup between rows -1 and 0; x'
    jumps at t = 0).
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
    if post is not None:
        S = S @ post

    P = max(0, -int(offsets[0]))
    store = np.zeros((P + rows, 2 * n))
    Z = store[P:]
    chunk = row_blocks(steps, width)[0].stop  # rows of one product, at most
    G = np.arange(min(steps, chunk))[:, None] + (offsets + P)

    def gather(start, stop):
        return store.take(G[: stop - start] + start, axis=0).reshape(-1, width)

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
        share = share.take(cols, axis=1)
        return share if post is None else share @ post

    share = None

    def forcing(start, stop):
        nonlocal share
        if stop - start <= chunk:
            out = gather(start, stop) @ S
        else:
            out = np.concatenate([gather(b, min(b + chunk, stop)) @ S
                                  for b in range(start, stop, chunk)])
        if start < Q:
            if share is None:  # once, at the first call: x'(0+) is stored
                share = history_share()
            out[: Q - start] += share[start:stop]
        return out

    f0 = hist(-lags).T.reshape(n * K) @ coord_mats
    return Z, f0.take(live).tolist(), forcing


def _stage_source(pattern=(), live=None):
    """Source of deriv(x, f, eps, a...) and block(x, k1, F, eps, dt, a...)
    for the van der Pol system at n = 2, keyed on the structure of the
    problem. pattern is the instantaneous matrix's, row-major (() for a
    dense one): 0.0 for a zero entry, 1.0 or -1.0 for an exact +-1 and None
    for any other. A zero entry's product is left out, and a +-1 entry's is
    the state or its negative. live lists the coordinates some delayed node
    reaches (None for both): f, the float list F and the adds hold those
    only, and with none the block counts the steps of F (a range). A row
    with neither product nor forcing is 0.0, the value of a dead
    coordinate's forcing.

    Each rule is exact for finite numbers: a product by 0 and an added
    dead forcing are +-0, and +-0 + z = z but for the sign of an exact
    zero; 1 * y = y and -1 * y = -y. Past a blow-up a dropped product no
    longer turns an inf into nan (those rows are dropped). Rows add left to
    right from the first term, and square by x * x (** can raise)."""
    idx = range(2)
    pattern = pattern or (None,) * 4
    live = idx if live is None else live
    a = ", ".join(f"a{i}_{j}" for i in idx for j in idx)

    def names(p, coords=idx):
        return "".join(f"{p}{i}, " for i in coords)

    def product(i, j, y):  # a_ij y_j, or y_j and -y_j for an entry +-1
        return {1.0: f"{y}{j}", -1.0: f"-{y}{j}"}.get(pattern[2 * i + j], f"a{i}_{j} * {y}{j}")

    def rhs(k, y, f):  # k = A y + f, and the van der Pol term on row 1
        rows = []
        for i in idx:
            terms = [product(i, j, y) for j in idx if pattern[2 * i + j] != 0.0]
            terms += [f"{f}{i}"] * (i in live)
            terms += [f"eps * (1.0 - {y}0 * {y}0) * {y}1"] * (i == 1)
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
def _stages(pattern=(), live=None):
    """(deriv, block) compiled once per process for each key of _stage_source."""
    namespace = {}
    exec(_stage_source(pattern, live), namespace)
    return namespace["deriv"], namespace["block"]


def _rk4_map(instant, dt):
    """(P, Q) of one RK4 step of x' = A x + f, A the instantaneous matrix:
    s' = P s + Q g, where s = (x, x') at a row, with x' the derivative the
    step starts from, and g = (fh, ff) the forcing at its half and full
    stage; x' at the next row is A x + ff. The four stages run on the
    matrices that give each quantity from (s, g)."""
    n = len(instant)
    x, k1, fh, ff = np.eye(4 * n).reshape(4, n, 4 * n)
    k2 = instant @ (x + 0.5 * dt * k1) + fh
    k3 = instant @ (x + 0.5 * dt * k2) + fh
    k4 = instant @ (x + dt * k3) + ff
    x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    M = np.vstack([x, instant @ x + ff])
    return M[:, : 2 * n], M[:, 2 * n :]


def _doubling_powers(P, steps):
    """The transposes of P, P^2, P^4, ... below `steps`, up to the first
    that is not finite: a block of up to 2^len rows then runs by doubling."""
    powers, power = [], P.T
    with np.errstate(over="ignore", invalid="ignore"):
        while 1 << len(powers) < steps and np.isfinite(power).all():
            powers.append(power)
            power = power @ power
    return powers


def _row_norms(x):
    """np.linalg.norm(x, axis=1), bit for bit. With two columns a row's
    norm is the root of one add of two squares, the same in either order,
    and taken by columns it runs about 7x faster than NumPy's reduce over
    rows of two."""
    if x.shape[1] != 2:
        return np.linalg.norm(x, axis=1)
    x0, x1 = x.T
    return np.sqrt(x0 * x0 + x1 * x1)


def integrate(problem):
    """Integrate the problem; raises ConfigError for invariant violations."""
    n = problem.linear.dim
    dt = problem.dt
    n_steps = int(round(problem.t_end / dt))
    if abs(n_steps * dt - problem.t_end) > 1e-9:
        n_steps = int(math.ceil(problem.t_end / dt))
    hist = _history_values(problem.history, n)
    instant, lags, mats = _collect_terms(problem)
    live = tuple(np.flatnonzero(mats.any(axis=(0, 2))).tolist())  # reached by a delayed node
    # method of steps: no lag is shorter than a block
    steps = max(1, min(int(lags.min(initial=problem.t_end) / dt), BLOCK_STEPS))
    linear = problem.nonlinearity == "none"
    post = None
    if linear:
        P, Q = _rk4_map(instant, dt)
        powers = _doubling_powers(P, steps)
        steps = min(steps, 1 << len(powers))
        post = Q[:, [*live, *(i + n for i in live)]].T

    times = np.arange(n_steps + 1) * dt
    if live:
        Z, f0, forcing = _delayed_forcing(n_steps + 1, hist, lags, mats, dt, steps, live, post)
    else:
        Z, f0 = np.zeros((n_steps + 1, 2 * n)), []

    X = Z[:, :n]
    X[0] = hist(np.zeros(1))[0]
    if linear:
        k1 = instant @ X[0]
        k1[list(live)] += f0
        Z[0, n:] = k1
    else:
        a = instant.ravel().tolist()
        eps = problem.pert.epsilon
        deriv, block = _stages(tuple(e if e in (0.0, 1.0, -1.0) else None for e in a), live)
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
            due = stop + 1 - checked >= CHECK_ROWS or stop == n_steps
            if linear:  # s_{i+1} = P s_i + u_i for every row, by doubling
                u = forcing(start, stop) if live else np.zeros((stop - start, 2 * n))
                u[0] += P.dot(Z[start])  # dot: half the call cost of @ here
                for k, power in enumerate(powers):
                    if 1 << k >= len(u):
                        break
                    u[1 << k :] += u[: -(1 << k)].dot(power)
                Z[start + 1 : stop + 1] = u
            else:
                F = forcing(start, stop).ravel().tolist() if live else range(stop - start)
                done = block(x, k1, F, eps, dt, *a)
                struct.pack_into(f"{len(done)}d", Z, Z.strides[0] * (start + 1), *done)
                x, k1 = done[-2 * n : -n], done[-n:]
                # a last row past the bound is tested now, so a blow-up
                # ends the run within a block, not CHECK_ROWS rows later
                due = due or not x[0] * x[0] + x[1] * x[1] <= BLOWUP_NORM**2
            if due:
                norms = _row_norms(X[checked : stop + 1])
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
