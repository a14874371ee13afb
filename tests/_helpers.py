"""Builders shared by the test modules."""

import math

import numpy as np

from hopfdelay.averaging import _projection, p_from_structure
from hopfdelay.fde import I2, J, _laplace
from hopfdelay.measures import (
    GL_NODES,
    GL_WEIGHTS,
    DensityPiece,
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    dirac,
    integrate_matrix,
    moments,
    row_blocks,
    scale_about_mean,
    subintervals,
)
from hopfdelay.problem import PerturbationSpec, Problem, SimConfig


def rot(theta):
    """exp(J * theta) = cos(theta) I + sin(theta) J, shape theta.shape + (2, 2)."""
    return np.cos(theta)[..., None, None] * I2 + np.sin(theta)[..., None, None] * J


def split_gauss(width, max_span):
    """Gauss nodes u and weights on [0, 1], 16 on each subinterval no longer
    than max_span once [0, 1] is stretched to the given width."""
    centre, half = subintervals(width, max_span)
    return (centre + half * GL_NODES).ravel(), (half * GL_WEIGHTS).ravel()


VDP_G = MatrixDelayMeasure(dim=2, atoms=((0.0, [[0.0, 0.0], [0.0, 1.0]]),))


def zero_measure(dim):
    return MatrixDelayMeasure(dim=dim)


def rotation_fde():
    """x' = -J x: the harmonic oscillator in first-order form."""
    return MatrixDelayMeasure(dim=2, atoms=((0.0, -J),))


def scalar_lag_fde(coefficient=-np.pi / 2, lag=1.0):
    return MatrixDelayMeasure(dim=1, atoms=((lag, [[coefficient]]),))


def feedback_matrix(c1, c2=0.0):
    return np.array([[0.0, 0.0], [c1, c2]])


def vdp_problem(c1, c2=0.0, kappa=1.0, epsilon=0.1, distribution=None,
                t_end=200.0, dt=0.02, history=(0.1, 0.0),
                nonlinearity="van_der_pol"):
    """The delayed-feedback van der Pol benchmark as a parsed problem."""
    dist = distribution if distribution is not None else dirac(1.0)
    pert = PerturbationSpec(
        g_lin=VDP_G,
        kappa=kappa,
        epsilon=epsilon,
        structure_matrix=feedback_matrix(c1, c2),
        distribution=dist,
    )
    return Problem(
        n=2,
        linear=rotation_fde(),
        pert=pert,
        nonlinearity=nonlinearity,
        sim=SimConfig(t_end=t_end, dt=dt, history=tuple(history)),
        path="<memory>",
    )


def normalize_mass(atoms, pieces):
    raw = ScalarDelayDistribution(atoms=tuple(atoms), pieces=tuple(pieces))
    mass, _, _ = moments(raw)
    atoms = tuple((s, w / mass) for s, w in atoms)
    pieces = tuple(
        DensityPiece.from_local(pc.a, pc.b, np.divide(pc.q, mass))
        for pc in pieces
    )
    return ScalarDelayDistribution(atoms=atoms, pieces=pieces, probability=True)


def random_distribution(rng, tau_bar=2.0, halfwidth=0.8, n_atoms=2,
                        n_pieces=1):
    """Random probability distribution supported near tau_bar."""
    atoms = [
        (tau_bar + rng.uniform(-halfwidth, halfwidth), rng.uniform(0.2, 1.0))
        for _ in range(n_atoms)
    ]
    pieces = []
    for _ in range(n_pieces):
        a = tau_bar + rng.uniform(-halfwidth, 0.0)
        b = tau_bar + rng.uniform(1e-2, halfwidth)
        c0 = rng.uniform(0.1, 1.0)
        c1 = rng.uniform(-c0 / (b + 1e-9), c0 / (b + 1e-9))
        pieces.append(DensityPiece(a, b, (c0, c1)))
    return normalize_mass(atoms, pieces)


def random_symmetric_distribution(rng, tau_bar=15.0, max_offset=1.4):
    """Random distribution that mirrors about its mean."""
    atoms = []
    for _ in range(rng.integers(0, 3)):
        d = rng.uniform(0.1, max_offset)
        w = rng.uniform(0.2, 1.0)
        atoms.extend([(tau_bar - d, 0.5 * w), (tau_bar + d, 0.5 * w)])
    pieces = []
    for _ in range(rng.integers(1, 3)):
        a = rng.uniform(0.05, max_offset * 0.9)
        b = rng.uniform(a + 0.05, max_offset)
        c0 = rng.uniform(0.1, 1.0)
        pieces.append(DensityPiece(tau_bar - b, tau_bar - a, (c0,)))
        pieces.append(DensityPiece(tau_bar + a, tau_bar + b, (c0,)))
    if rng.uniform() < 0.5:
        w = rng.uniform(0.1, max_offset)
        pieces.append(DensityPiece(tau_bar - w, tau_bar + w, (rng.uniform(0.1, 1.0),)))
    return normalize_mass(atoms, pieces)


def random_piece_specs(rng, dim=2, n_pieces=1, tau_max=2.0):
    """(a, b, matrix, lag coefficients) of random matrix-measure pieces."""
    specs = []
    for _ in range(n_pieces):
        a = rng.uniform(0.0, tau_max * 0.5)
        b = rng.uniform(a + 0.1, tau_max)
        matrix = rng.normal(size=(dim, dim))
        specs.append((a, b, matrix, tuple(rng.normal(size=rng.integers(1, 4)))))
    return specs


def matrix_pieces(specs):
    """(matrix, DensityPiece) pairs from (a, b, matrix, lag coefficients)."""
    return tuple((m, DensityPiece(a, b, c)) for a, b, m, c in specs)


def random_matrix_measure(rng, dim=2, n_atoms=2, n_pieces=1, tau_max=2.0):
    atoms = [
        (rng.uniform(0.0, tau_max), rng.normal(size=(dim, dim)))
        for _ in range(n_atoms)
    ]
    pieces = matrix_pieces(random_piece_specs(rng, dim, n_pieces, tau_max))
    return MatrixDelayMeasure(dim=dim, atoms=tuple(atoms), pieces=pieces)


def feedback_measure(pert):
    """The feedback as one matrix measure F, assembling C*h when factored."""
    if not pert.factored:
        return pert.f_general
    C, h = pert.structure_matrix, pert.distribution
    atoms = tuple((s, w * C) for s, w in h.atoms)
    pieces = tuple((C, pc) for pc in h.pieces)
    return MatrixDelayMeasure(dim=C.shape[0], atoms=atoms, pieces=pieces)


def regauge(hopf, a, b):
    """Re-gauge the planar bases by M = a I + b J, keeping (Psi, Phi) = I."""
    import dataclasses

    M = a * I2 + b * J
    A = (a * I2 + b * J) / (a * a + b * b)
    return dataclasses.replace(
        hopf, Phi0=hopf.Phi0 @ M, Psi0=hopf.Psi0 @ A
    )


def synthetic_hopf(Phi0, Psi0):
    """HopfData carrier for hand-picked bases in algebraic identities."""
    from hopfdelay.fde import HopfData

    Phi0 = np.asarray(Phi0, dtype=float)
    Psi0 = np.asarray(Psi0, dtype=float)
    return HopfData(
        omega=1.0,
        v=Phi0[:, 0] - 1j * Phi0[:, 1],
        u=0.5 * (Psi0[:, 0] + 1j * Psi0[:, 1]),
        Phi0=Phi0,
        Psi0=Psi0,
        normalization_residual=0.0,
        ode_residual=0.0,
    )


def integrate_matrix_reference(measure, fun, zero, max_span=1.0):
    """Accumulate fun(s, A) over atoms plus int rho(s) fun(s, A) ds over
    pieces, one quadrature node at a time (no shared node form)."""
    total = zero
    for s, mat in measure.atoms:
        total = total + fun(s, mat)
    for mat, pc in measure.pieces:
        for node, weight in zip(*pc.quadrature(max_span)):
            total = total + weight * fun(node, mat)
    return total


def averaged_matrices(M, H):
    """Closed-form 2x2 period average of the projected measure.

    Both eigenvalues of the result have real part equal to half the
    corresponding scalar (p or q).
    """
    K = _projection(M, H)
    return 0.5 * np.trace(K) * I2 - 0.5 * np.trace(J @ K) * J


def periodic_average_oracle(M, H, n_nodes=256):
    """Brute-force one-period average of exp(-Jt) K exp(Jt).

    Trapezoid on a 2*pi-periodic trigonometric polynomial, hence exact up to
    roundoff for moderate n_nodes.
    """
    K = integrate_matrix_reference(
        M,
        lambda s, A: H.Psi0.T @ A @ H.Phi0 @ rot(-s),
        np.zeros((2, 2)),
    )
    ts = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    acc = np.zeros((2, 2))
    for t in ts:
        acc = acc + rot(-t) @ K @ rot(t)
    return acc / n_nodes


def finite_difference_derivatives(C, h_ref, H, step):
    """Central differences of p_mu about mu = 0, on pushforward measures.

    Negative mu reflects the reference about its mean, which extends p_mu
    smoothly to mu < 0; mu = 0 is the discrete delay at the mean.
    """
    _, mean, _ = moments(h_ref)

    def p(mu):
        dist = dirac(mean) if mu == 0 else scale_about_mean(h_ref, mu)
        return p_from_structure(C, dist, H).p

    p0, pp, pm = p(0.0), p(step), p(-step)
    d1 = (pp - pm) / (2.0 * step)
    d2 = (pp - 2.0 * p0 + pm) / (step * step)
    return d1, d2


def integrate_reference(problem):
    """Step-by-step RK4 with a scalar Hermite lookup per node and stage.

    The reference for simulate.integrate: it reads the same node form and
    places node s at stage c of step i at grid position i + (c - s/dt), but
    looks up x there one node at a time, after every earlier step, so it
    cannot read a row before it is finished. Returns the states.
    """
    from hopfdelay.simulate import _collect_terms

    n, dt = problem.linear.dim, problem.dt
    n_steps = int(round(problem.t_end / dt))
    instant, lags, mats = _collect_terms(problem)
    eps = problem.pert.epsilon
    hist = problem.history if callable(problem.history) else (
        lambda t: np.asarray(problem.history, dtype=float)
    )
    X = np.zeros((n_steps + 1, n))
    Fd = np.zeros((n_steps + 1, n))

    def lookup(i, c, s):
        v = c - s / dt
        j = math.floor(v)
        frac = v - j
        if frac > 1.0 - 1e-9:
            j, frac = j + 1, 0.0
        elif frac < 1e-9:
            frac = 0.0
        j += i
        if j < 0:
            return np.asarray(hist(min((i + v) * dt, 0.0)), dtype=float)
        if frac == 0.0:
            return X[j]
        h00 = (1.0 + 2.0 * frac) * (1.0 - frac) ** 2
        h10 = frac * (1.0 - frac) ** 2
        h01 = frac * frac * (3.0 - 2.0 * frac)
        h11 = frac * frac * (frac - 1.0)
        return (
            h00 * X[j] + (h10 * dt) * Fd[j] + h01 * X[j + 1] + (h11 * dt) * Fd[j + 1]
        )

    def rhs(i, c, x):
        dx = instant @ x
        if lags.size:
            dx = dx + sum(A @ lookup(i, c, s) for s, A in zip(lags, mats))
        if problem.nonlinearity == "van_der_pol":
            dx[1] += eps * (1.0 - x[0] * x[0]) * x[1]
        return dx

    X[0] = np.asarray(hist(0.0), dtype=float)
    Fd[0] = rhs(0, 0.0, X[0])
    half = 0.5 * dt
    for k in range(n_steps):
        x = X[k]
        k2 = rhs(k, 0.5, x + half * Fd[k])
        k3 = rhs(k, 0.5, x + half * k2)
        k4 = rhs(k, 1.0, x + dt * k3)
        X[k + 1] = x + (dt / 6.0) * (Fd[k] + 2.0 * k2 + 2.0 * k3 + k4)
        Fd[k + 1] = rhs(k, 1.0, X[k + 1])
    return X


def integrate_numpy_reference(problem):
    """RK4 stages on NumPy arrays and a blow-up test after every step.

    The reference for simulate.integrate's float stages: the same
    method-of-steps blocks and the library's delayed forcing (zeros in the
    coordinates that no delayed node reaches), but each stage is NumPy
    arithmetic on n-vectors, and the first row that is not finite or whose
    norm passes BLOWUP_NORM ends the run at once. Returns a Trajectory.
    """
    from hopfdelay.simulate import (
        BLOCK_STEPS,
        BLOWUP_NORM,
        Trajectory,
        _collect_terms,
        _delayed_forcing,
        _history_values,
    )

    n, dt = problem.linear.dim, problem.dt
    n_steps = int(round(problem.t_end / dt))
    if abs(n_steps * dt - problem.t_end) > 1e-9:
        n_steps = int(np.ceil(problem.t_end / dt))
    hist = _history_values(problem.history, n)
    instant, lags, mats = _collect_terms(problem)
    live = np.flatnonzero(mats.any(axis=(0, 2)))
    K = live.size
    eps = problem.pert.epsilon
    vdp = problem.nonlinearity == "van_der_pol"
    times = np.arange(n_steps + 1) * dt
    block = max(1, min(int(lags.min(initial=problem.t_end) / dt), BLOCK_STEPS))
    if K:
        Z, f0, forcing = _delayed_forcing(n_steps + 1, hist, lags, mats, dt, block, live)
    else:
        Z = np.zeros((n_steps + 1, 2 * n))

    def expand(f):  # the live coordinates' forcing, zeros in the others
        f = np.reshape(f, (-1, K))
        full = np.zeros((len(f), n))
        full[:, live] = f
        return full

    X, Fd = Z[:, :n], Z[:, n:]

    def rhs(x, f):
        dx = instant @ x
        if K:
            dx += f
        if vdp:
            dx[1] += eps * (1.0 - x[0] * x[0]) * x[1]
        return dx

    X[0] = hist(np.zeros(1))[0]
    Fd[0] = rhs(X[0], expand(f0)[0] if K else None)
    blowup, last, half = False, n_steps, 0.5 * dt
    for k in range(n_steps):
        if K and k % block == 0:
            F = expand(forcing(k, min(k + block, n_steps))).reshape(-1, 2, n)
        fh, ff = F[k % block] if K else (None, None)
        x = X[k]
        k1 = Fd[k]
        k2 = rhs(x + half * k1, fh)
        k3 = rhs(x + half * k2, fh)
        k4 = rhs(x + dt * k3, ff)
        xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(xn)) or np.linalg.norm(xn) > BLOWUP_NORM:
            blowup, last = True, k
            break
        X[k + 1] = xn
        Fd[k + 1] = rhs(xn, ff)
    X = X[: last + 1]
    return Trajectory(times[: last + 1], X, np.linalg.norm(X, axis=1), blowup)


def hermite_lookup(X, Fd, dt, u):
    """Cubic Hermite interpolation of the stored steps at grid positions u
    (times over dt, shape (R, K)); positions within 1e-9 of a grid row
    read that row exactly."""
    i = np.floor(u)
    frac = u - i
    up = frac > 1.0 - 1e-9
    i[up] += 1.0
    frac[up | (frac < 1e-9)] = 0.0
    i = i.astype(np.intp)
    h00 = ((1.0 + 2.0 * frac) * (1.0 - frac) ** 2)[..., None]
    h10 = (frac * (1.0 - frac) ** 2 * dt)[..., None]
    h01 = (frac * frac * (3.0 - 2.0 * frac))[..., None]
    h11 = (frac * frac * (frac - 1.0) * dt)[..., None]
    return h00 * X[i] + h10 * Fd[i] + h01 * X[i + 1] + h11 * Fd[i + 1]


def forcing_reference(Z, hist, lags, mats, dt, start, stop):
    """The delayed forcing of steps start..stop-1, shape (R, 2n) in the
    order fh..., ff..., by a lookup per stage time: each node's position
    (t_i + c dt - s)/dt carries the rounding of t_i = i dt, and every
    lookup with t - s <= 1e-14 reads the history."""
    n = Z.shape[1] // 2
    X, Fd = Z[:, :n], Z[:, n:]
    stage_times = (np.arange(start, stop)[:, None] * dt + (0.5 * dt, dt)).ravel()
    t = stage_times[:, None] - lags
    past = t <= 1e-14
    u = t / dt
    u[past] = 0.0
    Y = hermite_lookup(X, Fd, dt, u)
    if past.any():
        Y[past] = hist(np.minimum(t[past], 0.0))
    node_mats = mats.transpose(0, 2, 1).reshape(lags.size * n, n)
    return (Y.reshape(len(t), -1) @ node_mats).reshape(-1, 2 * n)


def flat_p_mu(C, h_ref, mu_max, H):
    """p_mu as one flat product exp(-i omega outer(mu, r - tau_bar)) @ w over
    all Gauss nodes r of the reference, tau_bar its mean and omega = H.omega,
    on subintervals no longer than 1/max(1, omega mu_max): the variance
    family without its factoring by subinterval. Returns p(mus).

    The offsets r - tau_bar are formed per piece as (a - tau_bar) + width*u,
    not from the node lags: a lag near 1000 carries a rounding of 1e-13,
    which mu ~ 1e3 turns into phase errors far above the tolerance that the
    factored form is held to.
    """
    _, mean, _ = moments(h_ref)
    fs = p_from_structure(C, dirac(mean), H)
    span = 1.0 / max(1.0, H.omega * mu_max)
    offsets = [np.array([s for s, _ in h_ref.atoms]) - mean]
    weights = [np.array([w for _, w in h_ref.atoms])]
    for pc in h_ref.pieces:
        u, w = split_gauss(pc.width, span)
        offsets.append((pc.a - mean) + pc.width * u)
        weights.append(w * np.polynomial.polynomial.polyval(u, pc.q))
    offsets, weights = np.concatenate(offsets), np.concatenate(weights)

    def p(mus):
        mus = np.asarray(mus, dtype=float)
        out = np.empty(mus.size)
        for rows in row_blocks(mus.size, offsets.size):
            z = np.exp(-1j * H.omega * np.outer(mus[rows], offsets)) @ weights
            z = np.exp(-1j * H.omega * mean) * z
            out[rows] = z.real * fs.tr_C_hat + z.imag * fs.tr_C_hat_J
        out[mus == 0.0] = fs.p
        return out

    return p


def grid_brackets(grid, values):
    """(a, b, p(a), p(b)) per sign change on the grid, one grid point at a
    time: points with |p| <= 1e-10 are passed over, and a bracket is the
    last point passed with |p| > 1e-10 and the next one of opposite sign."""
    brackets, last = [], None
    for m, v in zip(grid, values):
        if abs(v) <= 1e-10:
            continue
        if last is not None and (last[1] < 0.0) != (v < 0.0):
            brackets.append((last[0], m, last[1], v))
        last = (m, v)
    return brackets


def serial_sign_changes(p, grid):
    """(mu_lo, mu_hi, root) per sign change of p on the grid, each bracket
    bisected on its own, one p call per midpoint: the rules scan_mu keeps."""
    changes = []
    for a, b, pa, _ in grid_brackets(grid, p(grid).tolist()):
        lo, hi, plo = a, b, pa
        root = None
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            pm = p([mid])[0]
            if abs(pm) <= 1e-10:
                root = mid
                break
            if plo * pm < 0:
                hi = mid
            else:
                lo, plo = mid, pm
        if root is None:
            root = 0.5 * (lo + hi)
        changes.append((a, b, root))
    return tuple(changes)


def serial_illinois_sign_changes(p, grid):
    """(mu_lo, mu_hi, root) per sign change of p on the grid, each bracket
    refined on its own by Illinois false position, one p call per point:
    the secant point of the stored end values, the stored value of an end
    kept twice in a row halved, and the midpoint when the secant point is
    not strictly inside or the last three points left the bracket wider
    than half its width before them. The stopping rules are scan_mu's."""
    changes = []
    for a, b, pa, pb in grid_brackets(grid, p(grid).tolist()):
        lo, hi, plo, phi = a, b, pa, pb
        kept, widths, root = None, [], None
        while hi - lo > 1e-14 and lo < 0.5 * (lo + hi) < hi:
            x = lo - plo * (hi - lo) / (phi - plo)
            if not lo < x < hi or (len(widths) >= 3 and hi - lo > 0.5 * widths[-3]):
                x = 0.5 * (lo + hi)
            widths.append(hi - lo)
            px = p([x])[0]
            if abs(px) <= 1e-10:
                root = x
                break
            if plo * px < 0:
                hi, phi = x, px
                if kept == "lo":
                    plo *= 0.5
                kept = "lo"
            else:
                lo, plo = x, px
                if kept == "hi":
                    phi *= 0.5
                kept = "hi"
        if root is None:
            root = 0.5 * (lo + hi)
        changes.append((a, b, root))
    return tuple(changes)


def unbounded_hopf_pair(L, omega_max, grid_step=0.01):
    """find_hopf_pair with its grid running all the way to omega_max: the
    same minima, Newton and acceptance rules, with omega_max in place of
    the bound by Var(eta)."""
    from hopfdelay import fde
    from hopfdelay.exceptions import HopfNotFound, MultiplePairs

    omegas = np.arange(grid_step, omega_max + 0.5 * grid_step, grid_step)
    mags = np.abs(fde._det(L, 1j * omegas))
    padded = np.concatenate(([np.inf], mags, [np.inf]))
    found = []
    for i in np.flatnonzero((mags <= padded[:-2]) & (mags <= padded[2:])):
        lam = fde._newton_root(L, 1j * omegas[i])
        if lam is None:
            continue
        if (
            abs(lam.real) <= 1e-10
            and abs(fde._det(L, [lam])[0]) <= 1e-10
            and grid_step * 0.5 < lam.imag <= omega_max + grid_step
        ):
            if not any(abs(lam.imag - w) <= 1e-6 for w in found):
                found.append(lam.imag)
    if not found:
        raise HopfNotFound(
            f"no imaginary-axis characteristic root i*omega, omega > {grid_step / 2}"
        )
    if len(found) > 1:
        raise MultiplePairs(found)
    return float(found[0])


def winding_reference(L, re_lo, re_hi, im_lo, im_hi, n0=64, max_rounds=40):
    """The winding of det Delta around the box with n0 points on every side,
    whatever its length; the refinement and root-on-contour rules of
    fde._winding_number, whose exceptions it raises."""
    from hopfdelay import fde
    from hopfdelay.exceptions import ContourFailure

    re = (re_lo, re_hi, re_hi, re_lo)
    im = (im_lo, im_lo, im_hi, im_hi)
    corners = np.array([complex(x, y) for x, y in zip(re, im)])
    t = np.linspace(0.0, 1.0, n0, endpoint=False)
    sides = corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * t
    pts = np.append(sides.ravel(), corners[0])
    vals = fde._det(L, pts)
    scale = np.max(np.abs(vals))
    if scale == 0 or np.min(np.abs(vals)) < 1e-13 * scale:
        raise fde._RootOnContour
    for _ in range(max_rounds):
        diffs = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(diffs) >= 0.5 * np.pi)
        if bad.size == 0:
            total = float(diffs.sum()) / (2.0 * np.pi)
            k = round(total)
            if abs(total - k) > 0.25:
                raise ContourFailure(f"winding {total} not within 0.25 of an integer")
            return int(k)
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mid_vals = fde._det(L, mids)
        if np.min(np.abs(mid_vals)) < 1e-13 * scale:
            raise fde._RootOnContour
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mid_vals)
    raise ContourFailure("winding increments did not settle under refinement")


def char_matrix_derivative(L, lam):
    """Delta'(lambda) = I + int s exp(-lambda s) dM(s), batched like
    fde.char_matrix."""
    lam = np.asarray(lam, dtype=complex)
    return np.eye(L.dim) + _laplace(L, lam, lambda s, e: s * e)


def bilinear_pairing(L, Psi0, Phi0):
    """The bilinear form applied to the planar bases at frequency 1,
    integrated exactly.

    Psi(z) = Psi0 exp(J z) on [0, tau], Phi(theta) = Phi0 exp(J theta) on
    [-tau, 0]; returns the 2x2 pairing matrix. Lag s of dM adds
    s int_0^1 rot(-s u) B rot(s u - s) du with B = Psi0^T dM(s) Phi0: the
    part of B that commutes with J turns by rot(-s), the part that
    anticommutes averages to sin(s)/s. So all lags meet in one product with
    the kernel [s cos s, s sin s, sin s].
    """
    Bc, Bs, Bm = Psi0.T @ integrate_matrix(
        L, lambda s: np.array([s * np.cos(s), s * np.sin(s), np.sin(s)])
    ) @ Phi0
    C = Bc - Bs @ J  # int s B rot(-s)
    return Psi0.T @ Phi0 + 0.5 * (C - J @ C @ J + Bm + J @ Bm @ J)


def integrate_rotated(M, Phi0):
    """int dM(s) Phi0 rot(-s), one product with the kernel [cos s, sin s]
    since rot(-s) = cos(s) I - sin(s) J."""
    Mc, Ms = integrate_matrix(M, lambda s: np.array([np.cos(s), np.sin(s)]))
    return Mc @ Phi0 - Ms @ Phi0 @ J


def pairing_reference(L, Psi0, Phi0):
    """The bilinear form on the planar bases, one node of the delay measure
    at a time, each by Gauss quadrature on subintervals no longer than 1:
    1 radian of phase at unit frequency, both for the nodes of the measure
    and for the quadrature in z."""
    pairing = Psi0.T @ Phi0
    for s, w, A in zip(*L.nodes(1.0)):
        if s <= 0:
            continue
        # z = s (u - 1) runs over [-s, 0]
        u, wq = split_gauss(s, 1.0)
        z = s * (u - 1.0)
        B = Psi0.T @ A @ Phi0
        pairing = pairing + (w * s) * np.einsum(
            "j,jab,bc,jcd->ad", wq, rot(-(z + s)), B, rot(z)
        )
    return pairing


def total_variation_reference(measure):
    """Var of a matrix measure through numpy's Polynomial objects."""
    from numpy.polynomial import Polynomial

    tv = sum(np.linalg.norm(a) for _, a in measure.atoms)
    for mat, pc in measure.pieces:
        q = Polynomial(pc.q)
        roots = q.roots().real
        inside = roots[(roots > 0.0) & (roots < 1.0)]
        cuts = np.sort(np.concatenate(([0.0, 1.0], inside)))
        tv += np.linalg.norm(mat) * np.sum(np.abs(np.diff(q.integ()(cuts))))
    return float(tv)


def polyroots_minimum(q):
    """Minimum of q (ascending) on [0, 1] through numpy's polynomials: q at
    0, 1 and the real parts of the roots of q' that lie in (0, 1)."""
    poly = np.polynomial.polynomial
    roots = poly.polyroots(poly.polyder(q)).real
    cuts = np.concatenate(([0.0, 1.0], roots[(roots > 0.0) & (roots < 1.0)]))
    return float(np.min(poly.polyval(cuts, q)))


def attenuation_reference(h_ref, tau_bar, mus):
    """int cos(mu (s - tau_bar)) dh per mu, each on its own node form with
    subintervals no longer than 1/max(1, mu): 1 radian of phase at mu."""
    out = []
    for mu in mus:
        lags, weights = h_ref.nodes(1.0 / max(1.0, mu))
        out.append(float(np.cos(mu * (lags - tau_bar)) @ weights))
    return np.array(out)


def truncated_gamma_reference(shape, rate, support):
    """truncated_gamma's pieces as (a, b, q), fitted one piece at a time: a
    pdf call and a 4 x 4 solve per piece, normalized by the exact mass."""
    from hopfdelay.measures import GAMMA_PIECES, _exact_mass

    a, b = float(support[0]), float(support[1])
    mode = min(max((shape - 1.0) / rate, a), b)

    def pdf(s):
        with np.errstate(divide="ignore"):
            power = (shape - 1.0) * np.log(s / mode) if shape != 1.0 else 0.0
        return np.exp(power - rate * (s - mode))

    edges = np.linspace(a, b, GAMMA_PIECES + 1)
    u = np.linspace(0.0, 1.0, 4)
    vander = np.vander(u, 4, increasing=True)
    raw = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        q = np.linalg.solve(vander, (hi - lo) * pdf(lo + (hi - lo) * u))
        raw.append(DensityPiece.from_local(lo, hi, q))
    mass = _exact_mass((), raw)
    return [(pc.a, pc.b, np.array(pc.q) / mass) for pc in raw]


def integrate_long_double_reference(problem):
    """RK4 stages in long double on a linear problem, fed the library's
    delayed forcing: integrate's method-of-steps blocks, each block's
    forcing from _delayed_forcing on the rows so far, rounded to double.
    The reference for the rounding of simulate.integrate's linear path.
    Returns the states, in long double; no blow-up test."""
    from hopfdelay.simulate import (
        BLOCK_STEPS,
        _collect_terms,
        _delayed_forcing,
        _history_values,
    )

    n, dt = problem.linear.dim, problem.dt
    n_steps = int(round(problem.t_end / dt))
    hist = _history_values(problem.history, n)
    instant, lags, mats = _collect_terms(problem)
    live = np.flatnonzero(mats.any(axis=(0, 2)))
    block = max(1, min(int(lags.min(initial=problem.t_end) / dt), BLOCK_STEPS))
    if live.size:
        Z, f0, forcing = _delayed_forcing(n_steps + 1, hist, lags, mats, dt, block, live)
    ld = np.longdouble
    A, h = instant.astype(ld), ld(dt)
    X = np.zeros((n_steps + 1, n), dtype=ld)
    Fd = np.zeros_like(X)
    F = np.zeros((n_steps, 2, n), dtype=ld)  # fh, ff per step
    X[0] = hist(np.zeros(1))[0]
    Fd[0] = A @ X[0]
    if live.size:
        Fd[0, live] += f0
        Z[0] = np.concatenate([X[0], Fd[0]])
    for k in range(n_steps):
        if live.size and k % block == 0:
            stop = min(k + block, n_steps)
            F[k:stop, :, live] = forcing(k, stop).reshape(-1, 2, live.size)
        fh, ff = F[k]
        x, k1 = X[k], Fd[k]
        k2 = A @ (x + h / 2 * k1) + fh
        k3 = A @ (x + h / 2 * k2) + fh
        k4 = A @ (x + h * k3) + ff
        X[k + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        Fd[k + 1] = A @ X[k + 1] + ff
        if live.size:
            Z[k + 1] = np.concatenate([X[k + 1], Fd[k + 1]])
    return X
