import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from _helpers import (
    forcing_reference,
    integrate_numpy_reference,
    integrate_reference,
    rotation_fde,
    vdp_problem,
)
from hopfdelay import simulate
from hopfdelay.exceptions import ConfigError, TooShort
from hopfdelay.fde import PerturbationSpec
from hopfdelay.measures import (
    DensityPiece,
    MatrixDelayMeasure,
    dirac,
    triangular,
    uniform,
    zero_measure,
)
from hopfdelay.pipeline import build_sim_problem
from hopfdelay.problem import load_problem
from hopfdelay.simulate import (
    MAX_STEPS,
    SimProblem,
    Trajectory,
    _collect_terms,
    _delayed_forcing,
    _history_values,
    _stage_source,
    _stages,
    _taps,
    classify,
    integrate,
)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _rotation_problem(t_end, dt, history=(1.0, 0.0)):
    pert = PerturbationSpec(
        g_lin=zero_measure(2),
        kappa=0.0,
        epsilon=0.01,
        structure_matrix=np.zeros((2, 2)),
        distribution=dirac(0.0),
    )
    return SimProblem(
        linear=rotation_fde(),
        pert=pert,
        nonlinearity="none",
        history=history,
        t_end=t_end,
        dt=dt,
    )


def _synthetic(envelope, t_end=100.0, n=2001):
    ts = np.linspace(0.0, t_end, n)
    amp = envelope(ts)
    states = np.column_stack([amp * np.cos(ts), amp * np.sin(ts)])
    return Trajectory(
        times=ts, states=states, amplitude=np.abs(amp)
    )


class TestIntegrator:
    def test_rotation_norm_preserved(self):
        T = 2.0 * np.pi
        traj = integrate(_rotation_problem(T, T / 640.0))
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-6)
        assert np.max(np.abs(traj.amplitude - 1.0)) <= 1e-6

    def test_fourth_order_convergence(self):
        T = 6.4
        ref = integrate(_rotation_problem(T, 0.005)).states[-1]
        e_coarse = np.linalg.norm(integrate(_rotation_problem(T, 0.04)).states[-1] - ref)
        e_fine = np.linalg.norm(integrate(_rotation_problem(T, 0.02)).states[-1] - ref)
        assert e_coarse / e_fine == pytest.approx(16.0, abs=3.0)

    def test_deterministic(self):
        p = build_sim_problem(vdp_problem(5.0, t_end=30.0))
        a = integrate(p)
        b = integrate(p)
        assert np.array_equal(a.states, b.states)

    def test_delayed_scalar_exact_solution(self):
        # x' = -(pi/2) x(t-1) with history cos(pi t / 2) stays on the cosine
        from _helpers import scalar_lag_fde

        pert = PerturbationSpec(
            g_lin=zero_measure(1),
            kappa=0.0,
            epsilon=0.01,
            structure_matrix=np.zeros((1, 1)),
            distribution=dirac(0.0),
        )
        p = SimProblem(
            linear=scalar_lag_fde(),
            pert=pert,
            nonlinearity="none",
            history=lambda t: np.array([math.cos(math.pi * t / 2.0)]),
            t_end=10.0,
            dt=0.01,
        )
        traj = integrate(p)
        want = np.cos(np.pi * traj.times / 2.0)
        assert np.max(np.abs(traj.states[:, 0] - want)) <= 1e-6

    def test_blowup_flagged(self):
        from hopfdelay.measures import MatrixDelayMeasure

        eta = MatrixDelayMeasure(dim=1, atoms=((0.0, [[1.0]]),))
        pert = PerturbationSpec(
            g_lin=zero_measure(1),
            kappa=0.0,
            epsilon=0.01,
            structure_matrix=np.zeros((1, 1)),
            distribution=dirac(0.0),
        )
        p = SimProblem(
            linear=eta,
            pert=pert,
            nonlinearity="none",
            history=(0.1,),
            t_end=80.0,
            dt=0.01,
        )
        traj = integrate(p)
        assert traj.blowup
        assert classify(traj) == "Growth"

    def test_narrow_kernel_matches_discrete_lag(self):
        discrete = integrate(
            build_sim_problem(vdp_problem(5.0, t_end=50.0, dt=0.01))
        )
        kernel = integrate(
            build_sim_problem(
                vdp_problem(
                    5.0,
                    distribution=uniform(1.0, 0.01),
                    t_end=50.0,
                    dt=0.01,
                )
            )
        )
        assert np.max(np.abs(discrete.states - kernel.states)) <= 1e-3


def _scalar_kernel_problem(gain, a, b, history, t_end, dt):
    """x' = -gain int x(t - s) dh(s) with h uniform on [a, b]."""
    eta = MatrixDelayMeasure(
        dim=1,
        pieces=(([[-gain]], DensityPiece.from_local(a, b, (1.0,))),),
    )
    pert = PerturbationSpec(
        g_lin=zero_measure(1),
        kappa=0.0,
        epsilon=0.01,
        structure_matrix=np.zeros((1, 1)),
        distribution=dirac(0.0),
    )
    return SimProblem(
        linear=eta,
        pert=pert,
        nonlinearity="none",
        history=history,
        t_end=t_end,
        dt=dt,
    )


class TestKernelIntegration:
    def test_fourth_order_on_exact_solution(self):
        # h uniform on [1 - w, 1 + w]: int cos(omega (t - s)) dh = S sin(omega t)
        # at omega = pi/2, so gain omega/S keeps x = cos(omega t) exactly
        omega, w = math.pi / 2.0, 0.45
        gain = omega / (math.sin(omega * w) / (omega * w))
        errors = []
        for dt in (0.02, 0.01):
            traj = integrate(
                _scalar_kernel_problem(
                    gain, 1.0 - w, 1.0 + w,
                    lambda t: np.array([math.cos(omega * t)]), 8.0, dt,
                )
            )
            errors.append(
                np.max(np.abs(traj.states[:, 0] - np.cos(omega * traj.times)))
            )
        assert errors[0] / errors[1] >= 12.0

    @pytest.mark.parametrize(
        "distribution", [dirac(1.0), uniform(1.0, 0.45)], ids=["lag", "kernel"]
    )
    def test_blocks_match_step_by_step_reference(self, distribution):
        # the per-node scalar lookup after every step is the reference. The
        # stencil folds the Hermite weights into the node matrices and sums
        # per row offset, so it rounds apart from a lookup then a product:
        # 0 (lag) and 2.4e-17 (kernel) against the 0.1 amplitude seen here
        p = build_sim_problem(vdp_problem(5.0, distribution=distribution, t_end=20.0))
        got = integrate(p).states
        want = integrate_reference(p)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_memory_is_blocked(self):
        # blocks of 500 steps (the shortest lag is 10) read 2 x 500 stage
        # times at 1,280 kernel nodes: ~10 MB per lookup array unblocked;
        # row blocks keep the peak to a few small arrays. Up to t = 10 every
        # lookup is history, so x = 1 - t/2 there exactly.
        tracemalloc.start()
        try:
            traj = integrate(
                _scalar_kernel_problem(0.5, 10.0, 90.0, (1.0,), 20.0, 0.02)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        early = traj.times <= 10.0
        np.testing.assert_allclose(
            traj.states[early, 0], 1.0 - 0.5 * traj.times[early], atol=1e-13
        )
        assert peak < 8e6

    def test_memory_is_blocked_on_the_stencil(self):
        # past t = 90 every lookup reads stored rows: the last two blocks of
        # 256 steps run on the stencil, whose 1,280 nodes land on 2,722 row
        # offsets. Gathered for a whole block at once that is
        # 256 x 2,722 x 2 floats (11 MB); row blocks gather one step at a time
        tracemalloc.start()
        try:
            traj = integrate(
                _scalar_kernel_problem(0.5, 10.0, 90.0, (1.0,), 100.0, 0.02)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 5001
        assert np.all(np.isfinite(traj.states))
        assert peak < 8e6


def _forcing_case(lags, mats, dt, steps, start, history=None, blocks=1, live=None):
    """The stencil's forcing of `blocks` blocks from start, one call each,
    and the time-based lookup's, of the coordinates in live (all if None),
    on random stored rows Z, the scale of their entries, and Z."""
    rng = np.random.default_rng(0)
    lags, mats = np.asarray(lags, dtype=float), np.asarray(mats, dtype=float)
    n = mats.shape[1]
    live = np.arange(n) if live is None else np.asarray(live)
    stop = start + blocks * steps
    Z = np.zeros((stop + 1, 2 * n))
    Z[: stop - steps + 1] = rng.normal(size=(stop - steps + 1, 2 * n))
    if history is None:
        hist = _history_values(tuple(Z[0, :n]), n)
    else:
        hist = _history_values(history, n)
        Z[0, :n] = history(0.0)
    stored, _, forcing = _delayed_forcing(len(Z), hist, lags, mats, dt, steps, live)
    stored[:] = Z
    got = [forcing(b, b + steps) for b in range(start, stop, steps)]
    got = np.reshape(got, (-1, 2 * live.size))
    want = forcing_reference(Z, hist, lags, mats, dt, start, stop)[:, np.r_[live, live + n]]
    scale = np.max(np.abs(Z)) * np.sum(np.abs(mats))
    return got, want, scale, Z


def _sim_nodes(distribution, dt=0.02):
    return _collect_terms(
        build_sim_problem(vdp_problem(5.0, distribution=distribution, t_end=10.0, dt=dt))
    )[1:]


class TestStencilForcing:
    """The row stencil against a Hermite lookup per stage time."""

    @pytest.mark.parametrize(
        "nodes",
        [(1.0, 1.5, 2.0), uniform(1.0, 0.45), triangular(2.0, 0.6)],
        ids=["atoms", "uniform", "triangular"],
    )
    def test_matches_time_based_lookup(self, nodes):
        if isinstance(nodes, tuple):  # grid-aligned atoms
            rng = np.random.default_rng(1)
            lags, mats = np.array(nodes), rng.normal(size=(len(nodes), 2, 2))
        else:  # Gauss nodes off the grid
            lags, mats = _sim_nodes(nodes)
        dt = 0.02
        steps = int(lags.min() / dt)
        start = 4 * steps + int(lags.max() / dt)  # past the history prefix
        got, want, scale, _ = _forcing_case(lags, mats, dt, steps, start)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_node_near_a_row_snaps_to_it(self, side):
        # 1e-10 of a step off row 50 behind: the full stage reads that row
        # as the lag 50 dt itself (the half stage stays 1e-10 off row 49.5)
        dt, m = 0.02, 50
        mats = np.random.default_rng(2).normal(size=(1, 2, 2))
        near = _forcing_case([(m + side * 1e-10) * dt], mats, dt, m, 3 * m)
        exact = _forcing_case([m * dt], mats, dt, m, 3 * m)
        j0, w = _taps(np.array([[1.0]]) - (m + side * 1e-10), dt)
        assert j0[0, 0] == 1 - m
        assert w[:, 0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(near[0][:, 2:], exact[0][:, 2:])
        assert np.max(np.abs(near[0] - near[1])) <= 1e-13 * near[2]

    def test_kernel_straddling_the_history_prefix(self):
        # lags 0.55..1.45 at dt = 0.02: blocks of 27 steps; the block at 54
        # reads the history (callable) for its early nodes and stored rows
        # for the rest
        lags, mats = _sim_nodes(uniform(1.0, 0.45))
        dt, steps, start = 0.02, 27, 54
        assert start * dt < lags.max() and (start + steps) * dt > lags.max()

        def history(t):
            return np.array([np.cos(1.3 * t), 0.5 * np.sin(0.7 * t)])

        got, want, scale, _ = _forcing_case(lags, mats, dt, steps, start, history)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "history",
        [None, lambda t: np.array([np.cos(1.3 * t), 0.5 * np.sin(0.7 * t)])],
        ids=["constant", "callable"],
    )
    @pytest.mark.parametrize(
        "nodes",
        [(1.0, 1.5, 2.0, 1.006), uniform(1.0, 0.45), triangular(2.0, 0.6)],
        ids=["atoms", "uniform", "triangular"],
    )
    def test_every_block_before_the_longest_lag(self, nodes, history):
        # each block from 0 to the one past the longest lag, one call each:
        # the gather of the zero rows ahead of row 0 plus the history's
        # share. Z's rows are random, so x'(0+) is not the history's h'(0-),
        # and a lookup between rows -1 and 0 must not read it through the
        # gather. Lag 1.006 is 50.3 steps: off the grid at both stages.
        dt = 0.02
        if isinstance(nodes, tuple):
            rng = np.random.default_rng(1)
            lags, mats = np.array(nodes), rng.normal(size=(len(nodes), 2, 2))
        else:
            lags, mats = _sim_nodes(nodes)
        j0, w = _taps(np.array([[0.5], [1.0]]) - lags / dt, dt)
        assert np.all(w[2] > 0.0, axis=0).any()  # a node off the grid at both stages
        steps = int(lags.min() / dt)
        blocks = -j0.min() // steps + 1
        got, want, scale, Z = _forcing_case(lags, mats, dt, steps, 0, history, blocks)
        assert blocks * steps > lags.max() / dt and np.all(Z[0, 2:] != 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("live", [(1,), (0, 2), (2,)], ids=["x2", "x1-x3", "x3"])
    @pytest.mark.parametrize("start", [0, 250], ids=["history", "stored"])
    def test_live_coordinates_only(self, live, start):
        # the other rows of every node matrix are zero: their coordinates
        # leave the forcing, and the live ones keep their place in fh, ff
        rng = np.random.default_rng(5)
        lags, mats = np.array([1.0, 1.5, 1.006]), rng.normal(size=(3, 3, 3))
        mats[:, np.setdiff1d(np.arange(3), live)] = 0.0
        got, want, scale, _ = _forcing_case(
            lags, mats, 0.02, 50, start, lambda t: np.cos([t, 2 * t, 3 * t]), 2, live
        )
        assert got.shape == (100, 2 * len(live))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_kernel_nodes_on_one_lag_unit_subintervals(self):
        # x(t - s) is a C1 spline in s, so the simulator keeps 1-lag-unit
        # subintervals: 16 ceil(3.6 / 1) = 64 nodes on a 3.6-wide kernel,
        # not the 16 of the 4-rad rule at unit frequency
        lags, _ = _sim_nodes(uniform(3.0, 1.8))
        assert lags.size == 64

    def test_grid_atoms_read_rows_exactly_at_full_steps(self):
        dt = 0.02
        lags = np.array([1.0, 2.5, 0.4, 7.3])
        j0, w = _taps(np.array([[0.5], [1.0]]) - lags / dt, dt)
        assert np.array_equal(j0[1], 1 - np.round(lags / dt).astype(int))
        assert np.array_equal(w[:, 1], np.outer([1.0, 0.0, 0.0, 0.0], np.ones(4)))
        # one nonzero per matrix row: the full-stage forcing is M x[i + 1 - m]
        M = np.diag([2.0, -3.0])
        m, steps, start = 50, 50, 150
        got, _, _, Z = _forcing_case([m * dt], M[None], dt, steps, start)
        rows = Z[start + np.arange(steps) + 1 - m, :2]
        assert np.array_equal(got[:, 2:], rows @ M.T)


def _linear_problem(distribution, n=2, seed=0, t_end=40.0):
    """x' = A x + eps G x + eps kappa C int x(t - s) dh(s), nonlinearity none,
    A a unit rotation in the first two coordinates (if n >= 2) and decay in
    the rest, G and C random."""
    rng = np.random.default_rng(seed)
    A = -0.5 * np.eye(n)
    if n >= 2:
        A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    pert = PerturbationSpec(
        g_lin=MatrixDelayMeasure(dim=n, atoms=((0.0, rng.normal(size=(n, n))),)),
        kappa=1.3,
        epsilon=0.1,
        structure_matrix=rng.normal(size=(n, n)),
        distribution=distribution,
    )
    return SimProblem(
        linear=MatrixDelayMeasure(dim=n, atoms=((0.0, A),)),
        pert=pert,
        nonlinearity="none",
        history=tuple(0.1 * rng.uniform(-1.0, 1.0, n)),
        t_end=t_end,
        dt=0.02,
    )


def _spiral_problem(rate, t_end, dt, turn=1.0):
    """x' = (rate I - turn J) x: it leaves BLOWUP_NORM and, unchecked,
    overflows. turn = 0 makes the matrix diagonal (its zeros are -0.0 and
    0.0)."""
    eta = MatrixDelayMeasure(dim=2, atoms=((0.0, [[rate, -turn], [turn, rate]]),))
    pert = PerturbationSpec(
        g_lin=zero_measure(2),
        kappa=0.0,
        epsilon=0.1,
        structure_matrix=np.zeros((2, 2)),
        distribution=dirac(0.0),
    )
    return SimProblem(
        linear=eta,
        pert=pert,
        nonlinearity="none",
        history=(0.1, 0.0),
        t_end=t_end,
        dt=dt,
    )


def _late_overflow_problem():
    """x' = 512 x + x(t - 0.5) + x(t - 4) on a history that is 0 but for a
    bump on (-0.75, -0.7): only the lag 4 reads it, near t = 3.25, and the
    state, 0 until then, grows about 70x per step from there."""
    eta = MatrixDelayMeasure(
        dim=1,
        atoms=((0.0, [[512.0]]), (0.5, [[1.0]]), (4.0, [[1.0]])),
    )
    pert = PerturbationSpec(
        g_lin=zero_measure(1),
        kappa=0.0,
        epsilon=0.1,
        structure_matrix=np.zeros((1, 1)),
        distribution=dirac(0.0),
    )
    return SimProblem(
        linear=eta,
        pert=pert,
        nonlinearity="none",
        history=lambda t: [1.0] if -0.75 < t < -0.7 else [0.0],
        t_end=8.0,
        dt=0.01,
    )


def _assert_matches_numpy_stages(sim):
    got, want = integrate(sim), integrate_numpy_reference(sim)
    assert not got.blowup and not want.blowup
    scale = np.max(want.amplitude)
    assert np.max(np.abs(got.states - want.states)) <= 1e-12 * scale


def _assert_same_run(got, want):
    assert got.blowup == want.blowup
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.amplitude, want.amplitude)


class TestFloatStages:
    """The generated float stages against NumPy stages per step."""

    @pytest.mark.parametrize(
        "stem",
        ["vdp_stabilized", "vdp_stabilized_c78", "vdp_below_threshold", "vdp_open_loop",
         "vdp_uniform"],
    )
    def test_shipped_vdp_bit_identical(self, stem):
        # the instantaneous matrix has entries 0 and +-1 here, so every stage
        # product is exact and the float stages repeat NumPy's arithmetic;
        # vdp_open_loop (no delayed term) runs its 3,500 steps in 14 blocks
        # vdp_uniform (a kernel on [12, 14]) has no simulation block
        problem = load_problem(str(PROBLEMS / f"{stem}.json"))
        sim = build_sim_problem(problem, t_end=70.0, dt=0.05 if stem == "vdp_uniform" else None)
        got, want = integrate(sim), integrate_numpy_reference(sim)
        _assert_same_run(got, want)
        assert classify(got) == classify(want)
        assert got.decay_ratio == want.decay_ratio

    @pytest.mark.parametrize(
        "distribution, n",
        [
            (dirac(1.0), 1),
            (dirac(1.0), 2),
            (uniform(1.0, 0.45), 2),
            (uniform(1.0, 0.45), 3),
            (uniform(1.0, 0.45), 4),
        ],
        ids=["lag-1d", "lag", "kernel", "kernel-3d", "kernel-4d"],
    )
    def test_linear_problems_match_numpy_stages(self, distribution, n):
        # inexact products: NumPy's matrix-vector product may round apart
        # from the float sums; 0, 4.5e-16, 5.2e-16, 1.9e-15 and 1.5e-15 of
        # the amplitude seen here over 2,000 steps
        _assert_matches_numpy_stages(_linear_problem(distribution, n=n))

    def test_compiled_stages_shared_by_shape(self):
        # one compiled block per (n, vdp): a second problem of the same shape
        # with another instantaneous matrix reuses it, and still matches
        first, second = (_linear_problem(dirac(1.0), seed=s) for s in (1, 2))
        assert not np.array_equal(_collect_terms(first)[0], _collect_terms(second)[0])
        _assert_matches_numpy_stages(first)
        before = _stages.cache_info()
        _assert_matches_numpy_stages(second)
        after = _stages.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1

    def test_rows_add_left_to_right(self):
        # k_i = ((a_i0 x_0 + a_i1 x_1) + a_i2 x_2) + f_i, as sum() did up
        # to Python 3.11; with one nonzero product per row (the shipped
        # problems) any order gives the same bits, so pin it here
        rng = np.random.default_rng(3)
        deriv, _ = _stages(3, False)
        for _ in range(200):
            A, x, f = rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3)
            want = [
                A[i, 0] * x[0] + A[i, 1] * x[1] + A[i, 2] * x[2] + f[i] for i in range(3)
            ]
            assert deriv(x.tolist(), f.tolist(), 0.0, *A.ravel().tolist()) == want

    @pytest.mark.parametrize("n, vdp", [(1, False), (2, False), (2, True), (4, False)])
    def test_stage_source_squares_by_product(self, n, vdp):
        # float ** raises OverflowError where * gives inf past a blow-up
        assert "**" not in _stage_source(n, vdp)

    @pytest.mark.parametrize(
        "n, vdp", [(1, False), (2, False), (2, True), (3, False), (4, False)]
    )
    def test_zero_pattern_matches_dense(self, n, vdp):
        # entries 0, -0.0, 1, -1 and random, an all-zero row, and a random
        # live subset: the stages compiled for that key give == lists to
        # the dense ones, fed the same forcing with zeros in the dead
        # coordinates
        rng = np.random.default_rng(10 * n + vdp)
        dense_deriv, dense_block = _stages(n, vdp)
        unit = [0.0, -0.0, 1.0, -1.0]
        for _ in range(40):
            kind = rng.integers(5, size=(n, n))  # an index of unit, 4 random
            kind[rng.integers(n)] = 0
            A = np.where(kind < 4, np.take(unit, np.minimum(kind, 3)), rng.normal(size=(n, n)))
            pattern = tuple(unit[k] if k < 4 else None for k in kind.ravel().tolist())
            live = tuple(np.flatnonzero(rng.random(n) < 0.5).tolist())
            source = _stage_source(n, vdp, pattern, live)
            lines = source.splitlines()
            assert "**" not in source
            for (i, j), k in np.ndenumerate(kind):
                assert (f"a{i}_{j} *" in source) == (k == 4)
            for i in range(n):
                assert (f"fh{i}" in source) == (f"ff{i}" in source) == (i in live)
                if (kind[i] < 2).all() and not (vdp and i == 1):  # no product
                    assert f"    k{i} = {f'f{i}' if i in live else '0.0'}" in lines
            deriv, block = _stages(n, vdp, pattern, live)
            a = A.ravel().tolist()
            x, k1, f = (rng.normal(size=n) for _ in range(3))
            F = rng.normal(size=(7, 2, n))
            f[np.setdiff1d(np.arange(n), live)] = 0.0
            F[..., np.setdiff1d(np.arange(n), live)] = 0.0
            x, k1, f_live = x.tolist(), k1.tolist(), f[list(live)].tolist()
            F_live = F[..., list(live)].ravel().tolist() if live else range(7)
            assert deriv(x, f_live, 0.3, *a) == dense_deriv(x, f.tolist(), 0.3, *a)
            assert (block(x, k1, F_live, 0.3, 0.01, *a)
                    == dense_block(x, k1, F.ravel().tolist(), 0.3, 0.01, *a))

    @pytest.mark.parametrize(
        "stem, live",
        [("vdp_stabilized", (1,)), ("vdp_uniform", (1,)), ("vdp_open_loop", ())],
    )
    def test_shipped_vdp_stages_keyed_on_structure(self, monkeypatch, stem, live):
        # -J has entries 0 and +-1 and C = [[0, 0], [c, 0]]: the stages
        # multiply by no entry and read the forcing of x2 alone, and
        # vdp_open_loop's (kappa = 0) read no forcing and count the steps
        keys = []

        def spy(*key):
            keys.append(key)
            return _stages(*key)

        monkeypatch.setattr(simulate, "_stages", spy)
        problem = load_problem(str(PROBLEMS / f"{stem}.json"))
        integrate(build_sim_problem(problem, t_end=20.0, dt=0.05))
        assert keys == [(2, True, (0.0, 1.0, -1.0, 0.0), live)]
        source = _stage_source(*keys[0])
        assert not any(f"a{i}_{j} *" in source for i in range(2) for j in range(2))
        assert ("fh" in source, "ff" in source) == (bool(live), bool(live))
        assert ("    for _ in F:" in source) == (not live)

    def test_compiled_stages_keyed_by_zero_pattern(self):
        # entries are arguments: the same zero pattern with other values
        # reuses the compiled stages
        first, second = (
            _spiral_problem(rate, 10.0, 0.01, turn=0.0) for rate in (-0.5, -0.25)
        )
        _assert_matches_numpy_stages(first)
        before = _stages.cache_info()
        _assert_matches_numpy_stages(second)
        after = _stages.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1

    @pytest.mark.parametrize(
        "sim, rows",
        [
            # e^{t/20} growth passes 1e6 at row 16,119, inside a block of 256
            (build_sim_problem(vdp_problem(5.0, kappa=0.0, nonlinearity="none",
                                           t_end=600.0)), 16119),
            # rate 512 at dt = 0.01 grows ~70x per step: the rest of the
            # first block overflows to inf and nan (a power-of-two rate
            # keeps the stage products exact)
            (_spiral_problem(512.0, 20.0, 0.01), None),
            # blocks of 50 steps, tested every 300 rows: row 330 passes
            # 1e6, and the rows after it reach inf and nan before the test
            # at row 600, so the stencil gathers and multiplies them for the
            # blocks at 500 and 550
            (_late_overflow_problem(), 330),
            # no product by the zeros: x_1 stays 0 where 0 * inf was nan
            (_spiral_problem(512.0, 20.0, 0.01, turn=0.0), None),
        ],
        ids=["linear-open-loop", "overflow", "delayed-overflow", "diagonal-overflow"],
    )
    def test_blowup_inside_a_block(self, sim, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate(sim)
        want = integrate_numpy_reference(sim)
        assert got.blowup
        _assert_same_run(got, want)
        if rows is not None:
            assert len(got.times) == rows

    def test_float_lists_are_blocked(self):
        # with no delayed term nothing else splits the run into blocks. The
        # peak is about 3.5x the states' bytes: the state, derivative, time
        # and amplitude arrays, one block's float list and the norms of at
        # most two blocks' rows. Float lists for all 10,000 steps at once
        # put it near 27x.
        sim = build_sim_problem(vdp_problem(5.0, kappa=0.0, t_end=200.0))
        tracemalloc.start()
        try:
            traj = integrate(sim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10001
        assert peak < 6 * traj.states.nbytes


class TestConfigValidation:
    def test_dt_must_divide_lag(self):
        with pytest.raises(ConfigError):
            integrate(build_sim_problem(vdp_problem(5.0, t_end=10.0, dt=0.03)))

    def test_dt_too_coarse_for_lag(self):
        p = vdp_problem(5.0, distribution=dirac(0.1), t_end=10.0, dt=0.01)
        with pytest.raises(ConfigError):
            integrate(build_sim_problem(p))

    def test_kernel_support_must_clear_dt(self):
        p = vdp_problem(5.0, distribution=uniform(0.5, 0.5), t_end=10.0, dt=0.02)
        with pytest.raises(ConfigError):
            integrate(build_sim_problem(p))

    def test_vdp_needs_dimension_two(self):
        from hopfdelay.measures import MatrixDelayMeasure

        eta = MatrixDelayMeasure(dim=1, atoms=((0.0, [[-1.0]]),))
        pert = PerturbationSpec(
            g_lin=zero_measure(1),
            kappa=0.0,
            epsilon=0.1,
            structure_matrix=np.zeros((1, 1)),
            distribution=dirac(0.0),
        )
        with pytest.raises(ConfigError):
            SimProblem(
                linear=eta,
                pert=pert,
                nonlinearity="van_der_pol",
                history=(0.1,),
                t_end=10.0,
                dt=0.01,
            )

    @pytest.mark.parametrize(
        "t_end, dt",
        [(math.nan, 0.01), (math.inf, 0.01), (10.0, math.nan), (10.0, math.inf),
         (10.0, 0.0), (-10.0, 0.01)],
    )
    def test_horizon_and_step_finite_and_positive(self, t_end, dt):
        with pytest.raises(ConfigError, match="finite and positive"):
            _rotation_problem(t_end, dt)

    @pytest.mark.parametrize(
        "t_end, dt", [(1e12, 0.02), (1e300, 1e-300), (MAX_STEPS * 0.01 + 0.01, 0.01)]
    )
    def test_step_count_capped(self, t_end, dt):
        # refused in the constructor, before integrate allocates a row
        with pytest.raises(ConfigError, match=f"more than {MAX_STEPS}"):
            _rotation_problem(t_end, dt)

    def test_step_count_at_the_cap_accepted(self):
        assert _rotation_problem(MAX_STEPS * 0.01, 0.01).t_end == MAX_STEPS * 0.01

    def test_bad_history_shape(self):
        with pytest.raises(ConfigError):
            integrate(
                _rotation_problem(10.0, 0.01, history=(1.0, 0.0, 0.0))
            )


class TestClassify:
    def test_synthetic_decay(self):
        traj = _synthetic(lambda t: np.exp(-0.05 * t))
        assert classify(traj) == "Decay"
        assert traj.decay_ratio < 0.6

    def test_synthetic_sustained(self):
        traj = _synthetic(lambda t: np.ones_like(t))
        assert classify(traj) == "Sustained"

    def test_synthetic_growth(self):
        traj = _synthetic(lambda t: np.exp(0.05 * t))
        assert classify(traj) == "Growth"

    def test_too_short(self):
        traj = _synthetic(lambda t: np.ones_like(t), t_end=10.0, n=101)
        with pytest.raises(TooShort):
            classify(traj)

    def test_tiny_sustained_is_undetermined(self):
        traj = _synthetic(lambda t: 1e-6 * np.ones_like(t))
        assert classify(traj) == "Undetermined"


class TestVanDerPolOracle:
    def test_open_loop_limit_cycle(self):
        traj = integrate(build_sim_problem(vdp_problem(5.0, kappa=0.0)))
        assert classify(traj) == "Sustained"
        late = traj.amplitude[traj.times >= traj.times[-1] - 50.0]
        assert np.max(late) == pytest.approx(2.0, abs=0.1)

    def test_below_threshold_still_oscillates(self):
        traj = integrate(build_sim_problem(vdp_problem(0.5, t_end=400.0)))
        assert classify(traj) == "Sustained"

    def test_above_threshold_decays(self):
        traj = integrate(build_sim_problem(vdp_problem(5.0)))
        assert classify(traj) == "Decay"
