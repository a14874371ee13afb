import math
import tracemalloc

import numpy as np
import pytest

from _helpers import integrate_reference, rotation_fde, vdp_problem
from hopfdelay.exceptions import ConfigError, TooShort
from hopfdelay.fde import LinearFDE, PerturbationSpec
from hopfdelay.measures import (
    DensityPiece,
    MatrixDelayMeasure,
    dirac,
    uniform,
    zero_measure,
)
from hopfdelay.pipeline import build_sim_problem
from hopfdelay.simulate import SimProblem, Trajectory, classify, integrate


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
        from hopfdelay.fde import LinearFDE
        from hopfdelay.measures import MatrixDelayMeasure

        eta = MatrixDelayMeasure(dim=1, atoms=((0.0, [[1.0]]),), tau_max=0.0)
        pert = PerturbationSpec(
            g_lin=zero_measure(1),
            kappa=0.0,
            epsilon=0.01,
            structure_matrix=np.zeros((1, 1)),
            distribution=dirac(0.0),
        )
        p = SimProblem(
            linear=LinearFDE(dim=1, eta=eta, tau_max=1.0),
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
        tau_max=b,
    )
    pert = PerturbationSpec(
        g_lin=zero_measure(1),
        kappa=0.0,
        epsilon=0.01,
        structure_matrix=np.zeros((1, 1)),
        distribution=dirac(0.0),
    )
    return SimProblem(
        linear=LinearFDE(dim=1, eta=eta, tau_max=b),
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
        # the per-node scalar lookup after every step is the reference; one
        # discrete lag gives the same arithmetic, so the states are equal
        p = build_sim_problem(vdp_problem(5.0, distribution=distribution, t_end=20.0))
        got = integrate(p).states
        want = integrate_reference(p)
        if distribution.pieces:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        else:
            assert np.array_equal(got, want)

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
        from hopfdelay.fde import LinearFDE
        from hopfdelay.measures import MatrixDelayMeasure

        eta = MatrixDelayMeasure(dim=1, atoms=((0.0, [[-1.0]]),), tau_max=0.0)
        pert = PerturbationSpec(
            g_lin=zero_measure(1),
            kappa=0.0,
            epsilon=0.1,
            structure_matrix=np.zeros((1, 1)),
            distribution=dirac(0.0),
        )
        with pytest.raises(ConfigError):
            SimProblem(
                linear=LinearFDE(dim=1, eta=eta, tau_max=1.0),
                pert=pert,
                nonlinearity="van_der_pol",
                history=(0.1,),
                t_end=10.0,
                dt=0.01,
            )

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
