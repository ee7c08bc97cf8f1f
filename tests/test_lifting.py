from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fast_step_realization, shift_register_lift

from cwcancel.hnorm import frequency_response, hinf_norm_discrete
from cwcancel.lifting import LiftedPlant, StepMismatchError, closed_loop, lift, partition
from cwcancel.lti import StateSpace, discretize_zoh
from cwcancel.plant import RelayParams, assemble_loop, first_order_lowpass


def open_loop_error_block(lifted):
    """The lifted w -> z block (the closed loop with K = 0)."""
    G = lifted.G
    return StateSpace(G.A, G.B[:, :lifted.n_w], G.C[:lifted.n_z, :],
                      G.D[:lifted.n_z, :lifted.n_w], dt=G.dt)


def test_dimensions(default_lifted):
    assert default_lifted.n_states == 8
    assert default_lifted.n_w == 32 and default_lifted.n_z == 32
    assert default_lifted.n_u == 2 and default_lifted.n_y == 2
    D = default_lifted.G.D
    # Strictly proper measurement path: no feedthrough into y at all.
    assert np.all(D[32:, :] == 0.0)


@pytest.mark.parametrize("N", [8, 16, 32, 64, 256])
def test_lifted_order_does_not_grow_with_n(N):
    # nW + nF + nP + ceil(d/N) * (nP + 2) = 2 + 0 + 2 + 1 * 4 at the defaults.
    assert lift(RelayParams(fsfh_ratio=N)).n_states == 8


@pytest.mark.parametrize("N", [1, 8, 32])
@pytest.mark.parametrize("delay", [1.0, 3.0], ids=["one_period", "three_periods"])
def test_one_pass_lift_equals_separate_lifts(N, delay):
    """_lift runs the fast-step loop once for several coupling gains, and
    each plant equals the lift at its gain to the bit: the sweep's
    ``designed`` (alpha) and ``perfect`` (0) loops come from one pass."""
    from cwcancel.lifting import _lift

    params = RelayParams(fsfh_ratio=N, delay_seconds=delay)
    alpha = params.coupling_gain
    plants = _lift(params, [alpha, 0.0])
    for gain, plant in zip((alpha, 0.0), plants):
        ref = lift(replace(params, coupling_gain=gain))
        assert (plant.n_w, plant.n_u, plant.n_z, plant.n_y) == (ref.n_w, ref.n_u, ref.n_z, ref.n_y)
        assert plant.G.dt == ref.G.dt
        for name in "ABCD":
            assert np.array_equal(getattr(plant.G, name), getattr(ref.G, name)), name
    # With F = I, alpha reaches the sampled measurement only: the y rows of C.
    assert not np.array_equal(plants[0].G.C, plants[1].G.C)


@pytest.mark.parametrize("params", [
    RelayParams(),
    RelayParams(antialias=first_order_lowpass(0.01)),
    RelayParams(delay_seconds=0.25),  # d = 4 < N = 16
    RelayParams(delay_seconds=2.5, antialias=StateSpace([[-100.0]], [[100.0]], [[1.0]], [[0.0]]),
                post_filter=first_order_lowpass(0.3)),  # d = 2.5 N
    RelayParams(fsfh_ratio=1),  # d = 1
], ids=["defaults", "dynamic-F", "d<N", "d=2.5N", "N=1"])
def test_lift_matches_shift_register_oracle(params):
    # The slow-rate (x_P, u) register is the same operator as the paper's
    # fast-rate shift register of t.
    theta = np.linspace(0.0, np.pi, 65)
    ours = frequency_response(lift(params).G, theta)
    ref = frequency_response(shift_register_lift(params).G, theta)
    assert ours.shape == ref.shape
    err = np.linalg.norm(ours - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() < 1e-12


@st.composite
def scalar_filters(draw, strictly_proper=False):
    """A stable scalar filter of order 1 (pole in [0.2, 50]) or 2 (omega_n in
    [0.5, 50], zeta in [0.2, 1.5]), with output gain in [0.5, 2] and, unless
    strictly proper, sometimes a feedthrough in [-0.5, 0.5]."""
    gain = draw(st.floats(0.5, 2.0))
    d = 0.0 if strictly_proper else draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
    if draw(st.booleans()):
        pole = draw(st.floats(0.2, 50.0))
        return StateSpace([[-pole]], [[pole]], [[gain]], [[d]])
    wn, zeta = draw(st.floats(0.5, 50.0)), draw(st.floats(0.2, 1.5))
    return StateSpace([[0.0, 1.0], [-wn ** 2, -2.0 * zeta * wn]], [[0.0], [wn ** 2]],
                      [[gain, 0.0]], [[d]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), N=st.sampled_from([1, 2, 4, 8]), h=st.sampled_from([0.5, 1.0, 2.0]),
       alpha=st.floats(0.0, 0.9), carrier=st.floats(0.0, 2.0e4),
       W=scalar_filters(strictly_proper=True), F=st.one_of(st.none(), scalar_filters()),
       P=scalar_filters())
def test_lift_matches_shift_register_oracle_on_random_filters(data, N, h, alpha, carrier,
                                                              W, F, P):
    # Any delay of 1 to 3N fast steps, whole periods or not.
    d = data.draw(st.integers(1, 3 * N))
    params = RelayParams(sampling_period=h, fsfh_ratio=N, delay_seconds=d * h / N,
                         coupling_gain=alpha, carrier_hz=carrier, input_shaping=W,
                         antialias=F, post_filter=P)
    assert params.delay_fast_steps() == d
    theta = np.linspace(0.0, np.pi, 65)
    ours = frequency_response(lift(params).G, theta)
    ref = frequency_response(shift_register_lift(params).G, theta)
    err = np.linalg.norm(ours - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h=st.sampled_from([0.25, 1.0, 3.0]), carrier=st.floats(0.0, 2.0e4),
       tau_w=st.floats(0.1, 10.0), tau_f=st.one_of(st.none(), st.floats(0.01, 10.0)),
       tau_p=st.floats(1e-4, 1.0))
@example(h=1.0, carrier=10000.0, tau_w=2.0, tau_f=None, tau_p=0.001)
def test_degenerate_lift_is_plain_zoh(h, carrier, tau_w, tau_f, tau_p):
    # N = 1, no delay, no coupling: lifting must coincide with single-step
    # ZOH discretization of the continuous core.
    params = RelayParams(
        sampling_period=h, fsfh_ratio=1, delay_seconds=0.0, coupling_gain=0.0,
        carrier_hz=carrier, input_shaping=first_order_lowpass(tau_w),
        antialias=None if tau_f is None else first_order_lowpass(tau_f),
        post_filter=first_order_lowpass(tau_p))
    lifted = lift(params)
    ref = discretize_zoh(assemble_loop(params), params.sampling_period)
    # Compare the (w, u) -> (z, y) block; the coupling ports (c, t) are unused.
    assert np.abs(lifted.G.A - ref.A).max() < 1e-12
    assert np.abs(lifted.G.B - ref.B[:, :4]).max() < 1e-12
    assert np.abs(lifted.G.C - ref.C[:4]).max() < 1e-12
    assert np.abs(lifted.G.D - ref.D[:4, :4]).max() < 1e-12


def test_open_loop_norm_matches_input_shaping_peak():
    # alpha = 0, K = 0: the lifted error map is the blocked ZOH-discretized
    # 1/(2s+1), whose peak sits at DC and survives discretization exactly.
    for N in (8, 16):
        lifted = lift(RelayParams(fsfh_ratio=N, coupling_gain=0.0))
        nrm = hinf_norm_discrete(open_loop_error_block(lifted), tol=1e-8)
        assert abs(nrm - 1.0) < 1e-9


def test_delay_timing():
    # A held control impulse first reaches the relay output one fast step in
    # (strictly proper post filter); its echo must hit the measurement
    # exactly d fast steps after that.
    params = RelayParams(coupling_gain=1.0, carrier_hz=0.0)
    Phi, Gw, Gu, Cz, Cy, Dzw, Dzu, Dyw, Dyu = partition(fast_step_realization(params), 2, 2)
    d = params.delay_fast_steps()
    core = assemble_loop(params)
    x = np.zeros(Phi.shape[0])
    u = np.array([1.0, 0.0])
    y_hist, u_out_hist = [], []
    tap, tapD = core.C[4:6], core.D[4:6, 2:4]  # the relay output t
    n = core.n_states
    for t in range(3 * d + 4):
        y_hist.append(Cy @ x + Dyu @ u)
        u_out_hist.append(tap @ x[:n] + tapD @ u)
        x = Phi @ x + Gu @ u
    y_hist = np.array(y_hist)
    u_out_hist = np.array(u_out_hist)
    t_u = int(np.argmax(np.abs(u_out_hist).max(axis=1) > 1e-12))
    t_y = int(np.argmax(np.abs(y_hist).max(axis=1) > 1e-12))
    assert t_y - t_u == d


def test_energy_bookkeeping_vs_fast_simulation(default_lifted, default_params):
    # Impulse responses of the lifted recursion over 64 slow steps must match
    # a brute-force fast-rate simulation channel by channel.
    Phi, Gw, Gu, Cz, Cy, Dzw, Dzu, Dyw, Dyu = partition(fast_step_realization(default_params),
                                                        2, 2)
    G = default_lifted.G
    N = default_params.fsfh_ratio
    n_slow = 64
    rng = np.random.default_rng(61)
    for _ in range(6):
        ch = int(rng.integers(0, default_lifted.n_w + default_lifted.n_u))
        # lifted propagation
        x = np.zeros(G.n_states)
        z_l = []
        for k in range(n_slow):
            uin = np.zeros(G.n_inputs)
            if k == 0:
                uin[ch] = 1.0
            nz = default_lifted.n_z
            z_l.append(G.C[:nz] @ x + G.D[:nz] @ uin)
            x = G.A @ x + G.B @ uin
        z_l = np.concatenate(z_l)
        # fast-rate brute force
        xf = np.zeros(Phi.shape[0])
        z_f = []
        for k in range(n_slow):
            for j in range(N):
                w = np.zeros(2)
                u = np.zeros(2)
                if k == 0:
                    if ch < 32 and ch // 2 == j:
                        w[ch % 2] = 1.0
                    if ch >= 32:
                        u[ch - 32] = 1.0
                z_f.append(Cz @ xf + Dzw @ w + Dzu @ u)
                xf = Phi @ xf + Gw @ w + Gu @ u
        z_f = np.concatenate(z_f)
        assert np.abs(z_l - z_f).max() < 1e-9
        assert np.linalg.norm(z_l) == pytest.approx(np.linalg.norm(z_f), abs=1e-9)


def test_closed_loop_with_zero_controller(default_lifted):
    K0 = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                    np.zeros((2, 2)), dt=1.0)
    cl = closed_loop(default_lifted, K0)
    ref = open_loop_error_block(default_lifted)
    assert np.abs(cl.A - ref.A).max() == 0.0
    assert np.abs(cl.B - ref.B).max() == 0.0
    assert np.abs(cl.C - ref.C).max() == 0.0
    assert np.abs(cl.D - ref.D).max() == 0.0


def test_closed_loop_dimension(default_lifted, designed_controller):
    cl = closed_loop(default_lifted, designed_controller.K)
    assert cl.n_states == default_lifted.n_states + designed_controller.K.n_states
    assert cl.n_inputs == default_lifted.n_w and cl.n_outputs == default_lifted.n_z


def test_closed_loop_rejects_mismatched_controller(default_lifted):
    bad = StateSpace(np.zeros((1, 1)), np.zeros((1, 3)), np.zeros((2, 1)),
                     np.zeros((2, 3)), dt=1.0)
    with pytest.raises(ValueError, match="controller is 2x3, plant wants 2x2"):
        closed_loop(default_lifted, bad)
    wrong_step = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                            np.zeros((2, 2)), dt=2.0)
    with pytest.raises(StepMismatchError, match="controller step 2.0"):
        closed_loop(default_lifted, wrong_step)


def test_closed_loop_rejects_continuous_controller():
    # A K with states and dt = None is not a controller of the sampled loop;
    # a static gain has no step and is accepted.
    lifted = lift(RelayParams(fsfh_ratio=8))
    rng = np.random.default_rng(7)
    K = StateSpace(-np.eye(2), rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                   np.zeros((2, 2)))
    with pytest.raises(StepMismatchError, match="controller step None"):
        closed_loop(lifted, K)
    gain = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2)))
    assert closed_loop(lifted, gain).n_states == lifted.n_states


def test_closed_loop_algebraic_loop():
    # Force D22 = I and close with D_K = I: the loop I - D22 Dk is singular.
    G = StateSpace(np.zeros((1, 1)), np.zeros((1, 3)), np.zeros((3, 1)),
                   np.block([[np.zeros((2, 2)), np.zeros((2, 1))],
                             [np.zeros((1, 2)), np.eye(1)]]), dt=1.0)
    fake = LiftedPlant(G=G, n_w=2, n_u=1, n_z=2, n_y=1)
    K = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.eye(1), dt=1.0)
    with pytest.raises(ValueError, match="algebraic loop"):
        closed_loop(fake, K)
