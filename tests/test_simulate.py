import functools
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import relay_window_sums, simulate_point
from cwcancel.ber import modulate, sweep_beta
from cwcancel.hnorm import UnstableSystemError
from cwcancel.lifting import StepMismatchError, lift
from cwcancel.plant import RelayParams, first_order_lowpass
from cwcancel.simulate import (
    SimConfig,
    SimOutput,
    noise_amplitude,
    point_streams,
    simulate_chain,
    write_waveform_csv,
)
from cwcancel.synthesis import DigitalController, bisect_gamma
from cwcancel.lti import StateSpace


NOISE_OFF = {"noise_rs_dbm": -math.inf, "noise_t_dbm": -math.inf}


@pytest.fixture(scope="module")
def base_cfg(default_params, designed_controller):
    return SimConfig(params=default_params, controller=designed_controller, seed=123)


@pytest.fixture(scope="module")
def slow_unstable_cfg(default_params):
    """K with both poles at 1.0005 and input gain 1e-3: the designed loop's
    spectral radius is 1.000649805, and perfect runs K open-loop (1.0005).
    A 20 000-period run grows by about e^13, so no value overflows."""
    K = StateSpace(1.0005 * np.eye(2), 1e-3 * np.eye(2), np.eye(2), np.zeros((2, 2)), dt=1.0)
    return SimConfig(params=default_params, controller=DigitalController(K=K, gamma_achieved=1.0))


class TestUnstableLoop:
    """An unstable loop is refused by its spectral radius before any noise is drawn."""

    @pytest.fixture(autouse=True)
    def no_streams(self, monkeypatch):
        def draw(*args):
            raise AssertionError("noise drawn for an unstable loop")

        monkeypatch.setattr("cwcancel.simulate.point_streams", draw)

    def test_simulate_chain(self, slow_unstable_cfg):
        with pytest.raises(UnstableSystemError,
                           match="^designed loop: spectral radius 1.000649805 >= 1$"):
            simulate_chain(slow_unstable_cfg, np.zeros((16 * 40, 2)), "designed", 1.0)

    @pytest.mark.parametrize("kinds, message", [
        (["none", "designed", "perfect"], "designed loop: spectral radius 1.000649805 >= 1"),
        (["perfect"], "perfect loop: spectral radius 1.000500000 >= 1"),
    ], ids=["designed", "perfect"])
    def test_sweep_beta(self, slow_unstable_cfg, kinds, message):
        with pytest.raises(UnstableSystemError, match=f"^{message}$"):
            sweep_beta(slow_unstable_cfg, [1e-4, 1e-3], kinds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingTerminalWaveform:
    """A stable loop whose terminal waveform beta g u + n_T overflows a float
    is refused, without a warning, wherever that waveform is formed."""

    @pytest.fixture(scope="class")
    def loud_cfg(self, base_cfg):
        # g = 1e140: y_T is finite at beta = 1 and overflows at beta = 1e200.
        return replace(base_cfg, relay_gain_db=2800.0, n_symbols=200)

    def test_simulate_chain(self, loud_cfg):
        tx = np.ones((16 * 4, 2))
        assert np.isfinite(simulate_chain(loud_cfg, tx, "designed", 1.0).y_T).all()
        with pytest.raises(FloatingPointError, match="^terminal waveform overflows a float$"):
            simulate_chain(loud_cfg, tx, "designed", 1e200)

    @pytest.mark.parametrize("betas", [[1.0, 1e200], [1e200]], ids=["run", "pilot"])
    def test_sweep_beta(self, loud_cfg, betas):
        """The pilot reads the loop's u, not y_T, so with or without a finite
        point in the grid it is the runs at 1e200 whose windows overflow."""
        with pytest.raises(FloatingPointError, match="^terminal waveform overflows a float$"):
            sweep_beta(loud_cfg, betas, ["none", "designed"])

    def test_window_sum_overflows(self, base_cfg):
        """g = 1e150: at beta = 3e157 every sample of y_T would be finite, but
        a decision window's statistic, their sum, is not."""
        with pytest.raises(FloatingPointError, match="^terminal waveform overflows a float$"):
            sweep_beta(replace(base_cfg, relay_gain_db=3000.0, n_symbols=200), [1.0, 3e157],
                       ["designed"])

    def test_large_finite_gain_decides_as_without_terminal_noise(self, default_params):
        """g = 1e300 keeps every decision window's statistic finite at beta = 1
        and 2, and n_T is lost below its rounding, so the counts are those of
        a 60 dB relay with n_T off."""
        params = replace(default_params, fsfh_ratio=8)
        controller = bisect_gamma(lift(params), tol=1e-3).controller
        loud = SimConfig(params=params, controller=controller, relay_gain_db=6000.0,
                         noise_rs_dbm=5.0, n_symbols=400)
        quiet = replace(loud, relay_gain_db=60.0, noise_t_dbm=-math.inf)
        counts = [[[p.errors for p in curve.points]
                   for curve in sweep_beta(cfg, [1.0, 2.0], ["designed", "perfect"])]
                  for cfg in (loud, quiet)]
        assert counts[0] == counts[1]
        assert 0 < min(map(min, counts[0]))  # RS noise makes errors to compare


class TestNoiseAmplitude:
    def test_unit_reference(self):
        sigma = noise_amplitude(0.0)
        assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert 2.0 * sigma ** 2 == pytest.approx(1.0)

    def test_relay_side_value(self):
        sigma = noise_amplitude(-5.0)
        assert 2.0 * sigma ** 2 == pytest.approx(10.0 ** -0.5, rel=1e-12)

    def test_disabled(self):
        assert noise_amplitude(-math.inf) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            noise_amplitude(math.nan)


class TestChain:
    def test_zero_input_zero_noise(self, base_cfg, designed_controller, default_params):
        tx = np.zeros((16 * 12, 2))
        for kind in ("none", "designed", "perfect"):
            out = simulate_chain(replace(base_cfg, **NOISE_OFF), tx, kind, 1.0)
            assert np.all(out.u == 0.0)
            assert np.all(out.y_T == 0.0)
            assert np.all(out.z == 0.0)

    def test_linearity(self, base_cfg):
        cfg = replace(base_cfg, **NOISE_OFF)
        rng = np.random.default_rng(8)
        tx = rng.standard_normal((16 * 30, 2))
        one = simulate_chain(cfg, tx, "designed", 1.0)
        five = simulate_chain(cfg, 5.0 * tx, "designed", 1.0)
        assert np.abs(five.u - 5.0 * one.u).max() < 1e-10
        assert np.abs(five.y_T - 5.0 * one.y_T).max() < 1e-8

    def test_reproducibility(self, base_cfg):
        rng = np.random.default_rng(9)
        tx = rng.standard_normal((16 * 20, 2))
        a = simulate_chain(base_cfg, tx, "designed", 1.0)
        b = simulate_chain(base_cfg, tx, "designed", 1.0)
        assert np.array_equal(a.y_T, b.y_T)
        assert np.array_equal(a.u, b.u)

    def test_designed_equals_perfect_without_coupling(self, designed_controller):
        # The only difference between the two kinds is the coupling term.
        params = RelayParams(coupling_gain=0.0)
        rng = np.random.default_rng(10)
        tx = rng.standard_normal((16 * 40, 2))
        outs = {}
        for kind in ("designed", "perfect"):
            cfg = SimConfig(params=params, controller=designed_controller, seed=42)
            outs[kind] = simulate_chain(cfg, tx, kind, 1.0)
        assert np.array_equal(outs["designed"].y_T, outs["perfect"].y_T)

    def test_perfect_is_coupling_gain_invariant(self, designed_controller, default_params):
        # Exact subtraction makes the perfect baseline independent of alpha.
        rng = np.random.default_rng(11)
        tx = rng.standard_normal((16 * 40, 2))
        outs = []
        for alpha in (0.0, 0.15, 0.6):
            cfg = SimConfig(params=RelayParams(coupling_gain=alpha),
                            controller=designed_controller, seed=42)
            outs.append(simulate_chain(cfg, tx, "perfect", 1.0).y_T)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_none_transmits_nothing(self, base_cfg):
        rng = np.random.default_rng(12)
        tx = rng.standard_normal((16 * 10, 2))
        out = simulate_chain(base_cfg, tx, "none", 1.0)
        assert np.all(out.u == 0.0)
        assert np.array_equal(out.z, tx)

    def test_forward_gain_and_error_definitions(self, base_cfg):
        cfg = replace(base_cfg, relay_gain_db=20.0, **NOISE_OFF)
        rng = np.random.default_rng(13)
        tx = rng.standard_normal((16 * 10, 2))
        out = simulate_chain(cfg, tx, "designed", 0.25)
        assert np.abs(out.y_T - 0.25 * 10.0 * out.u).max() < 1e-12
        assert np.abs(out.z - (tx - out.u)).max() < 1e-12

    def test_bounded_over_long_horizon(self, base_cfg):
        # No slow divergence: 1e5 fast steps stay within 100x the early peak.
        rng = np.random.default_rng(14)
        n = 16 * 6250
        tx = rng.standard_normal((n, 2))
        out = simulate_chain(base_cfg, tx, "designed", 1.0)
        early = np.abs(out.u[:1000]).max()
        assert np.abs(out.u).max() <= 100.0 * early


def _zoh(A, B, tau):
    """Zero-order-hold discretization through the augmented exponential."""
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M * tau)
    return E[:n, :n], E[:n, n:]


def oracle_relay_output(params, K, kind, tx):
    """Relay output u of the noise-free loop, one fast step at a time.

    Written without the package's loop model: F and P are discretized
    separately, a d-sample delay line carries alpha * A_L * u back to the
    antialias input, and K updates from the sample at fast index 0 of each
    slow period.  ``perfect`` runs with alpha = 0; ``none`` holds u = 0.
    """
    N = params.fsfh_ratio
    tau = params.sampling_period / N
    d = round(params.delay_seconds / tau)
    alpha = 0.0 if kind == "perfect" else params.coupling_gain
    theta = -2.0 * math.pi * math.fmod(params.carrier_hz * params.delay_seconds, 1.0)
    AL = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    # RelayParams stores F and P in I/Q form; F = I has no states.
    F, P = params.antialias, params.post_filter
    (FA, FB), FC, FD = _zoh(F.A, F.B, tau), F.C, F.D
    (PA, PB), PC, PD = _zoh(P.A, P.B, tau), P.C, P.D

    xF, xP = np.zeros(FA.shape[0]), np.zeros(PA.shape[0])
    xK = np.zeros(K.K.n_states) if K is not None else None
    line = deque(np.zeros(2) for _ in range(d))  # u from d .. 1 fast steps ago
    u_hold = np.zeros(2)
    u = np.empty_like(tx)
    for t in range(tx.shape[0]):
        r = tx[t] + (alpha * AL @ line[0] if d else 0.0)
        y = FC @ xF + FD @ r
        if t % N == 0 and kind != "none":
            u_hold = K.K.C @ xK + K.K.D @ y
            xK = K.K.A @ xK + K.K.B @ y
        u[t] = PC @ xP + PD @ u_hold
        xF = FA @ xF + FB @ r
        xP = PA @ xP + PB @ u_hold
        if d:
            line.popleft()
            line.append(u[t])
    return u


@pytest.fixture(scope="module")
def oracle_cases(default_params, designed_controller):
    aa = RelayParams(antialias=first_order_lowpass(0.01))
    ft = RelayParams(fsfh_ratio=4, delay_seconds=0.75, carrier_hz=10000.3,
                     antialias=StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.5]]),
                     post_filter=StateSpace([[-1000.0]], [[1000.0]], [[1.0]], [[0.2]]))
    n1 = RelayParams(fsfh_ratio=1)
    lp4 = RelayParams(fsfh_ratio=4, antialias=first_order_lowpass(0.01))
    return {
        "defaults": (default_params, designed_controller),
        "rotated": (replace(default_params, carrier_hz=10000.125), designed_controller),
        "antialias": (aa, bisect_gamma(lift(aa), tol=5e-3).controller),
        "delay_free": (RelayParams(delay_seconds=0.0, coupling_gain=0.0), designed_controller),
        # F = 1/(s+1) + 0.5 and P = 1000/(s+1000) + 0.2: both feedthroughs
        # sit on the coupling path (D[y, c] and D[t, u_hold] of the core).
        "feedthrough": (ft, bisect_gamma(lift(ft), tol=5e-3).controller),
        "N1": (n1, bisect_gamma(lift(n1), tol=5e-3).controller),
        "lowpass4": (lp4, bisect_gamma(lift(lp4), tol=5e-3).controller),
    }


@pytest.mark.parametrize("case", ["defaults", "rotated", "antialias", "delay_free", "feedthrough"])
@pytest.mark.parametrize("kind", ["none", "designed", "perfect"])
def test_matches_per_step_oracle(oracle_cases, case, kind):
    assert_matches_oracle(oracle_cases, case, kind, 16 * 40)


@pytest.mark.parametrize("case", ["defaults", "antialias"])
@pytest.mark.parametrize("kind", ["designed", "perfect"])
def test_matches_per_step_oracle_across_chunk_edges(oracle_cases, case, kind):
    # 200 periods at N = 16 cross three edges of the 64-period chunks that
    # simulate_chain runs its period loop in.
    assert_matches_oracle(oracle_cases, case, kind, 16 * 200)


def assert_matches_oracle(oracle_cases, case, kind, n):
    """simulate_chain's noise-free u on n random samples against the oracle's."""
    params, K = oracle_cases[case]
    tx = np.random.default_rng(16).standard_normal((n, 2))
    cfg = SimConfig(params=params, controller=K, seed=0, **NOISE_OFF)
    u = simulate_chain(cfg, tx, kind, 1.0).u
    ref = oracle_relay_output(params, None if kind == "none" else K, kind, tx)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    if kind != "none":
        assert np.abs(ref).max() > 0.1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), periods=st.integers(1, 24),
       a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       kind=st.sampled_from(["designed", "perfect"]))
def test_noise_free_chain_is_linear_and_slow_rate_time_invariant(
        base_cfg, seed, periods, a, b, kind):
    cfg = replace(base_cfg, **NOISE_OFF)
    N = cfg.params.fsfh_ratio
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal((2, N * periods, 2))

    def u(tx):
        return simulate_chain(cfg, tx, kind, 1.0).u

    u1, u2 = u(x1), u(x2)
    scale = abs(a) * np.abs(u1).max() + abs(b) * np.abs(u2).max()
    assert np.abs(u(a * x1 + b * x2) - (a * u1 + b * u2)).max() <= 1e-12 * scale
    # Delaying the input by one slow period (N fast samples) delays u by N.
    delayed = u(np.vstack([np.zeros((N, 2)), x1]))
    assert np.all(delayed[:N] == 0.0)
    assert np.abs(delayed[N:] - u1).max() <= 1e-12 * np.abs(u1).max()


def stack_full(kernel, X, W):
    """_relay_output on the full (T, 2N, P) inputs W from the (n_x, P) loop
    states X, advanced in place, with U in the inputs' layout."""
    from cwcancel.simulate import _relay_output

    s = X.T.copy()
    U = _relay_output(kernel, W[:, kernel.cols].transpose(2, 0, 1), s)
    X[...] = s.T
    return U.transpose(1, 2, 0)


def none_loop(params):
    """The relay loop closed by K = 0, which the batch never builds for
    ``none``: the tests that run it pin that its relay output is exactly 0."""
    from cwcancel.lifting import closed_loop
    from cwcancel.plant import identity_filter

    K = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2)))
    return closed_loop(lift(replace(params, input_shaping=identity_filter())), K)


def test_none_loop_outputs_exact_zero(base_cfg):
    # The batched engine builds no loop for none because its relay output
    # is exactly 0; run that loop here to pin it.
    from cwcancel.simulate import _PeriodKernel

    kernel = _PeriodKernel(none_loop(base_cfg.params))
    W = np.random.default_rng(18).standard_normal((40, 32, 3))
    U = stack_full(kernel, np.zeros((kernel.n_states, 3)), W)
    assert np.all(U == 0.0)


def sequential_periods(loop, X, W):
    """The period recurrence one period at a time: e = C x + D w, u = w - e,
    x <- A x + B w, for the (T, 2N, P) inputs W of P runs."""
    U = np.empty_like(W)
    for k in range(W.shape[0]):
        U[k] = W[k] - (loop.C @ X + loop.D @ W[k])
        X = loop.A @ X + loop.B @ W[k]
    return U, X


@pytest.fixture(scope="module")
def period_maps(oracle_cases):
    """(params, controller) -> kind -> closed period map, by case name."""
    from cwcancel.simulate import _period_maps

    n32 = RelayParams(fsfh_ratio=32)
    cases = {
        "N16": oracle_cases["defaults"],
        "N32": (n32, bisect_gamma(lift(n32), tol=5e-3).controller),
        "antialias": oracle_cases["antialias"],  # F = 100/(s+100): all of w reaches the loop
        "feedthrough": oracle_cases["feedthrough"],
    }
    return {name: {"none": none_loop(params),
                   "designed": _period_maps(SimConfig(params=params, controller=K), ["designed"])[0]}
            for name, (params, K) in cases.items()}


class TestScanKernel:
    """The period loop's Markov stack (_relay_output), which scans the
    periods from a state, against the per-period recurrence."""

    @pytest.mark.parametrize("periods", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("P", [1, 12])
    @pytest.mark.parametrize("case", ["N16", "N32", "antialias", "feedthrough"])
    def test_matches_sequential_recurrence(self, period_maps, case, P, periods):
        from cwcancel.simulate import _PeriodKernel

        loop = period_maps[case]["designed"]
        rng = np.random.default_rng(1000 * P + periods)
        W = rng.standard_normal((periods, loop.n_inputs, P))
        X0 = rng.standard_normal((loop.n_states, P))
        U_ref, X_ref = sequential_periods(loop, X0, W)
        X = X0.copy()
        U = stack_full(_PeriodKernel(loop), X, W)
        assert np.abs(U - U_ref).max() <= 1e-13 * np.abs(U_ref).max()
        assert np.abs(X - X_ref).max() <= 1e-13 * np.abs(X_ref).max()

    @pytest.mark.parametrize("case", ["N16", "N32", "antialias", "feedthrough"])
    def test_none_outputs_exact_zero(self, period_maps, case):
        from cwcancel.simulate import _PeriodKernel

        loop = period_maps[case]["none"]
        W = np.random.default_rng(19).standard_normal((200, loop.n_inputs, 12))
        U = stack_full(_PeriodKernel(loop), np.zeros((loop.n_states, 12)), W)
        assert np.all(U == 0.0)

    @pytest.mark.parametrize("case", ["N16", "antialias"])
    def test_chunks_match_the_recurrence(self, period_maps, case):
        """Chunks of 64, 1, 63 and 44 periods from a random state: every
        chunk's u and the loop state after it."""
        from cwcancel.simulate import _PeriodKernel

        loop = period_maps[case]["designed"]
        kernel = _PeriodKernel(loop)
        rng = np.random.default_rng(20)
        X = rng.standard_normal((loop.n_states, 12))
        X_ref = X.copy()
        for periods in (64, 1, 63, 44):
            W = rng.standard_normal((periods, loop.n_inputs, 12))
            U_ref, X_ref = sequential_periods(loop, X_ref, W)
            U = stack_full(kernel, X, W)
            assert np.abs(U - U_ref).max() <= 1e-13 * np.abs(U_ref).max()
            assert np.abs(X - X_ref).max() <= 1e-13 * np.abs(X_ref).max()


# Antialias filters: a lowpass F = 100/(s+100), whose period passes on only
# its two I/Q states, and F = 1/(s+1) + 0.5, whose feedthrough reaches u.
ANTIALIAS = {"identity": None, "lowpass": first_order_lowpass(0.01),
             "feedthrough": StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.5]])}


@functools.lru_cache(maxsize=None)
def designed_loop(N, antialias):
    """The designed period loop at N with an ``ANTIALIAS`` filter."""
    from cwcancel.simulate import _period_maps

    params = RelayParams(fsfh_ratio=N, antialias=ANTIALIAS[antialias])
    K = bisect_gamma(lift(params), tol=5e-3).controller
    return _period_maps(SimConfig(params=params, controller=K), ["designed"])[0]


class TestWindowMap:
    """A kind's symbol-rate stack against the tests' own receiver on the
    per-period recurrence, sequential_periods and then relay_window_sums,
    with m = 2 periods a symbol."""

    @pytest.mark.parametrize("antialias, N, image", [
        ("identity", 8, False), ("identity", 16, False), ("identity", 32, False),
        ("lowpass", 8, True), ("lowpass", 16, True),
        ("feedthrough", 8, False), ("feedthrough", 16, True),
    ])
    def test_equals_the_scan(self, antialias, N, image):
        """Runs of 64, 1, 130, 63 and 44 symbols, the last one final, from a
        random loop state: every window and the loop state after each run.
        The stack reads w, or its image where that is narrower."""
        from cwcancel.simulate import _PeriodKernel, _SymbolStack

        loop, m, P = designed_loop(N, antialias), 2, 3
        kernel = _PeriodKernel(loop)
        stack = _SymbolStack(kernel, m)
        assert (stack.image is not None) == image
        rng = np.random.default_rng(N)
        X = rng.standard_normal((loop.n_states, P))
        s = np.zeros((1, P, stack.n_states))
        s[0, :, :loop.n_states] = X.T
        sums, U = [], []
        for symbols, final in ((64, False), (1, False), (130, False), (63, False), (44, True)):
            W = rng.standard_normal((symbols * m, loop.n_inputs, P))
            sums.append(stack.run(W[:, kernel.cols].transpose(2, 0, 1), s, final)[0])
            u, X = sequential_periods(loop, X, W)
            U.append(u)
            assert np.abs(s[0, :, :loop.n_states] - X.T).max() <= 1e-12 * np.abs(X).max()
        # The first symbol's output closes no window: sample 0 is in none.
        sums = np.concatenate(sums)[1:]
        ref = relay_window_sums(np.concatenate(U).reshape(-1, 2, P), m * N).transpose(0, 2, 1)
        assert sums.shape == ref.shape == (302, P, 2)
        assert np.abs(sums - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("S", [1, 64, 65, 130, 1000])
    @pytest.mark.parametrize("P", [1, 3])
    def test_any_length_is_its_chunks(self, S, P):
        """A run of S steps equals the same inputs fed in calls of at most
        one chunk, 32 steps, to the bit: its outputs and the states after it."""
        from cwcancel.simulate import _CHUNK_SYMBOLS, _MarkovStack, _PeriodKernel, _SymbolStack

        stack = _SymbolStack(_PeriodKernel(designed_loop(16, "identity")), 2)
        rng = np.random.default_rng(S)
        V = rng.standard_normal((P, S, stack.rows))
        s = rng.standard_normal((1, P, stack.n_states))
        s_chunks = s.copy()
        Y = _MarkovStack.run(stack, V, s)
        chunks = [_MarkovStack.run(stack, V[:, k:k + _CHUNK_SYMBOLS], s_chunks)
                  for k in range(0, S, _CHUNK_SYMBOLS)]
        assert _CHUNK_SYMBOLS == 32
        assert np.array_equal(Y, np.concatenate(chunks, axis=2))
        assert np.array_equal(s, s_chunks)

    @pytest.mark.parametrize("N", [16, 32, 64])
    def test_size_does_not_grow_with_N(self, N):
        """With F = 100/(s+100) the loop reads all 2N samples of w, but a
        period passes on only the kick to the filter's I/Q states: the stack
        reads those 2 numbers a period, and its 32-symbol map has one size,
        at every N."""
        from cwcancel.simulate import _PeriodKernel, _SymbolStack

        kernel = _PeriodKernel(designed_loop(N, "lowpass"))
        n = kernel.n_states
        assert kernel.cols.size == 2 * N
        assert _SymbolStack(kernel, 2).M.shape == (1, n + 4 + 32 * 2 * 2, 2 * 32 + n + 4)


class TestInputColumns:
    """Which columns of w reach the loop: the kernel reads only those."""

    @staticmethod
    def columns(params):
        from cwcancel.simulate import _period_maps, _PeriodKernel

        K = bisect_gamma(lift(params), tol=5e-3).controller
        loops = _period_maps(SimConfig(params=params, controller=K), ["designed", "perfect"])
        return [_PeriodKernel(loop).cols.tolist() for loop in loops]

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_identity_antialias_reads_the_sampled_pair(self, N):
        # F = I: w reaches the loop only through the sampler, at the first
        # fast instant of the period.
        assert self.columns(RelayParams(fsfh_ratio=N)) == [[0, 1], [0, 1]]

    @pytest.mark.parametrize("N", [8, 16])
    def test_dynamic_antialias_reads_every_sample(self, N):
        params = RelayParams(fsfh_ratio=N, antialias=first_order_lowpass(0.01))
        assert self.columns(params) == [list(range(2 * N))] * 2

    @pytest.mark.parametrize("antialias", [None, first_order_lowpass(0.01)],
                             ids=["F_identity", "F_lowpass"])
    def test_controlled_kinds_share_columns_with_feedthrough(self, antialias):
        """``designed`` and ``perfect`` close the same K with W = I, so they
        read the same columns of w, and the batch draws n_RS at exactly
        those; a K with feedthrough keeps it so."""
        from cwcancel.simulate import _ChainBatch, _period_maps, _PeriodKernel

        K = StateSpace([[0.5]], [[0.1, 0.0]], [[1.0], [0.0]], [[0.2, 0.1], [0.0, 0.3]], dt=1.0)
        cfg = SimConfig(params=RelayParams(fsfh_ratio=8, antialias=antialias),
                        controller=DigitalController(K=K, gamma_achieved=1.0))
        designed, perfect = (_PeriodKernel(loop).cols
                             for loop in _period_maps(cfg, ["designed", "perfect"]))
        assert np.array_equal(designed, perfect)
        assert designed.tolist() == ([0, 1] if antialias is None else list(range(16)))
        batch = _ChainBatch(cfg, ["none", "perfect", "designed"], [1.0])
        assert np.array_equal(batch.cols, designed)


class TestStackedKinds:
    """``designed`` and ``perfect`` run as one stacked system: each kind's
    statistics and pilot equal those of a batch of that kind alone, to the
    bit, over chunk edges and a short final chunk."""

    @pytest.fixture(scope="class")
    def half_delay(self):
        """F = 1/(s+1) + 0.5 and a delay of half a period at N = 16: the
        coupling reaches w's rows within the period, so each kind has its
        own image of w."""
        params = RelayParams(delay_seconds=0.5, antialias=ANTIALIAS["feedthrough"])
        return params, bisect_gamma(lift(params), tol=5e-3).controller

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("case", ["defaults", "antialias", "half_delay"])
    def test_each_kind_equals_its_own_batch(self, oracle_cases, half_delay, case, P):
        from cwcancel.simulate import _ChainBatch

        params, K = half_delay if case == "half_delay" else oracle_cases[case]
        cfg = SimConfig(params=params, controller=K, seed=13, n_symbols=2 * 32 + 44)
        betas = [1e-4, 3e-4, 1e-3][:P]
        bits = np.random.default_rng(P).integers(0, 2, (cfg.n_symbols, P))
        pilot_bits = np.ones(8, dtype=int)
        kinds = ["designed", "perfect"]
        both = _ChainBatch(cfg, kinds, betas)
        y, pilot = sweep_statistics(both, bits, (100, 8)), both.pilot(pilot_bits)
        if case != "defaults":
            images = both.stack.image
            assert images.shape[0] == 2
            assert np.array_equal(images[0], images[1]) == (case == "antialias")
        for kind in kinds:
            alone = _ChainBatch(cfg, [kind], betas)
            assert np.array_equal(sweep_statistics(alone, bits, (100, 8))[kind], y[kind])
            assert np.array_equal(alone.pilot(pilot_bits)[kind], pilot[kind])
        assert not np.array_equal(y["designed"], y["perfect"])


def test_in_place_draws_equal_whole_draws():
    # Drawing (n, 2) normals into a contiguous buffer consumes the stream
    # exactly as standard_normal((n, 2)) does, chunk after chunk.
    whole = point_streams(7, 0)[0].standard_normal((1000, 2))
    rng, buf = point_streams(7, 0)[0], np.empty((3, 1000, 2))
    chunks = []
    for n in (1, 255, 256, 488):
        rng.standard_normal(out=buf[1, :n])
        chunks.append(buf[1, :n].copy())
    assert np.array_equal(np.concatenate(chunks), whole)


def sweep_statistics(batch, bits, chunks):
    """The batch's window statistics of a sweep of the runs' bits (n, P),
    fed as ``chunks`` symbols at a time: kind -> (windows, P, 2)."""
    out, start = {}, 0
    for n in chunks:
        for kind, y in batch.advance(bits[start:start + n]):
            out.setdefault(kind, []).append(y)
        start += n
    return {kind: np.concatenate(ys) for kind, ys in out.items()}


def terminal_window_sums(cfg, point, n_symbols):
    """Sweep point ``point``'s n_T window sums (n_symbols, 2) from Philox key
    (seed, 3 point + 2), whole: each window but the last is sqrt(sps)
    sigma_t times 2 normals, and the last sums its sps - 1 samples, the
    last of them twice."""
    key = np.array([cfg.seed, 3 * point + 2], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    sums = rng.standard_normal((n_symbols - 1, 2)) * (math.sqrt(cfg.sps) * cfg.sigma_t)
    last = rng.standard_normal((cfg.sps - 1, 2))
    return np.vstack([sums, (last.sum(axis=0) + last[-1]) * cfg.sigma_t])


def test_batch_terminal_noise_is_its_own_stream(base_cfg):
    # With u = 0 (canceler none), each window's statistic is its n_T sum,
    # drawn per window from Philox key (seed, 3 i + 2) for sweep point i,
    # however the symbols are chunked; no n_RS is drawn at all.
    from cwcancel.simulate import _ChainBatch

    betas, n_symbols = [1e-3, 1e-2, 1e-1, 1.0], 172
    cfg = replace(base_cfg, n_symbols=n_symbols)
    batch = _ChainBatch(cfg, ["none"], betas)
    assert batch.cols.size == 0
    bits = np.zeros((n_symbols, len(betas)), dtype=int)
    y = sweep_statistics(batch, bits, (1, 64, 63, 44))["none"]
    for i in range(len(betas)):
        ref = terminal_window_sums(cfg, i, n_symbols)
        assert np.array_equal(y[:-1, i], ref[:-1])
        assert np.abs(y[-1, i] - ref[-1]).max() <= 1e-15 * np.abs(ref[-1]).max()


def test_window_noise_variances():
    """Interior window sums of n_T have variance sps sigma_t^2, and the final
    window, which counts its last sample twice, (sps + 2) sigma_t^2.  Over
    10 000 runs x 2 components each sample variance lies within 4 of its
    standard errors, sqrt(2 / 20 000) = 1 %, of that; at sps = 32 the final
    window's two extra shares are 6.25 %."""
    from cwcancel.simulate import _ChainBatch

    cfg = SimConfig(params=RelayParams(), seed=31, n_symbols=2, noise_t_dbm=0.0)
    P, sps, var = 10000, cfg.sps, cfg.sigma_t ** 2
    batch = _ChainBatch(cfg, ["none"], [1.0] * P)
    ((_, y),) = batch.advance(np.zeros((2, P), dtype=int))
    for sums, expected in ((y[0], sps * var), (y[1], (sps + 2) * var)):
        assert abs(np.mean(sums ** 2) / expected - 1.0) <= 4.0 * math.sqrt(2.0 / sums.size)


class TestWaveformNoise:
    """waveform.csv's per-sample n_T: each window's samples spread its sum S
    as S / sps + (g - mean(g)), g from the jumped stream, so they sum to
    the statistic a sweep decides on and are iid N(0, sigma_t^2)."""

    @pytest.fixture(scope="class")
    def cfg(self, default_params):
        return SimConfig(params=default_params, seed=77, noise_t_dbm=3.0)

    def test_windows_sum_to_the_sweep_statistic(self, cfg):
        n_symbols = 40
        n_t = simulate_chain(cfg, np.zeros((n_symbols * cfg.sps, 2)), "none", 1.0).y_T
        ref = terminal_window_sums(cfg, 0, n_symbols)
        sums = relay_window_sums(n_t, cfg.sps)
        assert np.abs(sums - ref).max() <= 1e-12 * np.abs(ref).max()
        # Sample 0, before the first window, is the stream's next draw.
        key = np.array([cfg.seed, 2], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        rng.standard_normal((n_symbols - 1 + cfg.sps - 1, 2))
        assert np.array_equal(n_t[0], cfg.sigma_t * rng.standard_normal(2))

    def test_samples_are_white(self, cfg):
        """Over 2 000 symbols (128 000 values), the sample variance lies within
        4 standard errors of sigma_t^2, and the lag-1 correlation within 4
        standard errors, 1 / sqrt(pairs), of 0: over pairs inside a window
        and over pairs that straddle a window edge."""
        n_symbols, sps = 2000, cfg.sps
        n_t = simulate_chain(cfg, np.zeros((n_symbols * sps, 2)), "none", 1.0).y_T
        x = n_t / cfg.sigma_t
        assert abs(np.mean(x ** 2) - 1.0) <= 4.0 * math.sqrt(2.0 / x.size)
        products = x[:-1] * x[1:]  # pair (j, j + 1)
        edge = (np.arange(1, x.shape[0]) % sps) == 1  # j + 1 starts a window
        for pairs in (products[~edge], products[edge]):
            assert abs(pairs.mean()) <= 4.0 / math.sqrt(pairs.size)
def test_stream_keys_of_adjacent_seeds_are_disjoint():
    # Point i's n_RS, bits and n_T have keys (seed, 3 i + 0, 1, 2): over 12
    # points, base seeds s and s + 1 share no key, and neither does one
    # sweep's (point, stream) pairs among themselves.
    s = 20260808
    keys = [tuple(rng.bit_generator.state["state"]["key"])
            for seed in (s, s + 1) for i in range(12) for rng in point_streams(seed, i)]
    assert len(set(keys)) == len(keys) == 72
    assert keys[:3] == [(s, 0), (s, 1), (s, 2)]


@pytest.mark.parametrize("case", ["defaults", "antialias"])
def test_samples_no_loop_reads_do_not_reach_u(oracle_cases, case):
    # n_RS is drawn only at the kernel's columns; that is exact because the
    # other samples of w cannot reach u.  Changing tx there leaves u bit for
    # bit; changing one sample the loop reads does not.
    from cwcancel.simulate import _period_maps, _PeriodKernel

    params, K = oracle_cases[case]
    N, periods = params.fsfh_ratio, 50
    rng = np.random.default_rng(21)
    tx = rng.standard_normal((periods * N, 2))
    for kind in ("designed", "perfect"):
        cfg = SimConfig(params=params, controller=K, seed=9)
        cols = _PeriodKernel(*_period_maps(cfg, [kind])).cols
        unread = np.setdiff1d(np.arange(2 * N), cols)
        assert unread.size == (2 * N - 2 if case == "defaults" else 0)

        def relay_output(samples):
            return simulate_chain(cfg, samples.reshape(-1, 2), kind, 1.0).u

        u = relay_output(tx)
        changed = tx.reshape(periods, 2 * N).copy()
        changed[:, unread] += rng.standard_normal((periods, unread.size))
        assert np.array_equal(relay_output(changed), u)
        changed[periods // 2, cols[-1]] += 1.0
        assert not np.array_equal(relay_output(changed), u)


@pytest.mark.parametrize("case", ["defaults", "antialias"])
def test_batch_relay_noise_is_drawn_at_the_read_columns(oracle_cases, case):
    # Sweep point i's n_RS is sigma_rs times (periods, m) normals of Philox
    # key (seed, 3 i) at the m columns the loop reads, however the symbols
    # are chunked: the batch's window sums of u equal those of the period
    # recurrence's per-sample output on those inputs plus the all-zero
    # bits' tx, -1 at the I columns.
    from cwcancel.simulate import _ChainBatch, _period_maps, _PeriodKernel

    params, K = oracle_cases[case]
    cfg = SimConfig(params=params, controller=K, seed=5, relay_gain_db=0.0,
                    noise_t_dbm=-math.inf, n_symbols=100)
    (loop,) = _period_maps(cfg, ["designed"])
    cols = _PeriodKernel(loop).cols
    periods = cfg.n_symbols * cfg.sps // params.fsfh_ratio
    for P in (1, 4):  # run i of a batch is sweep point i
        batch = _ChainBatch(cfg, ["designed"], [1.0] * P)
        y = sweep_statistics(batch, np.zeros((cfg.n_symbols, P), dtype=int), (32, 64, 4))
        n_rs = np.stack([np.random.Generator(np.random.Philox(
            key=np.array([cfg.seed, 3 * i], dtype=np.uint64))).standard_normal(
            (periods, cols.size)) for i in range(P)], axis=2)
        w = np.zeros((periods, loop.n_inputs, P))  # no other sample reaches u
        w[:, cols] = batch.sigma_rs * n_rs
        w[:, cols[cols % 2 == 0]] -= 1.0
        u, _ = sequential_periods(loop, np.zeros((loop.n_states, P)), w)
        ref = relay_window_sums(u.reshape(-1, 2, P), cfg.sps).transpose(0, 2, 1)
        assert np.abs(y["designed"] - ref).max() <= 1e-12 * np.abs(ref).max()


class TestFoldedStatistic:
    """The sweep's window sums of u, from each kind's symbol-rate stack,
    against the window sums of the per-sample relay output of the same run:
    over two chunk edges and a short final chunk, and for a lone symbol."""

    @pytest.mark.parametrize("n_symbols", [2 * 64 + 44, 1])
    # F = I and F = 100/(s+100) at m = 2 periods a symbol (h = 1); one period
    # a symbol; one sample a period; five periods a symbol through the
    # lowpass; and feedthrough on the whole loop, so that a symbol's first
    # input reaches the window that its first sample closes.
    @pytest.mark.parametrize("case, symbol_period", [
        ("defaults", 2.0), ("antialias", 2.0), ("defaults", 1.0), ("N1", 2.0), ("lowpass4", 5.0),
        ("feedthrough", 2.0),
    ], ids=["defaults", "antialias", "m1", "N1_m2", "lowpass4_m5", "feedthrough"])
    def test_equals_per_sample_sums(self, oracle_cases, case, symbol_period, n_symbols):
        from cwcancel.simulate import _ChainBatch

        params, K = oracle_cases[case]
        # g = 1 and beta = 1, 0.5, 2 scale u exactly; n_T is off and n_RS on.
        cfg = SimConfig(params=params, controller=K, seed=11, relay_gain_db=0.0,
                        noise_t_dbm=-math.inf, symbol_period=symbol_period, n_symbols=n_symbols)
        betas, sps = [1.0, 0.5, 2.0], cfg.sps
        rng = np.random.default_rng(n_symbols)
        bits = np.stack([rng.choice([0, 1], n_symbols) for _ in betas], axis=1)
        tx = np.stack([modulate(bits[:, i], cfg) for i in range(len(betas))], axis=2)
        kinds = ["designed", "perfect"]
        y = sweep_statistics(_ChainBatch(cfg, kinds, betas), bits,
                             [64] * (n_symbols // 64) + [n_symbols % 64])
        for i, beta in enumerate(betas):
            for kind in kinds:
                u = simulate_point(cfg, tx[:, :, i], kind, beta, i).u
                ref = relay_window_sums(u, sps)
                assert y[kind].shape == (n_symbols, len(betas), 2)
                assert np.abs(y[kind][:, i] / beta - ref).max() <= 1e-12 * np.abs(ref).max()


class TestDelayFree:
    def test_coupling_rejected(self):
        # The relay parameters refuse the loop, before any SimConfig holds them.
        with pytest.raises(ValueError, match="delay-free"):
            RelayParams(delay_seconds=0.0)

    def test_designed_equals_perfect_without_coupling(self, designed_controller):
        params = RelayParams(delay_seconds=0.0, coupling_gain=0.0)
        tx = np.random.default_rng(17).standard_normal((16 * 20, 2))
        cfg = SimConfig(params=params, controller=designed_controller, seed=42)
        a, b = (simulate_chain(cfg, tx, kind, 1.0) for kind in ("designed", "perfect"))
        assert np.any(a.u != 0.0)
        assert np.array_equal(a.y_T, b.y_T)


class TestValidation:
    def test_step_mismatch(self, default_params):
        K = DigitalController(
            K=StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                         np.zeros((2, 2)), dt=2.0),
            gamma_achieved=1.0)
        cfg = SimConfig(params=default_params, controller=K, seed=0)
        with pytest.raises(StepMismatchError, match="controller step 2.0"):
            simulate_chain(cfg, np.zeros((16, 2)), "designed", 1.0)

    def test_symbol_must_outlast_the_window_offset(self, default_params):
        # At N = 1 and one slow period per symbol a symbol is one fast
        # sample, and the relay receiver's window, which starts one sample
        # after the symbol edge, would hold none of its symbol's samples.
        cfg = SimConfig(params=replace(default_params, fsfh_ratio=1), symbol_period=1.0,
                        n_symbols=4)
        with pytest.raises(ValueError, match="^the relay receiver's windows start 1 fast"):
            simulate_chain(cfg, np.zeros((4, 2)), "none", 1.0)
        with pytest.raises(ValueError, match="^the relay receiver's windows start 1 fast"):
            sweep_beta(cfg, [1.0], ["none"])
        (curve,) = sweep_beta(replace(cfg, symbol_period=2.0), [1.0], ["none"])
        assert curve.points[0].trials == 4

    def test_length_must_be_whole_periods(self, base_cfg):
        with pytest.raises(ValueError, match="waveform length 17 is not a multiple of the FSFH"):
            simulate_chain(base_cfg, np.zeros((17, 2)), "designed", 1.0)

    def test_kind_validation(self, default_params):
        # The kind is checked by the batch, the one gate of the one engine
        # that both simulate_chain and sweep_beta run, before any loop is
        # built; a missing controller is found where its loop is built.
        from cwcancel.ber import sweep_beta

        cfg = SimConfig(params=default_params, seed=0, n_symbols=10)
        tx = np.zeros((16, 2))
        for kind, message in (("bogus", "must be one of"), ("designed", "requires a controller"),
                              ("perfect", "requires a controller")):
            with pytest.raises(ValueError, match=message):
                simulate_chain(cfg, tx, kind, 1.0)
            with pytest.raises(ValueError, match=message):
                sweep_beta(cfg, [1e-3], ["none", kind])
        simulate_chain(cfg, tx, "none", 1.0)

    @pytest.mark.parametrize("kinds, message", [
        (["designed", "bogus"], "must be one of"), (["designed", "designed"], "must be distinct"),
    ], ids=["unknown", "repeated"])
    def test_kinds_checked_before_any_loop(self, default_params, kinds, message):
        # Without a controller, building the designed loop would fail first.
        cfg = SimConfig(params=default_params, seed=0, n_symbols=10)
        with pytest.raises(ValueError, match=message):
            sweep_beta(cfg, [1e-3], kinds)

    @pytest.mark.parametrize("beta, message", [
        (-1.0, "nonnegative"), (-math.inf, "nonnegative"), (math.inf, "finite"),
        (math.nan, "finite"),
    ])
    def test_beta_validation(self, base_cfg, beta, message):
        with pytest.raises(ValueError, match=message):
            simulate_chain(base_cfg, np.zeros((16, 2)), "designed", beta)

    @pytest.mark.parametrize("name, fits, overflows", [
        ("relay_gain_db", 6000.0, 6200.0), ("signal_dbm", 3000.0, 3090.0),
        ("noise_rs_dbm", 3000.0, 3090.0), ("noise_t_dbm", 3000.0, math.inf),
    ])
    @pytest.mark.filterwarnings("error")
    def test_level_whose_linear_factor_overflows(self, default_params, name, fits, overflows):
        # A numpy scalar's power overflows with a warning, not an OverflowError.
        SimConfig(params=default_params, **{name: fits})
        for level in (overflows, np.float64(overflows)):
            with pytest.raises(ValueError, match=name):
                SimConfig(params=default_params, **{name: level})

    def test_noise_off_is_allowed(self, default_params):
        SimConfig(params=default_params, **NOISE_OFF)

    def test_waveform_validation(self, base_cfg):
        # The two entry points that take outside samples share one check.
        from cwcancel.ber import demodulate

        for bad, message in ((np.zeros((0, 2)), "at least one sample"),
                             (np.zeros((4, 3)), "must be \\(n, 2\\)")):
            with pytest.raises(ValueError, match=message):
                simulate_chain(base_cfg, bad, "designed", 1.0)
            with pytest.raises(ValueError, match=message):
                demodulate(bad, base_cfg, [1.0, 0.0])

    @pytest.mark.parametrize("seed", [1.7, True, np.float64(3.0), -1, 2 ** 64])
    def test_seed_must_be_a_64_bit_integer(self, default_params, seed):
        # A float seed would be cast to its integer part by the stream keys.
        with pytest.raises(ValueError, match="seed"):
            SimConfig(params=default_params, seed=seed)
        SimConfig(params=default_params, seed=np.uint64(2 ** 64 - 1))

    @pytest.mark.parametrize("name", ["noise_rs_dbm", "noise_t_dbm"])
    def test_nan_noise_rejected_at_construction(self, default_params, name):
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            SimConfig(params=default_params, **{name: math.nan})

    @pytest.mark.parametrize("n_symbols, message", [
        (2.5, "integer"), (True, "integer"), (np.float64(10.0), "integer"), (0, "at least 1"),
    ])
    def test_n_symbols_must_be_a_positive_integer(self, default_params, n_symbols, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(params=default_params, n_symbols=n_symbols)
        SimConfig(params=default_params, n_symbols=np.int64(1))

    @pytest.mark.parametrize("symbol_period", [0.0, -2.0, math.inf, math.nan])
    def test_symbol_period_must_be_positive_and_finite(self, default_params, symbol_period):
        with pytest.raises(ValueError, match="symbol_period"):
            SimConfig(params=default_params, symbol_period=symbol_period)


@pytest.mark.parametrize("gain_db, signal_dbm, noise_dbm", [
    (60.0, 0.0, -5.0), (-13.5, 7.25, -math.inf), (0.0, -30.0, 12.0),
])
def test_derived_factors_equal_their_formulas(default_params, gain_db, signal_dbm, noise_dbm):
    cfg = SimConfig(params=replace(default_params, fsfh_ratio=8), relay_gain_db=gain_db,
                    signal_dbm=signal_dbm, noise_rs_dbm=noise_dbm, noise_t_dbm=noise_dbm - 1.0,
                    symbol_period=3.0)
    assert cfg.sps == 3 * 8
    assert cfg.relay_gain == 10.0 ** (gain_db / 20.0)
    assert cfg.signal_amplitude == math.sqrt(10.0 ** (signal_dbm / 10.0))
    assert cfg.sigma_rs == math.sqrt(10.0 ** (noise_dbm / 10.0) / 2.0)
    assert cfg.sigma_t == math.sqrt(10.0 ** ((noise_dbm - 1.0) / 10.0) / 2.0)
    if noise_dbm == -math.inf:
        assert cfg.sigma_rs == cfg.sigma_t == 0.0


def test_waveform_csv(tmp_path, base_cfg):
    rng = np.random.default_rng(15)
    tx = rng.standard_normal((16 * 4, 2))
    out = simulate_chain(base_cfg, tx, "designed", 1.0)
    path = tmp_path / "waveform.csv"
    write_waveform_csv(path, base_cfg, tx, out)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 16 * 4 + 1  # header + one line per sample
    header = raw.split(b"\r\n")[0].decode()
    assert header == "t,v_i,v_q,u_i,u_q,z_i,z_q,yT_i,yT_q"
    # t runs at the fast rate N / h = 16, derived from the channel.
    assert [line.split(b",")[0] for line in raw.split(b"\r\n")[1:4]] == [b"0", b"0.0625", b"0.125"]


def test_waveform_csv_bytes(tmp_path, base_cfg):
    """The writer's bytes against csv.writer rows of f-strings, with signed
    zeros, infinities, NaN and the smallest subnormal among the values."""
    import csv

    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1 / 3, -2.5e300]
    rng = np.random.default_rng(16)
    tx, u, z, y = (rng.choice(special, (40, 2)) * rng.choice([1.0, 1e-7], (40, 2))
                   for _ in range(4))
    path = tmp_path / "waveform.csv"
    write_waveform_csv(path, base_cfg, tx, SimOutput(y_T=y, u=u, z=z))
    ref = tmp_path / "reference.csv"
    t = np.arange(40) / (base_cfg.sps / base_cfg.symbol_period)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["t", "v_i", "v_q", "u_i", "u_q", "z_i", "z_q", "yT_i", "yT_q"])
        for i in range(40):
            writer.writerow([f"{t[i]:.9g}"] + [f"{v:.12g}" for v in (*tx[i], *u[i], *z[i], *y[i])])
    assert path.read_bytes() == ref.read_bytes()
    assert all(v in path.read_text() for v in ("-0,", "inf", "-inf", "nan", "4.94065645841e-324"))
