import math
from dataclasses import replace

import numpy as np
import pytest

from cwcancel.ber import (
    BerCurve,
    BerPoint,
    default_beta_grid,
    demodulate,
    forwarding_ber_model,
    modulate,
    q_function,
    sweep_beta,
    wilson_interval,
    write_ber_csv,
)
from conftest import relay_window_sums, simulate_point
from cwcancel.plant import RelayParams
from cwcancel.simulate import SimConfig


@pytest.fixture(scope="module")
def chan(default_params):
    """A plain channel: 32 fast samples per symbol at 0 dBm."""
    return SimConfig(params=default_params, symbol_period=2.0, n_symbols=100)


@pytest.fixture(scope="module")
def base_cfg(default_params, designed_controller):
    return SimConfig(params=default_params, controller=designed_controller, seed=777)


def one_point(cfg, kind, beta):
    """A single BER estimate: the one point of a one-beta, one-kind sweep."""
    (curve,) = sweep_beta(cfg, [beta], [kind])
    (point,) = curve.points
    return point


class TestWilson:
    def test_contains_point_estimate(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_coverage_on_bernoulli_streams(self):
        rng = np.random.default_rng(82)
        p, n, reps = 0.1, 400, 400
        hits = 0
        for _ in range(reps):
            k = int(rng.binomial(n, p))
            lo, hi = wilson_interval(k, n)
            hits += lo <= p <= hi
        assert 0.90 <= hits / reps <= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestModDemod:
    def test_single_zero_bit(self, chan):
        w = modulate([0], chan)
        assert w.shape == (32, 2)
        assert np.all(w[:, 0] == -1.0)
        assert np.all(w[:, 1] == 0.0)

    def test_constant_bits(self, chan):
        w = modulate([1, 1], replace(chan, signal_dbm=-3.0))
        amp = math.sqrt(10.0 ** -0.3)
        assert np.all(w[:, 0] == pytest.approx(amp))

    def test_zero_power(self, chan):
        # A channel's signal level is finite, but -4000 dBm is an amplitude
        # sqrt(1e-400) that rounds to zero.
        with pytest.raises(ValueError, match="signal_dbm must be finite"):
            replace(chan, signal_dbm=-math.inf)
        silent = replace(chan, signal_dbm=-4000.0)
        assert silent.signal_amplitude == 0.0
        assert np.all(modulate([1, 0, 1], silent) == 0.0)

    def test_loopback(self, chan):
        rng = np.random.default_rng(83)
        bits = rng.integers(0, 2, size=64)
        got = demodulate(modulate(bits, chan), chan, [1.0, 0.0])
        assert np.array_equal(got, bits)

    def test_antipodal_flip(self, chan):
        rng = np.random.default_rng(84)
        bits = rng.integers(0, 2, size=64)
        got = demodulate(-modulate(bits, chan), chan, [1.0, 0.0])
        assert np.array_equal(got, 1 - bits)

    def test_awgn_matches_q_function(self, chan):
        # Direct AWGN channel at Eb/N0 = 4 dB; matched-filter BER is
        # Q(sqrt(2 Eb/N0)) ~ 0.0125.
        ebn0 = 10.0 ** 0.4
        n_sym, sps = 20000, 32
        rng = np.random.default_rng(85)
        bits = rng.integers(0, 2, size=n_sym)
        w = modulate(bits, chan)
        sigma = math.sqrt(sps / (2.0 * ebn0))
        got = demodulate(w + sigma * rng.standard_normal(w.shape), chan, [1.0, 0.0])
        ber = np.mean(got != bits)
        p = q_function(math.sqrt(2.0 * ebn0))
        assert abs(ber - p) <= 3.0 * math.sqrt(p * (1 - p) / n_sym)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_window_sum_overflow_is_refused(self, chan):
        """Finite samples whose window sum overflows a float decide no bit."""
        y = np.full((2 * chan.sps, 2), 1e307)
        with pytest.raises(FloatingPointError, match="^terminal waveform overflows a float$"):
            demodulate(y, chan, [1.0, 0.0])

    def test_decisions_equal_the_stacked_product(self):
        """The receiver projects (n, P, 2) statistics as one (n P, 2)
        product; its decisions equal those of the stacked (n, P, 2) product,
        on statistics of many scales, half of them at right angles to the
        reference, where only rounding sets the sign."""
        from cwcancel.ber import _decide

        rng = np.random.default_rng(3)
        for n, P in ((1, 1), (7, 3), (1024, 12)):
            ref = rng.standard_normal(2)
            ref /= np.hypot(*ref)
            y = rng.standard_normal((n, P, 2)) * 10.0 ** rng.uniform(-30, 30, (n, P, 1))
            y[::2] = np.multiply.outer(y[::2, :, 0], [-ref[1], ref[0]])
            assert np.array_equal(_decide(y, ref), y @ ref > 0.0)

    def test_framing_error(self, chan):
        with pytest.raises(ValueError, match="waveform length 33 is not a multiple of"):
            demodulate(np.zeros((33, 2)), chan, [1.0, 0.0])

    def test_symbol_period_must_divide(self, default_params, base_cfg):
        # A symbol period that is not a whole number of slow periods is
        # rejected where the channel is built, with one message, so no
        # modulation, detection or sweep ever sees it.
        assert replace(base_cfg, symbol_period=3.0).sps == 48
        with pytest.raises(ValueError, match="must be an integer multiple of h=1.0"):
            SimConfig(params=default_params, symbol_period=1.5)
        with pytest.raises(ValueError, match="must be an integer multiple of h=1.0"):
            replace(base_cfg, symbol_period=1.5)

    @pytest.mark.parametrize("symbol_period", [1e-12, 5e-10])
    def test_symbol_must_last_a_slow_period(self, default_params, symbol_period):
        # Such a symbol rounds to zero slow periods within the whole-number
        # tolerance; it would leave no sample per symbol.
        assert SimConfig(params=default_params, symbol_period=1.0).sps == 16
        with pytest.raises(ValueError, match="must be an integer multiple of h=1.0"):
            SimConfig(params=default_params, symbol_period=symbol_period)

    def test_symbol_too_long_for_a_float_count_of_periods(self):
        # symbol_period / h overflows to inf, which has no whole number.
        params = RelayParams(sampling_period=1e-10, delay_seconds=1e-10)
        with pytest.raises(ValueError, match="must be an integer multiple of h=1e-10"):
            SimConfig(params=params, symbol_period=1e300)


class TestRunBer:
    """A single BER point: a one-beta, one-kind sweep."""

    def test_noise_free_designed_is_error_free(self, base_cfg):
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
        point = one_point(replace(cfg, n_symbols=300), "designed", 1.0)
        assert point.ber == 0.0
        assert point.trials == 300

    def test_trials_equal_symbol_count(self, base_cfg):
        point = one_point(replace(base_cfg, n_symbols=123), "designed", 1.0)
        assert point.trials == 123
        assert point.errors == int(round(point.ber * 123))
        assert point.ci95[0] <= point.ber <= point.ci95[1]

    def test_deterministic(self, base_cfg):
        cfg = replace(base_cfg, n_symbols=500)
        a = one_point(cfg, "designed", 3e-4)
        b = one_point(cfg, "designed", 3e-4)
        assert (a.errors, a.trials, a.ber, a.ci95) == (b.errors, b.trials, b.ber, b.ci95)

    def test_none_kind_is_coin_flipping(self, base_cfg):
        # K = 0 transmits nothing; the pilot reference falls back to the
        # I axis and decisions come from terminal noise alone.
        point = one_point(replace(base_cfg, n_symbols=2000), "none", 1.0)
        assert abs(point.ber - 0.5) < 0.05

    def test_snr_bookkeeping_without_relay_noise(self, base_cfg):
        # With RS noise off the designed chain is deterministic up to the
        # terminal AWGN; the analytic prediction only needs the chain gain,
        # which a noise-free pilot measures exactly.
        from cwcancel.simulate import simulate_chain

        beta = 2e-3
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf, n_symbols=8000)
        sps = cfg.sps
        pilot = replace(cfg, noise_t_dbm=-math.inf)
        resp = simulate_chain(pilot, modulate(np.ones(8, dtype=int), cfg), "designed", beta)
        gain = relay_window_sums(resp.y_T, sps)[-1, 0] / sps
        sigma = math.sqrt(10.0 ** (cfg.noise_t_dbm / 10.0) / 2.0)
        p = q_function(gain / (sigma / math.sqrt(sps)))
        point = one_point(cfg, "designed", beta)
        assert abs(point.ber - p) <= 3.0 * math.sqrt(p * (1 - p) / cfg.n_symbols) + 1e-12


class TestSweep:
    def test_paired_curves_share_randomness(self, base_cfg, designed_controller):
        # At alpha = 0 the designed and perfect runs are identical sample for
        # sample, so paired sweeps must produce identical error counts.
        cfg = SimConfig(params=RelayParams(coupling_gain=0.0),
                        controller=designed_controller, seed=555, n_symbols=400)
        curves = sweep_beta(cfg, [1e-4, 3e-4], ["designed", "perfect"])
        for pd, pp in zip(curves[0].points, curves[1].points):
            assert pd.errors == pp.errors

    def test_ordering_and_labels(self, base_cfg):
        betas = [8e-5, 3e-4, 1.2e-3]
        curves = sweep_beta(replace(base_cfg, n_symbols=800), betas,
                            ["none", "designed", "perfect"])
        assert [c.canceler_kind for c in curves] == ["none", "designed", "perfect"]
        by_kind = {c.canceler_kind: c.points for c in curves}
        for i in range(len(betas)):
            none, des, per = by_kind["none"][i], by_kind["designed"][i], by_kind["perfect"][i]
            slack = (none.ci95[1] - none.ci95[0]) + (des.ci95[1] - des.ci95[0])
            assert none.ber >= des.ber - slack
            slack = (des.ci95[1] - des.ci95[0]) + (per.ci95[1] - per.ci95[0])
            assert des.ber >= per.ber - slack

    def test_beta_grid_validation(self, base_cfg):
        cfg = replace(base_cfg, n_symbols=10)
        with pytest.raises(ValueError):
            sweep_beta(cfg, [], ["none"])
        with pytest.raises(ValueError):
            sweep_beta(cfg, [0.0, 1.0], ["none"])
        with pytest.raises(ValueError):
            sweep_beta(cfg, [1e-3, 1e-3], ["none"])
        # A curve's rule refuses -inf before the batch's finiteness gate or any loop.
        with pytest.raises(ValueError, match="positive"):
            sweep_beta(replace(cfg, controller=None), [-math.inf], ["none", "designed"])

    @pytest.mark.parametrize("betas", [[math.nan], [math.inf], [1e-4, math.nan], [-math.inf]])
    def test_non_finite_betas_rejected(self, base_cfg, betas):
        # NaN passes an order check, and inf overflows the loop; the batch
        # refuses both before any loop is built, and a curve's positivity
        # rule refuses -inf before the batch.
        with pytest.raises(ValueError, match="finite"):
            sweep_beta(replace(base_cfg, n_symbols=10), betas, ["none", "designed"])

    def test_duplicate_kinds_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="distinct"):
            sweep_beta(replace(base_cfg, n_symbols=10), [1e-3], ["designed", "none", "designed"])

    def test_empty_kinds_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="at least one canceler kind"):
            sweep_beta(replace(base_cfg, n_symbols=10), [1e-3], [])

    def test_curve_requires_increasing_betas(self):
        p = BerPoint(beta=1.0, errors=0, trials=10, ber=0.0, ci95=(0.0, 0.3))
        q = BerPoint(beta=0.5, errors=0, trials=10, ber=0.0, ci95=(0.0, 0.3))
        with pytest.raises(ValueError):
            BerCurve(points=[p, q], canceler_kind="none")

    def test_large_beta_drives_ber_to_zero(self, base_cfg):
        # With the relay-side noise off, the only impairment is terminal
        # noise, which a large beta swamps.
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf, n_symbols=500)
        curves = sweep_beta(cfg, [0.5, 1.0], ["designed", "perfect"])
        for curve in curves:
            assert curve.points[-1].ber == 0.0


class TestGrid:
    def test_default_grid_shape(self, base_cfg):
        grid = default_beta_grid(base_cfg, n_points=12)
        assert len(grid) == 12
        assert np.all(np.diff(grid) > 0)
        assert forwarding_ber_model(base_cfg, grid[0]) == pytest.approx(0.3, rel=0.02)
        floor = forwarding_ber_model(base_cfg, 1e12)
        assert forwarding_ber_model(base_cfg, grid[-1]) == pytest.approx(
            max(1e-4, 1.2 * floor), rel=0.02)

    def test_model_limits(self, base_cfg):
        quiet = replace(base_cfg, noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
        assert forwarding_ber_model(quiet, 1.0) == 0.0
        assert forwarding_ber_model(base_cfg, 1e-9) == pytest.approx(0.5, abs=1e-3)

    @staticmethod
    def fixed_step_grid(cfg, n_points):
        """Reference grid: each end bisected by 200 fixed geometric steps."""
        floor = forwarding_ber_model(cfg, 1e12)

        def solve_for(target):
            lo, hi = 1e-9, 1e3
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if forwarding_ber_model(cfg, mid) > target:
                    lo = mid
                else:
                    hi = mid
            return math.sqrt(lo * hi)

        beta_lo, beta_hi = solve_for(0.3), solve_for(max(1e-4, floor * 1.2))
        if beta_hi <= beta_lo:
            beta_hi = beta_lo * 10.0
        return np.geomspace(beta_lo, beta_hi, n_points)

    @pytest.mark.parametrize("change", [
        {}, {"noise_rs_dbm": -math.inf}, {"relay_gain_db": 0.0}, {"signal_dbm": -10.0},
        {"noise_t_dbm": 10.0}, {"symbol_period": 5.0},
    ], ids=["defaults", "no_rs_noise", "gain_0dB", "signal_-10dBm", "loud_t", "long_symbol"])
    def test_grid_inverts_the_model(self, base_cfg, monkeypatch, change):
        """The model meets each target at the grid's ends, and the grid equals
        the fixed 200-step bisection's, all to 1e-12, from no model evaluation."""
        from cwcancel import ber

        cfg = replace(base_cfg, **change)
        expected = self.fixed_step_grid(cfg, 12)
        floor = forwarding_ber_model(cfg, 1e12)
        calls = []
        monkeypatch.setattr(ber, "forwarding_ber_model",
                            lambda c, beta: calls.append(beta) or forwarding_ber_model(c, beta))
        grid = default_beta_grid(cfg, n_points=12)
        assert calls == []
        assert forwarding_ber_model(cfg, grid[0]) == pytest.approx(0.3, rel=1e-12, abs=0)
        assert forwarding_ber_model(cfg, grid[-1]) == pytest.approx(max(1e-4, 1.2 * floor),
                                                                    rel=1e-12, abs=0)
        np.testing.assert_allclose(grid, expected, rtol=1e-12, atol=0)

    def test_grid_scales_with_the_relay_gain(self, default_params):
        """The model reads beta only through beta g, so 140 dB more gain divides
        the grid by 1e7, however small its betas become."""
        grid_60 = default_beta_grid(SimConfig(params=default_params), n_points=12)
        grid_200 = default_beta_grid(SimConfig(params=default_params, relay_gain_db=200.0),
                                     n_points=12)
        assert grid_200[0] < 1e-9
        np.testing.assert_allclose(grid_200, grid_60 * 1e-7, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("change", [{"signal_dbm": -30.0}, {"noise_t_dbm": -math.inf}],
                             ids=["signal_-30dBm", "no_t_noise"])
    def test_unreachable_target_is_refused(self, default_params, change):
        """A target BER that no finite, positive beta reaches raises, naming the
        RS-noise floor: at -30 dBm the floor (0.455) is above 0.3, and with no
        noise at T the BER is the floor at every beta."""
        cfg = SimConfig(params=default_params, **change)
        with pytest.raises(ValueError, match="sweep.betas") as info:
            default_beta_grid(cfg, n_points=4)
        assert f"floor is {forwarding_ber_model(cfg, 1e12):.3g}" in str(info.value)


def lowpass_cfg(N):
    """F = 100/(s+100) at N, designed at tol 5e-3."""
    from cwcancel.lifting import lift
    from cwcancel.plant import first_order_lowpass
    from cwcancel.synthesis import bisect_gamma

    params = RelayParams(fsfh_ratio=N, antialias=first_order_lowpass(0.01))
    K = bisect_gamma(lift(params), tol=5e-3).controller
    return SimConfig(params=params, controller=K, seed=2024)


@pytest.fixture(scope="module")
def antialias_cfg():
    return lowpass_cfg(16)


def whole_waveform_errors(cfg, kind, beta, point):
    """Bit errors of sweep point ``point`` from its whole waveform: the y_T of
    ``simulate_chain`` run on point ``point``'s streams (one run, no
    chunks), summed per window one sample after each symbol edge."""
    from cwcancel.ber import _decide, _pilot_reference
    from cwcancel.simulate import _ChainBatch

    key = np.array([cfg.seed, 3 * point + 1], dtype=np.uint64)
    bits = np.random.Generator(np.random.Philox(key=key)).integers(0, 2, size=cfg.n_symbols)
    tx = modulate(bits, cfg)
    ref = _pilot_reference(_ChainBatch(cfg, [kind], [beta]))[kind]
    y_t = simulate_point(cfg, tx, kind, beta, point).y_T
    return int(np.sum(_decide(relay_window_sums(y_t, cfg.sps), ref) != bits))


@pytest.mark.parametrize("kind", ["designed", "perfect"])
def test_pilot_reference_does_not_depend_on_beta(base_cfg, kind):
    # The terminal scales u by beta g > 0, which keeps its direction, so the
    # reference reads the loop alone: no beta moves it by a single bit.
    from cwcancel.ber import _pilot_reference
    from cwcancel.simulate import _ChainBatch

    small, large = (_pilot_reference(_ChainBatch(base_cfg, [kind], [beta]))[kind]
                    for beta in (1e-6, 1e3))
    assert small.tobytes() == large.tobytes()


class TestBatchedSweep:
    """The batched, chunked sweep scores exactly what whole-waveform runs score."""

    @pytest.mark.parametrize("which", ["defaults", "antialias"])
    def test_counts_equal_per_point_runs(self, base_cfg, antialias_cfg, which):
        from cwcancel.simulate import _CHUNK_SYMBOLS

        # Not a multiple of the chunk: window carries across two chunk edges
        # and a short final chunk.
        cfg = replace(base_cfg if which == "defaults" else antialias_cfg,
                      n_symbols=2 * _CHUNK_SYMBOLS + 44)
        betas = list(default_beta_grid(cfg, n_points=5))
        curves = sweep_beta(cfg, betas, ["none", "designed", "perfect"])
        for curve in curves:
            whole = [whole_waveform_errors(cfg, curve.canceler_kind, beta, i)
                     for i, beta in enumerate(betas)]
            assert [p.errors for p in curve.points] == whole
        assert any(0 < p.errors < p.trials // 2 for c in curves[1:] for p in c.points)

    @pytest.mark.parametrize("which", ["defaults", "antialias"])
    def test_point_zero_is_a_one_beta_sweep(self, base_cfg, antialias_cfg, which):
        cfg = replace(base_cfg if which == "defaults" else antialias_cfg, n_symbols=300)
        betas = [1e-4, 3e-4, 1e-3]
        for curve in sweep_beta(cfg, betas, ["none", "designed", "perfect"]):
            point = curve.points[0]
            assert point == one_point(cfg, curve.canceler_kind, betas[0])
            assert point.errors == whole_waveform_errors(cfg, curve.canceler_kind, betas[0], 0)

    @pytest.mark.parametrize("which", ["defaults", "antialias", "lowpass4", "lowpass32"])
    def test_statistics_do_not_depend_on_the_block(self, base_cfg, antialias_cfg, monkeypatch,
                                                   which):
        """Blocks of 1, 2 and 16 chunks, forced through the budget, against the
        default blocks, for one and for three points, over two and a half
        blocks of 16 chunks: every statistic that the batch yields is the
        same to the bit.  With
        F = 100/(s+100) (``antialias`` is N = 16) the stacks read the image
        of w, a product whose rows are the block's periods."""
        import cwcancel.simulate as sim

        def statistics(cfg, betas):
            batch = sim._ChainBatch(cfg, ["none", "designed", "perfect"], betas)
            y = {kind: [] for kind in batch.kinds}
            for start in range(0, cfg.n_symbols, batch.block):
                n = min(batch.block, cfg.n_symbols - start)
                bits = np.stack([rng.integers(0, 2, size=n) for rng in batch.bits], axis=1)
                for kind, stat in batch.advance(bits):
                    y[kind].append(stat)
            return batch, {kind: np.concatenate(v) for kind, v in y.items()}

        cfg = {"defaults": base_cfg, "antialias": antialias_cfg}.get(which) or lowpass_cfg(
            int(which[7:]))
        cfg = replace(cfg, n_symbols=2 * 16 * sim._CHUNK_SYMBOLS + 44)
        points = ([3e-4], [1e-4, 3e-4, 1e-3])
        reference = [statistics(cfg, betas) for betas in points]
        for betas, (default, ref) in zip(points, reference):
            assert default.block > sim._CHUNK_SYMBOLS
            chunk = len(betas) * sim._CHUNK_SYMBOLS * default.m * max(default.cols.size, 1)
            for chunks in (1, 2, 16):
                monkeypatch.setattr(sim, "_BLOCK_BUDGET", chunks * chunk)
                batch, y = statistics(cfg, betas)
                assert batch.block == chunks * sim._CHUNK_SYMBOLS
                for kind, stat in ref.items():
                    assert stat.shape == (cfg.n_symbols, len(betas), 2)
                    assert np.array_equal(y[kind], stat)

    def test_block_rule(self, base_cfg):
        """12 points with F = I at N = 16, the reference sweep, run 16 chunks,
        512 symbols, a block, and one point 192 chunks, 6 144 symbols; 12
        points with F = 100/(s+100) at N = 64, whose loops read all 128
        samples of w a period, run one."""
        from cwcancel.lifting import lift
        from cwcancel.plant import first_order_lowpass
        from cwcancel.simulate import _ChainBatch
        from cwcancel.synthesis import bisect_gamma

        betas = list(np.geomspace(1e-4, 1e-2, 12))
        assert _ChainBatch(base_cfg, ["none", "designed", "perfect"], betas).block == 16 * 32
        assert _ChainBatch(base_cfg, ["designed"], [3e-4]).block == 192 * 32
        params = RelayParams(fsfh_ratio=64, antialias=first_order_lowpass(0.01))
        cfg = SimConfig(params=params, controller=bisect_gamma(lift(params), tol=5e-2).controller)
        batch = _ChainBatch(cfg, ["designed", "perfect"], betas)
        assert batch.cols.size == 128 and batch.block == 32

    def test_memory_bounded_by_chunk(self, base_cfg):
        """A one-point sweep of 8 blocks peaks within 1.5 times one of 2."""
        import tracemalloc

        from cwcancel.simulate import _ChainBatch

        def peak(n_symbols):
            tracemalloc.start()
            try:
                sweep_beta(replace(base_cfg, n_symbols=n_symbols), [3e-4], ["designed"])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations (lazy imports, caches) stay out of the figures
        block = _ChainBatch(base_cfg, ["designed"], [3e-4]).block
        small, large = peak(2 * block), peak(8 * block)
        assert large <= 1.5 * small, (small, large)

    def test_reference_sweep_memory(self, base_cfg):
        """The reference sweep, 12 points x 3 kinds x 10 000 symbols at
        N = 16, peaks under 1.5 MB of traced memory: 512-symbol blocks of
        the 12 points' w and statistics, and one stacked map of both loops."""
        import tracemalloc

        cfg = replace(base_cfg, n_symbols=10000)
        betas, kinds = list(default_beta_grid(cfg, n_points=12)), ["none", "designed", "perfect"]
        sweep_beta(replace(cfg, n_symbols=10), betas, kinds)  # one-time allocations stay out
        tracemalloc.start()
        try:
            sweep_beta(cfg, betas, kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, peak


def test_sweep_builds_each_period_map_once(base_cfg, monkeypatch):
    # The pilot runs on the loops the sweep builds, so a sweep makes one lift
    # pass, at the coupling gains of exactly its controlled kinds, and none
    # builds no loop at all.  It builds one symbol-rate stack, of all those
    # kinds: the pilot, the full chunks and the short final chunk all read
    # the one build.
    import cwcancel.simulate as sim

    lifts, stacks = [], []
    lift, stack = sim._lift, sim._SymbolStack

    def counting_lift(params, gains):
        lifts.append(list(gains))
        return lift(params, gains)

    def counting_stack(kernel, m):
        stacks.append(kernel.AT.shape[0])
        return stack(kernel, m)

    monkeypatch.setattr(sim, "_lift", counting_lift)
    monkeypatch.setattr(sim, "_SymbolStack", counting_stack)
    cfg, alpha = replace(base_cfg, n_symbols=2 * sim._CHUNK_SYMBOLS + 44), 0.15
    assert base_cfg.params.coupling_gain == alpha
    sweep_beta(cfg, [1e-4, 1e-3, 1e-2], ["none", "designed", "perfect"])
    assert (lifts, stacks) == ([[alpha, 0.0]], [2])
    sweep_beta(cfg, [1e-4, 1e-3, 1e-2], ["perfect", "none"])
    assert (lifts, stacks) == ([[alpha, 0.0], [0.0]], [2, 1])


def test_none_only_sweep_builds_no_loop(base_cfg, monkeypatch):
    # none's relay output is exactly 0, so no loop is lifted for it.
    def lift(*args):
        raise AssertionError("a loop was lifted for none")

    monkeypatch.setattr("cwcancel.simulate._lift", lift)
    (curve,) = sweep_beta(replace(base_cfg, n_symbols=100), [1e-4, 1e-3], ["none"])
    assert [p.trials for p in curve.points] == [100, 100]


def test_sweep_makes_each_point_streams_once(base_cfg, monkeypatch):
    # The batch makes a point's n_RS, bits and n_T generators, and the
    # receiver draws its bits from the batch's: each key is made once.
    keys = []
    philox = np.random.Philox

    def counting(key):
        keys.append(tuple(int(k) for k in key))
        return philox(key=key)

    monkeypatch.setattr(np.random, "Philox", counting)
    sweep_beta(replace(base_cfg, n_symbols=100), [1e-4, 1e-3, 1e-2],
               ["none", "designed", "perfect"])
    assert keys == [(base_cfg.seed, k) for k in range(9)]


class TestLevelInvariance:
    """Metamorphic relations of a sweep.  The chain is linear and a decision
    is a sign, so raising levels together by the same 20 dB scales every
    sample that a decision reads by 10 and leaves every error count
    unchanged."""

    @pytest.fixture(scope="class")
    def cfg(self, base_cfg):
        return replace(base_cfg, n_symbols=2000)

    @pytest.fixture(scope="class")
    def betas(self, cfg):
        return default_beta_grid(cfg, 6)[1:5]

    @staticmethod
    def counts(cfg, betas):
        return {curve.canceler_kind: [p.errors for p in curve.points]
                for curve in sweep_beta(cfg, betas, ["none", "designed", "perfect"])}

    @pytest.fixture(scope="class")
    def reference(self, cfg, betas):
        counts = self.counts(cfg, betas)
        # The relations are informative only off the curve's ends.
        assert all(0 < e < cfg.n_symbols for e in counts["designed"] + counts["perfect"])
        return counts

    @pytest.mark.parametrize("levels", [
        ("signal_dbm", "noise_rs_dbm", "noise_t_dbm"),  # the received signal and every noise
        ("relay_gain_db", "noise_t_dbm"),  # the relay's gain and the noise at the terminal
    ], ids=["signal_and_noises", "relay_gain_and_terminal_noise"])
    def test_counts_unchanged(self, cfg, betas, reference, levels):
        raised = replace(cfg, **{name: getattr(cfg, name) + 20.0 for name in levels})
        assert self.counts(raised, betas) == reference


def test_ber_csv(tmp_path, base_cfg):
    curves = sweep_beta(replace(base_cfg, n_symbols=50), [1e-4, 1e-3], ["none", "designed"])
    path = tmp_path / "ber.csv"
    write_ber_csv(path, curves)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"beta,canceler,errors,trials,ber,ci_lo,ci_hi"
    assert len([ln for ln in lines if ln]) == 1 + 4
