import math
from dataclasses import replace

import numpy as np
import pytest

from cwcancel.ber import (
    BerCurve,
    BerPoint,
    FramingError,
    default_beta_grid,
    demodulate,
    forwarding_ber_model,
    modulate,
    q_function,
    sweep_beta,
    wilson_interval,
    write_ber_csv,
)
from cwcancel.plant import RelayParams
from cwcancel.simulate import ConfigError, SimConfig


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
        # A channel's signal level is finite, so zero power is reachable only
        # as the modulator kernel's zero amplitude.
        from cwcancel.ber import _bpsk

        with pytest.raises(ConfigError, match="signal_dbm must be finite"):
            replace(chan, signal_dbm=-math.inf)
        assert np.all(_bpsk(np.array([1, 0, 1]), chan.sps, 0.0) == 0.0)

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

    def test_framing_error(self, chan):
        with pytest.raises(FramingError):
            demodulate(np.zeros((33, 2)), chan, [1.0, 0.0])

    def test_symbol_period_must_divide(self, default_params, base_cfg):
        # A symbol period that is not a whole number of slow periods is
        # rejected where the channel is built, with one message, so no
        # modulation, detection or sweep ever sees it.
        assert replace(base_cfg, symbol_period=3.0).sps == 48
        with pytest.raises(ConfigError, match="must be an integer multiple of h=1.0"):
            SimConfig(params=default_params, symbol_period=1.5)
        with pytest.raises(ConfigError, match="must be an integer multiple of h=1.0"):
            replace(base_cfg, symbol_period=1.5)


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
        from cwcancel.ber import _CHAIN_ALIGN, _decision_windows
        from cwcancel.simulate import simulate_chain

        beta = 2e-3
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf, n_symbols=8000)
        sps = cfg.sps
        pilot = replace(cfg, noise_t_dbm=-math.inf)
        resp = simulate_chain(pilot, modulate(np.ones(8, dtype=int), cfg), "designed", beta)
        gain = _decision_windows(resp.y_T, sps, _CHAIN_ALIGN)[-1].mean(axis=0)[0]
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

    @pytest.mark.parametrize("betas", [[math.nan], [math.inf], [1e-4, math.nan], [-math.inf]])
    def test_non_finite_betas_rejected(self, base_cfg, betas):
        # NaN passes an order check, and inf overflows the loop; both are
        # refused before any loop is built.
        with pytest.raises(ValueError, match="finite"):
            sweep_beta(replace(base_cfg, n_symbols=10), betas, ["none", "designed"])

    def test_duplicate_kinds_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="distinct"):
            sweep_beta(replace(base_cfg, n_symbols=10), [1e-3], ["designed", "none", "designed"])

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


@pytest.fixture(scope="module")
def antialias_cfg():
    from cwcancel.lifting import lift
    from cwcancel.plant import first_order_lowpass
    from cwcancel.synthesis import bisect_gamma

    params = RelayParams(antialias=first_order_lowpass(0.01))  # F = 100/(s+100)
    K = bisect_gamma(lift(params), tol=5e-3).controller
    return SimConfig(params=params, controller=K, seed=2024)


def whole_waveform_errors(cfg, kind, beta, point):
    """Bit errors of sweep point ``point`` from whole waveforms: one run, no chunks."""
    from cwcancel.ber import _CHAIN_ALIGN, _pilot_reference
    from cwcancel.simulate import _ChainBatch, simulate_chain

    key = np.array([cfg.seed, 3 * point + 1], dtype=np.uint64)
    bits = np.random.Generator(np.random.Philox(key=key)).integers(0, 2, size=cfg.n_symbols)
    tx = modulate(bits, cfg)
    # Runs 0 .. point of one batch at the same beta; run ``point`` is sweep point ``point``.
    batch = _ChainBatch(cfg, [kind], [beta] * (point + 1))
    ref = _pilot_reference(cfg, batch, kind)
    ((_, _, y_t),) = batch.advance(np.repeat(tx[:, :, None], point + 1, axis=2))
    y_t = y_t[:, :, point]
    if point == 0:
        assert np.array_equal(simulate_chain(cfg, tx, kind, beta).y_T, y_t)
    decided = demodulate(y_t, cfg, ref, align_offset=_CHAIN_ALIGN)
    return int(np.sum(decided != bits))


class TestBatchedSweep:
    """The batched, chunked sweep scores exactly what whole-waveform runs score."""

    @pytest.mark.parametrize("which", ["defaults", "antialias"])
    def test_counts_equal_per_point_runs(self, base_cfg, antialias_cfg, which):
        from cwcancel.ber import _CHUNK_SYMBOLS

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
            assert curve.points[0] == one_point(cfg, curve.canceler_kind, betas[0])

    def test_memory_bounded_by_chunk(self, base_cfg):
        import tracemalloc

        def peak(n_symbols):
            tracemalloc.start()
            try:
                sweep_beta(replace(base_cfg, n_symbols=n_symbols), [3e-4], ["designed"])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations (lazy imports, caches) stay out of the figures
        small, large = peak(2000), peak(16000)
        assert large <= 1.5 * small, (small, large)


def test_sweep_builds_each_period_map_once(base_cfg, monkeypatch):
    # The pilots run on the loops the sweep builds, so each kind's period
    # map is built exactly once per sweep.
    import cwcancel.simulate as sim

    built = []
    period_maps = sim._period_maps

    def counting(cfg, kind):
        built.append(kind)
        return period_maps(cfg, kind)

    monkeypatch.setattr(sim, "_period_maps", counting)
    kinds = ["none", "designed", "perfect"]
    sweep_beta(replace(base_cfg, n_symbols=20), [1e-4, 1e-3, 1e-2], kinds)
    assert sorted(built) == sorted(kinds)


def test_ber_csv(tmp_path, base_cfg):
    curves = sweep_beta(replace(base_cfg, n_symbols=50), [1e-4, 1e-3], ["none", "designed"])
    path = tmp_path / "ber.csv"
    write_ber_csv(path, curves)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"beta,canceler,errors,trials,ber,ci_lo,ci_hi"
    assert len([ln for ln in lines if ln]) == 1 + 4
