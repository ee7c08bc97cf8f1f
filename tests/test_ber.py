import math
from dataclasses import replace

import numpy as np
import pytest

from cwcancel.ber import (
    BerCurve,
    BerPoint,
    CommsConfig,
    FramingError,
    default_beta_grid,
    demodulate,
    forwarding_ber_model,
    modulate,
    q_function,
    samples_per_symbol,
    sweep_beta,
    wilson_interval,
    write_ber_csv,
)
from cwcancel.plant import RelayParams
from cwcancel.simulate import SimConfig, Waveform


@pytest.fixture(scope="module")
def cc16():
    return CommsConfig(symbol_period=2.0, n_symbols=100)


@pytest.fixture(scope="module")
def base_cfg(default_params, designed_controller):
    return SimConfig(params=default_params, controller=designed_controller, seed=777)


def one_point(cfg, cc, kind, beta):
    """A single BER estimate: the one point of a one-beta, one-kind sweep."""
    (curve,) = sweep_beta(cfg, cc, [beta], [kind])
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
    def test_single_zero_bit(self, cc16, default_params):
        cc = replace(cc16, n_symbols=1)
        w = modulate([0], cc, default_params, 0.0)
        assert w.samples.shape == (32, 2)
        assert np.all(w.samples[:, 0] == -1.0)
        assert np.all(w.samples[:, 1] == 0.0)

    def test_constant_bits(self, cc16, default_params):
        w = modulate([1, 1], cc16, default_params, -3.0)
        amp = math.sqrt(10.0 ** -0.3)
        assert np.all(w.samples[:, 0] == pytest.approx(amp))

    def test_zero_power(self, cc16, default_params):
        w = modulate([1, 0, 1], cc16, default_params, -math.inf)
        assert np.all(w.samples == 0.0)

    def test_loopback(self, cc16, default_params):
        rng = np.random.default_rng(83)
        bits = rng.integers(0, 2, size=64)
        w = modulate(bits, cc16, default_params, 0.0)
        got = demodulate(w, cc16, default_params, [1.0, 0.0])
        assert np.array_equal(got, bits)

    def test_antipodal_flip(self, cc16, default_params):
        rng = np.random.default_rng(84)
        bits = rng.integers(0, 2, size=64)
        w = modulate(bits, cc16, default_params, 0.0)
        flipped = Waveform(-w.samples, w.rate)
        got = demodulate(flipped, cc16, default_params, [1.0, 0.0])
        assert np.array_equal(got, 1 - bits)

    def test_awgn_matches_q_function(self, cc16, default_params):
        # Direct AWGN channel at Eb/N0 = 4 dB; matched-filter BER is
        # Q(sqrt(2 Eb/N0)) ~ 0.0125.
        ebn0 = 10.0 ** 0.4
        n_sym, sps = 20000, 32
        cc = replace(cc16, n_symbols=n_sym)
        rng = np.random.default_rng(85)
        bits = rng.integers(0, 2, size=n_sym)
        w = modulate(bits, cc, default_params, 0.0)
        sigma = math.sqrt(sps / (2.0 * ebn0))
        noisy = Waveform(w.samples + sigma * rng.standard_normal(w.samples.shape), w.rate)
        got = demodulate(noisy, cc, default_params, [1.0, 0.0])
        ber = np.mean(got != bits)
        p = q_function(math.sqrt(2.0 * ebn0))
        assert abs(ber - p) <= 3.0 * math.sqrt(p * (1 - p) / n_sym)

    def test_framing_error(self, cc16, default_params):
        with pytest.raises(FramingError):
            demodulate(Waveform(np.zeros((33, 2)), 16.0), cc16, default_params, [1.0, 0.0])

    def test_symbol_period_must_divide(self, default_params, base_cfg):
        # Every user of the derived samples per symbol rejects a symbol
        # period that is not a whole number of slow periods, with one message.
        cc = CommsConfig(symbol_period=1.5)
        assert samples_per_symbol(CommsConfig(symbol_period=3.0), default_params) == 48
        for call in (lambda: samples_per_symbol(cc, default_params),
                     lambda: modulate([1], cc, default_params, 0.0),
                     lambda: demodulate(Waveform(np.zeros((48, 2)), 32.0), cc, default_params,
                                        [1.0, 0.0]),
                     lambda: forwarding_ber_model(base_cfg, cc, 1.0),
                     lambda: sweep_beta(base_cfg, cc, [1e-3], ["none"])):
            with pytest.raises(ValueError, match="must be an integer multiple of h=1.0"):
                call()


class TestRunBer:
    """A single BER point: a one-beta, one-kind sweep."""

    def test_noise_free_designed_is_error_free(self, base_cfg):
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
        point = one_point(cfg, CommsConfig(n_symbols=300), "designed", 1.0)
        assert point.ber == 0.0
        assert point.trials == 300

    def test_trials_equal_symbol_count(self, base_cfg):
        point = one_point(base_cfg, CommsConfig(n_symbols=123), "designed", 1.0)
        assert point.trials == 123
        assert point.errors == int(round(point.ber * 123))
        assert point.ci95[0] <= point.ber <= point.ci95[1]

    def test_deterministic(self, base_cfg):
        cc = CommsConfig(n_symbols=500)
        a = one_point(base_cfg, cc, "designed", 3e-4)
        b = one_point(base_cfg, cc, "designed", 3e-4)
        assert (a.errors, a.trials, a.ber, a.ci95) == (b.errors, b.trials, b.ber, b.ci95)

    def test_none_kind_is_coin_flipping(self, base_cfg):
        # K = 0 transmits nothing; the pilot reference falls back to the
        # I axis and decisions come from terminal noise alone.
        point = one_point(base_cfg, CommsConfig(n_symbols=2000), "none", 1.0)
        assert abs(point.ber - 0.5) < 0.05

    def test_snr_bookkeeping_without_relay_noise(self, base_cfg):
        # With RS noise off the designed chain is deterministic up to the
        # terminal AWGN; the analytic prediction only needs the chain gain,
        # which a noise-free pilot measures exactly.
        from cwcancel.ber import _CHAIN_ALIGN, _decision_windows
        from cwcancel.simulate import simulate_chain

        cc = CommsConfig(n_symbols=8000)
        sps = samples_per_symbol(cc, base_cfg.params)
        beta = 2e-3
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf)
        pilot = replace(cfg, noise_t_dbm=-math.inf)
        wave = modulate(np.ones(8, dtype=int), cc, cfg.params, cfg.signal_dbm)
        resp = simulate_chain(pilot, wave, "designed", beta)
        gain = _decision_windows(resp.y_T.samples, sps, _CHAIN_ALIGN)[-1].mean(axis=0)[0]
        sigma = math.sqrt(10.0 ** (cfg.noise_t_dbm / 10.0) / 2.0)
        p = q_function(gain / (sigma / math.sqrt(sps)))
        point = one_point(cfg, cc, "designed", beta)
        assert abs(point.ber - p) <= 3.0 * math.sqrt(p * (1 - p) / cc.n_symbols) + 1e-12


class TestSweep:
    def test_paired_curves_share_randomness(self, base_cfg, designed_controller):
        # At alpha = 0 the designed and perfect runs are identical sample for
        # sample, so paired sweeps must produce identical error counts.
        cfg = SimConfig(params=RelayParams(coupling_gain=0.0),
                        controller=designed_controller, seed=555)
        cc = CommsConfig(n_symbols=400)
        curves = sweep_beta(cfg, cc, [1e-4, 3e-4], ["designed", "perfect"])
        for pd, pp in zip(curves[0].points, curves[1].points):
            assert pd.errors == pp.errors

    def test_ordering_and_labels(self, base_cfg):
        cc = CommsConfig(n_symbols=800)
        betas = [8e-5, 3e-4, 1.2e-3]
        curves = sweep_beta(base_cfg, cc, betas, ["none", "designed", "perfect"])
        assert [c.canceler_kind for c in curves] == ["none", "designed", "perfect"]
        by_kind = {c.canceler_kind: c.points for c in curves}
        for i in range(len(betas)):
            none, des, per = by_kind["none"][i], by_kind["designed"][i], by_kind["perfect"][i]
            slack = (none.ci95[1] - none.ci95[0]) + (des.ci95[1] - des.ci95[0])
            assert none.ber >= des.ber - slack
            slack = (des.ci95[1] - des.ci95[0]) + (per.ci95[1] - per.ci95[0])
            assert des.ber >= per.ber - slack

    def test_beta_grid_validation(self, base_cfg):
        cc = CommsConfig(n_symbols=10)
        with pytest.raises(ValueError):
            sweep_beta(base_cfg, cc, [], ["none"])
        with pytest.raises(ValueError):
            sweep_beta(base_cfg, cc, [0.0, 1.0], ["none"])
        with pytest.raises(ValueError):
            sweep_beta(base_cfg, cc, [1e-3, 1e-3], ["none"])

    def test_duplicate_kinds_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="distinct"):
            sweep_beta(base_cfg, CommsConfig(n_symbols=10), [1e-3], ["designed", "none", "designed"])

    def test_curve_requires_increasing_betas(self):
        p = BerPoint(beta=1.0, errors=0, trials=10, ber=0.0, ci95=(0.0, 0.3))
        q = BerPoint(beta=0.5, errors=0, trials=10, ber=0.0, ci95=(0.0, 0.3))
        with pytest.raises(ValueError):
            BerCurve(points=[p, q], canceler_kind="none")

    def test_large_beta_drives_ber_to_zero(self, base_cfg):
        # With the relay-side noise off, the only impairment is terminal
        # noise, which a large beta swamps.
        cfg = replace(base_cfg, noise_rs_dbm=-math.inf)
        cc = CommsConfig(n_symbols=500)
        curves = sweep_beta(cfg, cc, [0.5, 1.0], ["designed", "perfect"])
        for curve in curves:
            assert curve.points[-1].ber == 0.0


class TestGrid:
    def test_default_grid_shape(self, base_cfg):
        cc = CommsConfig(n_symbols=100)
        grid = default_beta_grid(base_cfg, cc)
        assert len(grid) == 12
        assert np.all(np.diff(grid) > 0)
        assert forwarding_ber_model(base_cfg, cc, grid[0]) == pytest.approx(0.3, rel=0.02)
        floor = forwarding_ber_model(base_cfg, cc, 1e12)
        assert forwarding_ber_model(base_cfg, cc, grid[-1]) == pytest.approx(
            max(1e-4, 1.2 * floor), rel=0.02)

    def test_model_limits(self, base_cfg):
        cc = CommsConfig(n_symbols=100)
        quiet = replace(base_cfg, noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
        assert forwarding_ber_model(quiet, cc, 1.0) == 0.0
        assert forwarding_ber_model(base_cfg, cc, 1e-9) == pytest.approx(0.5, abs=1e-3)


@pytest.fixture(scope="module")
def antialias_cfg():
    from cwcancel.lifting import lift
    from cwcancel.plant import build_hybrid_plant, first_order_lowpass
    from cwcancel.synthesis import bisect_gamma

    params = RelayParams(antialias=first_order_lowpass(0.01))  # F = 100/(s+100)
    K = bisect_gamma(lift(build_hybrid_plant(params)), tol=5e-3).controller
    return SimConfig(params=params, controller=K, seed=2024)


def whole_waveform_errors(cfg, cc, kind, beta, point):
    """Bit errors of sweep point ``point`` from whole waveforms: one run, no chunks."""
    from cwcancel.ber import _CHAIN_ALIGN, _pilot_reference
    from cwcancel.simulate import _ChainBatch, simulate_chain

    key = np.array([cfg.seed, 3 * point + 1], dtype=np.uint64)
    bits = np.random.Generator(np.random.Philox(key=key)).integers(0, 2, size=cc.n_symbols)
    wave = modulate(bits, cc, cfg.params, cfg.signal_dbm)
    batch = _ChainBatch(cfg, [kind], [beta], [point])
    ref = _pilot_reference(cfg, batch, kind, cc)
    ((_, _, y_t),) = batch.advance(wave.samples[:, :, None])
    y_t = Waveform(y_t[:, :, 0], wave.rate)
    if point == 0:
        assert np.array_equal(simulate_chain(cfg, wave, kind, beta).y_T.samples, y_t.samples)
    decided = demodulate(y_t, cc, cfg.params, ref, align_offset=_CHAIN_ALIGN)
    return int(np.sum(decided != bits))


class TestBatchedSweep:
    """The batched, chunked sweep scores exactly what whole-waveform runs score."""

    @pytest.mark.parametrize("which", ["defaults", "antialias"])
    def test_counts_equal_per_point_runs(self, base_cfg, antialias_cfg, which):
        from cwcancel.ber import _CHUNK_SYMBOLS

        cfg = base_cfg if which == "defaults" else antialias_cfg
        # Not a multiple of the chunk: window carries across two chunk edges
        # and a short final chunk.
        cc = CommsConfig(n_symbols=2 * _CHUNK_SYMBOLS + 44)
        betas = list(default_beta_grid(cfg, cc, n_points=5))
        curves = sweep_beta(cfg, cc, betas, ["none", "designed", "perfect"])
        for curve in curves:
            whole = [whole_waveform_errors(cfg, cc, curve.canceler_kind, beta, i)
                     for i, beta in enumerate(betas)]
            assert [p.errors for p in curve.points] == whole
        assert any(0 < p.errors < p.trials // 2 for c in curves[1:] for p in c.points)

    @pytest.mark.parametrize("which", ["defaults", "antialias"])
    def test_point_zero_is_a_one_beta_sweep(self, base_cfg, antialias_cfg, which):
        cfg = base_cfg if which == "defaults" else antialias_cfg
        cc = CommsConfig(n_symbols=300)
        betas = [1e-4, 3e-4, 1e-3]
        for curve in sweep_beta(cfg, cc, betas, ["none", "designed", "perfect"]):
            assert curve.points[0] == one_point(cfg, cc, curve.canceler_kind, betas[0])

    def test_memory_bounded_by_chunk(self, base_cfg):
        import tracemalloc

        def peak(n_symbols):
            tracemalloc.start()
            try:
                sweep_beta(base_cfg, CommsConfig(n_symbols=n_symbols), [3e-4], ["designed"])
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
    sweep_beta(base_cfg, CommsConfig(n_symbols=20), [1e-4, 1e-3, 1e-2], kinds)
    assert sorted(built) == sorted(kinds)


def test_ber_csv(tmp_path, base_cfg):
    cc = CommsConfig(n_symbols=50)
    curves = sweep_beta(base_cfg, cc, [1e-4, 1e-3], ["none", "designed"])
    path = tmp_path / "ber.csv"
    write_ber_csv(path, curves)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"beta,canceler,errors,trials,ber,ci_lo,ci_hi"
    assert len([ln for ln in lines if ln]) == 1 + 4
