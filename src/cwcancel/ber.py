"""BPSK over the simulated relay chain: modulation, detection, BER sweeps.

Transmission is antipodal on the in-phase component with a rectangular
time-domain pulse; detection is coherent integrate-and-dump against a
pilot-calibrated reference.  For the relay chain the decision windows are
aligned one fast sample after the hold update (the post filter settles well
inside a fast step), so each window sees exactly its own symbol.

Monte Carlo points carry Wilson 95% intervals.  Beta sweeps reuse one noise
seed per beta point across canceler kinds (common random numbers), with
per-point seeds derived from the base seed by a simple counter rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .simulate import SimConfig, Waveform, noise_amplitude, simulate_chain

__all__ = [
    "CommsConfig",
    "BerPoint",
    "BerCurve",
    "FramingError",
    "bind_comms",
    "modulate",
    "demodulate",
    "run_ber",
    "sweep_beta",
    "default_beta_grid",
    "forwarding_ber_model",
    "q_function",
    "wilson_interval",
    "write_ber_csv",
]


class FramingError(ValueError):
    """Waveform length is not a whole number of symbols."""


@dataclass
class CommsConfig:
    symbol_period: float = 2.0
    n_symbols: int = 10000
    samples_per_symbol: int | None = None  # derived; see bind_comms
    pulse: str = "rectangular"
    decision: str = "integrate-and-dump"

    def __post_init__(self):
        if not self.symbol_period > 0:
            raise ValueError("symbol_period must be positive")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be at least 1")
        if self.pulse != "rectangular":
            raise ValueError("only the rectangular time-domain pulse is implemented")
        if self.decision != "integrate-and-dump":
            raise ValueError("only integrate-and-dump detection is implemented")


@dataclass
class BerPoint:
    beta: float
    errors: int
    trials: int
    ber: float
    ci95: tuple


@dataclass
class BerCurve:
    points: list
    canceler_kind: str

    def __post_init__(self):
        betas = [p.beta for p in self.points]
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("BER curve requires strictly increasing beta values")


def bind_comms(cc: CommsConfig, params) -> CommsConfig:
    """Fill in samples_per_symbol against the relay timing parameters."""
    h, N = params.sampling_period, params.fsfh_ratio
    periods = cc.symbol_period / h
    if abs(periods - round(periods)) > 1e-9:
        raise ValueError(
            f"symbol period {cc.symbol_period} must be an integer multiple of h={h}"
        )
    sps = int(round(periods)) * N
    return replace(cc, samples_per_symbol=sps)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054) -> tuple:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # The score interval always contains the point estimate; guard the
    # floating-point boundary cases so the invariant holds exactly.
    return (min(max(0.0, center - half), p), max(min(1.0, center + half), p))


def modulate(bits, cc: CommsConfig, signal_dbm: float, rate: float | None = None) -> Waveform:
    """Map bits to a rectangular-pulse BPSK waveform at the fast rate.

    Bit 0 -> -A, bit 1 -> +A on the I component (Q stays zero), with
    A = sqrt(10^(signal_dbm/10)) so the configured power is the per-sample
    signal power.
    """
    if cc.samples_per_symbol is None:
        raise ValueError("CommsConfig not bound; call bind_comms first")
    bits = np.asarray(bits, dtype=int)
    amp = math.sqrt(10.0 ** (signal_dbm / 10.0)) if signal_dbm != -math.inf else 0.0
    sym = amp * (2.0 * bits - 1.0)
    samples = np.zeros((bits.size * cc.samples_per_symbol, 2))
    samples[:, 0] = np.repeat(sym, cc.samples_per_symbol)
    if rate is None:
        rate = cc.samples_per_symbol / cc.symbol_period
    return Waveform(samples, rate)


def _decision_windows(samples: np.ndarray, sps: int, offset: int = 0) -> np.ndarray:
    """Per-symbol integration windows, optionally delayed by whole samples.

    A nonzero offset re-aligns the windows to a chain whose hold updates lag
    the symbol boundary; trailing slots repeat the final sample.
    """
    n_sym = samples.shape[0] // sps
    if offset:
        samples = np.vstack([samples[offset:], np.repeat(samples[-1:], offset, axis=0)])
    return samples[: n_sym * sps].reshape(n_sym, sps, 2)


def demodulate(y: Waveform, cc: CommsConfig, phase_ref, align_offset: int = 0) -> np.ndarray:
    """Integrate-and-dump detection against a 2-vector phase reference.

    ``align_offset`` delays the integration windows by that many fast
    samples; the relay receiver uses one sample so each window sees only its
    own symbol's settled hold values (the post filter settles well inside a
    fast step).  Leave it at zero for a plain channel.
    """
    if cc.samples_per_symbol is None:
        raise ValueError("CommsConfig not bound; call bind_comms first")
    sps = cc.samples_per_symbol
    n = y.samples.shape[0]
    if n % sps != 0:
        raise FramingError(f"waveform length {n} is not a multiple of {sps} samples/symbol")
    ref = np.asarray(phase_ref, dtype=float).reshape(2)
    means = _decision_windows(y.samples, sps, align_offset).mean(axis=1)
    stat = means @ ref
    return (stat > 0.0).astype(int)


_CHAIN_ALIGN = 1  # relay receiver window offset, in fast samples


def _pilot_reference(cfg: SimConfig, cc: CommsConfig) -> np.ndarray:
    """Gain/rotation reference from a short noise-free all-ones pilot run."""
    pilot_cc = replace(cc, n_symbols=8)
    pcfg = replace(cfg, noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
    wave = modulate(np.ones(pilot_cc.n_symbols, dtype=int), pilot_cc, cfg.signal_dbm)
    out = simulate_chain(pcfg, wave)
    vec = _decision_windows(out.y_T.samples, cc.samples_per_symbol, _CHAIN_ALIGN)[-1].mean(axis=0)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return np.array([1.0, 0.0])
    return vec / norm


def run_ber(cfg: SimConfig, cc: CommsConfig) -> BerPoint:
    """One Monte Carlo BER estimate through the relay chain.

    Bits come from a dedicated stream (Philox key (seed, 1)); the chain noise
    uses key (seed, 0), so two runs with the same seed see identical bits and
    noise regardless of the canceler kind.
    """
    cc = bind_comms(cc, cfg.params)
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 1], dtype=np.uint64)))
    bits = rng.integers(0, 2, size=cc.n_symbols)
    wave = modulate(bits, cc, cfg.signal_dbm)
    out = simulate_chain(cfg, wave)
    ref = _pilot_reference(cfg, cc)
    decided = demodulate(out.y_T, cc, ref, align_offset=_CHAIN_ALIGN)
    errors = int(np.sum(decided != bits))
    ber = errors / cc.n_symbols
    return BerPoint(
        beta=float(cfg.beta), errors=errors, trials=cc.n_symbols,
        ber=ber, ci95=wilson_interval(errors, cc.n_symbols),
    )


def sweep_beta(cfg_base: SimConfig, cc: CommsConfig, betas, cancelers) -> list:
    """One BER curve per canceler kind over a common beta grid.

    Seed for beta index i is (base seed + i) mod 2^64, shared across kinds
    at that beta so the comparison between curves is paired.  Hence 12-point
    sweeps with base seeds s and s + 1 share 11 of their 12 noise streams.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("beta grid must be nonempty")
    if any(b <= 0 for b in betas):
        raise ValueError("beta values must be positive")
    betas = sorted(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta values must be distinct")
    curves = []
    for kind in cancelers:
        points = []
        for i, beta in enumerate(betas):
            seed_i = (cfg_base.seed + i) % (2 ** 64)
            cfg = replace(cfg_base, beta=beta, seed=seed_i, canceler=kind)
            points.append(run_ber(cfg, cc))
        curves.append(BerCurve(points=points, canceler_kind=kind))
    return curves


def forwarding_ber_model(cfg: SimConfig, cc: CommsConfig, beta: float) -> float:
    """Closed-form BER for an idealized unit-gain sample-forwarding relay.

    The relay holds one clean-plus-noise sample per slow period, so a symbol
    decision averages m held RS-noise draws (m slow periods per symbol) and
    sps white terminal-noise draws.  Used to place the default beta grid;
    the canceler chain shifts the real curves by its own in-band gain, which
    does not matter for grid placement.
    """
    cc = bind_comms(cc, cfg.params)
    sps = cc.samples_per_symbol
    m = sps // cfg.params.fsfh_ratio
    g = 10.0 ** (cfg.relay_gain_db / 20.0)
    amp = math.sqrt(10.0 ** (cfg.signal_dbm / 10.0))
    sigma_rs = noise_amplitude(cfg.noise_rs_dbm)
    sigma_t = noise_amplitude(cfg.noise_t_dbm)
    var = (beta * g * sigma_rs) ** 2 / m + sigma_t ** 2 / sps
    if var == 0.0:
        return 0.0
    return q_function(beta * g * amp / math.sqrt(var))


def default_beta_grid(
    cfg: SimConfig,
    cc: CommsConfig,
    n_points: int = 12,
    ber_high: float = 0.3,
    ber_low: float = 1e-4,
) -> np.ndarray:
    """Log-spaced beta grid spanning [ber_low, ber_high] of the ideal chain.

    Endpoints are located by bisection on the closed-form forwarding model;
    the low-BER end is clipped just above the RS-noise floor when the floor
    sits above the requested target.
    """
    floor = forwarding_ber_model(cfg, cc, 1e12)
    target_low = max(ber_low, floor * 1.2)

    def solve_for(target):
        lo, hi = 1e-9, 1e3
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if forwarding_ber_model(cfg, cc, mid) > target:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    beta_lo = solve_for(ber_high)
    beta_hi = solve_for(target_low)
    if beta_hi <= beta_lo:
        beta_hi = beta_lo * 10.0
    return np.geomspace(beta_lo, beta_hi, n_points)


def write_ber_csv(path, curves) -> None:
    """RFC-4180 CSV with one row per (beta, canceler) point."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["beta", "canceler", "errors", "trials", "ber", "ci_lo", "ci_hi"])
        for curve in curves:
            for p in curve.points:
                writer.writerow([
                    f"{p.beta:.10g}", curve.canceler_kind, p.errors, p.trials,
                    f"{p.ber:.10g}", f"{p.ci95[0]:.10g}", f"{p.ci95[1]:.10g}",
                ])
