"""BPSK over the simulated relay chain: modulation, detection, BER sweeps.

Transmission is antipodal on the in-phase component with a rectangular
time-domain pulse; detection is coherent integrate-and-dump against a
pilot-calibrated reference.  For the relay chain the decision windows are
aligned one fast sample after the hold update (``simulate._CHAIN_ALIGN``;
the post filter settles well inside a fast step), so each window sees
exactly its own symbol.

Monte Carlo points carry Wilson 95% intervals.  Beta point i of a sweep
draws its n_RS, bits and n_T from the generators that its batch makes once
(:func:`simulate.point_streams`), shared by every canceler kind at that
point (common random numbers); no two points of any two base seeds share a
key.  A :class:`simulate.SimConfig` describes the whole channel, symbol
timing included, and derives samples per symbol and every linear factor
that modulation and detection read.

A sweep is one streaming pass (:func:`_error_counts`): the controlled
kinds' period maps come from one lift pass, and each point's bits and
noise are drawn once per block and shared by every kind.  A block is as
many whole chunks of 32 symbols as keep the points' w of a block within a
fixed budget of numbers, and at least one (``simulate._ChainBatch``).
n_RS is drawn, and the BPSK tx formed from the bits, only at the samples
the loops read, and n_T as one sum per decision window.  All beta points
of all controlled kinds advance together through one stacked symbol-rate
system (``simulate._SymbolStack``), whose state carries each run's open window
from block to block: one broadcast product per chunk gives every kind's
window sums of u, so a sweep scores each window's statistic
beta g Sum u + Sum n_T and never forms a waveform sample.  Decisions are
scored block by block, so memory does not grow with ``n_symbols``; one
receiver (:func:`_decide`) makes them, and :func:`demodulate`'s too.  The
phase reference is a property of a kind's loop: one noise-free pilot run
of the same stack reads the relay output u of every loop the sweep
already built, since the terminal's beta g > 0 keeps u's direction, and
``none`` (u = 0 exactly) has no loop.
A single BER point is a one-beta, one-kind sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import SimConfig, _ChainBatch, _iq_samples

__all__ = [
    "BerPoint",
    "BerCurve",
    "modulate",
    "demodulate",
    "sweep_beta",
    "default_beta_grid",
    "forwarding_ber_model",
    "q_function",
    "wilson_interval",
    "write_ber_csv",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile of the Wilson interval
GRID_BER_HIGH = 0.3  # ideal-chain BER at the low-beta end of default_beta_grid
GRID_BER_LOW = 1e-4  # ... at the high-beta end, unless the RS-noise floor sits above it


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


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # The score interval always contains the point estimate; guard the
    # floating-point boundary cases so the invariant holds exactly.
    return (min(max(0.0, center - half), p), max(min(1.0, center + half), p))


def modulate(bits, cfg: SimConfig) -> np.ndarray:
    """Map bits to rectangular-pulse BPSK I/Q samples (n sps, 2) at the fast rate.

    Bit 0 -> -A, bit 1 -> +A on the I component (Q stays zero), with
    A = ``cfg.signal_amplitude`` so the configured power is the per-sample
    signal power.
    """
    bits = np.asarray(bits, dtype=int).ravel()
    samples = np.zeros((bits.size * cfg.sps, 2))
    samples[:, 0] = np.repeat(cfg.signal_amplitude * (2.0 * bits - 1.0), cfg.sps)
    return samples


def _decide(y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The receiver: BPSK decisions on window statistics y (..., 2).

    A bit is 1 where its window's projection on the unit phase reference
    ``ref`` is positive.  Every statistic is checked: one that is not
    finite raises FloatingPointError.  Each product of a finite statistic
    and ``ref`` is finite, so their sum may round to +-inf but never to
    NaN, and its sign is the decision.
    """
    if not np.isfinite(y).all():
        raise FloatingPointError("terminal waveform overflows a float")
    with np.errstate(over="ignore"):
        return (y.reshape(-1, 2) @ ref).reshape(y.shape[:-1]) > 0.0


def demodulate(y, cfg: SimConfig, phase_ref) -> np.ndarray:
    """Integrate-and-dump detection of I/Q samples y (n, 2) of a plain channel
    against a 2-vector phase reference: window k is samples k sps .. (k+1) sps - 1."""
    y, sps = _iq_samples(y), cfg.sps
    n = y.shape[0]
    if n % sps != 0:
        raise ValueError(f"waveform length {n} is not a multiple of {sps} samples/symbol")
    ref = np.asarray(phase_ref, dtype=float).reshape(2)
    with np.errstate(over="ignore", invalid="ignore"):
        means = y.reshape(-1, sps, 2).mean(axis=1)
    return _decide(means, ref).astype(int)


def _pilot_reference(batch) -> dict:
    """kind -> unit gain/rotation reference of a :class:`_ChainBatch`'s kinds:
    the direction of the last decision window's sum of a loop's noise-free
    relay output u for an all-ones pilot, one run for every kind, or the I
    axis where that sum is 0 (``none``)."""
    refs = {}
    for kind, (i, q) in batch.pilot(np.ones(8, dtype=int)).items():
        norm = math.hypot(i, q)
        refs[kind] = np.array([i / norm, q / norm]) if norm > 0.0 else np.array([1.0, 0.0])
    return refs


def _error_counts(cfg: SimConfig, kinds, betas) -> dict:
    """Bit errors per canceler kind at each beta point, streamed.

    Point i's bits and chain noise, from the batch's streams, are drawn
    once per block of ``batch.block`` symbols and shared by all kinds; the
    points of all kinds advance together as the rows of one state array.
    Each kind decides a block's windows at once, on each window's statistic
    as the batch completes it, so memory is bounded by the block, not by
    ``cfg.n_symbols``.  Each kind's reference is a property of its loop, so
    one pilot run serves every point of every kind.
    """
    n_symbols = cfg.n_symbols
    batch = _ChainBatch(cfg, kinds, betas)
    refs = _pilot_reference(batch)
    errors = {kind: np.zeros(len(betas), dtype=int) for kind in batch.kinds}
    unscored = np.zeros((0, len(betas)), dtype=int)  # bits of the windows not yet complete
    for start in range(0, n_symbols, batch.block):
        n = min(batch.block, n_symbols - start)
        bits = np.stack([rng.integers(0, 2, size=n) for rng in batch.bits], axis=1)
        unscored = np.concatenate([unscored, bits])
        for kind, y in batch.advance(bits):
            decided = _decide(y, refs[kind])
            errors[kind] += np.sum(decided != unscored[: len(decided)], axis=0)
        unscored = unscored[len(decided):]
    return errors


def _ber_point(beta: float, errors: int, trials: int) -> BerPoint:
    return BerPoint(beta=float(beta), errors=errors, trials=trials,
                    ber=errors / trials, ci95=wilson_interval(errors, trials))


def sweep_beta(cfg: SimConfig, betas, cancelers) -> list:
    """One BER curve per canceler kind over a common beta grid.

    Beta index i is sweep point i, whose streams every kind shares, so the
    curves are paired.  All points of a kind run as one batch (see
    :func:`_error_counts`), whose :class:`simulate._ChainBatch` checks the
    kinds and betas; a curve's betas must also be positive and distinct
    (which refuses -inf here, as not finite and not positive).
    A one-beta, one-kind sweep is a single BER estimate at sweep point 0.
    """
    betas = sorted(float(b) for b in betas)
    if any(b <= 0 for b in betas):
        raise ValueError("beta values must be finite and positive")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta values must be distinct")
    errors = _error_counts(cfg, cancelers, betas)
    return [
        BerCurve(points=[_ber_point(beta, int(e), cfg.n_symbols)
                         for beta, e in zip(betas, errors[kind])], canceler_kind=kind)
        for kind in cancelers
    ]


def forwarding_ber_model(cfg: SimConfig, beta: float) -> float:
    """Closed-form BER for an idealized unit-gain sample-forwarding relay.

    The relay holds one clean-plus-noise sample per slow period, so a symbol
    decision averages m held RS-noise draws (m slow periods per symbol) and
    sps white terminal-noise draws.  :func:`default_beta_grid` inverts it, and
    the tests check the grid against it; the canceler chain shifts the real
    curves by its own in-band gain, which does not matter for grid placement.
    """
    sps, g = cfg.sps, cfg.relay_gain
    m = sps // cfg.params.fsfh_ratio
    var = (beta * g * cfg.sigma_rs) ** 2 / m + cfg.sigma_t ** 2 / sps
    if var == 0.0:
        return 0.0
    return q_function(beta * g * cfg.signal_amplitude / math.sqrt(var))


def default_beta_grid(cfg: SimConfig, n_points: int) -> np.ndarray:
    """Log-spaced beta grid spanning BER [GRID_BER_LOW, GRID_BER_HIGH] of the ideal chain.

    Each end inverts :func:`forwarding_ber_model`: with m = sps / N,
    r = sigma_rs^2 / m, t = sigma_t^2 / sps and relay gain g, BER b = Q(x)
    is reached at beta = x sqrt(t) / (g sqrt(A^2 - x^2 r)).  The low-BER end
    is clipped just above the RS-noise floor Q(A / sqrt(r)) when that sits
    above the target.  A target that no finite beta > 0 reaches raises ValueError.
    """
    from statistics import NormalDist

    A, g, sps = cfg.signal_amplitude, cfg.relay_gain, cfg.sps
    r, t = cfg.sigma_rs ** 2 / (sps // cfg.params.fsfh_ratio), cfg.sigma_t ** 2 / sps
    floor = q_function(A / math.sqrt(r)) if r > 0.0 else 0.0
    target_low = max(GRID_BER_LOW, floor * 1.2)

    def solve_for(target):
        x = -NormalDist().inv_cdf(target)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = x * math.sqrt(t) / (g * np.sqrt(A * A - x * x * r))
        if not 0.0 < beta < math.inf:
            raise ValueError(f"no beta gives the auto grid's BER {target:.3g} (the ideal "
                             f"relay's RS-noise floor is {floor:.3g}); give sweep.betas instead")
        return float(beta)

    beta_lo = solve_for(GRID_BER_HIGH)
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
