"""BPSK over the simulated relay chain: modulation, detection, BER sweeps.

Transmission is antipodal on the in-phase component with a rectangular
time-domain pulse; detection is coherent integrate-and-dump against a
pilot-calibrated reference.  For the relay chain the decision windows are
aligned one fast sample after the hold update (the post filter settles well
inside a fast step), so each window sees exactly its own symbol.

Monte Carlo points carry Wilson 95% intervals.  Beta point i of a sweep
draws its n_RS, bits and n_T from the generators that its batch makes once
(:func:`simulate.point_streams`), shared by every canceler kind at that
point (common random numbers); no two points of any two base seeds share a
key.  A :class:`simulate.SimConfig` describes the whole channel, symbol
timing included, and derives samples per symbol and every linear factor
that modulation and detection read.

A sweep is one streaming pass (:func:`_error_counts`): each controlled
kind's period map is built once, all beta points of a kind advance
together through the simulator's one kernel, and each point's bits and
noise are drawn once per chunk of ``_CHUNK_SYMBOLS`` symbols and shared by
every kind.  n_RS is drawn
only at the samples the loops read.  Decisions are scored chunk by chunk,
so memory does not grow with ``n_symbols``; one receiver (:func:`_decide`)
makes them, and :func:`demodulate`'s too.  The noise-free pilot is only
scaled by beta, so each kind runs one pilot on the loop the sweep already
built, and ``none`` (u = 0 exactly) has no loop.  A single BER point is a
one-beta, one-kind sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import ConfigError, SimConfig, _ChainBatch, _iq_samples

__all__ = [
    "BerPoint",
    "BerCurve",
    "FramingError",
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


class FramingError(ValueError):
    """A sample count is not a whole number of symbols."""


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
    return _bpsk(np.asarray(bits, dtype=int).ravel(), cfg.sps, cfg.signal_amplitude)


def _bpsk(bits: np.ndarray, sps: int, amp: float) -> np.ndarray:
    """:func:`modulate`'s samples for bits (n,) or (n, P): (n sps, 2) or (n sps, 2, P)."""
    samples = np.zeros((bits.shape[0] * sps, 2) + bits.shape[1:])
    samples[:, 0] = np.repeat(amp * (2.0 * bits - 1.0), sps, axis=0)
    return samples


def _windows(samples: np.ndarray, sps: int, offset: int, tail, final: bool):
    """Whole integration windows of one chunk of a stream, and its leftover.

    The windows are delayed by ``offset`` whole samples: the stream's first
    ``offset`` samples are dropped (pass ``tail=None`` on its first chunk),
    and on its ``final`` chunk trailing slots repeat the final sample.  The
    leftover, short of a whole window, is the next chunk's ``tail``.
    """
    parts = [samples[offset:]] if tail is None else [tail, samples]
    if final:
        parts.append(np.repeat(samples[-1:], offset, axis=0))
    stream = np.concatenate(parts)
    n_win = stream.shape[0] // sps
    return stream[: n_win * sps].reshape(n_win, sps, *stream.shape[1:]), stream[n_win * sps:]


def _decide(y: np.ndarray, ref: np.ndarray, sps: int, offset: int, tail, final: bool):
    """The receiver: BPSK decisions on one chunk of a stream y (n, 2, P), and its leftover.

    Each whole window of :func:`_windows` is integrated, and its bit is 1
    where the mean's projection on the phase reference ``ref`` is positive:
    (windows, P) booleans.  A statistic that overflows a float raises
    FloatingPointError, so every sample that a decision reads is checked.
    """
    windows, tail = _windows(y, sps, offset, tail, final)
    with np.errstate(over="ignore", invalid="ignore"):
        stat = ref @ windows.mean(axis=1)
    if not np.isfinite(stat).all():
        raise FloatingPointError("terminal waveform overflows a float")
    return stat > 0.0, tail


def demodulate(y, cfg: SimConfig, phase_ref) -> np.ndarray:
    """Integrate-and-dump detection of I/Q samples y (n, 2) of a plain channel
    against a 2-vector phase reference: window k is samples k sps .. (k+1) sps - 1."""
    y, sps = _iq_samples(y), cfg.sps
    n = y.shape[0]
    if n % sps != 0:
        raise FramingError(f"waveform length {n} is not a multiple of {sps} samples/symbol")
    ref = np.asarray(phase_ref, dtype=float).reshape(2)
    decided, _ = _decide(y[:, :, None], ref, sps, 0, None, True)
    return decided[:, 0].astype(int)


_CHAIN_ALIGN = 1  # relay receiver window offset, in fast samples
_CHUNK_SYMBOLS = 64  # symbols per streamed chunk of a BER run


def _pilot_reference(cfg: SimConfig, batch, kind: str) -> np.ndarray:
    """Gain/rotation reference from a short noise-free all-ones pilot run of
    one kind of a :class:`_ChainBatch` of ``cfg``, at the batch's first point."""
    y_t = batch.pilot(kind, modulate(np.ones(8, dtype=int), cfg))
    # A stable loop's pilot can stay finite at a large enough scale and
    # still overflow here.
    with np.errstate(over="ignore", invalid="ignore"):
        vec = _windows(y_t, cfg.sps, _CHAIN_ALIGN, None, True)[0][-1].mean(axis=0)
        norm = float(np.linalg.norm(vec))
    if not np.isfinite(norm):
        raise FloatingPointError("pilot output overflows")
    if norm < 1e-12:
        return np.array([1.0, 0.0])
    return vec / norm


def _error_counts(cfg: SimConfig, kinds, betas) -> dict:
    """Bit errors per canceler kind at each beta point, streamed.

    Point i's bits and chain noise, from the batch's streams, are drawn
    once per chunk of ``_CHUNK_SYMBOLS`` symbols and shared by all kinds; the
    points of a kind advance together as the columns of one loop state.
    Decisions are scored as each chunk arrives, so memory is bounded by the
    chunk, not by ``cfg.n_symbols``.  The noise-free pilot is only scaled by
    beta, so each kind's reference comes from one pilot at the first point.
    """
    sps, amp, n_symbols = cfg.sps, cfg.signal_amplitude, cfg.n_symbols
    batch = _ChainBatch(cfg, kinds, betas)
    refs = {kind: _pilot_reference(cfg, batch, kind) for kind in batch.kinds}
    errors = {kind: np.zeros(len(betas), dtype=int) for kind in batch.kinds}
    tails = dict.fromkeys(batch.kinds)
    unscored = np.zeros((0, len(betas)), dtype=int)  # bits of the tails' symbols
    for start in range(0, n_symbols, _CHUNK_SYMBOLS):
        n = min(_CHUNK_SYMBOLS, n_symbols - start)
        bits = np.stack([rng.integers(0, 2, size=n) for rng in batch.bits], axis=1)
        tx = _bpsk(bits, sps, amp)
        unscored = np.concatenate([unscored, bits])
        for kind, _, y_t in batch.advance(tx):
            decided, tails[kind] = _decide(y_t, refs[kind], sps, _CHAIN_ALIGN, tails[kind],
                                           start + n == n_symbols)
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
    kinds; betas must be finite, positive and distinct.  A one-beta, one-kind
    sweep is a single BER estimate at sweep point 0.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("beta grid must be nonempty")
    if not all(math.isfinite(b) for b in betas):
        raise ValueError(f"beta values must be finite, got {betas}")
    if any(b <= 0 for b in betas):
        raise ValueError("beta values must be positive")
    betas = sorted(betas)
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
    above the target.  A target that no finite beta > 0 reaches raises ConfigError.
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
            raise ConfigError(f"no beta gives the auto grid's BER {target:.3g} (the ideal "
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
