"""Fast-rate baseband simulation of the BS -> RS -> T chain.

The loop (antialias filter, slow-rate canceler, hold, post filter, delayed
and rotated coupling feedback, relay forward gain, noise at RS and T) is a
linear periodically-time-varying recursion: the canceler updates once per
slow period, everything else every fast step.  One slow period of the
recursion is precompiled into constant matrices, so a run is a plain linear
iteration over periods; the semantics are exactly the per-fast-step
recursion, just batched.

Canceler kinds
--------------
``designed``  the supplied K(z) consumes the sampled antialias output.
``perfect``   the coupling contribution is subtracted exactly (using the
              simulator's internal loop state) before the same K(z) sees the
              sample; the ideal baseline differs from ``designed`` only
              through the coupling path, so with the coupling gain at zero
              the two runs coincide sample for sample.
``none``      K = 0: the relay transmits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import discretize_zoh, step_matches
from .plant import RelayParams, carrier_rotation, identity_filter, promote_iq
from .synthesis import DigitalController

__all__ = [
    "SimConfig",
    "Waveform",
    "SimOutput",
    "ConfigError",
    "noise_amplitude",
    "simulate_chain",
    "write_waveform_csv",
]

CANCELER_KINDS = ("none", "designed", "perfect")


class ConfigError(ValueError):
    """Simulation configuration is inconsistent."""


@dataclass
class Waveform:
    """I/Q samples at the fast rate: samples has shape (n, 2)."""

    samples: np.ndarray
    rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError(f"waveform samples must be (n, 2), got {self.samples.shape}")
        if self.samples.shape[0] == 0:
            raise ValueError("waveform must contain at least one sample")
        if not self.rate > 0:
            raise ValueError("waveform rate must be positive")


@dataclass
class SimConfig:
    params: RelayParams
    relay_gain_db: float = 60.0
    beta: float = 1.0
    noise_rs_dbm: float = -5.0
    noise_t_dbm: float = -2.0
    signal_dbm: float = 0.0
    seed: int = 0
    canceler: str = "designed"
    controller: DigitalController | None = None

    def __post_init__(self):
        if self.canceler not in CANCELER_KINDS:
            raise ConfigError(f"canceler must be one of {CANCELER_KINDS}, got {self.canceler!r}")
        if self.canceler in ("designed", "perfect") and self.controller is None:
            raise ConfigError(f"canceler={self.canceler!r} requires a controller")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        for name in ("relay_gain_db", "beta", "signal_dbm"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass
class SimOutput:
    y_T: Waveform
    u: Waveform
    z: Waveform


def noise_amplitude(p_dbm: float) -> float:
    """Per-component noise standard deviation for a total power in dBm.

    Powers are normalized so 0 dBm is one power unit; the power is split
    evenly between I and Q.  -inf disables the noise.
    """
    if np.isnan(p_dbm):
        raise ValueError("noise power must not be NaN")
    return float(np.sqrt(10.0 ** (p_dbm / 10.0) / 2.0))


def _fast_filters(params: RelayParams, tau: float):
    F = promote_iq(params.antialias) if params.antialias is not None else identity_filter()
    P = promote_iq(params.post_filter)
    Fd = discretize_zoh(F, tau) if F.n_states else F
    Pd = discretize_zoh(P, tau)
    return Fd, Pd


def _period_maps(cfg: SimConfig):
    """Compile one slow period of the loop into (A, B, C, D).

    State: (x_F, x_F_clean when needed, x_P, register, x_K).  Inputs per
    period: N fast tx samples then N fast RS-noise samples (2 each).
    Outputs: the N fast samples of the relay baseband output u.
    """
    prm = cfg.params
    N = prm.fsfh_ratio
    tau = prm.sampling_period / N
    d = prm.delay_fast_steps()
    alpha = prm.coupling_gain
    if d == 0 and alpha != 0.0:
        raise ConfigError("delay-free coupling is not supported by the simulator")
    aAL = alpha * carrier_rotation(prm.carrier_hz, prm.delay_seconds)
    Fd, Pd = _fast_filters(prm, tau)
    nF, nP = Fd.n_states, Pd.n_states

    use_clean = cfg.canceler == "perfect" and nF > 0
    if cfg.canceler in ("designed", "perfect"):
        K = cfg.controller.K
        if not step_matches(K.dt, prm.sampling_period):
            raise ConfigError(
                f"controller step {K.dt} does not match sampling period {prm.sampling_period}"
            )
        if K.n_inputs != 2 or K.n_outputs != 2:
            raise ConfigError("controller must be 2-input 2-output")
        nK = K.n_states
    else:
        K = None
        nK = 0

    nFc = nF if use_clean else 0
    n = nF + nFc + nP + 2 * d + nK
    ncols = n + 4 * N
    sF = slice(0, nF)
    sFc = slice(nF, nF + nFc)
    sP = slice(nF + nFc, nF + nFc + nP)
    sR = slice(nF + nFc + nP, nF + nFc + nP + 2 * d)
    sK = slice(nF + nFc + nP + 2 * d, n)

    def tx_cols(j):
        e = np.zeros((2, ncols))
        e[:, n + 2 * j:n + 2 * j + 2] = np.eye(2)
        return e

    def nrs_cols(j):
        e = np.zeros((2, ncols))
        e[:, n + 2 * N + 2 * j:n + 2 * N + 2 * j + 2] = np.eye(2)
        return e

    S = np.zeros((n, ncols))
    S[:, :n] = np.eye(n)

    def reg_oldest(Scur):
        if d == 0:
            return np.zeros((2, ncols))
        return Scur[sR][2 * (d - 1):2 * d]

    # Measurement at the slow sampling instant (fast index 0 of the period).
    if cfg.canceler == "perfect":
        # Exact subtraction of the coupling contribution: the canceler sees
        # the output of a coupling-free twin of the antialias filter.
        y_meas = (Fd.C @ S[sFc] if use_clean else 0.0) + Fd.D @ (tx_cols(0) + nrs_cols(0))
    else:
        rx0 = tx_cols(0) + nrs_cols(0) + aAL @ reg_oldest(S)
        y_meas = (Fd.C @ S[sF] if nF else 0.0) + Fd.D @ rx0
    if K is not None:
        u_slow = K.C @ S[sK] + K.D @ y_meas
        xK_next = K.A @ S[sK] + K.B @ y_meas
    else:
        u_slow = np.zeros((2, ncols))
        xK_next = np.zeros((0, ncols))

    out_rows = np.zeros((2 * N, ncols))
    for j in range(N):
        u_out = (Pd.C @ S[sP] if nP else 0.0) + Pd.D @ u_slow
        out_rows[2 * j:2 * j + 2] = u_out
        Snew = S.copy()
        drive = tx_cols(j) + nrs_cols(j)
        if nF:
            Snew[sF] = Fd.A @ S[sF] + Fd.B @ (drive + aAL @ reg_oldest(S))
        if use_clean:
            Snew[sFc] = Fd.A @ S[sFc] + Fd.B @ drive
        if nP:
            Snew[sP] = Pd.A @ S[sP] + Pd.B @ u_slow
        if d:
            reg = S[sR]
            Snew[sR.start:sR.start + 2] = u_out
            Snew[sR.start + 2:sR.stop] = reg[:-2]
        S = Snew
    if nK:
        S[sK] = xK_next

    return S[:, :n], S[:, n:], out_rows[:, :n], out_rows[:, n:], n


def simulate_chain(cfg: SimConfig, tx: Waveform) -> SimOutput:
    """Run the relay chain on a fast-rate input waveform.

    The returned ``z`` is the cancelation error tx - u against the noise-free
    incoming signal; ``y_T`` is the terminal-side received waveform
    beta * g * u + n_T with g the relay amplitude gain.
    """
    prm = cfg.params
    N = prm.fsfh_ratio
    n_fast = tx.samples.shape[0]
    if n_fast % N != 0:
        raise ConfigError(f"waveform length {n_fast} is not a multiple of the FSFH ratio {N}")
    expected_rate = N / prm.sampling_period
    if abs(tx.rate - expected_rate) > 1e-9 * expected_rate:
        raise ConfigError(f"waveform rate {tx.rate} != fast rate {expected_rate}")

    A, B, C, D, n = _period_maps(cfg)
    n_slow = n_fast // N

    # Chain noise stream: Philox key (seed, 0); bit streams use (seed, 1).
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    sigma_rs = noise_amplitude(cfg.noise_rs_dbm)
    sigma_t = noise_amplitude(cfg.noise_t_dbm)
    n_rs = sigma_rs * rng.standard_normal((n_fast, 2))
    n_t = sigma_t * rng.standard_normal((n_fast, 2))

    tx_blocks = tx.samples.reshape(n_slow, 2 * N)
    nrs_blocks = n_rs.reshape(n_slow, 2 * N)
    inputs = np.hstack([tx_blocks, nrs_blocks])

    u = np.empty((n_fast, 2))
    x = np.zeros(n)
    # A divergent loop overflows; the finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_slow):
            vec = inputs[k]
            u[k * N:(k + 1) * N] = (C @ x + D @ vec).reshape(N, 2)
            x = A @ x + B @ vec

    if not np.all(np.isfinite(u)):
        bad = int(np.argmin(np.isfinite(u).all(axis=1)))
        raise FloatingPointError(f"non-finite relay output at fast step {bad}")

    gain = 10.0 ** (cfg.relay_gain_db / 20.0)
    y_t = cfg.beta * gain * u + n_t
    z = tx.samples - u
    rate = tx.rate
    return SimOutput(
        y_T=Waveform(y_t, rate), u=Waveform(u, rate), z=Waveform(z, rate)
    )


def write_waveform_csv(path, tx: Waveform, out: SimOutput) -> None:
    """Dump a run as RFC-4180 CSV: t, v, u, z, yT with I/Q columns."""
    import csv

    n = tx.samples.shape[0]
    t = np.arange(n) / tx.rate
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["t", "v_i", "v_q", "u_i", "u_q", "z_i", "z_q", "yT_i", "yT_q"])
        for i in range(n):
            writer.writerow(
                [f"{t[i]:.9g}"]
                + [f"{v:.12g}" for v in (*tx.samples[i], *out.u.samples[i],
                                          *out.z.samples[i], *out.y_T.samples[i])]
            )
