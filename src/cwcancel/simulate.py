"""Fast-rate baseband simulation of the BS -> RS -> T chain.

The relay loop (antialias filter, slow-rate canceler, hold, post filter,
delayed and rotated coupling feedback) is the design loop of
:func:`plant.assemble_loop` with the input-shaping filter replaced by an I/Q
pass-through, so its exogenous input is the received signal w = tx + n_RS.
FSFH lifting turns one slow period of that loop into a discrete plant and
:func:`lifting.closed_loop` closes it with K(z), so a run is a plain linear
iteration over periods and the simulator scores exactly the loop the
canceler was designed on.  The lifted error output is e = w - u, which gives
the relay output u = w - e; the relay forward gain and the noise at T act
outside the loop.

Canceler kinds
--------------
``designed``  the supplied K(z) closes the loop.
``perfect``   the same loop with the coupling gain at zero, which is exact
              subtraction of the coupling contribution.  The baseline is
              independent of the coupling gain, and with the gain at zero
              it coincides with ``designed`` sample for sample.
``none``      K = 0: the relay transmits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lifting import closed_loop, lift
from .lti import StateSpace, step_matches
from .plant import RelayParams, assemble_loop, identity_filter
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


def _period_maps(cfg: SimConfig) -> StateSpace:
    """One slow period of the closed relay loop: lifted w -> lifted e.

    Input per period: the N fast samples of w = tx + n_RS (2 each); output:
    the N fast samples of the error e = w - u.
    """
    prm = cfg.params
    if cfg.canceler == "none":
        K = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                       np.zeros((2, 2)), dt=prm.sampling_period)
    else:
        K = cfg.controller.K
        if not step_matches(K.dt, prm.sampling_period):
            raise ConfigError(
                f"controller step {K.dt} does not match sampling period {prm.sampling_period}"
            )
        if K.n_inputs != 2 or K.n_outputs != 2:
            raise ConfigError("controller must be 2-input 2-output")
    loop = assemble_loop(replace(prm, input_shaping=identity_filter()))
    if cfg.canceler == "perfect":
        loop = replace(loop, coupling_gain=0.0)
    return closed_loop(lift(loop), K)


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

    loop = _period_maps(cfg)
    A, B, C, D = loop.A, loop.B, loop.C, loop.D
    n_slow = n_fast // N

    # Chain noise stream: Philox key (seed, 0); bit streams use (seed, 1).
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    sigma_rs = noise_amplitude(cfg.noise_rs_dbm)
    sigma_t = noise_amplitude(cfg.noise_t_dbm)
    n_rs = sigma_rs * rng.standard_normal((n_fast, 2))
    n_t = sigma_t * rng.standard_normal((n_fast, 2))

    w = (tx.samples + n_rs).reshape(n_slow, 2 * N)
    e = np.empty_like(w)
    x = np.zeros(A.shape[0])
    # A divergent loop overflows; the finiteness check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_slow):
            e[k] = C @ x + D @ w[k]
            x = A @ x + B @ w[k]
        u = (w - e).reshape(n_fast, 2)

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
