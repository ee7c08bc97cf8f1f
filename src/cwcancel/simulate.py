"""Fast-rate baseband simulation of the BS -> RS -> T chain.

The relay loop (antialias filter, slow-rate canceler, hold, post filter,
delayed and rotated coupling feedback) is the design loop of
:class:`plant.RelayParams` with the input-shaping filter replaced by an I/Q
pass-through, so its exogenous input is the received signal w = tx + n_RS.
:func:`lifting.lift` turns one slow period of that loop into a discrete
plant and :func:`lifting.closed_loop` closes it with K(z), so a run is a
plain linear iteration over periods and the simulator scores exactly the
loop the canceler was designed on.  The lifted error output is e = w - u,
which gives the relay output u = w - e; the relay forward gain and the noise
at T act outside the loop.

One private kernel, :func:`_advance`, writes that iteration: it advances an
(n_x, P) state matrix, the loop states of P runs, over a chunk of slow
periods.  It takes only the samples of w that reach the loop (with F = I,
the one sampled I/Q pair per period) and runs a doubling scan over blocks
of 64 periods, so its Python loop turns log2(64) times per block, not once
per period.  :class:`_ChainBatch` feeds it chunk by chunk for the BER
sweeps (every beta point of a kind is a column), and :func:`simulate_chain`
is its one-run, one-chunk case.  The batch is the one gate of a run: it
checks the kinds, builds and checks the loops, and makes the streams.

Random streams
--------------
:func:`point_streams` is the one owner of the stream layout: stream k of
sweep point i has Philox key (seed, 3 i + k), where k = 0 is the noise n_RS
at the relay, 1 the bits and 2 the noise n_T at the terminal.  A batch
makes each point's three generators once, and :func:`simulate_chain` is
point 0.  n_RS is drawn only at the samples of w that a loop reads, as
(periods, columns) normals, since no other sample can reach u, y_T or a
decision; n_T is (n, 2) normals.

Canceler kinds
--------------
``designed``  the supplied K(z) closes the loop.
``perfect``   K(z) on the same loop with the coupling gain at zero.  K keeps
              its model of the echo, so this is not exact subtraction.  It
              does not depend on the coupling gain, and with the gain at
              zero it coincides with ``designed`` sample for sample.
``none``      the relay transmits nothing, u = 0 exactly, so no loop is
              built or run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .hnorm import require_stable
from .lifting import closed_loop, lift
from .lti import StateSpace
from .plant import RelayParams, identity_filter
from .synthesis import DigitalController

__all__ = [
    "CANCELER_KINDS",
    "SimConfig",
    "SimOutput",
    "ConfigError",
    "noise_amplitude",
    "point_streams",
    "simulate_chain",
    "write_waveform_csv",
]

CANCELER_KINDS = ("none", "designed", "perfect")


class ConfigError(ValueError):
    """Any invalid configuration value: a config file's, a flag's or a parameter's."""


@dataclass
class SimConfig:
    """The channel that every run of a sweep shares; a run's kind and beta are arguments.

    The linear factors a run reads are derived here, and only here, from
    the stored levels: a power of P dBm is 10^(P/10) power units, and a
    gain of G dB scales amplitudes by 10^(G/20).  Construction checks that
    each factor is finite and that a symbol lasts a whole number of slow
    periods, at least one.
    """

    params: RelayParams
    relay_gain_db: float = 60.0
    noise_rs_dbm: float = -5.0
    noise_t_dbm: float = -2.0
    signal_dbm: float = 0.0
    seed: int = 0
    symbol_period: float = 2.0
    n_symbols: int = 10000
    controller: DigitalController | None = None

    def __post_init__(self):
        for name in ("seed", "n_symbols"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be at least 1")
        if not 0 < self.symbol_period < math.inf:
            raise ConfigError("symbol_period must be positive and finite")
        for name in ("relay_gain_db", "signal_dbm"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        self.sps  # raises unless a symbol is one or more whole slow periods
        for name, factor in (("relay_gain_db", "relay_gain"), ("signal_dbm", "signal_amplitude"),
                             ("noise_rs_dbm", "sigma_rs"), ("noise_t_dbm", "sigma_t")):
            # A Python float's power overflows by raising, a numpy scalar's
            # (a level given through the Python API) with a warning.
            with np.errstate(over="ignore"):
                try:
                    finite = math.isfinite(getattr(self, factor))
                except OverflowError:
                    finite = False
            if not finite:
                raise ConfigError(f"{name} = {getattr(self, name)} overflows its linear factor")

    @property
    def sps(self) -> int:
        """Fast samples per symbol: N per slow period of the relay timing."""
        h, N = self.params.sampling_period, self.params.fsfh_ratio
        periods = self.symbol_period / h
        if not 0.5 < periods < math.inf or abs(periods - round(periods)) > 1e-9:
            raise ConfigError(f"symbol period {self.symbol_period} must be an integer "
                              f"multiple of h={h}, at least one")
        return int(round(periods)) * N

    @property
    def relay_gain(self) -> float:
        """The relay's forward amplitude gain."""
        return 10.0 ** (self.relay_gain_db / 20.0)

    @property
    def signal_amplitude(self) -> float:
        """The BPSK amplitude A, whose square is the per-sample signal power."""
        return math.sqrt(10.0 ** (self.signal_dbm / 10.0))

    @property
    def sigma_rs(self) -> float:
        return noise_amplitude(self.noise_rs_dbm)

    @property
    def sigma_t(self) -> float:
        return noise_amplitude(self.noise_t_dbm)


@dataclass
class SimOutput:
    y_T: np.ndarray
    u: np.ndarray
    z: np.ndarray


def noise_amplitude(p_dbm: float) -> float:
    """Per-component noise standard deviation for a total power in dBm.

    Powers are normalized so 0 dBm is one power unit; the power is split
    evenly between I and Q.  -inf disables the noise.
    """
    if np.isnan(p_dbm):
        raise ValueError("noise power must not be NaN")
    return float(np.sqrt(10.0 ** (p_dbm / 10.0) / 2.0))


def _iq_samples(samples) -> np.ndarray:
    """Outside I/Q samples as a float (n, 2) array with n >= 1."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"waveform samples must be (n, 2), got {samples.shape}")
    if samples.shape[0] == 0:
        raise ValueError("waveform must contain at least one sample")
    return samples


def _period_maps(cfg: SimConfig, kind: str) -> StateSpace:
    """One slow period of the relay loop closed by the controller of a kind
    that runs one (``designed`` or ``perfect``): lifted w -> lifted e.

    Input per period: the N fast samples of w = tx + n_RS (2 each); output:
    the N fast samples of the error e = w - u.  This is where a missing
    controller is found and where an unstable loop is refused, before any
    noise is drawn; :func:`lifting.closed_loop` checks the controller's
    shape and step.
    """
    if cfg.controller is None:
        raise ConfigError(f"canceler={kind!r} requires a controller")
    prm = replace(cfg.params, input_shaping=identity_filter())
    if kind == "perfect":
        prm = replace(prm, coupling_gain=0.0)
    loop = closed_loop(lift(prm), cfg.controller.K)
    require_stable(loop.A, f"{kind} loop")
    return loop


def point_streams(seed: int, point: int) -> tuple:
    """(n_RS, bits, n_T): the generators of sweep point ``point``.

    Stream k has Philox key (seed, 3 point + k).  Distinct (seed, point, k)
    triples get distinct keys, so sweeps with different base seeds share no
    stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
    SC 2011).
    """
    return tuple(np.random.Generator(np.random.Philox(
        key=np.array([seed, 3 * point + k], dtype=np.uint64))) for k in range(3))


# Periods per scan block of :func:`_advance`: a power of two that divides
# every 64-symbol sweep chunk.
_SCAN_BLOCK = 64
# A stable loop can still overflow a float at a large enough scale; the
# receiver (:func:`ber._decide`) or :func:`_terminal` reports it.
_DIVERGENCE = dict(over="ignore", invalid="ignore")


class _PeriodKernel:
    """A closed loop's period map x <- A x + B w, e = C x + D w, arranged for
    :func:`_advance`.

    u = w - e = -C x + (I - D) w, so w enters only through the columns of
    [B; I - D] that are not exactly zero (``cols``): the sampler's I/Q pair
    at the period's first fast instant when the antialias filter is I, all
    2N once it has state.  Matrices are stored transposed for the
    run-by-row layout of :func:`_advance`: ``BT`` = B[:, cols]^T, ``H`` =
    [-C, (I - D)[:, cols]]^T and ``powers`` = (A^s)^T for s = 1, 2, 4, ...,
    _SCAN_BLOCK / 2.
    """

    def __init__(self, loop: StateSpace):
        n = loop.n_states
        BG = np.vstack([loop.B, np.eye(loop.n_outputs) - loop.D])
        self.cols = np.flatnonzero(np.any(BG != 0.0, axis=0))
        self.n_states = n
        self.BT = BG[:n, self.cols].T
        self.H = np.hstack([-loop.C, BG[n:, self.cols]]).T
        self.powers = [loop.A.T]
        with np.errstate(**_DIVERGENCE):
            while 2 ** len(self.powers) < _SCAN_BLOCK:
                self.powers.append(self.powers[-1] @ self.powers[-1])


def _advance(kernel: _PeriodKernel, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Relay outputs U of P runs over a chunk of slow periods.

    X is the (n_x, P) loop state of the runs and is advanced in place;
    W[k, p] is run p's w_k[cols] in period k, the only samples of w the
    loop reads.  Row (k, p) of the work matrix Z holds run p's state x_k and
    inputs w_k[cols], so U = Z H is one GEMM per block.  The states advance
    in blocks of ``_SCAN_BLOCK`` periods by a doubling scan (Blelloch,
    "Prefix sums and their applications", 1990): with v_k = B w_k, plus
    A x at the block's first period, x_{k+1} = sum_{i<=k} A^(k-i) v_i, and
    the doubling with s = 1, 2, 4, ... adds A^s times the partial sums s
    periods back, one GEMM each.  Blocks start at the chunk's first period,
    so chunks cut at block edges give the same bits as one whole call.
    U[k, p] is run p's 2N output samples of period k, unchecked: see :data:`_DIVERGENCE`.
    """
    T, P, m = W.shape
    n, n_out = kernel.n_states, kernel.H.shape[1]
    Z = np.empty(((T + 1) * P, n + m))
    Z[:P, :n] = X.T
    Z[: T * P].reshape(T, P, n + m)[:, :, n:] = W
    U = np.empty((T * P, n_out))
    with np.errstate(**_DIVERGENCE):
        for start in range(0, T * P, _SCAN_BLOCK * P):
            stop = min(start + _SCAN_BLOCK * P, T * P)
            x = Z[start + P: stop + P, :n]  # the block's x_{k+1}, first v_k
            np.matmul(Z[start:stop, n:], kernel.BT, out=x)
            x[:P] += Z[start: start + P, :n] @ kernel.powers[0]
            s = P  # rows per doubling: s periods of P runs
            for AsT in kernel.powers:
                if s >= stop - start:
                    break
                x[s:] += x[: stop - start - s] @ AsT
                s *= 2
            np.matmul(Z[start:stop], kernel.H, out=U[start:stop])
    X[...] = Z[T * P:, :n].T
    return U.reshape(T, P, n_out)


def _terminal(y_t: np.ndarray) -> np.ndarray:
    """A pilot's or :func:`simulate_chain`'s y_T, or FloatingPointError if it overflows a float."""
    if not np.isfinite(y_t).all():
        raise FloatingPointError("terminal waveform overflows a float")
    return y_t


class _ChainBatch:
    """P runs of the relay chain for each canceler kind, fed chunk by chunk.

    This is the one gate of a run.  It checks the kinds (at least one, each
    in :data:`CANCELER_KINDS`, none repeated), then builds and checks the
    loop of each kind that runs a controller, and only then makes the
    streams, so a refused run draws nothing.  ``none`` transmits u = 0
    exactly and has no loop.

    Run j is sweep point j with gain ``betas[j]``, and its n_RS, bits and
    n_T generators are ``rs[j]``, ``bits[j]`` and ``t[j]``; the caller
    draws the bits.  Every kind sees the same noise, so the kinds are
    paired.  n_RS is drawn only at ``cols``, the columns that the loops
    read: ``designed`` and ``perfect`` close the same K with W = I, so they
    read the same ones.  Per chunk, a run draws (periods, cols.size)
    normals, which is 2 per period with F = I, all 2N with a dynamic F and
    none when only ``none`` runs, and tx is added at those columns only.  A
    run's n_T is (n, 2) normals.  Chunked draws equal whole ones.  Each
    kernel and loop state ``X[kind]`` lives as long as the batch.
    """

    def __init__(self, cfg: SimConfig, kinds, betas):
        self.kinds = list(kinds)
        if not self.kinds:
            raise ConfigError("at least one canceler kind is required")
        for kind in self.kinds:
            if kind not in CANCELER_KINDS:
                raise ConfigError(f"canceler must be one of {CANCELER_KINDS}, got {kind!r}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"canceler kinds must be distinct, got {self.kinds}")
        self.kernels = {kind: _PeriodKernel(_period_maps(cfg, kind))
                        for kind in self.kinds if kind != "none"}
        self.X = {kind: np.zeros((k.n_states, len(betas))) for kind, k in self.kernels.items()}
        self.cols = next((k.cols for k in self.kernels.values()), np.zeros(0, dtype=np.intp))
        self.N = cfg.params.fsfh_ratio
        self.scale = np.array([beta * cfg.relay_gain for beta in betas])
        self.sigma_rs, self.sigma_t = cfg.sigma_rs, cfg.sigma_t
        self.rs, self.bits, self.t = zip(*(point_streams(cfg.seed, i) for i in range(len(betas))))

    def advance(self, tx: np.ndarray):
        """Yield (kind, u, y_T) for the next fast samples tx, shaped (n, 2, P).

        u is run by row, (n / N, P, 2N) with u[k, p] run p's samples of
        period k; y_T is (n, 2, P), and its reader checks it for overflow.
        Kinds are computed one at a time, as the caller consumes them, so
        only one kind's outputs are alive at once.
        """
        n, _, P = tx.shape
        T, N = n // self.N, self.N
        # Run-major: each run's draws are contiguous, so drawing into them
        # consumes its streams exactly as whole draws do.
        rs, n_t = np.empty((P, T, self.cols.size)), np.empty((P, n, 2))
        for j in range(P):
            self.rs[j].standard_normal(out=rs[j])
            self.t[j].standard_normal(out=n_t[j])
        rs *= self.sigma_rs
        rs += tx.reshape(T, 2 * N, P)[:, self.cols].transpose(2, 0, 1)
        n_t *= self.sigma_t
        n_t = n_t.transpose(1, 2, 0)  # (n, 2, P)
        W = rs.transpose(1, 0, 2)  # (T, P, cols.size)
        for kind in self.kinds:
            if kind not in self.kernels:
                yield kind, np.zeros((T, P, 2 * N)), n_t
                continue
            u = _advance(self.kernels[kind], self.X[kind], W)
            y_t = np.empty(tx.shape)
            with np.errstate(**_DIVERGENCE):
                np.multiply(u.reshape(T, P, N, 2).transpose(0, 2, 3, 1), self.scale,
                            out=y_t.reshape(T, N, 2, P))
                y_t += n_t
            yield kind, u, y_t

    def pilot(self, kind: str, tx: np.ndarray) -> np.ndarray:
        """Noise-free y_T of a kind's first run, from rest, for fast samples tx (n, 2)."""
        if kind not in self.kernels:
            return np.zeros_like(tx)
        kernel = self.kernels[kind]
        W = tx.reshape(-1, 2 * self.N)[:, None, kernel.cols]
        u = _advance(kernel, np.zeros((kernel.n_states, 1)), W)
        with np.errstate(**_DIVERGENCE):
            return _terminal(self.scale[0] * u.reshape(tx.shape))


def simulate_chain(cfg: SimConfig, tx, kind: str, beta: float) -> SimOutput:
    """Run the relay chain with canceler ``kind`` on fast-rate I/Q samples tx (n, 2).

    Each output is (n, 2) like tx: ``z`` is the cancelation error tx - u
    against the noise-free incoming signal; ``y_T`` is the terminal-side
    received waveform beta * g * u + n_T with g the relay amplitude gain.
    This is the one-run case of the batched engine the BER sweeps use, at
    sweep point 0 of ``cfg.seed``.
    """
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    if not np.isfinite(beta):
        raise ConfigError("beta must be finite")
    tx = _iq_samples(tx)
    N, n_fast = cfg.params.fsfh_ratio, tx.shape[0]
    if n_fast % N != 0:
        raise ConfigError(f"waveform length {n_fast} is not a multiple of the FSFH ratio {N}")
    batch = _ChainBatch(cfg, [kind], [beta])
    ((_, u, y_t),) = batch.advance(tx[:, :, None])
    u = u.reshape(n_fast, 2)
    return SimOutput(y_T=_terminal(y_t[:, :, 0]), u=u, z=tx - u)


def write_waveform_csv(path, cfg: SimConfig, tx: np.ndarray, out: SimOutput) -> None:
    """Dump a run as RFC-4180 CSV: t, v, u, z, yT with I/Q columns."""
    import csv

    n = tx.shape[0]
    t = np.arange(n) / (cfg.sps / cfg.symbol_period)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["t", "v_i", "v_q", "u_i", "u_q", "z_i", "z_q", "yT_i", "yT_q"])
        for i in range(n):
            writer.writerow(
                [f"{t[i]:.9g}"]
                + [f"{v:.12g}" for v in (*tx[i], *out.u[i], *out.z[i], *out.y_T[i])]
            )
