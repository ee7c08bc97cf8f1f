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

:func:`simulate_chain` runs the loop over a whole waveform and forms u
sample by sample for ``waveform.csv``.  :class:`_ChainBatch` runs the BER
sweeps block by block, every beta point of every kind as a run, and is
the one gate of a run: it checks the kinds, builds and checks the loops,
and makes the streams.  Both run the loop as a :class:`_MarkovStack` of K
systems, which maps a run of any length, up to ``_CHUNK_SYMBOLS`` steps at
a time, to the runs' outputs and next states: their inputs times a slice
of one matrix, plus their states' share.  Each reads only the samples of w
that reach the loop (with F = I, the one sampled I/Q pair per period).

A sweep reads u only through its decision windows, which start
``_CHAIN_ALIGN`` = 1 fast sample after each symbol edge, one after the hold
update.  A symbol is m = sps / N whole slow periods, so one symbol of the
loop is a linear time-invariant system at the symbol rate, whose state
carries the window that the symbol leaves open and whose output closes the
previous one (:class:`_SymbolStack`).  One stack of it for all kinds maps
every block and the pilot to the runs' window sums and next states, so
the sweep never forms u or y_T sample by sample.

Random streams
--------------
:func:`point_streams` is the one owner of the stream keys: stream k of
sweep point i has Philox key (seed, 3 i + k), where k = 0 is the noise n_RS
at the relay, 1 the bits and 2 the noise n_T at the terminal.  A batch
makes each point's three generators once, and :func:`simulate_chain` is
point 0.  n_RS is drawn only at the samples of w that a loop reads, as
(periods, columns) normals, since no other sample can reach u, y_T or a
decision.  n_T is drawn per decision window, since a decision reads only
its window's sum: each window but the last is sqrt(sps) sigma_t times 2
normals, then come the last window's sps - 1 samples, then sample 0, which
falls before the first window.  :func:`_terminal_noise` spreads a window's
sum over its samples for ``waveform.csv``.

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
from functools import cached_property
from numbers import Integral

import numpy as np

from .hnorm import require_stable
from .lifting import _lift, closed_loop
from .lti import StateSpace
from .plant import RelayParams, identity_filter
from .synthesis import DigitalController

__all__ = [
    "CANCELER_KINDS",
    "SimConfig",
    "SimOutput",
    "noise_amplitude",
    "point_streams",
    "simulate_chain",
    "write_waveform_csv",
]

CANCELER_KINDS = ("none", "designed", "perfect")


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
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be at least 1")
        if not 0 < self.symbol_period < math.inf:
            raise ValueError("symbol_period must be positive and finite")
        for name in ("relay_gain_db", "signal_dbm"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("noise_rs_dbm", "noise_t_dbm"):
            if np.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
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
                raise ValueError(f"{name} = {getattr(self, name)} overflows its linear factor")

    @property
    def sps(self) -> int:
        """Fast samples per symbol: N per slow period of the relay timing."""
        h, N = self.params.sampling_period, self.params.fsfh_ratio
        periods = self.symbol_period / h
        if not 0.5 < periods < math.inf or abs(periods - round(periods)) > 1e-9:
            raise ValueError(f"symbol period {self.symbol_period} must be an integer "
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


def _period_maps(cfg: SimConfig, kinds) -> list:
    """One slow period of the relay loop closed by the controller for each of
    ``kinds`` (``designed`` or ``perfect``): lifted w -> lifted e.

    Input per period: the N fast samples of w = tx + n_RS (2 each); output:
    the N fast samples of the error e = w - u.  This is where a missing
    controller is found and where an unstable loop is refused, before any
    noise is drawn; :func:`lifting.closed_loop` checks the controller's
    shape and step.
    """
    if cfg.controller is None:
        raise ValueError(f"canceler={kinds[0]!r} requires a controller")
    prm = replace(cfg.params, input_shaping=identity_filter())
    gains = [0.0 if kind == "perfect" else prm.coupling_gain for kind in kinds]
    loops = [closed_loop(lifted, cfg.controller.K) for lifted in _lift(prm, gains)]
    for kind, loop in zip(kinds, loops):
        require_stable(loop.A, f"{kind} loop")
    return loops


def point_streams(seed: int, point: int) -> tuple:
    """(n_RS, bits, n_T): the generators of sweep point ``point``.

    Stream k has Philox key (seed, 3 point + k).  Distinct (seed, point, k)
    triples get distinct keys, so sweeps with different base seeds share no
    stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
    SC 2011).
    """
    return tuple(np.random.Generator(np.random.Philox(
        key=np.array([seed, 3 * point + k], dtype=np.uint64))) for k in range(3))


# A stable loop can still overflow a float at a large enough scale; the
# receiver (:func:`ber._decide`) or :func:`simulate_chain` reports it.
_DIVERGENCE = dict(over="ignore", invalid="ignore")
# The relay receiver's windows start this many fast samples after a symbol
# edge: one after the hold update, so each window sees its own symbol.
_CHAIN_ALIGN = 1
# Steps of a Markov stack's map: a run of any length is computed in chunks
# of this many symbols, or of up to this many slow periods (:func:`_relay_output`).
_CHUNK_SYMBOLS = 32
# A sweep's blocks are as many whole chunks, at least one, as keep the runs'
# w within _BLOCK_BUDGET numbers: 512 symbols for 12 points at m = 2, F = I.
_BLOCK_BUDGET = 3 * 2 ** 13


class _PeriodKernel:
    """The period maps x <- A x + B w, e = C x + D w of K closed loops of one
    size on a leading axis, run as rows.

    u = w - e = -C x + (I - D) w, so w enters only through the columns of
    [B; I - D] not exactly zero in some loop (``cols``): the sampler's I/Q
    pair at the period's first fast instant when the antialias filter is I,
    all 2N once it has state.  Matrices are stored transposed, each
    (K, ., .): ``AT`` = A^T, ``BT`` = B[:, cols]^T and ``H`` =
    [-C, (I - D)[:, cols]]^T, so a row [x, w[cols]] times ``H[k]`` is loop
    k's u of the period.
    """

    def __init__(self, *loops: StateSpace):
        n = self.n_states = loops[0].n_states
        BG = np.stack([np.vstack([loop.B, np.eye(loop.n_outputs) - loop.D]) for loop in loops])
        self.cols = np.flatnonzero(np.any(BG != 0.0, axis=(0, 1)))
        self.AT = np.stack([loop.A.T for loop in loops])
        self.BT = BG[:, :n, self.cols].transpose(0, 2, 1)
        self.H = np.stack([np.hstack([-loop.C, g[n:, self.cols]]).T for loop, g in zip(loops, BG)])


def _image(G: np.ndarray) -> tuple:
    """(image, rows) for inputs w[cols] that enter K systems through the rows
    G (K, cols, width): each system's map (K, cols, L) of w[cols] to the L
    entries of w G not exactly zero in some system, in C order, which rounds
    w @ image alike for any rows of w, and their rows; else (None, G)."""
    live = np.flatnonzero(np.any(G != 0.0, axis=(0, 1)))
    if live.size < G.shape[1]:
        rows = np.eye(G.shape[2])[live]
        return np.ascontiguousarray(G[:, :, live]), np.broadcast_to(rows, (G.shape[0], *rows.shape))
    return None, G


class _MarkovStack:
    """K systems s <- s A + v B, y = s C + v D of one size on a leading
    axis, run as rows over any number of steps, c = ``chunk`` at a time.

    ``M[k]`` maps [s, v_0 .. v_c-1] to [y_0 .. y_c-1, s_c] for system k:
    its state rows are A^j C, j < c, and A^c; v_i's rows hold D at y_i,
    B A^(j-1-i) C at each later y_j and B A^(c-1-i) at s_c.  A run walks
    its steps in chunks of c; a short last chunk of S steps reads M's
    trailing S steps of input rows, and A^j C, j < S, and A^S as state
    rows, so every length is a slice of the one build.  numpy's stacked
    products make one product per system, so each system's numbers equal
    those of a stack of that system alone, to the bit.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray, chunk: int):
        (K, ns, _), r, p, c = A.shape, B.shape[1], C.shape[2], chunk
        self.n_states, self.rows, self.width, self.chunk = ns, r, p, c
        # The Markov stack: A^j for j <= c, and A^j C and B A^j for j < c.
        self.powers = [np.broadcast_to(np.eye(ns), A.shape)]
        for _ in range(c):
            self.powers.append(self.powers[-1] @ A)
        Ak = np.stack(self.powers[:c], axis=1)
        BA = B[:, None] @ Ak
        # An input's share of y d steps on, for d < c, as rows (K, r, p c).
        later = np.concatenate([D[:, None], BA[:, :c - 1] @ C[:, None]], axis=1)
        later = later.transpose(0, 2, 1, 3).reshape(K, r, p * c)
        M = self.M = np.zeros((K, ns + c * r, p * c + ns))
        M[:, :ns, :p * c] = (Ak @ C[:, None]).transpose(0, 2, 1, 3).reshape(K, ns, -1)
        M[:, :ns, p * c:] = self.powers[c]
        inputs = M[:, ns:].reshape(K, c, r, p * c + ns)
        for i in range(c):
            inputs[:, i, :, p * i: p * c] = later[..., :p * (c - i)]
        inputs[..., p * c:] = BA[:, ::-1]

    def run(self, V: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Outputs y (K, P, S, width) of P runs of each system over any S steps,
        unchecked, for inputs V (P, S, rows), or (K, P, S, rows), and states s
        (K, P, n_states), advanced in place.  Each chunk of ``chunk`` steps,
        and a short last one, is its own product, so splitting a run at chunk
        edges changes no bit."""
        (P, S, r), ns, p, c = V.shape[-3:], self.n_states, self.width, self.chunk
        V, Y = V.reshape(*V.shape[:-2], S * r), np.empty((self.M.shape[0], P, S * p))
        state, inputs = self.M[:, :ns], self.M[:, ns:]
        for k in range(0, S, c):
            n = min(c, S - k)
            if n < c:
                state = np.concatenate([self.M[:, :ns, :p * n], self.powers[n]], axis=2)
                inputs = self.M[:, ns + (c - n) * r:, p * (c - n):]
            out = V[..., r * k:r * (k + n)] @ inputs
            out += s @ state
            s[...] = out[..., p * n:]
            Y[..., p * k:p * (k + n)] = out[..., :p * n]
        return Y.reshape(-1, P, S, p)


def _relay_output(kernel: _PeriodKernel, W: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The relay output u (P, T, 2N) of P runs of a one-loop kernel over T slow
    periods, unchecked, for their w at the kernel's columns W (P, T, cols.size)
    and their loop states s (P, n_x), advanced in place.  The period loop runs
    as a one-system :class:`_MarkovStack` whose outputs (C = I, D = 0) are
    the states x_k at the periods' starts and whose input is w or its
    :func:`_image` (2 a period at every N for F = 100/(s+100)), in chunks of
    min(32, T) periods; then u = [x_k, w_k] ``kernel.H``.
    """
    n, c = kernel.n_states, min(_CHUNK_SYMBOLS, W.shape[1])
    image, B = _image(kernel.BT)
    stack = _MarkovStack(kernel.AT, B, np.eye(n)[None], np.zeros((1, B.shape[1], n)), c)
    X = stack.run(W if image is None else W @ image[:, None], s[None])[0]
    return np.concatenate([X, W], axis=2) @ kernel.H[0]


class _SymbolStack(_MarkovStack):
    """One symbol, m slow periods, of each loop of a kernel as a system at the
    symbol rate, and its map of a chunk of ``_CHUNK_SYMBOLS`` symbols.

    A run's state s = (x, r, l), n + 4 numbers, is the loop state x at the
    symbol edge, the sum r so far of the window the symbol leaves open (the
    "rest" after the first ``_CHAIN_ALIGN`` samples of each of its periods,
    plus the "heads" of its periods 1 .. m - 1) and its last sample l.  Its
    input V is its m periods of w at the kernel's columns or, where
    narrower, their :func:`_image` through B and the feedthrough's head,
    rest and last sample: 2 a period at every N for F = 100/(s+100).  As
    rows, s <- s A + V B, and y = s C + V D, r plus the head of the symbol's
    first period, closes the previous symbol's window; r + ``_CHAIN_ALIGN``
    l closes a stream's last one.  This is the lifting of Chen and Francis
    ("Optimal Sampled-Data Control Systems", 1995) at the symbol rate, run
    as a :class:`_MarkovStack`.
    """

    def __init__(self, kernel: _PeriodKernel, m: int):
        (K, n, _), a, N = kernel.AT.shape, _CHAIN_ALIGN, kernel.H.shape[2] // 2
        H = kernel.H.reshape(K, -1, N, 2)
        # A period's rows x and w map to the next x and to u's head, rest and last sample.
        G = np.concatenate([np.concatenate([kernel.AT, kernel.BT], axis=1), H[:, :, :a].sum(axis=2),
                            H[:, :, a:].sum(axis=2), H[:, :, N - 1]], axis=2)
        self.image, rows = _image(G[:, n:])
        G = np.concatenate([G[:, :n], rows], axis=1)
        q, ns = G.shape[1] - n, n + 4
        # The symbol from its last period back: Q maps period i's x to its
        # share of (x', r', l'), and B[:, i] does so for period i's input.
        Q, B = np.eye(n, ns), np.empty((K, m, q, ns))
        for i in reversed(range(m)):
            R = G[..., :n] @ Q
            R[..., n:n + 2] += G[..., n + 2:n + 4] + G[..., n:n + 2] * (i > 0)
            R[..., n + 2:] += G[..., n + 4:] * (i == m - 1)
            Q, B[:, i] = R[:, :n], R[:, n:]
        A, C, D = np.zeros((K, ns, ns)), np.zeros((K, ns, 2)), np.zeros((K, m * q, 2))
        A[:, :n], C[:, :n], C[:, n:n + 2] = Q, G[:, :n, n:n + 2], np.eye(2)
        D[:, :q] = G[:, n:, n:n + 2]
        super().__init__(A, B.reshape(K, m * q, ns), C, D, _CHUNK_SYMBOLS)

    def run(self, W: np.ndarray, s: np.ndarray, final: bool) -> np.ndarray:
        """Outputs y (K, S + final, P, 2) of P runs of each loop over S symbols,
        unchecked, for their w at the kernel's columns W (P, S m, cols.size)
        and states s (K, P, n + 4), advanced in place; a ``final`` y ends
        with the last window."""
        if self.image is not None:
            W = W @ self.image[:, None]
        y = super().run(W.reshape(*W.shape[:-2], -1, self.rows), s).transpose(0, 2, 1, 3)
        if final:  # the stream's end repeats its last sample
            y = np.concatenate([y, (s[..., -4:-2] + _CHAIN_ALIGN * s[..., -2:])[:, None]], axis=1)
        return y


def _terminal_noise(rng: np.random.Generator, sigma_t: float, n: int, sps: int) -> np.ndarray:
    """One run's n_T at n fast samples, (n, 2), from its n_T generator ``rng``.

    The stream is laid out as :meth:`_ChainBatch.advance` draws it: first
    the sum S of each whole window before the one that holds the last
    sample, as sqrt(sps) sigma_t times 2 normals; then each later sample;
    then the ``_CHAIN_ALIGN`` samples before the first window, each sigma_t
    times 2 normals.  Inside a window the samples are S / sps + (g - mean(g)),
    with g sigma_t times normals of ``Philox(key).jumped()`` for the
    stream's key: they sum to S and are iid N(0, sigma_t^2), like every
    other sample.
    """
    head, windows = _CHAIN_ALIGN, max(n - _CHAIN_ALIGN - 1, 0) // sps
    g = np.random.Generator(rng.bit_generator.jumped()).standard_normal((windows, sps, 2))
    S = rng.standard_normal((windows, 2)) * (math.sqrt(sps) * sigma_t)
    n_t = np.empty((n, 2))
    rng.standard_normal(out=n_t[head + windows * sps:])
    rng.standard_normal(out=n_t[:head])
    n_t[head + windows * sps:] *= sigma_t
    n_t[:head] *= sigma_t
    g *= sigma_t
    g -= g.mean(axis=1, keepdims=True)
    g += S[:, None] / sps
    n_t[head: head + windows * sps] = g.reshape(-1, 2)
    return n_t


class _ChainBatch:
    """P runs of the relay chain for each canceler kind, fed block by block.

    This is the one gate of a run.  It checks the kinds (at least one, each
    in :data:`CANCELER_KINDS`, none repeated), the betas (at least one, each
    finite and nonnegative) and that a symbol holds more than the
    ``_CHAIN_ALIGN`` samples before its decision window, then builds and
    checks the loops of the kinds that run a controller, and only then
    makes the streams, so a refused run draws nothing.  ``none`` transmits
    u = 0 exactly and has no loop.

    Run j is sweep point j with gain ``betas[j]``, and its n_RS, bits and
    n_T generators are ``rs[j]``, ``bits[j]`` and ``t[j]``; the caller
    draws the bits.  Every kind sees the same noise, so the kinds are
    paired.  n_RS is drawn only at ``cols``, the columns that the loops
    read: ``designed`` and ``perfect`` close the same K with W = I, so they
    read the same ones.  Per block, a run draws (periods, cols.size)
    normals, which is 2 per period with F = I, all 2N with a dynamic F and
    none when only ``none`` runs, and its BPSK tx is formed at those
    columns only, from its bits (:meth:`bpsk`).  A run's n_T is drawn per
    window, as :func:`_terminal_noise` lays it out.  A block of ``block``
    symbols is as many chunks as keep the runs' w, P 32 m cols.size numbers
    a chunk, within ``_BLOCK_BUDGET``, and at least one.  Blocked
    draws equal whole ones and a stack computes each chunk alike in any
    block, so the block sets a sweep's cost, never its numbers.  The
    ``controlled`` kinds run as one system: one :class:`_PeriodKernel`
    ``kernel``, one :class:`_SymbolStack` ``stack`` and one state array
    ``X`` (K, P, n_x + 4) of (x, r, l) live as long as the batch.
    """

    def __init__(self, cfg: SimConfig, kinds, betas):
        self.kinds = list(kinds)
        if not self.kinds:
            raise ValueError("at least one canceler kind is required")
        for kind in self.kinds:
            if kind not in CANCELER_KINDS:
                raise ValueError(f"canceler must be one of {CANCELER_KINDS}, got {kind!r}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ValueError(f"canceler kinds must be distinct, got {self.kinds}")
        if len(betas) == 0:
            raise ValueError("beta grid must be nonempty")
        if any(beta < 0 for beta in betas):
            raise ValueError(f"beta values must be nonnegative, got {list(betas)}")
        if not all(math.isfinite(beta) for beta in betas):
            raise ValueError(f"beta values must be finite, got {list(betas)}")
        self.sps = cfg.sps
        self.m = self.sps // cfg.params.fsfh_ratio
        if self.sps <= _CHAIN_ALIGN:
            raise ValueError(f"the relay receiver's windows start {_CHAIN_ALIGN} fast sample(s) "
                             f"after a symbol edge, so a symbol needs more than that, got {self.sps}")
        self.controlled = [kind for kind in self.kinds if kind != "none"]
        self.kernel, self.X, self.cols = None, None, np.zeros(0, dtype=np.intp)
        if self.controlled:
            self.kernel = _PeriodKernel(*_period_maps(cfg, self.controlled))
            self.cols = self.kernel.cols
            self.X = np.zeros((len(self.controlled), len(betas), self.kernel.n_states + 4))
        chunk = len(betas) * _CHUNK_SYMBOLS * self.m * max(self.cols.size, 1)
        self.block = _CHUNK_SYMBOLS * max(1, _BLOCK_BUDGET // chunk)
        self.amp = cfg.signal_amplitude
        self.scale = np.array([beta * cfg.relay_gain for beta in betas])
        self.sigma_rs, self.sigma_t = cfg.sigma_rs, cfg.sigma_t
        self.n_symbols, self.symbols_done = cfg.n_symbols, 0
        self.rs, self.bits, self.t = zip(*(point_streams(cfg.seed, i) for i in range(len(betas))))

    def loop_inputs(self, tx: np.ndarray) -> np.ndarray:
        """W (P, periods, cols.size), run-major: w = tx + n_RS at the columns
        the loops read, for the runs' tx at those columns, tx of that shape."""
        # Each run's draws are contiguous, so drawing into them consumes
        # its streams exactly as whole draws do.
        W = np.empty(tx.shape)
        for j in range(tx.shape[0]):
            self.rs[j].standard_normal(out=W[j])
        W *= self.sigma_rs
        W += tx
        return W

    def bpsk(self, bits: np.ndarray) -> np.ndarray:
        """The runs' BPSK tx at the columns the loops read, (P, periods,
        cols.size), for bits (symbols, P): amp (2 b - 1) at the I columns and
        0 at the Q ones, in every period of the bit's symbol."""
        tx = np.zeros((bits.shape[1], bits.shape[0] * self.m, self.cols.size))
        tx[:, :, self.cols % 2 == 0] = np.repeat(
            self.amp * (2.0 * bits.T - 1.0), self.m, axis=1)[:, :, None]
        return tx

    @cached_property
    def stack(self) -> _SymbolStack:
        """The controlled kinds' one :class:`_SymbolStack`, built on first use:
        :func:`simulate_chain` runs the period loop's stack and builds none."""
        with np.errstate(**_DIVERGENCE):
            return _SymbolStack(self.kernel, self.m)

    def advance(self, bits: np.ndarray):
        """Yield (kind, y) for the next whole symbols of the sweep, with bits (n, P).

        y (windows, P, 2) is, for each decision window that the symbols
        complete, the statistic scale Sum u + Sum n_T that the receiver
        projects.  The controlled kinds' sums of u are one run of the batch's
        :class:`_SymbolStack`: symbol k's output closes window k - 1, so a
        run drops the output of its first symbol, whose sample 0 is in no
        window, and its ``cfg.n_symbols``-th symbol closes the final window
        too.  Its reader checks y for overflow.
        """
        (symbols, P), a = bits.shape, _CHAIN_ALIGN
        first = self.symbols_done == 0
        self.symbols_done += symbols
        final = self.symbols_done == self.n_symbols
        W = self.loop_inputs(self.bpsk(bits))
        inner = symbols - first
        n_t = np.empty((P, inner + final, 2))
        for j in range(P):
            self.t[j].standard_normal(out=n_t[j, :inner])
            if final:
                last = self.t[j].standard_normal((self.sps - a, 2))
                n_t[j, inner] = last.sum(axis=0) + a * last[-1]
        n_t[:, :inner] *= math.sqrt(self.sps) * self.sigma_t
        n_t[:, inner:] *= self.sigma_t
        n_t = n_t.transpose(1, 0, 2)
        stats = {}
        if self.controlled:
            with np.errstate(**_DIVERGENCE):
                y = self.stack.run(W, self.X, final)[:, first:]
                y *= self.scale[:, None]
                y += n_t
            stats = dict(zip(self.controlled, y))
        for kind in self.kinds:
            yield kind, stats.get(kind, n_t)

    def pilot(self, bits: np.ndarray) -> dict:
        """kind -> the last decision window's sum (2,) of its noise-free relay
        output u, from rest, for the BPSK of bits (n,): one run of the
        stack for every controlled kind; 0 for ``none``."""
        sums = {}
        if self.controlled:
            s = np.zeros((len(self.controlled), 1, self.stack.n_states))
            with np.errstate(**_DIVERGENCE):
                sums = dict(zip(self.controlled,
                                self.stack.run(self.bpsk(bits[:, None]), s, True)[:, -1, 0]))
        return {kind: sums.get(kind, np.zeros(2)) for kind in self.kinds}


def simulate_chain(cfg: SimConfig, tx, kind: str, beta: float) -> SimOutput:
    """Run the relay chain with canceler ``kind`` on fast-rate I/Q samples tx (n, 2).

    Each output is (n, 2) like tx: ``z`` is the cancelation error tx - u
    against the noise-free incoming signal; ``y_T`` is the terminal-side
    received waveform beta * g * u + n_T with g the relay amplitude gain,
    and every sample of it is finite.  This is the one-run case of the
    batched engine the BER sweeps use, at sweep point 0 of ``cfg.seed``:
    the receiver's windows of y_T hold the statistics that a one-beta
    sweep of the same symbols decides on.
    """
    tx = _iq_samples(tx)
    N, n_fast = cfg.params.fsfh_ratio, tx.shape[0]
    if n_fast % N != 0:
        raise ValueError(f"waveform length {n_fast} is not a multiple of the FSFH ratio {N}")
    batch = _ChainBatch(cfg, [kind], [beta])
    W = batch.loop_inputs(tx.reshape(1, n_fast // N, 2 * N)[:, :, batch.cols])
    n_t = _terminal_noise(batch.t[0], batch.sigma_t, n_fast, batch.sps)
    if kind == "none":
        u, y_t = np.zeros_like(tx), n_t
    else:
        kernel = batch.kernel
        with np.errstate(**_DIVERGENCE):
            u = _relay_output(kernel, W, np.zeros((1, kernel.n_states))).reshape(n_fast, 2)
            y_t = batch.scale[0] * u + n_t
    if not np.isfinite(y_t).all():
        raise FloatingPointError("terminal waveform overflows a float")
    return SimOutput(y_T=y_t, u=u, z=tx - u)


def write_waveform_csv(path, cfg: SimConfig, tx: np.ndarray, out: SimOutput) -> None:
    """Dump a run as RFC-4180 CSV: t, v, u, z, yT with I/Q columns.

    No field needs quoting: each is a header name or a number in %g form."""
    t = np.arange(tx.shape[0]) / (cfg.sps / cfg.symbol_period)
    row = "%.9g," + ",".join(["%.12g"] * 8) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("t,v_i,v_q,u_i,u_q,z_i,z_q,yT_i,yT_q\r\n")
        fh.writelines(row % tuple(r) for r in
                      np.column_stack([t, tx, out.u, out.z, out.y_T]).tolist())
